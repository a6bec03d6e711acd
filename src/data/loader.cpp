#include "data/loader.hpp"

#include <numeric>

#include "common/check.hpp"

namespace of::data {

DataLoader::DataLoader(const InMemoryDataset& dataset, std::vector<std::size_t> indices,
                       std::size_t batch_size, bool shuffle, std::uint64_t seed)
    : dataset_(&dataset),
      indices_(std::move(indices)),
      batch_size_(batch_size),
      shuffle_(shuffle),
      rng_(seed) {
  OF_CHECK_MSG(batch_size_ >= 1, "batch size must be >= 1");
  OF_CHECK_MSG(!indices_.empty(), "DataLoader over empty index set");
  for (std::size_t i : indices_)
    OF_CHECK_MSG(i < dataset.size(), "loader index " << i << " out of range");
  if (shuffle_) reshuffle();
}

DataLoader::DataLoader(const InMemoryDataset& dataset, std::size_t batch_size, bool shuffle,
                       std::uint64_t seed)
    : DataLoader(dataset,
                 [&] {
                   std::vector<std::size_t> all(dataset.size());
                   std::iota(all.begin(), all.end(), 0);
                   return all;
                 }(),
                 batch_size, shuffle, seed) {}

std::size_t DataLoader::num_batches() const noexcept {
  return (indices_.size() + batch_size_ - 1) / batch_size_;
}

Batch DataLoader::batch(std::size_t i) const {
  Batch b;
  batch_into(i, b);
  return b;
}

void DataLoader::batch_into(std::size_t i, Batch& out) const {
  OF_CHECK_MSG(i < num_batches(), "batch index " << i << " out of range");
  const std::size_t begin = i * batch_size_;
  const std::size_t end = std::min(begin + batch_size_, indices_.size());
  dataset_->gather_into(indices_.data() + begin, end - begin, out);
}

void DataLoader::reshuffle() {
  if (!shuffle_) return;
  for (std::size_t i = indices_.size(); i > 1; --i)
    std::swap(indices_[i - 1], indices_[rng_.next_below(i)]);
}

}  // namespace of::data
