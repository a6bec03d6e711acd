// Mini-batch loader over a client's index subset of a shared dataset.
// Shuffles per epoch with its own RNG stream so federated runs stay
// reproducible per (seed, client).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace of::data {

class DataLoader {
 public:
  DataLoader(const InMemoryDataset& dataset, std::vector<std::size_t> indices,
             std::size_t batch_size, bool shuffle, std::uint64_t seed);

  // Loader over the full dataset.
  DataLoader(const InMemoryDataset& dataset, std::size_t batch_size, bool shuffle,
             std::uint64_t seed);

  std::size_t size() const noexcept { return indices_.size(); }
  std::size_t batch_size() const noexcept { return batch_size_; }
  std::size_t num_batches() const noexcept;

  // Materialize batch `i` of the current epoch ordering.
  Batch batch(std::size_t i) const;
  // The same into `out`, reusing its storage across steps.
  void batch_into(std::size_t i, Batch& out) const;
  // Re-shuffle for the next epoch (no-op when shuffle=false).
  void reshuffle();

 private:
  const InMemoryDataset* dataset_;
  std::vector<std::size_t> indices_;
  std::size_t batch_size_;
  bool shuffle_;
  Rng rng_;
};

}  // namespace of::data
