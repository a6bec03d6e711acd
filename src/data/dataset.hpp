// Datasets for OmniFed-C++. The paper evaluates on CIFAR10/CIFAR100/
// Caltech101/Caltech256; this repo substitutes deterministic synthetic
// Gaussian-mixture classification tasks with matching class counts and an
// increasing-difficulty ordering (see DESIGN.md §1). Real image corpora
// cannot ship inside this repo, and their role in the evaluation is only
// "four tasks of different class counts / difficulty".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace of::data {

using tensor::Rng;
using tensor::Tensor;

struct Batch {
  Tensor x;                    // (batch, dim)
  std::vector<std::size_t> y;  // labels
  std::size_t size() const noexcept { return y.size(); }
};

// Materialized dataset: features matrix + labels.
class InMemoryDataset {
 public:
  InMemoryDataset() = default;
  InMemoryDataset(Tensor x, std::vector<std::size_t> y, std::size_t num_classes);

  std::size_t size() const noexcept { return y_.size(); }
  std::size_t dim() const { return x_.size(1); }
  std::size_t num_classes() const noexcept { return num_classes_; }
  const Tensor& x() const noexcept { return x_; }
  const std::vector<std::size_t>& labels() const noexcept { return y_; }
  std::size_t label(std::size_t i) const { return y_.at(i); }

  // Materialize the rows at `indices` as one batch.
  Batch gather(const std::vector<std::size_t>& indices) const;
  // The same into `out`, reusing its storage (no allocation once it has
  // held a batch this large).
  void gather_into(const std::size_t* indices, std::size_t n, Batch& out) const;
  // The whole dataset as a single batch (used for test evaluation).
  Batch all() const;

 private:
  Tensor x_;
  std::vector<std::size_t> y_;
  std::size_t num_classes_ = 0;
};

// Parameters of a synthetic Gaussian-mixture classification task.
struct DatasetSpec {
  std::string name;
  std::size_t classes = 10;
  std::size_t dim = 64;
  std::size_t train_per_class = 100;
  std::size_t test_per_class = 25;
  // Distance scale between class means; lower = harder task.
  float separation = 3.0f;
  float label_noise = 0.0f;  // fraction of flipped training labels
};

struct TrainTest {
  InMemoryDataset train;
  InMemoryDataset test;
};

// Named presets standing in for the paper's four datasets.
// cifar10_like (10 classes, easy) → caltech256_like (257 classes, hard).
DatasetSpec preset(const std::string& name);
std::vector<std::string> preset_names();

// Deterministic synthesis: same spec + seed → identical dataset.
TrainTest make_synthetic(const DatasetSpec& spec, std::uint64_t seed);

}  // namespace of::data
