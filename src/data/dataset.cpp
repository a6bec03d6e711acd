#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace of::data {

InMemoryDataset::InMemoryDataset(Tensor x, std::vector<std::size_t> y, std::size_t num_classes)
    : x_(std::move(x)), y_(std::move(y)), num_classes_(num_classes) {
  OF_CHECK_MSG(x_.ndim() == 2, "dataset features must be 2-D, got " << x_.shape_string());
  OF_CHECK_MSG(x_.size(0) == y_.size(),
               "feature rows " << x_.size(0) << " vs labels " << y_.size());
  for (std::size_t label : y_)
    OF_CHECK_MSG(label < num_classes_, "label " << label << " >= classes " << num_classes_);
}

Batch InMemoryDataset::gather(const std::vector<std::size_t>& indices) const {
  Batch b;
  gather_into(indices.data(), indices.size(), b);
  return b;
}

void InMemoryDataset::gather_into(const std::size_t* indices, std::size_t n,
                                  Batch& out) const {
  out.x.resize_(n, dim());  // every row is copied below
  out.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = indices[i];
    OF_CHECK_MSG(idx < size(), "gather index " << idx << " out of range");
    std::copy_n(x_.data() + idx * dim(), dim(), out.x.data() + i * dim());
    out.y[i] = y_[idx];
  }
}

Batch InMemoryDataset::all() const {
  Batch b;
  b.x = x_;
  b.y = y_;
  return b;
}

DatasetSpec preset(const std::string& name) {
  // Sizes are tuned for single-CPU federated runs: large enough that
  // non-IID partitioning over 8–16 clients leaves meaningful shards,
  // small enough that a full Table-1 sweep finishes in minutes.
  if (name == "cifar10_like")
    return {.name = name, .classes = 10, .dim = 64, .train_per_class = 200,
            .test_per_class = 50, .separation = 6.0f, .label_noise = 0.0f};
  if (name == "cifar100_like")
    return {.name = name, .classes = 100, .dim = 64, .train_per_class = 50,
            .test_per_class = 10, .separation = 5.6f, .label_noise = 0.0f};
  if (name == "caltech101_like")
    return {.name = name, .classes = 101, .dim = 64, .train_per_class = 40,
            .test_per_class = 8, .separation = 5.8f, .label_noise = 0.0f};
  if (name == "caltech256_like")
    return {.name = name, .classes = 257, .dim = 64, .train_per_class = 24,
            .test_per_class = 4, .separation = 5.4f, .label_noise = 0.0f};
  if (name == "toy")
    return {.name = name, .classes = 4, .dim = 16, .train_per_class = 50,
            .test_per_class = 20, .separation = 4.0f, .label_noise = 0.0f};
  OF_CHECK_MSG(false, "unknown dataset preset '" << name << "'");
}

std::vector<std::string> preset_names() {
  return {"cifar10_like", "cifar100_like", "caltech101_like", "caltech256_like", "toy"};
}

namespace {

InMemoryDataset synth_split(const DatasetSpec& spec, const Tensor& means,
                            std::size_t per_class, float label_noise, Rng& rng) {
  const std::size_t n = spec.classes * per_class;
  Tensor x({n, spec.dim});
  std::vector<std::size_t> y(n);
  std::size_t row = 0;
  for (std::size_t c = 0; c < spec.classes; ++c) {
    for (std::size_t s = 0; s < per_class; ++s, ++row) {
      for (std::size_t d = 0; d < spec.dim; ++d)
        x(row, d) = means(c, d) + static_cast<float>(rng.gaussian());
      std::size_t label = c;
      if (label_noise > 0.0f && rng.bernoulli(label_noise))
        label = rng.next_below(spec.classes);
      y[row] = label;
    }
  }
  return InMemoryDataset(std::move(x), std::move(y), spec.classes);
}

}  // namespace

TrainTest make_synthetic(const DatasetSpec& spec, std::uint64_t seed) {
  OF_CHECK_MSG(spec.classes >= 2, "need at least 2 classes");
  OF_CHECK_MSG(spec.dim >= 1, "need at least 1 feature dim");
  Rng rng(seed ^ 0xA5A5A5A5DEADBEEFULL);
  // Class means on a Gaussian cloud with per-coordinate stddev chosen so
  // the expected distance between two means is ≈ `separation`, independent
  // of the feature dimension (‖m_i−m_j‖ ≈ σ·sqrt(2·dim)).
  const float sigma = spec.separation / std::sqrt(2.0f * static_cast<float>(spec.dim));
  Tensor means = Tensor::randn({spec.classes, spec.dim}, rng, 0.0f, sigma);
  TrainTest tt;
  tt.train = synth_split(spec, means, spec.train_per_class, spec.label_noise, rng);
  tt.test = synth_split(spec, means, spec.test_per_class, 0.0f, rng);
  return tt;
}

}  // namespace of::data
