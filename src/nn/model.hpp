// Model: a Sequential body plus the bookkeeping FL algorithms need —
// flat parameter-vector views, a feature/head split (for FedPer & Moon),
// BatchNorm buffer access (for FedBN), and cloning (for Moon/Ditto, which
// keep frozen copies of previous/global models).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace of::nn {

class Model {
 public:
  Model() = default;
  // `feature_boundary` is the index of the first head module in `body`;
  // modules [0, feature_boundary) form the feature extractor.
  Model(std::unique_ptr<Sequential> body, std::size_t feature_boundary);

  Model(Model&&) noexcept = default;
  Model& operator=(Model&&) noexcept = default;

  bool valid() const noexcept { return body_ != nullptr; }

  // --- forward/backward -------------------------------------------------
  // Results are references into the modules' reused buffers (module.hpp):
  // valid until the next forward/backward on this model.
  const Tensor& forward(const Tensor& x);
  const Tensor& backward(const Tensor& grad_out);
  // Forward through the feature extractor only (modules before the head).
  const Tensor& features(const Tensor& x);
  // Backward through the feature extractor only; pairs with features().
  const Tensor& features_backward(const Tensor& grad_features);

  // --- parameters ---------------------------------------------------------
  const std::vector<Parameter*>& parameters();
  std::vector<Tensor> parameter_values();
  void set_parameter_values(const std::vector<Tensor>& values);
  // Non-parameter state (BatchNorm running statistics).
  const std::vector<Tensor*>& buffers();
  void zero_grad();
  std::size_t num_scalars();  // total trainable scalar count

  // Flat views over the whole parameter list — the unit that crosses the
  // wire in every communicator/compressor/privacy path.
  Tensor flat_parameters();
  void set_flat_parameters(const Tensor& flat);
  Tensor flat_gradients();
  void set_flat_gradients(const Tensor& flat);

  void set_training(bool training);

  // Architecture-preserving deep copy (parameters + buffers).
  Model clone() const;
  void set_maker(std::function<Model()> maker) { maker_ = std::move(maker); }

 private:
  std::unique_ptr<Sequential> body_;
  std::size_t feature_boundary_ = 0;
  std::vector<Parameter*> params_cache_;
  std::vector<Tensor*> buffers_cache_;
  bool caches_built_ = false;
  std::function<Model()> maker_;

  void build_caches();
};

// Factory signature used by the config Registry and by algorithms that
// need blank architecture copies.
using ModelFactory = std::function<Model(std::uint64_t seed)>;

}  // namespace of::nn
