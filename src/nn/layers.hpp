// Concrete layers: Linear, activations, BatchNorm1d, Dropout, residual MLP
// block. Each implements the exact backward formula for its forward pass.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace of::nn {

// Fully connected layer: y = x·W + b, W of shape (in, out).
class Linear final : public Module {
 public:
  Linear(std::size_t in, std::size_t out, Rng& rng, std::string label = "linear");

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return "Linear"; }

  Parameter& weight() noexcept { return weight_; }
  Parameter& bias() noexcept { return bias_; }
  // Mark this layer as a classification head (FedPer keeps it local).
  void mark_head() noexcept { weight_.is_head = bias_.is_head = true; }

 private:
  Parameter weight_;
  Parameter bias_;
  Tensor input_;  // forward input, kept for dW
  Tensor out_;    // forward output
  Tensor dx_;     // backward output
};

class ReLU final : public Module {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }

 private:
  // The output doubles as the backward mask: out ≤ 0 exactly where x ≤ 0.
  Tensor out_;
  Tensor dx_;
};

class Tanh final : public Module {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor out_;
  Tensor dx_;
};

// HardSwish: x * relu6(x + 3) / 6 — MobileNetV3's activation.
class HardSwish final : public Module {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "HardSwish"; }

 private:
  Tensor input_;
  Tensor out_;
  Tensor dx_;
};

// 1-D batch normalization over the feature dimension.
// Training mode normalizes by batch statistics and updates running
// estimates; eval mode uses the running estimates. The affine gamma/beta
// are tagged `is_batchnorm` so FedBN can keep them local.
class BatchNorm1d final : public Module {
 public:
  BatchNorm1d(std::size_t features, float momentum = 0.1f, float eps = 1e-5f,
              std::string label = "bn");

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<Tensor*>& out) override;
  std::string name() const override { return "BatchNorm1d"; }

  const Tensor& running_mean() const noexcept { return running_mean_; }
  const Tensor& running_var() const noexcept { return running_var_; }

 private:
  std::size_t features_;
  float momentum_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;
  // Caches for backward.
  Tensor xhat_;
  Tensor inv_std_;  // per-feature 1/sqrt(var+eps)
  Tensor out_;
  Tensor dx_;
};

// Inverted dropout: scales by 1/(1-p) at train time so eval is identity.
// Owns its RNG (seeded at construction) so the layer's lifetime is
// self-contained and runs stay reproducible.
class Dropout final : public Module {
 public:
  Dropout(float p, std::uint64_t seed);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "Dropout"; }

 private:
  float p_;
  Rng rng_;
  Tensor mask_;
  Tensor out_;
  Tensor dx_;
};

// Residual MLP block: y = ReLU(x + F(x)) where
// F = Linear → BN → ReLU → Linear → BN. Width-preserving, so the skip is
// the identity. This is the architectural signature the "resnet18_mini"
// zoo model uses in place of conv residual blocks.
class ResidualBlock final : public Module {
 public:
  ResidualBlock(std::size_t dim, Rng& rng, std::string label = "res");

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<Tensor*>& out) override;
  void set_training(bool training) override;
  std::string name() const override { return "ResidualBlock"; }

 private:
  Sequential body_;
  // ReLU(x + F(x)); doubles as the backward mask like ReLU's output.
  Tensor out_;
  Tensor g_;   // grad_out masked by the ReLU
  Tensor dx_;
};

}  // namespace of::nn
