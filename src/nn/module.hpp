// Neural-network module abstraction — the libtorch stand-in for OmniFed-C++.
//
// Modules own Parameters (value + grad), cache whatever the backward pass
// needs during forward, and propagate gradients by hand-derived formulas.
// Inputs/activations are 2-D tensors of shape (batch, features).
//
// Buffer ownership (DESIGN.md §15): forward and backward return a reference
// to a tensor the module owns (or to their argument, for identity layers).
// It stays valid and unchanged until that module's next forward (resp.
// backward) call; a caller that needs the value longer copies it. Modules
// reuse these buffers across steps, resizing them to the batch at hand and
// writing every element before reading any, so a steady-state training
// step allocates nothing in the layers.
//
// Parameters carry role tags (`is_batchnorm`, `is_head`) so that
// parameter-filtering FL algorithms (FedBN keeps BatchNorm local, FedPer
// keeps the classification head local) can select what crosses the wire
// without knowing the architecture.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace of::nn {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  bool is_batchnorm = false;  // BatchNorm affine weight/bias (FedBN filter)
  bool is_head = false;       // classification-head parameter (FedPer filter)

  explicit Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  // Forward pass; must cache activations needed by backward.
  virtual const Tensor& forward(const Tensor& x) = 0;
  // Backward pass; accumulates into parameter .grad and returns dL/dx.
  virtual const Tensor& backward(const Tensor& grad_out) = 0;
  // Register owned parameters (in a stable, deterministic order).
  virtual void collect_parameters(std::vector<Parameter*>& out) { (void)out; }
  // Register non-trainable state tensors (BatchNorm running statistics).
  virtual void collect_buffers(std::vector<Tensor*>& out) { (void)out; }
  // Train/eval mode switch (BatchNorm, Dropout).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const noexcept { return training_; }
  virtual std::string name() const = 0;

 protected:
  bool training_ = true;
};

// Ordered container of modules; forward/backward chain through them.
class Sequential final : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<std::unique_ptr<Module>> mods) : mods_(std::move(mods)) {}

  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    mods_.push_back(std::move(m));
    return ref;
  }
  void push(std::unique_ptr<Module> m) { mods_.push_back(std::move(m)); }

  std::size_t size() const noexcept { return mods_.size(); }
  Module& at(std::size_t i) { return *mods_.at(i); }

  // Each module reads its predecessor's buffer in place; the result is the
  // last module's buffer.
  const Tensor& forward(const Tensor& x) override {
    const Tensor* h = &x;
    for (auto& m : mods_) h = &m->forward(*h);
    return *h;
  }

  const Tensor& backward(const Tensor& grad_out) override {
    const Tensor* g = &grad_out;
    for (auto it = mods_.rbegin(); it != mods_.rend(); ++it) g = &(*it)->backward(*g);
    return *g;
  }

  void collect_parameters(std::vector<Parameter*>& out) override {
    for (auto& m : mods_) m->collect_parameters(out);
  }

  void collect_buffers(std::vector<Tensor*>& out) override {
    for (auto& m : mods_) m->collect_buffers(out);
  }

  void set_training(bool training) override {
    Module::set_training(training);
    for (auto& m : mods_) m->set_training(training);
  }

  std::string name() const override { return "Sequential"; }

 private:
  std::vector<std::unique_ptr<Module>> mods_;
};

}  // namespace of::nn
