// Loss functions and classification metrics. Losses return both the scalar
// loss and dL/dlogits so callers drive Module::backward directly.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace of::nn {

using tensor::Tensor;

struct LossGrad {
  float loss = 0.0f;
  Tensor grad;  // same shape as the network output
};

// Row-wise softmax of a (batch, classes) logits tensor.
Tensor softmax(const Tensor& logits);
// The same into `out`, reusing its storage.
void softmax_into(const Tensor& logits, Tensor& out);

// Mean cross-entropy over the batch with fused softmax backward:
// grad = (softmax(logits) - onehot(labels)) / batch.
LossGrad softmax_cross_entropy(const Tensor& logits, const std::vector<std::size_t>& labels);
// The same with the gradient written into a reused `grad`; returns the loss.
float softmax_cross_entropy_into(const Tensor& logits, const std::vector<std::size_t>& labels,
                                 Tensor& grad);

// Mean squared error: loss = mean((pred-target)^2), grad = 2(pred-target)/n.
LossGrad mse_loss(const Tensor& pred, const Tensor& target);

// Fraction of rows whose argmax equals the label.
float accuracy(const Tensor& logits, const std::vector<std::size_t>& labels);

}  // namespace of::nn
