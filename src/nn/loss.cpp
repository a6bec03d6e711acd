#include "nn/loss.hpp"

#include <cmath>

#include "common/check.hpp"

namespace of::nn {

Tensor softmax(const Tensor& logits) {
  Tensor out;
  softmax_into(logits, out);
  return out;
}

void softmax_into(const Tensor& logits, Tensor& out) {
  OF_CHECK_MSG(logits.ndim() == 2, "softmax expects (batch, classes), got "
                                       << logits.shape_string());
  const std::size_t batch = logits.size(0), classes = logits.size(1);
  out.resize_(batch, classes);  // every element is written below
  for (std::size_t b = 0; b < batch; ++b) {
    float mx = logits(b, 0);
    for (std::size_t c = 1; c < classes; ++c) mx = std::max(mx, logits(b, c));
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      const float e = std::exp(logits(b, c) - mx);
      out(b, c) = e;
      denom += e;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t c = 0; c < classes; ++c) out(b, c) *= inv;
  }
}

LossGrad softmax_cross_entropy(const Tensor& logits, const std::vector<std::size_t>& labels) {
  LossGrad lg;
  lg.loss = softmax_cross_entropy_into(logits, labels, lg.grad);
  return lg;
}

float softmax_cross_entropy_into(const Tensor& logits, const std::vector<std::size_t>& labels,
                                 Tensor& grad) {
  OF_CHECK_MSG(&grad != &logits, "softmax_cross_entropy_into: grad aliases logits");
  const std::size_t batch = logits.size(0), classes = logits.size(1);
  OF_CHECK_MSG(labels.size() == batch,
               "labels size " << labels.size() << " vs batch " << batch);
  softmax_into(logits, grad);  // the probabilities, turned into dL/dlogits below
  double loss = 0.0;
  for (std::size_t b = 0; b < batch; ++b) {
    OF_CHECK_MSG(labels[b] < classes, "label " << labels[b] << " >= classes " << classes);
    loss -= std::log(std::max(grad(b, labels[b]), 1e-12f));
  }
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    grad(b, labels[b]) -= 1.0f;
    for (std::size_t c = 0; c < classes; ++c) grad(b, c) *= inv_batch;
  }
  return static_cast<float>(loss / static_cast<double>(batch));
}

LossGrad mse_loss(const Tensor& pred, const Tensor& target) {
  OF_CHECK_MSG(pred.same_shape(target), "mse_loss shape mismatch");
  LossGrad lg;
  lg.grad = pred - target;
  lg.loss = lg.grad.l2_norm_squared() / static_cast<float>(pred.numel());
  lg.grad.scale_(2.0f / static_cast<float>(pred.numel()));
  return lg;
}

float accuracy(const Tensor& logits, const std::vector<std::size_t>& labels) {
  const auto preds = logits.argmax_rows();
  OF_CHECK_MSG(preds.size() == labels.size(), "accuracy: batch mismatch");
  if (preds.empty()) return 0.0f;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    if (preds[i] == labels[i]) ++correct;
  return static_cast<float>(correct) / static_cast<float>(preds.size());
}

}  // namespace of::nn
