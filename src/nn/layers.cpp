#include "nn/layers.hpp"

#include <cmath>

namespace of::nn {

// --- Linear ------------------------------------------------------------------

Linear::Linear(std::size_t in, std::size_t out, Rng& rng, std::string label)
    : weight_(label + ".weight",
              Tensor::randn({in, out}, rng, 0.0f,
                            std::sqrt(2.0f / static_cast<float>(in)))),  // Kaiming
      bias_(label + ".bias", Tensor::zeros({out})) {}

const Tensor& Linear::forward(const Tensor& x) {
  OF_CHECK_MSG(x.ndim() == 2 && x.size(1) == weight_.value.size(0),
               "Linear: input " << x.shape_string() << " incompatible with weight "
                                << weight_.value.shape_string());
  input_ = x;
  // y = (x·W) + b, the bias added to each finished sum in the tile's store.
  tensor::matmul_into(out_, x, weight_.value, tensor::Transpose::None, &bias_.value);
  return out_;
}

const Tensor& Linear::backward(const Tensor& grad_out) {
  // dW = xᵀ·dy ; db = Σ_batch dy ; dx = dy·Wᵀ, both transposes read in place.
  // Each dW element is summed first and then added to the grad (grad + Σ,
  // not a chain seeded with grad), as adding a separate dW tensor would.
  tensor::matmul_acc(weight_.grad, input_, grad_out, tensor::Transpose::Lhs);
  const std::size_t batch = grad_out.size(0), out = grad_out.size(1);
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t j = 0; j < out; ++j) bias_.grad[j] += grad_out(b, j);
  tensor::matmul_into(dx_, grad_out, weight_.value, tensor::Transpose::Rhs);
  return dx_;
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// --- ReLU --------------------------------------------------------------------

namespace {

// Select-form ReLU loops: no data-dependent branch, so the compiler can
// vectorize them, and the same values as `if (v < 0) v = 0` (−0 and NaN
// pass through).
void relu_into(Tensor& out, const Tensor& x) {
  out.resize_like_(x);
  const float* in = x.data();
  float* o = out.data();
  for (std::size_t i = 0; i < x.numel(); ++i) o[i] = in[i] < 0.0f ? 0.0f : in[i];
}

// dx = g where the ReLU output is positive, 0 where it is ≤ 0 (x ≤ 0).
void relu_grad_into(Tensor& dx, const Tensor& g, const Tensor& relu_out) {
  dx.resize_like_(g);
  const float* gi = g.data();
  const float* y = relu_out.data();
  float* d = dx.data();
  for (std::size_t i = 0; i < g.numel(); ++i) {
    const float v = gi[i];  // loaded unconditionally, so the select vectorizes
    d[i] = y[i] <= 0.0f ? 0.0f : v;
  }
}

}  // namespace

const Tensor& ReLU::forward(const Tensor& x) {
  relu_into(out_, x);
  return out_;
}

const Tensor& ReLU::backward(const Tensor& grad_out) {
  relu_grad_into(dx_, grad_out, out_);
  return dx_;
}

// --- Tanh --------------------------------------------------------------------

const Tensor& Tanh::forward(const Tensor& x) {
  out_ = x;
  for (auto& v : out_.vec()) v = std::tanh(v);
  return out_;
}

const Tensor& Tanh::backward(const Tensor& grad_out) {
  dx_ = grad_out;
  for (std::size_t i = 0; i < dx_.numel(); ++i) {
    const float t = out_[i];
    dx_[i] *= (1.0f - t * t);
  }
  return dx_;
}

// --- HardSwish ---------------------------------------------------------------

const Tensor& HardSwish::forward(const Tensor& x) {
  input_ = x;
  out_ = x;
  for (auto& v : out_.vec()) {
    if (v <= -3.0f) v = 0.0f;
    else if (v < 3.0f) v = v * (v + 3.0f) / 6.0f;
    // else identity
  }
  return out_;
}

const Tensor& HardSwish::backward(const Tensor& grad_out) {
  dx_ = grad_out;
  for (std::size_t i = 0; i < dx_.numel(); ++i) {
    const float v = input_[i];
    float d;
    if (v <= -3.0f) d = 0.0f;
    else if (v < 3.0f) d = (2.0f * v + 3.0f) / 6.0f;
    else d = 1.0f;
    dx_[i] *= d;
  }
  return dx_;
}

// --- BatchNorm1d ---------------------------------------------------------------

BatchNorm1d::BatchNorm1d(std::size_t features, float momentum, float eps, std::string label)
    : features_(features),
      momentum_(momentum),
      eps_(eps),
      gamma_(label + ".gamma", Tensor::ones({features})),
      beta_(label + ".beta", Tensor::zeros({features})),
      running_mean_(Tensor::zeros({features})),
      running_var_(Tensor::ones({features})),
      inv_std_({features}) {
  gamma_.is_batchnorm = beta_.is_batchnorm = true;
}

const Tensor& BatchNorm1d::forward(const Tensor& x) {
  OF_CHECK_MSG(x.ndim() == 2 && x.size(1) == features_,
               "BatchNorm1d: input " << x.shape_string() << " vs features " << features_);
  const std::size_t batch = x.size(0);
  // Both branches below write every element of out_, xhat_ and inv_std_.
  out_.resize_like_(x);
  xhat_.resize_like_(x);

  if (training_ && batch > 1) {
    for (std::size_t j = 0; j < features_; ++j) {
      double mean = 0.0;
      for (std::size_t b = 0; b < batch; ++b) mean += x(b, j);
      mean /= static_cast<double>(batch);
      double var = 0.0;
      for (std::size_t b = 0; b < batch; ++b) {
        const double d = x(b, j) - mean;
        var += d * d;
      }
      var /= static_cast<double>(batch);
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      inv_std_[j] = inv_std;
      for (std::size_t b = 0; b < batch; ++b) {
        const float xh = (x(b, j) - static_cast<float>(mean)) * inv_std;
        xhat_(b, j) = xh;
        out_(b, j) = gamma_.value[j] * xh + beta_.value[j];
      }
      // The EMA tracks the *unbiased* variance (n/(n-1) correction), while
      // normalization above uses the biased batch variance — same convention
      // as torch.nn.BatchNorm1d, so eval-mode outputs match training stats.
      const double unbiased_var =
          var * static_cast<double>(batch) / static_cast<double>(batch - 1);
      running_mean_[j] =
          (1.0f - momentum_) * running_mean_[j] + momentum_ * static_cast<float>(mean);
      running_var_[j] =
          (1.0f - momentum_) * running_var_[j] + momentum_ * static_cast<float>(unbiased_var);
    }
  } else {
    for (std::size_t j = 0; j < features_; ++j) {
      const float inv_std = 1.0f / std::sqrt(running_var_[j] + eps_);
      inv_std_[j] = inv_std;
      for (std::size_t b = 0; b < batch; ++b) {
        const float xh = (x(b, j) - running_mean_[j]) * inv_std;
        xhat_(b, j) = xh;
        out_(b, j) = gamma_.value[j] * xh + beta_.value[j];
      }
    }
  }
  return out_;
}

const Tensor& BatchNorm1d::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.size(0);
  dx_.resize_like_(grad_out);  // every element is written below
  const float n = static_cast<float>(batch);
  for (std::size_t j = 0; j < features_; ++j) {
    float dgamma = 0.0f, dbeta = 0.0f;
    for (std::size_t b = 0; b < batch; ++b) {
      dgamma += grad_out(b, j) * xhat_(b, j);
      dbeta += grad_out(b, j);
    }
    gamma_.grad[j] += dgamma;
    beta_.grad[j] += dbeta;
    const float g = gamma_.value[j] * inv_std_[j];
    if (training_ && batch > 1) {
      // Full batch-norm backward: dx = g/n * (n·dy − Σdy − x̂·Σ(dy·x̂))
      for (std::size_t b = 0; b < batch; ++b) {
        dx_(b, j) = g / n * (n * grad_out(b, j) - dbeta - xhat_(b, j) * dgamma);
      }
    } else {
      for (std::size_t b = 0; b < batch; ++b) dx_(b, j) = g * grad_out(b, j);
    }
  }
  return dx_;
}

void BatchNorm1d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm1d::collect_buffers(std::vector<Tensor*>& out) {
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

// --- Dropout -------------------------------------------------------------------

Dropout::Dropout(float p, std::uint64_t seed) : p_(p), rng_(seed) {
  OF_CHECK_MSG(p >= 0.0f && p < 1.0f, "dropout probability must be in [0,1), got " << p);
}

const Tensor& Dropout::forward(const Tensor& x) {
  if (!training_ || p_ == 0.0f) {
    mask_ = Tensor();
    return x;
  }
  mask_.resize_like_(x);
  out_ = x;
  const float keep_scale = 1.0f / (1.0f - p_);
  for (std::size_t i = 0; i < out_.numel(); ++i) {
    const float m = rng_.bernoulli(p_) ? 0.0f : keep_scale;
    mask_[i] = m;
    out_[i] *= m;
  }
  return out_;
}

const Tensor& Dropout::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;
  dx_ = grad_out;
  dx_.mul_(mask_);
  return dx_;
}

// --- ResidualBlock ---------------------------------------------------------------

ResidualBlock::ResidualBlock(std::size_t dim, Rng& rng, std::string label) {
  body_.emplace<Linear>(dim, dim, rng, label + ".fc1");
  body_.emplace<BatchNorm1d>(dim, 0.1f, 1e-5f, label + ".bn1");
  body_.emplace<ReLU>();
  body_.emplace<Linear>(dim, dim, rng, label + ".fc2");
  body_.emplace<BatchNorm1d>(dim, 0.1f, 1e-5f, label + ".bn2");
}

const Tensor& ResidualBlock::forward(const Tensor& x) {
  out_ = body_.forward(x);
  out_.add_(x);
  relu_into(out_, out_);
  return out_;
}

const Tensor& ResidualBlock::backward(const Tensor& grad_out) {
  relu_grad_into(g_, grad_out, out_);
  dx_ = body_.backward(g_);
  dx_.add_(g_);  // skip-connection gradient
  return dx_;
}

void ResidualBlock::collect_parameters(std::vector<Parameter*>& out) {
  body_.collect_parameters(out);
}

void ResidualBlock::collect_buffers(std::vector<Tensor*>& out) {
  body_.collect_buffers(out);
}

void ResidualBlock::set_training(bool training) {
  Module::set_training(training);
  body_.set_training(training);
}

}  // namespace of::nn
