#include "privacy/dp.hpp"

#include <cmath>

#include "common/check.hpp"
#include "exec/pool.hpp"

namespace of::privacy {

double gaussian_sigma(const DpParams& p) {
  OF_CHECK_MSG(p.epsilon > 0.0 && p.delta > 0.0 && p.delta < 1.0, "bad DP parameters");
  return p.clip_norm * std::sqrt(2.0 * std::log(1.25 / p.delta)) / p.epsilon;
}

void CompositionAccountant::record_release(double epsilon, double delta) {
  sum_epsilon_ += epsilon;
  sum_delta_ += delta;
  per_release_epsilon_ = epsilon;
  ++k_;
}

double CompositionAccountant::advanced_epsilon(double delta_slack) const {
  OF_CHECK_MSG(delta_slack > 0.0 && delta_slack < 1.0, "bad delta slack");
  if (k_ == 0) return 0.0;
  const double e = per_release_epsilon_;
  const double k = static_cast<double>(k_);
  return e * std::sqrt(2.0 * k * std::log(1.0 / delta_slack)) +
         k * e * (std::exp(e) - 1.0);
}

DifferentialPrivacy::DifferentialPrivacy(DpParams params, std::uint64_t seed)
    : params_(params), sigma_(gaussian_sigma(params)) {
  stream_.key = {static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32)};
}

void DifferentialPrivacy::set_stream(std::uint64_t round, std::uint64_t client) {
  stream_.round = static_cast<std::uint32_t>(round);
  stream_.client = static_cast<std::uint32_t>(client);
  stream_.release = 0;
}

void DifferentialPrivacy::protect(ConstFloatSpan update, int client_id, int num_clients,
                                  Bytes& out) {
  (void)client_id;
  (void)num_clients;
  const std::size_t n = update.size();
  // The pair counter is one 32-bit Philox word.
  OF_CHECK_MSG(n / 2 <= 0xFFFFFFFFull, "DP update of " << n << " coordinates exceeds the "
                                       "noise counter range");
  // Clip to sensitivity C (4-lane double sum — identical between the scalar
  // and AVX2 simd tables)...
  const double norm2 = simd::sum_squares(update.data(), n);
  const double norm = std::sqrt(norm2);
  const float clip_scale =
      norm > params_.clip_norm ? static_cast<float>(params_.clip_norm / norm) : 1.0f;
  // ...then draw, scale and add the Gaussian noise in one pass, writing the
  // serialized 1-D tensor straight into the (pooled) output buffer. Each
  // coordinate's noise depends only on the stream and its index, so the
  // chunks may run on any thread.
  out.clear();
  tensor::append_pod<std::uint32_t>(out, 1);
  tensor::append_pod<std::uint64_t>(out, n);
  const std::size_t start = out.size();
  out.resize(start + n * sizeof(float));
  // One captured pointer keeps the chunk callable inside std::function's
  // small buffer, so a release allocates nothing.
  const struct {
    std::uint8_t* body;
    const float* u;
    float clip_scale;
    double sigma;
    simd::NoiseStream stream;
  } job{out.data() + start, update.data(), clip_scale, sigma_, stream_};
  exec::Pool::global().parallel_for(n, [p = &job](std::size_t b, std::size_t e) {
    simd::dp_perturb_store_bytes(p->body + b * sizeof(float), p->u + b, p->clip_scale,
                                 p->sigma, p->stream, b, e - b);
  });
  ++stream_.release;
  accountant_.record_release(params_.epsilon, params_.delta);
}

void DifferentialPrivacy::aggregate_sum(const std::vector<ConstByteSpan>& contributions,
                                        FloatSpan out) {
  sum_serialized_tensors(contributions, out);
}

}  // namespace of::privacy
