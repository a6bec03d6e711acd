// Differential privacy for federated updates (the PETINA stand-in).
//
// Gaussian mechanism on the clipped update: clip to L2 norm C, then add
// N(0, σ²) per coordinate with σ = C·√(2·ln(1.25/δ))/ε — the standard
// (ε, δ)-DP calibration (Dwork & Roth Thm. A.1, the same recipe DP-SGD
// uses per round). A composition accountant tracks the privacy budget
// spent across rounds (basic linear and advanced composition bounds).
//
// The noise is counter-based: coordinate i of a release is a pure function
// of (seed, round, client, release, i) through Philox4x32-10 (see
// simd::dp_perturb_store_bytes), so it is drawn, clipped and added in one
// vectorized pass split across of::exec chunks, with the same bytes at any
// SIMD level, thread count or grain.
#pragma once

#include "privacy/mechanism.hpp"
#include "simd/simd.hpp"

namespace of::privacy {

struct DpParams {
  double epsilon = 1.0;
  double delta = 1e-5;
  double clip_norm = 1.0;
};

double gaussian_sigma(const DpParams& p);

// Privacy accountant over repeated releases of the same mechanism.
class CompositionAccountant {
 public:
  void record_release(double epsilon, double delta);
  // Basic composition: ε_total = Σ ε_i, δ_total = Σ δ_i.
  double basic_epsilon() const noexcept { return sum_epsilon_; }
  double basic_delta() const noexcept { return sum_delta_; }
  // Advanced composition (Dwork–Rothblum–Vadhan) for k releases of the
  // same (ε, δ): ε' = ε√(2k·ln(1/δ')) + k·ε(e^ε −1) at extra slack δ'.
  double advanced_epsilon(double delta_slack) const;
  std::size_t releases() const noexcept { return k_; }

 private:
  double sum_epsilon_ = 0.0;
  double sum_delta_ = 0.0;
  double per_release_epsilon_ = 0.0;
  std::size_t k_ = 0;
};

class DifferentialPrivacy final : public PrivacyMechanism {
 public:
  DifferentialPrivacy(DpParams params, std::uint64_t seed);

  // Each call is one release: it draws from (round, client, release) and
  // then bumps `release`, so a second protect() in the same stream never
  // reuses noise (two releases with one noise vector would leak u₁ − u₂).
  void protect(ConstFloatSpan update, int client_id, int num_clients, Bytes& out) override;
  void aggregate_sum(const std::vector<ConstByteSpan>& contributions, FloatSpan out) override;
  using PrivacyMechanism::protect;
  using PrivacyMechanism::aggregate_sum;
  std::string name() const override { return "DifferentialPrivacy"; }
  void set_stream(std::uint64_t round, std::uint64_t client) override;

  const DpParams& params() const noexcept { return params_; }
  double sigma() const noexcept { return sigma_; }
  const CompositionAccountant& accountant() const noexcept { return accountant_; }

 private:
  DpParams params_;
  double sigma_;
  simd::NoiseStream stream_;  // key = the per-node seed; counter words set per release
  CompositionAccountant accountant_;
};

}  // namespace of::privacy
