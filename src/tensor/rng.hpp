// Deterministic, seedable pseudo-random number generation for OmniFed.
//
// Every stochastic component in the framework (weight init, data synthesis,
// stochastic quantization, RandomK sampling) draws from an explicitly
// passed Rng so that whole federated runs are reproducible from a single
// seed. The generator is xoshiro256**, seeded via splitmix64. DP noise is
// the exception: it comes from the counter-based Philox stream inside
// simd::dp_perturb_store_bytes, so it can be drawn in parallel chunks.
#pragma once

#include <cstdint>
#include <cmath>

namespace of::tensor {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    // splitmix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
    has_gauss_ = false;
  }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  float next_float() noexcept { return static_cast<float>(next_double()); }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * next_double(); }

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n) noexcept {
    // Lemire-style rejection-free-enough bounded draw; bias is negligible
    // for the n << 2^64 used here.
    return next_u64() % n;
  }

  // Standard normal via Box–Muller (cached pair).
  double gaussian() noexcept {
    if (has_gauss_) {
      has_gauss_ = false;
      return cached_gauss_;
    }
    double u1 = 0.0;
    do { u1 = next_double(); } while (u1 <= 1e-300);
    const double u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 6.283185307179586476925286766559 * u2;
    cached_gauss_ = r * std::sin(theta);
    has_gauss_ = true;
    return r * std::cos(theta);
  }

  double gaussian(double mean, double stddev) noexcept { return mean + stddev * gaussian(); }

  bool bernoulli(double p) noexcept { return next_double() < p; }

  // Derive an independent child generator (for per-node streams).
  Rng split() noexcept { return Rng(next_u64() ^ 0xD1B54A32D192ED03ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  double cached_gauss_ = 0.0;
  bool has_gauss_ = false;
};

}  // namespace of::tensor
