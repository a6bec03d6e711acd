#include "compression/sparsify.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace of::compression {

void sparse_encode(Bytes& out, const std::vector<std::uint32_t>& idx,
                   const std::vector<float>& val) {
  OF_CHECK_MSG(idx.size() == val.size(), "sparse_encode: idx/val size mismatch");
  out.clear();
  out.reserve(8 + idx.size() * (sizeof(std::uint32_t) + sizeof(float)));
  tensor::append_pod<std::uint64_t>(out, idx.size());
  tensor::append_span(out, idx.data(), idx.size());
  tensor::append_span(out, val.data(), val.size());
}

Bytes sparse_encode(const std::vector<std::uint32_t>& idx, const std::vector<float>& val) {
  Bytes out;
  sparse_encode(out, idx, val);
  return out;
}

namespace {

// The validated layout of a sparse payload: nnz, then the index and value
// arrays in place (unaligned).
struct SparseView {
  std::size_t nnz;
  const std::uint8_t* idx;
  const std::uint8_t* val;
};

SparseView parse_sparse(tensor::ConstByteSpan payload) {
  std::size_t off = 0;
  const auto nnz = tensor::read_pod<std::uint64_t>(payload, off);
  constexpr std::size_t kEntry = sizeof(std::uint32_t) + sizeof(float);
  OF_CHECK_MSG(nnz <= (payload.size() - off) / kEntry,
               "sparse nnz " << nnz << " exceeds payload — corrupt frame?");
  OF_CHECK_MSG(off + nnz * kEntry == payload.size(), "sparse payload has trailing bytes");
  const std::uint8_t* idx = payload.data() + off;
  return {nnz, idx, idx + nnz * sizeof(std::uint32_t)};
}

}  // namespace

void sparse_decode(tensor::ConstByteSpan payload, std::vector<std::uint32_t>& idx,
                   std::vector<float>& val) {
  const SparseView v = parse_sparse(payload);
  idx.resize(v.nnz);
  val.resize(v.nnz);
  if (v.nnz == 0) return;
  std::memcpy(idx.data(), v.idx, v.nnz * sizeof(std::uint32_t));
  std::memcpy(val.data(), v.val, v.nnz * sizeof(float));
}

std::size_t resolve_k(double factor_or_k, bool is_factor, std::size_t numel) {
  double k = is_factor ? static_cast<double>(numel) / factor_or_k : factor_or_k;
  k = std::min(k, static_cast<double>(numel));
  return std::max<std::size_t>(1, static_cast<std::size_t>(k));
}

namespace {

using tensor::ConstFloatSpan;
using tensor::FloatSpan;

void pack_sparse(const char* codec, std::size_t numel,
                 const std::vector<std::uint32_t>& idx, const std::vector<float>& val,
                 Compressed& out) {
  out.codec = codec;
  out.original_numel = numel;
  sparse_encode(out.payload, idx, val);
}

// Scatter straight from the payload view, without copying the index and
// value arrays out first.
void unpack_sparse(const CompressedView& c, FloatSpan out) {
  OF_CHECK_MSG(out.size() == c.original_numel, "sparse decompress size mismatch");
  const SparseView v = parse_sparse(c.payload);
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t i = 0; i < v.nnz; ++i) {
    std::uint32_t idx = 0;
    float val = 0.0f;
    std::memcpy(&idx, v.idx + i * sizeof(idx), sizeof(idx));
    std::memcpy(&val, v.val + i * sizeof(val), sizeof(val));
    OF_CHECK_MSG(idx < c.original_numel, "sparse index out of range");
    out[idx] = val;
  }
}

// Select every coordinate with |v| >= threshold, up to `cap` entries
// (largest first if over cap would be exact; we just truncate scan order,
// which matches the reference DGC/RedSync implementations).
void select_above(ConstFloatSpan t, float threshold, std::size_t cap,
                  std::vector<std::uint32_t>& idx, std::vector<float>& val) {
  idx.clear();
  val.clear();
  for (std::size_t i = 0; i < t.size() && idx.size() < cap; ++i) {
    if (std::fabs(t[i]) >= threshold) {
      idx.push_back(static_cast<std::uint32_t>(i));
      val.push_back(t[i]);
    }
  }
}

std::size_t count_above(ConstFloatSpan t, float threshold) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < t.size(); ++i)
    if (std::fabs(t[i]) >= threshold) ++n;
  return n;
}

}  // namespace

// --- TopK ------------------------------------------------------------------------

TopK::TopK(double factor_or_k, bool is_factor) : spec_(factor_or_k), is_factor_(is_factor) {
  OF_CHECK_MSG(factor_or_k > 0, "TopK spec must be positive");
}

void TopK::compress(ConstFloatSpan t, Compressed& out) {
  const std::size_t k = resolve_k(spec_, is_factor_, t.size());
  // nth_element on |values| gives the exact k-th largest magnitude. The
  // selection buffers are members, so steady-state rounds allocate nothing.
  work_.resize(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) work_[i] = std::fabs(t[i]);
  std::nth_element(work_.begin(), work_.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   work_.end(), std::greater<float>());
  const float threshold = work_[k - 1];
  select_above(t, threshold, k, idx_, val_);
  pack_sparse("TopK", t.size(), idx_, val_, out);
}

void TopK::decompress(const CompressedView& c, FloatSpan out) { unpack_sparse(c, out); }

// --- RandomK ---------------------------------------------------------------------

RandomK::RandomK(double factor_or_k, bool is_factor, std::uint64_t seed)
    : spec_(factor_or_k), is_factor_(is_factor), rng_(seed) {
  OF_CHECK_MSG(factor_or_k > 0, "RandomK spec must be positive");
}

void RandomK::compress(ConstFloatSpan t, Compressed& out) {
  const std::size_t n = t.size();
  const std::size_t k = resolve_k(spec_, is_factor_, n);
  // Partial Fisher–Yates: draw k distinct indices in O(k).
  std::vector<std::uint32_t> pool(n);
  std::iota(pool.begin(), pool.end(), 0u);
  std::vector<std::uint32_t> idx(k);
  std::vector<float> val(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng_.next_below(n - i);
    std::swap(pool[i], pool[j]);
    idx[i] = pool[i];
    // Unbiased estimator: scale kept values by n/k.
    val[i] = t[pool[i]] * static_cast<float>(n) / static_cast<float>(k);
  }
  pack_sparse("RandomK", n, idx, val, out);
}

void RandomK::decompress(const CompressedView& c, FloatSpan out) { unpack_sparse(c, out); }

// --- DGC -------------------------------------------------------------------------

DGC::DGC(double factor_or_k, bool is_factor, std::uint64_t seed, double sample_fraction)
    : spec_(factor_or_k), is_factor_(is_factor), rng_(seed),
      sample_fraction_(sample_fraction) {
  OF_CHECK_MSG(sample_fraction > 0 && sample_fraction <= 1.0, "bad DGC sample fraction");
}

void DGC::compress(ConstFloatSpan t, Compressed& out) {
  const std::size_t n = t.size();
  const std::size_t k = resolve_k(spec_, is_factor_, n);
  // Sample-based threshold estimation (DGC §3.1): take a random sample,
  // find the magnitude that keeps the target fraction of the *sample*, use
  // it as the global threshold, then adjust. The sample must be large
  // enough that the target fraction covers a handful of sample entries, or
  // the estimated threshold degenerates to the sample maximum — hence the
  // 32·(n/k) floor at extreme compression factors.
  const std::size_t sample_n = std::min(
      n, std::max({k, static_cast<std::size_t>(sample_fraction_ * static_cast<double>(n)),
                   32 * ((n + k - 1) / std::max<std::size_t>(1, k))}));
  std::vector<float> sample;
  sample.reserve(sample_n);
  if (sample_n >= n) {
    for (std::size_t i = 0; i < n; ++i) sample.push_back(std::fabs(t[i]));
  } else {
    for (std::size_t i = 0; i < sample_n; ++i)
      sample.push_back(std::fabs(t[rng_.next_below(n)]));
  }
  const std::size_t sample_k = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(k) / static_cast<double>(n) *
                                  static_cast<double>(sample.size())));
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(sample_k - 1), sample.end(),
                   std::greater<float>());
  float threshold = sample[sample_k - 1];
  // Hierarchical adjustment in both directions (DGC tightens; we also relax
  // when the estimate overshoots and too few coordinates survive).
  for (int round = 0; round < 8; ++round) {
    const std::size_t above = count_above(t, threshold);
    if (above > 2 * k) threshold *= 1.3f;
    else if (above < std::max<std::size_t>(1, k / 2)) threshold *= 0.7f;
    else break;
  }
  std::vector<std::uint32_t> idx;
  std::vector<float> val;
  select_above(t, threshold, 2 * k, idx, val);
  pack_sparse("DGC", n, idx, val, out);
}

void DGC::decompress(const CompressedView& c, FloatSpan out) { unpack_sparse(c, out); }

// --- RedSync ---------------------------------------------------------------------

RedSync::RedSync(double factor_or_k, bool is_factor, double tolerance, int max_iterations)
    : spec_(factor_or_k), is_factor_(is_factor), tolerance_(tolerance),
      max_iterations_(max_iterations) {}

void RedSync::compress(ConstFloatSpan t, Compressed& out) {
  const std::size_t n = t.size();
  const std::size_t k = resolve_k(spec_, is_factor_, n);
  // Trimmed binary search of the magnitude threshold (RedSync's
  // "trimmed top-k"): land within (1 ± tolerance)·k survivors.
  float lo = 0.0f, hi = 0.0f;
  for (std::size_t i = 0; i < n; ++i) hi = std::max(hi, std::fabs(t[i]));
  float threshold = hi / 2.0f;
  for (int it = 0; it < max_iterations_; ++it) {
    const std::size_t above = count_above(t, threshold);
    if (static_cast<double>(above) >= (1.0 - tolerance_) * static_cast<double>(k) &&
        static_cast<double>(above) <= (1.0 + tolerance_) * static_cast<double>(k))
      break;
    if (above > k) lo = threshold;
    else hi = threshold;
    threshold = 0.5f * (lo + hi);
  }
  std::vector<std::uint32_t> idx;
  std::vector<float> val;
  select_above(t, threshold, static_cast<std::size_t>((1.0 + tolerance_) *
                                                      static_cast<double>(k)) + 1,
               idx, val);
  if (idx.empty()) {  // degenerate: everything below threshold — keep the max
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (std::fabs(t[i]) > std::fabs(t[best])) best = i;
    idx.push_back(static_cast<std::uint32_t>(best));
    val.push_back(t[best]);
  }
  pack_sparse("RedSync", n, idx, val, out);
}

void RedSync::decompress(const CompressedView& c, FloatSpan out) { unpack_sparse(c, out); }

// --- SIDCo -----------------------------------------------------------------------

SIDCo::SIDCo(double factor_or_k, bool is_factor, int stages)
    : spec_(factor_or_k), is_factor_(is_factor), stages_(stages) {
  OF_CHECK_MSG(stages >= 1, "SIDCo needs at least one stage");
}

void SIDCo::compress(ConstFloatSpan t, Compressed& out) {
  const std::size_t n = t.size();
  const std::size_t k = resolve_k(spec_, is_factor_, n);
  // Model |g| as Exponential(1/mean). P(|g| > τ) = exp(-τ/mean), so the
  // threshold hitting a target ratio r is τ = -mean·ln(r). Multi-stage:
  // re-fit on the survivors with the residual ratio, sharpening the
  // estimate without ever sorting (SIDCo's key trick).
  const double target = static_cast<double>(k) / static_cast<double>(n);
  const double per_stage = std::pow(target, 1.0 / static_cast<double>(stages_));
  float threshold = 0.0f;
  double mean = 0.0;
  std::size_t count = n;
  for (std::size_t i = 0; i < n; ++i) mean += std::fabs(t[i]);
  mean /= std::max<std::size_t>(1, count);
  for (int s = 0; s < stages_; ++s) {
    threshold += static_cast<float>(-mean * std::log(per_stage));
    // Re-fit the exponential on survivors (mean of exceedances − τ).
    double sum = 0.0;
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const float a = std::fabs(t[i]);
      if (a >= threshold) {
        sum += a - threshold;
        ++m;
      }
    }
    if (m == 0) break;
    mean = sum / static_cast<double>(m);
    count = m;
  }
  std::vector<std::uint32_t> idx;
  std::vector<float> val;
  select_above(t, threshold, 2 * k, idx, val);
  if (idx.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (std::fabs(t[i]) > std::fabs(t[best])) best = i;
    idx.push_back(static_cast<std::uint32_t>(best));
    val.push_back(t[best]);
  }
  pack_sparse("SIDCo", n, idx, val, out);
}

void SIDCo::decompress(const CompressedView& c, FloatSpan out) { unpack_sparse(c, out); }

// --- Identity ---------------------------------------------------------------------

void Identity::compress(ConstFloatSpan t, Compressed& out) {
  out.codec = "Identity";
  out.original_numel = t.size();
  out.payload.clear();
  tensor::append_span(out.payload, t);
}

void Identity::decompress(const CompressedView& c, FloatSpan out) {
  OF_CHECK_MSG(c.payload.size() == c.original_numel * sizeof(float),
               "identity payload size mismatch");
  OF_CHECK_MSG(out.size() == c.original_numel, "identity decompress size mismatch");
  std::memcpy(out.data(), c.payload.data(), c.payload.size());
}

}  // namespace of::compression
