// Kernel tables for the of::simd facade. Compiled with -ffp-contract=off
// (see CMakeLists.txt): the scalar mirrors below must round every mul+add
// pair separately, exactly like the non-FMA intrinsics, or the two tables
// would diverge in the last bit.
#include "simd/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define OF_SIMD_X86 1
#endif

namespace of::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar table — the reference semantics. Every AVX2 kernel is a lane-wise
// transcription of exactly these loops.
// ---------------------------------------------------------------------------
namespace sc {

void add(float* d, const float* o, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) d[i] += o[i];
}
void sub(float* d, const float* o, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) d[i] -= o[i];
}
void mul(float* d, const float* o, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) d[i] *= o[i];
}
void div(float* d, const float* o, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) d[i] /= o[i];
}
void axpy(float* d, const float* o, float alpha, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) d[i] += alpha * o[i];
}
void scale(float* d, float v, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) d[i] *= v;
}
void add_scalar(float* d, float v, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) d[i] += v;
}
void clamp(float* d, float lo, float hi, std::size_t n) noexcept {
  // Intrinsic operand order: maxps(d, lo) = (d > lo) ? d : lo, then
  // minps(t, hi) = (t < hi) ? t : hi. NaN inputs resolve to lo on both
  // tables (comparisons with NaN are false → second operand).
  for (std::size_t i = 0; i < n; ++i) {
    const float t = (d[i] > lo) ? d[i] : lo;
    d[i] = (t < hi) ? t : hi;
  }
}
void accum_weighted(float* acc, const float* s, float w, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) acc[i] += s[i] * w;
}

// One gemm tile: rows [0, mr) × columns [0, nr) of c, from the strided
// rows of a and k rows of b that are ldb apart and hold kTileCols readable
// floats each (a packed panel is zero past nr). `bias` is null or
// kTileCols floats; `accumulate` adds each sum to c's old value.
constexpr std::size_t kTileRows = kGemmTileRows, kTileCols = 16;

void gemm_tile(float* c, std::size_t ldc, const float* a, std::size_t a_row,
               std::size_t a_col, const float* b, std::size_t ldb, const float* bias,
               bool accumulate, std::size_t k, std::size_t mr, std::size_t nr) noexcept {
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t j = 0; j < nr; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[r * a_row + kk * a_col] * b[kk * ldb + j];
      float& out = c[r * ldc + j];
      out = accumulate ? out + acc : bias ? acc + bias[j] : acc;
    }
  }
}

bool scale_store(float* dst, const float* src, double scale, std::size_t n) noexcept {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    ok &= std::isfinite(src[i]);
    dst[i] = static_cast<float>(static_cast<double>(src[i]) * scale);
  }
  return ok;
}

bool scale_store_bytes(std::uint8_t* dst, const float* src, double scale,
                       std::size_t n) noexcept {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    ok &= std::isfinite(src[i]);
    const float v = static_cast<float>(static_cast<double>(src[i]) * scale);
    std::memcpy(dst + i * sizeof(float), &v, sizeof(float));
  }
  return ok;
}

// Round-to-nearest-even float→half, bit-for-bit VCVTPS2PH: subnormal halves
// are produced (no FTZ), overflow rounds to inf, NaNs come out quiet with
// the payload's top 10 bits.
std::uint16_t f32_to_f16_one(float f) noexcept {
  std::uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  const std::uint32_t a = x & 0x7fffffffu;
  if (a >= 0x7f800000u)  // inf / NaN (quiet bit forced, payload truncated)
    return static_cast<std::uint16_t>(
        sign | (a == 0x7f800000u ? 0x7c00u : (0x7e00u | ((a >> 13) & 0x3ffu))));
  if (a >= 0x47800000u) return static_cast<std::uint16_t>(sign | 0x7c00u);  // ≥ 2^16 → inf
  if (a >= 0x38800000u) {
    // Normal half (values in [65520, 65536) carry into the exponent → inf).
    const std::uint32_t lsb = (a >> 13) & 1u;
    const std::uint32_t rounded = a + 0x00000fffu + lsb;
    return static_cast<std::uint16_t>(sign | ((rounded >> 13) - (112u << 10)));
  }
  // Subnormal half or zero: value / 2^-24 is an exact float ≤ 1024 (the
  // boundary lands on the smallest normal), rounded to int in the default
  // RN mode. |f| * 2^24 is exact — a power-of-two scale of a small value.
  float af;
  std::memcpy(&af, &a, sizeof(af));
  return static_cast<std::uint16_t>(
      sign | static_cast<std::uint32_t>(std::lrintf(af * 0x1p24f)));
}

float f16_to_f32_one(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t em = h & 0x7fffu;
  std::uint32_t bits;
  if (em >= 0x7c00u) {
    // inf / NaN — VCVTPH2PS quiets SNaNs, keeping the payload.
    bits = sign | 0x7f800000u |
           (em > 0x7c00u ? (0x00400000u | ((em & 0x3ffu) << 13)) : 0u);
  } else if (em >= 0x0400u) {
    bits = sign | ((em + (112u << 10)) << 13);  // normal: rebias
  } else if (em == 0u) {
    bits = sign;
  } else {
    // Subnormal: em * 2^-24 converts exactly (small integer × power of two).
    const float f = static_cast<float>(em) * 0x1p-24f;
    std::memcpy(&bits, &f, sizeof(bits));
    bits |= sign;
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

bool scale_store_f16_bytes(std::uint8_t* dst, const float* src, double scale,
                           std::size_t n) noexcept {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    ok &= std::isfinite(src[i]);
    const float v = static_cast<float>(static_cast<double>(src[i]) * scale);
    const std::uint16_t h = f32_to_f16_one(v);
    std::memcpy(dst + i * sizeof(std::uint16_t), &h, sizeof(h));
  }
  return ok;
}

void accum_scaled_bytes(float* acc, const std::uint8_t* src, double alpha,
                        std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    float v;
    std::memcpy(&v, src + i * sizeof(float), sizeof(v));
    acc[i] += static_cast<float>(alpha * static_cast<double>(v));
  }
}

void accum_scaled_f16_bytes(float* acc, const std::uint8_t* src, double alpha,
                            std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint16_t h;
    std::memcpy(&h, src + i * sizeof(h), sizeof(h));
    acc[i] += static_cast<float>(alpha * static_cast<double>(f16_to_f32_one(h)));
  }
}

double sum_squares(const float* x, std::size_t n) noexcept {
  // Fixed 4-lane double accumulation: lane j holds elements i ≡ j (mod 4);
  // lanes fold left-to-right, the tail is appended serially. The AVX2 twin
  // is one 4×double register doing literally this.
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~static_cast<std::size_t>(3);
  for (std::size_t i = 0; i < n4; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double d = static_cast<double>(x[i + j]);
      lane[j] += d * d;
    }
  }
  double acc = ((lane[0] + lane[1]) + lane[2]) + lane[3];
  for (std::size_t i = n4; i < n; ++i) {
    const double d = static_cast<double>(x[i]);
    acc += d * d;
  }
  return acc;
}

void f32_to_f16(std::uint16_t* dst, const float* src, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = f32_to_f16_one(src[i]);
}
void f16_to_f32(float* dst, const std::uint16_t* src, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = f16_to_f32_one(src[i]);
}

template <class Code>
void qsgd_quantize(Code* codes, const float* v, const float* draws, float norm,
                   float s, std::uint32_t max_level, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(v[i]) / norm * s;
    const float fa = std::floor(a);
    std::uint32_t level = static_cast<std::uint32_t>(fa);
    if (draws[i] < a - fa) ++level;
    if (level > max_level) level = max_level;
    codes[i] = static_cast<Code>(v[i] < 0.0f ? -static_cast<int>(level)
                                             : static_cast<int>(level));
  }
}

void qsgd_quantize_i8(std::int8_t* codes, const float* v, const float* draws,
                      float norm, float s, std::uint32_t max_level,
                      std::size_t n) noexcept {
  qsgd_quantize<std::int8_t>(codes, v, draws, norm, s, max_level, n);
}
void qsgd_quantize_i16(std::int16_t* codes, const float* v, const float* draws,
                       float norm, float s, std::uint32_t max_level,
                       std::size_t n) noexcept {
  qsgd_quantize<std::int16_t>(codes, v, draws, norm, s, max_level, n);
}

template <class Code>
void qsgd_dequantize(float* out, const std::uint8_t* codes, float norm, float s,
                     std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    Code c;
    std::memcpy(&c, codes + i * sizeof(Code), sizeof(c));
    out[i] = norm * static_cast<float>(c) / s;
  }
}

void qsgd_dequantize_i8(float* out, const std::uint8_t* codes, float norm, float s,
                        std::size_t n) noexcept {
  qsgd_dequantize<std::int8_t>(out, codes, norm, s, n);
}
void qsgd_dequantize_i16(float* out, const std::uint8_t* codes, float norm, float s,
                         std::size_t n) noexcept {
  qsgd_dequantize<std::int16_t>(out, codes, norm, s, n);
}

// --- counter-based Gaussian noise -------------------------------------------
// Philox4x32-10 constants (Random123): round multipliers and Weyl key bumps.
constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u, kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u, kPhiloxW1 = 0xBB67AE85u;
constexpr int kPhiloxRounds = 10;

std::array<std::uint32_t, 4> philox(std::array<std::uint32_t, 4> c,
                                    std::array<std::uint32_t, 2> k) noexcept {
  for (int r = 0; r < kPhiloxRounds; ++r) {
    if (r > 0) {
      k[0] += kPhiloxW0;
      k[1] += kPhiloxW1;
    }
    const std::uint64_t p0 = static_cast<std::uint64_t>(kPhiloxM0) * c[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kPhiloxM1) * c[2];
    c = {static_cast<std::uint32_t>(p1 >> 32) ^ c[1] ^ k[0], static_cast<std::uint32_t>(p1),
         static_cast<std::uint32_t>(p0 >> 32) ^ c[3] ^ k[1], static_cast<std::uint32_t>(p0)};
  }
  return c;
}

double from_bits(std::uint64_t b) noexcept {
  double d = 0.0;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}
std::uint64_t to_bits(double d) noexcept {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;  // 1.0
constexpr std::uint64_t kMantissa = 0x000FFFFFFFFFFFFFull;
constexpr double kSqrt2 = 1.41421356237309504880;
// ln 2 split so e·ln2_hi is exact for |e| < 2^11 (fdlibm e_log.c).
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
// fdlibm minimax coefficients: log(1+f) = f − s·(f − R(s²)), s = f/(2+f).
constexpr double kLg1 = 6.666666666666735130e-01, kLg2 = 3.999999999940941908e-01,
                 kLg3 = 2.857142874366239149e-01, kLg4 = 2.222219843214978396e-01,
                 kLg5 = 1.818357216161805012e-01, kLg6 = 1.531383769920937332e-01,
                 kLg7 = 1.479819860511658591e-01;
// fdlibm k_sin.c / k_cos.c minimax coefficients on [−π/4, π/4].
constexpr double kS1 = -1.66666666666666324348e-01, kS2 = 8.33333333332248946124e-03,
                 kS3 = -1.98412698298579493134e-04, kS4 = 2.75573137070700676789e-06,
                 kS5 = -2.50507602534068634195e-08, kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02, kC2 = -1.38888888888741095749e-03,
                 kC3 = 2.48015872894767294178e-05, kC4 = -2.75573143513906633035e-07,
                 kC5 = 2.08757232129817482790e-09, kC6 = -1.13596475577881948265e-11;
constexpr double kHalfPi = 1.57079632679489661923;

// ln(u), u in [2^-52, 1]: u = 2^e·m with m in (√2/2, √2], then the fdlibm
// reduction. Every step below has a lane-wise twin in v2::unit_log4.
double unit_log(double u) noexcept {
  const std::uint64_t b = to_bits(u);
  double e = static_cast<double>(b >> 52) - 1023.0;
  double m = from_bits((b & kMantissa) | kOneBits);
  if (m > kSqrt2) {
    m = m * 0.5;
    e = e + 1.0;
  }
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  // Odd and even coefficients as two independent chains in w = z².
  const double r = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7))) +
                   w * (kLg2 + w * (kLg4 + w * kLg6));
  return e * kLn2Hi - ((s * (f - r) - e * kLn2Lo) - f);
}

// sin and cos of 2πt, t in [0, 1): the quadrant split y = 4t, q = ⌊y + ½⌋,
// x = (y − q)·π/2 is exact up to the final multiply, so no Cody–Waite step.
void sincos_turns(double t, double& sin_out, double& cos_out) noexcept {
  const double y = t * 4.0;
  // y + 0.5 > 0, so truncation is floor.
  const auto q = static_cast<std::int64_t>(y + 0.5);
  const double x = (y - static_cast<double>(q)) * kHalfPi;
  const double z = x * x;
  const double w = z * z;
  const double ps = (kS1 + w * (kS3 + w * kS5)) + z * (kS2 + w * (kS4 + w * kS6));
  const double pc = (kC1 + w * (kC3 + w * kC5)) + z * (kC2 + w * (kC4 + w * kC6));
  const double sn = x + (z * x) * ps;
  const double cs = 1.0 - (0.5 * z - w * pc);
  // θ = q·π/2 + x: odd quadrants swap sin/cos; cos is negated in quadrants
  // 1 and 2, sin in 2 and 3 (q = 4 is quadrant 0).
  const double a = (q & 1) ? sn : cs;
  const double b = (q & 1) ? cs : sn;
  cos_out = ((q + 1) & 2) ? -a : a;
  sin_out = (q & 2) ? -b : b;
}

// The σ-scaled Box–Muller pair of one counter, as floats: (cos, sin) arms.
void noise_pair(const NoiseStream& st, std::uint64_t pair, double sigma, float& n0,
                float& n1) noexcept {
  const auto x = philox({static_cast<std::uint32_t>(pair), st.round, st.client, st.release},
                        st.key);
  // Top 52 bits of each 64-bit half: u1 = 1 − k·2^-52 in [2^-52, 1] (never
  // 0, so the radius tops out at √(104·ln 2) ≈ 8.5σ), t = k'·2^-52 in [0, 1).
  const std::uint64_t w1 = ((static_cast<std::uint64_t>(x[1]) << 32) | x[0]) >> 12;
  const std::uint64_t w2 = ((static_cast<std::uint64_t>(x[3]) << 32) | x[2]) >> 12;
  const double u1 = 2.0 - from_bits(w1 | kOneBits);
  const double t = from_bits(w2 | kOneBits) - 1.0;
  const double rs = std::sqrt(-2.0 * unit_log(u1)) * sigma;
  double sn = 0.0, cs = 0.0;
  sincos_turns(t, sn, cs);
  n0 = static_cast<float>(rs * cs);
  n1 = static_cast<float>(rs * sn);
}

void perturb_store_one(std::uint8_t* dst, float u, float clip_scale, float noise) noexcept {
  const float v = u * clip_scale + noise;
  std::memcpy(dst, &v, sizeof(v));
}

void dp_perturb_store_bytes(std::uint8_t* dst, const float* u, float clip_scale,
                            double sigma, const NoiseStream& st, std::uint64_t first,
                            std::size_t n) noexcept {
  std::size_t j = 0;
  float n0 = 0.0f, n1 = 0.0f;
  if (n > 0 && (first & 1u)) {  // odd start: the sin arm of pair first/2
    noise_pair(st, first >> 1, sigma, n0, n1);
    perturb_store_one(dst, u[0], clip_scale, n1);
    j = 1;
  }
  for (; j + 2 <= n; j += 2) {
    noise_pair(st, (first + j) >> 1, sigma, n0, n1);
    perturb_store_one(dst + j * sizeof(float), u[j], clip_scale, n0);
    perturb_store_one(dst + (j + 1) * sizeof(float), u[j + 1], clip_scale, n1);
  }
  if (j < n) {  // lone cos arm at the end
    noise_pair(st, (first + j) >> 1, sigma, n0, n1);
    perturb_store_one(dst + j * sizeof(float), u[j], clip_scale, n0);
  }
}

}  // namespace sc

// ---------------------------------------------------------------------------
// AVX2 table. Each kernel runs the scalar loop on the tail; the vector body
// performs the identical arithmetic lane-wise, without FMA.
// ---------------------------------------------------------------------------
#ifdef OF_SIMD_X86

#define OF_AVX2 __attribute__((target("avx2")))
#define OF_AVX2_F16C __attribute__((target("avx2,f16c")))

namespace v2 {

OF_AVX2 void add(float* d, const float* o, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(d + i, _mm256_add_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(o + i)));
  sc::add(d + i, o + i, n - i);
}
OF_AVX2 void sub(float* d, const float* o, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(d + i, _mm256_sub_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(o + i)));
  sc::sub(d + i, o + i, n - i);
}
OF_AVX2 void mul(float* d, const float* o, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(d + i, _mm256_mul_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(o + i)));
  sc::mul(d + i, o + i, n - i);
}
OF_AVX2 void div(float* d, const float* o, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(d + i, _mm256_div_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(o + i)));
  sc::div(d + i, o + i, n - i);
}
OF_AVX2 void axpy(float* d, const float* o, float alpha, std::size_t n) noexcept {
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        d + i, _mm256_add_ps(_mm256_loadu_ps(d + i),
                             _mm256_mul_ps(av, _mm256_loadu_ps(o + i))));
  sc::axpy(d + i, o + i, alpha, n - i);
}
OF_AVX2 void scale(float* d, float v, std::size_t n) noexcept {
  const __m256 vv = _mm256_set1_ps(v);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(d + i, _mm256_mul_ps(_mm256_loadu_ps(d + i), vv));
  sc::scale(d + i, v, n - i);
}
OF_AVX2 void add_scalar(float* d, float v, std::size_t n) noexcept {
  const __m256 vv = _mm256_set1_ps(v);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(d + i, _mm256_add_ps(_mm256_loadu_ps(d + i), vv));
  sc::add_scalar(d + i, v, n - i);
}
OF_AVX2 void clamp(float* d, float lo, float hi, std::size_t n) noexcept {
  const __m256 lov = _mm256_set1_ps(lo), hiv = _mm256_set1_ps(hi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_max_ps(_mm256_loadu_ps(d + i), lov);
    _mm256_storeu_ps(d + i, _mm256_min_ps(t, hiv));
  }
  sc::clamp(d + i, lo, hi, n - i);
}
OF_AVX2 void accum_weighted(float* acc, const float* s, float w, std::size_t n) noexcept {
  const __m256 wv = _mm256_set1_ps(w);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i),
                               _mm256_mul_ps(_mm256_loadu_ps(s + i), wv)));
  sc::accum_weighted(acc + i, s + i, w, n - i);
}

// dst8 = float(double(src8) * scale); also ANDs the finite mask of src into
// `ok`. Shared body of the three scale-store variants.
OF_AVX2 inline __m256 scale8_f64(const float* src, __m256d scale2, bool& ok) noexcept {
  const __m256 x = _mm256_loadu_ps(src);
  // x - x is 0 for finite values, NaN for ±inf/NaN.
  const __m256 diff = _mm256_sub_ps(x, x);
  const __m256 fin = _mm256_cmp_ps(diff, _mm256_setzero_ps(), _CMP_EQ_OQ);
  ok &= _mm256_movemask_ps(fin) == 0xff;
  const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
  const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1));
  const __m128 rlo = _mm256_cvtpd_ps(_mm256_mul_pd(lo, scale2));
  const __m128 rhi = _mm256_cvtpd_ps(_mm256_mul_pd(hi, scale2));
  return _mm256_set_m128(rhi, rlo);
}

OF_AVX2 bool scale_store(float* dst, const float* src, double scale,
                         std::size_t n) noexcept {
  const __m256d sv = _mm256_set1_pd(scale);
  bool ok = true;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(dst + i, scale8_f64(src + i, sv, ok));
  ok &= sc::scale_store(dst + i, src + i, scale, n - i);
  return ok;
}
OF_AVX2 bool scale_store_bytes(std::uint8_t* dst, const float* src, double scale,
                               std::size_t n) noexcept {
  const __m256d sv = _mm256_set1_pd(scale);
  bool ok = true;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r = scale8_f64(src + i, sv, ok);
    _mm256_storeu_ps(reinterpret_cast<float*>(dst + i * sizeof(float)), r);
  }
  ok &= sc::scale_store_bytes(dst + i * sizeof(float), src + i, scale, n - i);
  return ok;
}
OF_AVX2_F16C bool scale_store_f16_bytes(std::uint8_t* dst, const float* src,
                                        double scale, std::size_t n) noexcept {
  const __m256d sv = _mm256_set1_pd(scale);
  bool ok = true;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r = scale8_f64(src + i, sv, ok);
    const __m128i h = _mm256_cvtps_ph(r, _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i * sizeof(std::uint16_t)), h);
  }
  ok &= sc::scale_store_f16_bytes(dst + i * sizeof(std::uint16_t), src + i, scale,
                                  n - i);
  return ok;
}

OF_AVX2 void accum_scaled_bytes(float* acc, const std::uint8_t* src, double alpha,
                                std::size_t n) noexcept {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x =
        _mm256_loadu_ps(reinterpret_cast<const float*>(src + i * sizeof(float)));
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1));
    const __m128 rlo = _mm256_cvtpd_ps(_mm256_mul_pd(lo, av));
    const __m128 rhi = _mm256_cvtpd_ps(_mm256_mul_pd(hi, av));
    const __m256 r = _mm256_set_m128(rhi, rlo);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), r));
  }
  sc::accum_scaled_bytes(acc + i, src + i * sizeof(float), alpha, n - i);
}

OF_AVX2_F16C void accum_scaled_f16_bytes(float* acc, const std::uint8_t* src,
                                         double alpha, std::size_t n) noexcept {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i * sizeof(std::uint16_t)));
    const __m256 x = _mm256_cvtph_ps(h);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1));
    const __m128 rlo = _mm256_cvtpd_ps(_mm256_mul_pd(lo, av));
    const __m128 rhi = _mm256_cvtpd_ps(_mm256_mul_pd(hi, av));
    const __m256 r = _mm256_set_m128(rhi, rlo);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), r));
  }
  sc::accum_scaled_f16_bytes(acc + i, src + i * sizeof(std::uint16_t), alpha, n - i);
}

OF_AVX2 double sum_squares(const float* x, std::size_t n) noexcept {
  __m256d acc4 = _mm256_setzero_pd();
  const std::size_t n4 = n & ~static_cast<std::size_t>(3);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d d = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    acc4 = _mm256_add_pd(acc4, _mm256_mul_pd(d, d));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc4);
  double acc = ((lane[0] + lane[1]) + lane[2]) + lane[3];
  for (std::size_t i = n4; i < n; ++i) {
    const double d = static_cast<double>(x[i]);
    acc += d * d;
  }
  return acc;
}

OF_AVX2_F16C void f32_to_f16(std::uint16_t* dst, const float* src,
                             std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm256_cvtps_ph(_mm256_loadu_ps(src + i), _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  sc::f32_to_f16(dst + i, src + i, n - i);
}
OF_AVX2_F16C void f16_to_f32(float* dst, const std::uint16_t* src,
                             std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  sc::f16_to_f32(dst + i, src + i, n - i);
}

// 8 QSGD level codes (sign folded) as int32 lanes — shared by the i8/i16
// packers. Lane-wise transcription of sc::qsgd_quantize.
OF_AVX2 inline __m256i qsgd_levels8(const float* v, const float* draws, __m256 normv,
                                    __m256 sv, __m256i maxv) noexcept {
  const __m256 x = _mm256_loadu_ps(v);
  const __m256 absx =
      _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
  const __m256 a = _mm256_mul_ps(_mm256_div_ps(absx, normv), sv);
  const __m256 fa = _mm256_floor_ps(a);
  const __m256 frac = _mm256_sub_ps(a, fa);
  __m256i level = _mm256_cvttps_epi32(fa);
  // draw < frac → mask is all-ones → subtracting it adds 1.
  const __m256i up = _mm256_castps_si256(
      _mm256_cmp_ps(_mm256_loadu_ps(draws), frac, _CMP_LT_OQ));
  level = _mm256_sub_epi32(level, up);
  level = _mm256_min_epu32(level, maxv);
  // v < 0 → negate via (level ^ mask) - mask (two's complement).
  const __m256i neg =
      _mm256_castps_si256(_mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_LT_OQ));
  return _mm256_sub_epi32(_mm256_xor_si256(level, neg), neg);
}

OF_AVX2 void qsgd_quantize_i8(std::int8_t* codes, const float* v, const float* draws,
                              float norm, float s, std::uint32_t max_level,
                              std::size_t n) noexcept {
  const __m256 normv = _mm256_set1_ps(norm), sv = _mm256_set1_ps(s);
  const __m256i maxv = _mm256_set1_epi32(static_cast<int>(max_level));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i lv = qsgd_levels8(v + i, draws + i, normv, sv, maxv);
    const __m128i lo = _mm256_castsi256_si128(lv);
    const __m128i hi = _mm256_extracti128_si256(lv, 1);
    // Values are in [-127, 127] (max_level ≤ 127), so saturating packs are
    // exact narrowing.
    const __m128i w = _mm_packs_epi32(lo, hi);
    const __m128i b = _mm_packs_epi16(w, w);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(codes + i), b);
  }
  sc::qsgd_quantize_i8(codes + i, v + i, draws + i, norm, s, max_level, n - i);
}
OF_AVX2 void qsgd_quantize_i16(std::int16_t* codes, const float* v,
                               const float* draws, float norm, float s,
                               std::uint32_t max_level, std::size_t n) noexcept {
  const __m256 normv = _mm256_set1_ps(norm), sv = _mm256_set1_ps(s);
  const __m256i maxv = _mm256_set1_epi32(static_cast<int>(max_level));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i lv = qsgd_levels8(v + i, draws + i, normv, sv, maxv);
    const __m128i lo = _mm256_castsi256_si128(lv);
    const __m128i hi = _mm256_extracti128_si256(lv, 1);
    const __m128i w = _mm_packs_epi32(lo, hi);  // exact: |level| ≤ 32767
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + i), w);
  }
  sc::qsgd_quantize_i16(codes + i, v + i, draws + i, norm, s, max_level, n - i);
}

OF_AVX2 void qsgd_dequantize_i8(float* out, const std::uint8_t* codes, float norm,
                                float s, std::size_t n) noexcept {
  const __m256 normv = _mm256_set1_ps(norm), sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i));
    const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
    _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_mul_ps(normv, f), sv));
  }
  sc::qsgd_dequantize_i8(out + i, codes + i, norm, s, n - i);
}
OF_AVX2 void qsgd_dequantize_i16(float* out, const std::uint8_t* codes, float norm,
                                 float s, std::size_t n) noexcept {
  const __m256 normv = _mm256_set1_ps(norm), sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i w = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(codes + i * sizeof(std::int16_t)));
    const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(w));
    _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_mul_ps(normv, f), sv));
  }
  sc::qsgd_dequantize_i16(out + i, codes + i * sizeof(std::int16_t), norm, s, n - i);
}

// Four Philox4x32-10 blocks, one per 64-bit lane: each 32-bit word sits in
// the low half of its lane. _mm256_mul_epu32 reads only those low halves,
// so the high halves may carry junk until the words are assembled.
struct Philox4 {
  __m256i x0, x1, x2, x3;
};

OF_AVX2 inline Philox4 philox4(__m256i c0, __m256i c1, __m256i c2, __m256i c3,
                               const __m256i* k0, const __m256i* k1) noexcept {
  const __m256i m0 = _mm256_set1_epi64x(sc::kPhiloxM0);
  const __m256i m1 = _mm256_set1_epi64x(sc::kPhiloxM1);
#pragma GCC unroll 10
  for (int r = 0; r < sc::kPhiloxRounds; ++r) {
    const __m256i p0 = _mm256_mul_epu32(c0, m0);
    const __m256i p1 = _mm256_mul_epu32(c2, m1);
    // hi(p) → low dword by a shuffle (port 5) rather than a shift, which
    // would compete with the multiplies for ports 0/1.
    const __m256i h0 = _mm256_shuffle_epi32(p0, _MM_SHUFFLE(3, 3, 1, 1));
    const __m256i h1 = _mm256_shuffle_epi32(p1, _MM_SHUFFLE(3, 3, 1, 1));
    c0 = _mm256_xor_si256(_mm256_xor_si256(h1, c1), k0[r]);
    c1 = p1;
    c2 = _mm256_xor_si256(_mm256_xor_si256(h0, c3), k1[r]);
    c3 = p0;
  }
  return {c0, c1, c2, c3};
}

// Top 52 bits of the 64-bit word (hi:lo) OR'd under the exponent of 1.0:
// the double 1 + k·2^-52.
OF_AVX2 inline __m256d one_plus_52(__m256i lo, __m256i hi) noexcept {
  const __m256i w = _mm256_or_si256(_mm256_slli_epi64(hi, 32),
                                    _mm256_and_si256(lo, _mm256_set1_epi64x(0xFFFFFFFFll)));
  return _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_srli_epi64(w, 12), _mm256_set1_epi64x(static_cast<long long>(sc::kOneBits))));
}

// c0 + w·(c1 + w·c2) and c0 + w·(c1 + w·(c2 + w·c3)), Horner, unfused.
OF_AVX2 inline __m256d poly2(__m256d w, double c0, double c1, double c2) noexcept {
  __m256d p = _mm256_add_pd(_mm256_set1_pd(c1), _mm256_mul_pd(w, _mm256_set1_pd(c2)));
  return _mm256_add_pd(_mm256_set1_pd(c0), _mm256_mul_pd(w, p));
}
OF_AVX2 inline __m256d poly3(__m256d w, double c0, double c1, double c2, double c3) noexcept {
  __m256d p = _mm256_add_pd(_mm256_set1_pd(c2), _mm256_mul_pd(w, _mm256_set1_pd(c3)));
  p = _mm256_add_pd(_mm256_set1_pd(c1), _mm256_mul_pd(w, p));
  return _mm256_add_pd(_mm256_set1_pd(c0), _mm256_mul_pd(w, p));
}

OF_AVX2 inline __m256d unit_log4(__m256d u) noexcept {
  const __m256i b = _mm256_castpd_si256(u);
  // Exponent field → double via the 2^52 magic: (2^52 + k) − 2^52 = k.
  const __m256d magic = _mm256_set1_pd(0x1p52);
  const __m256d ef = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(b, 52), _mm256_castpd_si256(magic))),
      magic);
  __m256d e = _mm256_sub_pd(ef, _mm256_set1_pd(1023.0));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(b, _mm256_set1_epi64x(static_cast<long long>(sc::kMantissa))),
      _mm256_set1_epi64x(static_cast<long long>(sc::kOneBits))));
  const __m256d big = _mm256_cmp_pd(m, _mm256_set1_pd(sc::kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
  e = _mm256_blendv_pd(e, _mm256_add_pd(e, _mm256_set1_pd(1.0)), big);
  const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d r = _mm256_add_pd(
      _mm256_mul_pd(z, poly3(w, sc::kLg1, sc::kLg3, sc::kLg5, sc::kLg7)),
      _mm256_mul_pd(w, poly2(w, sc::kLg2, sc::kLg4, sc::kLg6)));
  const __m256d hi = _mm256_mul_pd(e, _mm256_set1_pd(sc::kLn2Hi));
  const __m256d lo = _mm256_mul_pd(e, _mm256_set1_pd(sc::kLn2Lo));
  return _mm256_sub_pd(
      hi, _mm256_sub_pd(_mm256_sub_pd(_mm256_mul_pd(s, _mm256_sub_pd(f, r)), lo), f));
}

OF_AVX2 inline void sincos_turns4(__m256d t, __m256d& sin_out, __m256d& cos_out) noexcept {
  const __m256d y = _mm256_mul_pd(t, _mm256_set1_pd(4.0));
  const __m256d q = _mm256_floor_pd(_mm256_add_pd(y, _mm256_set1_pd(0.5)));
  const __m256d x = _mm256_mul_pd(_mm256_sub_pd(y, q), _mm256_set1_pd(sc::kHalfPi));
  const __m256d z = _mm256_mul_pd(x, x);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d ps = _mm256_add_pd(poly2(w, sc::kS1, sc::kS3, sc::kS5),
                                   _mm256_mul_pd(z, poly2(w, sc::kS2, sc::kS4, sc::kS6)));
  const __m256d pc = _mm256_add_pd(poly2(w, sc::kC1, sc::kC3, sc::kC5),
                                   _mm256_mul_pd(z, poly2(w, sc::kC2, sc::kC4, sc::kC6)));
  const __m256d sn = _mm256_add_pd(x, _mm256_mul_pd(_mm256_mul_pd(z, x), ps));
  const __m256d cs = _mm256_sub_pd(
      _mm256_set1_pd(1.0),
      _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), z), _mm256_mul_pd(w, pc)));
  // q in {0..4} as an integer in the low mantissa bits (2^52 magic). Bit 0
  // (moved to the sign bit) drives blendv; bits 1 of q+1 and q are the cos
  // and sin sign flips.
  const __m256i qi = _mm256_castpd_si256(_mm256_add_pd(q, _mm256_set1_pd(0x1p52)));
  const __m256d odd = _mm256_castsi256_pd(_mm256_slli_epi64(qi, 63));
  const __m256d a = _mm256_blendv_pd(cs, sn, odd);
  const __m256d b = _mm256_blendv_pd(sn, cs, odd);
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  const __m256i cneg = _mm256_and_si256(
      _mm256_slli_epi64(_mm256_add_epi64(qi, _mm256_set1_epi64x(1)), 62), sign);
  const __m256i sneg = _mm256_and_si256(_mm256_slli_epi64(qi, 62), sign);
  cos_out = _mm256_xor_pd(a, _mm256_castsi256_pd(cneg));
  sin_out = _mm256_xor_pd(b, _mm256_castsi256_pd(sneg));
}

OF_AVX2 void dp_perturb_store_bytes(std::uint8_t* dst, const float* u, float clip_scale,
                                    double sigma, const NoiseStream& st,
                                    std::uint64_t first, std::size_t n) noexcept {
  std::size_t j = 0;
  if (n > 0 && (first & 1u)) {  // align to a pair boundary on the scalar path
    sc::dp_perturb_store_bytes(dst, u, clip_scale, sigma, st, first, 1);
    j = 1;
  }
  if (j + 8 <= n) {
    // Round keys and the lane-invariant counter words (round, client,
    // release) are broadcast once.
    __m256i k0[sc::kPhiloxRounds], k1[sc::kPhiloxRounds];
    std::uint32_t ka = st.key[0], kb = st.key[1];
    for (int r = 0; r < sc::kPhiloxRounds; ++r) {
      k0[r] = _mm256_set1_epi64x(ka);
      k1[r] = _mm256_set1_epi64x(kb);
      ka += sc::kPhiloxW0;
      kb += sc::kPhiloxW1;
    }
    const __m256i c1 = _mm256_set1_epi64x(st.round);
    const __m256i c2 = _mm256_set1_epi64x(st.client);
    const __m256i c3 = _mm256_set1_epi64x(st.release);
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256d sg = _mm256_set1_pd(sigma);
    const __m256 cv = _mm256_set1_ps(clip_scale);
    // Three short passes over a block of pairs instead of one long loop
    // body: each pass's iterations are independent, so the out-of-order
    // core overlaps the Philox, log and sincos latency chains.
    constexpr std::size_t kBlockPairs = 32;
    alignas(32) double radius[kBlockPairs], turn[kBlockPairs];
    while (j + 8 <= n) {
      const std::size_t pairs = std::min(kBlockPairs, ((n - j) / 8) * 4);
      const auto pair0 = static_cast<long long>((first + j) >> 1);
      for (std::size_t g = 0; g < pairs; g += 4) {
        const __m256i ctr =
            _mm256_add_epi64(_mm256_set1_epi64x(pair0 + static_cast<long long>(g)), lane);
        const Philox4 x = philox4(ctr, c1, c2, c3, k0, k1);
        _mm256_store_pd(radius + g,
                        _mm256_sub_pd(_mm256_set1_pd(2.0), one_plus_52(x.x0, x.x1)));
        _mm256_store_pd(turn + g, _mm256_sub_pd(one_plus_52(x.x2, x.x3), _mm256_set1_pd(1.0)));
      }
      for (std::size_t g = 0; g < pairs; g += 4) {
        const __m256d l = unit_log4(_mm256_load_pd(radius + g));
        _mm256_store_pd(radius + g, _mm256_mul_pd(
            _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), l)), sg));
      }
      for (std::size_t g = 0; g < pairs; g += 4) {
        __m256d sn, cs;
        sincos_turns4(_mm256_load_pd(turn + g), sn, cs);
        const __m256d rs = _mm256_load_pd(radius + g);
        const __m128 n0 = _mm256_cvtpd_ps(_mm256_mul_pd(rs, cs));
        const __m128 n1 = _mm256_cvtpd_ps(_mm256_mul_pd(rs, sn));
        // Interleave the arms: coordinate 2p takes cos, 2p+1 takes sin.
        const __m256 noise =
            _mm256_set_m128(_mm_unpackhi_ps(n0, n1), _mm_unpacklo_ps(n0, n1));
        const std::size_t at = j + 2 * g;
        const __m256 v = _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(u + at), cv), noise);
        _mm256_storeu_ps(reinterpret_cast<float*>(dst + at * sizeof(float)), v);
      }
      j += 2 * pairs;
    }
  }
  sc::dp_perturb_store_bytes(dst + j * sizeof(float), u + j, clip_scale, sigma, st,
                             first + j, n - j);
}

// The register tile: MR rows × NV·8 columns of accumulators (at most
// 12 ymm registers), each lane the same +0-seeded mul-then-add chain as
// sc::gemm_tile. Partial column tiles compute the panel's zero padding and
// store only nr lanes.
template <int MR, int NV>
OF_AVX2 void gemm_tile_mr(float* c, std::size_t ldc, const float* a, std::size_t a_row,
                          std::size_t a_col, const float* b, std::size_t ldb,
                          const float* bias, bool accumulate, std::size_t k,
                          std::size_t nr) noexcept {
  __m256 acc[MR][NV];
#pragma GCC unroll 6
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < k; ++kk) {
    __m256 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(b + kk * ldb + 8 * v);
#pragma GCC unroll 6
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * a_row + kk * a_col);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < MR; ++r) {
    float* row = c + r * ldc;
    if (nr == 8 * NV) {
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        __m256 o = acc[r][v];
        if (accumulate) o = _mm256_add_ps(_mm256_loadu_ps(row + 8 * v), o);
        else if (bias) o = _mm256_add_ps(o, _mm256_loadu_ps(bias + 8 * v));
        _mm256_storeu_ps(row + 8 * v, o);
      }
    } else {
      alignas(32) float out[8 * NV];
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        __m256 o = acc[r][v];
        if (!accumulate && bias) o = _mm256_add_ps(o, _mm256_loadu_ps(bias + 8 * v));
        _mm256_store_ps(out + 8 * v, o);
      }
      for (std::size_t j = 0; j < nr; ++j) row[j] = accumulate ? row[j] + out[j] : out[j];
    }
  }
}

template <int NV>
OF_AVX2 void gemm_tile_nv(float* c, std::size_t ldc, const float* a, std::size_t a_row,
                          std::size_t a_col, const float* b, std::size_t ldb,
                          const float* bias, bool accumulate, std::size_t k, std::size_t mr,
                          std::size_t nr) noexcept {
#define OF_GEMM_TILE(MR) \
  gemm_tile_mr<MR, NV>(c, ldc, a, a_row, a_col, b, ldb, bias, accumulate, k, nr)
  switch (mr) {
    case 6: return OF_GEMM_TILE(6);
    case 5: return OF_GEMM_TILE(5);
    case 4: return OF_GEMM_TILE(4);
    case 3: return OF_GEMM_TILE(3);
    case 2: return OF_GEMM_TILE(2);
    default: return OF_GEMM_TILE(1);
  }
#undef OF_GEMM_TILE
}

OF_AVX2 void gemm_tile(float* c, std::size_t ldc, const float* a, std::size_t a_row,
                       std::size_t a_col, const float* b, std::size_t ldb, const float* bias,
                       bool accumulate, std::size_t k, std::size_t mr, std::size_t nr) noexcept {
  if (nr > 8) gemm_tile_nv<2>(c, ldc, a, a_row, a_col, b, ldb, bias, accumulate, k, mr, nr);
  else gemm_tile_nv<1>(c, ldc, a, a_row, a_col, b, ldb, bias, accumulate, k, mr, nr);
}

}  // namespace v2

#endif  // OF_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

struct Table {
  const char* level;
  void (*add)(float*, const float*, std::size_t) noexcept;
  void (*sub)(float*, const float*, std::size_t) noexcept;
  void (*mul)(float*, const float*, std::size_t) noexcept;
  void (*div)(float*, const float*, std::size_t) noexcept;
  void (*axpy)(float*, const float*, float, std::size_t) noexcept;
  void (*scale)(float*, float, std::size_t) noexcept;
  void (*add_scalar)(float*, float, std::size_t) noexcept;
  void (*clamp)(float*, float, float, std::size_t) noexcept;
  void (*accum_weighted)(float*, const float*, float, std::size_t) noexcept;
  bool (*scale_store)(float*, const float*, double, std::size_t) noexcept;
  bool (*scale_store_bytes)(std::uint8_t*, const float*, double, std::size_t) noexcept;
  bool (*scale_store_f16_bytes)(std::uint8_t*, const float*, double,
                                std::size_t) noexcept;
  void (*accum_scaled_bytes)(float*, const std::uint8_t*, double, std::size_t) noexcept;
  void (*accum_scaled_f16_bytes)(float*, const std::uint8_t*, double,
                                 std::size_t) noexcept;
  double (*sum_squares)(const float*, std::size_t) noexcept;
  void (*f32_to_f16)(std::uint16_t*, const float*, std::size_t) noexcept;
  void (*f16_to_f32)(float*, const std::uint16_t*, std::size_t) noexcept;
  void (*qsgd_quantize_i8)(std::int8_t*, const float*, const float*, float, float,
                           std::uint32_t, std::size_t) noexcept;
  void (*qsgd_quantize_i16)(std::int16_t*, const float*, const float*, float, float,
                            std::uint32_t, std::size_t) noexcept;
  void (*qsgd_dequantize_i8)(float*, const std::uint8_t*, float, float,
                             std::size_t) noexcept;
  void (*qsgd_dequantize_i16)(float*, const std::uint8_t*, float, float,
                              std::size_t) noexcept;
  void (*dp_perturb_store_bytes)(std::uint8_t*, const float*, float, double,
                                 const NoiseStream&, std::uint64_t, std::size_t) noexcept;
  void (*gemm_tile)(float*, std::size_t, const float*, std::size_t, std::size_t,
                    const float*, std::size_t, const float*, bool, std::size_t, std::size_t,
                    std::size_t) noexcept;
};

constexpr Table kScalarTable = {
    "scalar",          sc::add,
    sc::sub,           sc::mul,
    sc::div,           sc::axpy,
    sc::scale,         sc::add_scalar,
    sc::clamp,         sc::accum_weighted,
    sc::scale_store,   sc::scale_store_bytes,
    sc::scale_store_f16_bytes,
    sc::accum_scaled_bytes,
    sc::accum_scaled_f16_bytes,
    sc::sum_squares,   sc::f32_to_f16,
    sc::f16_to_f32,    sc::qsgd_quantize_i8,
    sc::qsgd_quantize_i16,
    sc::qsgd_dequantize_i8,
    sc::qsgd_dequantize_i16,
    sc::dp_perturb_store_bytes,
    sc::gemm_tile,
};

#ifdef OF_SIMD_X86
constexpr Table kAvx2Table = {
    "avx2",            v2::add,
    v2::sub,           v2::mul,
    v2::div,           v2::axpy,
    v2::scale,         v2::add_scalar,
    v2::clamp,         v2::accum_weighted,
    v2::scale_store,   v2::scale_store_bytes,
    v2::scale_store_f16_bytes,
    v2::accum_scaled_bytes,
    v2::accum_scaled_f16_bytes,
    v2::sum_squares,   v2::f32_to_f16,
    v2::f16_to_f32,    v2::qsgd_quantize_i8,
    v2::qsgd_quantize_i16,
    v2::qsgd_dequantize_i8,
    v2::qsgd_dequantize_i16,
    v2::dp_perturb_store_bytes,
    v2::gemm_tile,
};

bool cpu_has_avx2() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
}
#endif

const Table* select(Mode m) noexcept {
#ifdef OF_SIMD_X86
  if (m == Mode::Auto && cpu_has_avx2()) return &kAvx2Table;
#else
  (void)m;
#endif
  return &kScalarTable;
}

std::atomic<Mode> g_mode{Mode::Auto};
// Bound lazily so callers that never go through the Engine (tests, benches)
// still get Auto. select() is deterministic, so the benign first-use race
// stores the same pointer from every thread.
std::atomic<const Table*> g_table{nullptr};

inline const Table& table() noexcept {
  const Table* t = g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = select(g_mode.load(std::memory_order_relaxed));
    g_table.store(t, std::memory_order_release);
  }
  return *t;
}

}  // namespace

void configure(Mode m) noexcept {
  g_mode.store(m, std::memory_order_relaxed);
  g_table.store(select(m), std::memory_order_release);
}

Mode mode() noexcept { return g_mode.load(std::memory_order_relaxed); }

bool avx2_active() noexcept { return table().level[0] == 'a'; }

const char* active_level() noexcept { return table().level; }

void add(float* d, const float* o, std::size_t n) noexcept { table().add(d, o, n); }
void sub(float* d, const float* o, std::size_t n) noexcept { table().sub(d, o, n); }
void mul(float* d, const float* o, std::size_t n) noexcept { table().mul(d, o, n); }
void div(float* d, const float* o, std::size_t n) noexcept { table().div(d, o, n); }
void axpy(float* d, const float* o, float alpha, std::size_t n) noexcept {
  table().axpy(d, o, alpha, n);
}
void scale(float* d, float v, std::size_t n) noexcept { table().scale(d, v, n); }
void add_scalar(float* d, float v, std::size_t n) noexcept {
  table().add_scalar(d, v, n);
}
void clamp(float* d, float lo, float hi, std::size_t n) noexcept {
  table().clamp(d, lo, hi, n);
}
void accum_weighted(float* acc, const float* s, float w, std::size_t n) noexcept {
  // s·1 is exact, so a unit weight (every unweighted mean) takes the add
  // kernel, which skips the multiply: same bits, measurably faster.
  if (w == 1.0f) return table().add(acc, s, n);
  table().accum_weighted(acc, s, w, n);
}
bool scale_store(float* dst, const float* src, double scale, std::size_t n) noexcept {
  return table().scale_store(dst, src, scale, n);
}
bool scale_store_bytes(std::uint8_t* dst, const float* src, double scale,
                       std::size_t n) noexcept {
  return table().scale_store_bytes(dst, src, scale, n);
}
bool scale_store_f16_bytes(std::uint8_t* dst, const float* src, double scale,
                           std::size_t n) noexcept {
  return table().scale_store_f16_bytes(dst, src, scale, n);
}
std::size_t find_nonfinite(const float* src, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(src[i])) return i;
  return n;
}
void accum_scaled_bytes(float* acc, const std::uint8_t* src, double alpha,
                        std::size_t n) noexcept {
  table().accum_scaled_bytes(acc, src, alpha, n);
}
void accum_scaled_f16_bytes(float* acc, const std::uint8_t* src, double alpha,
                            std::size_t n) noexcept {
  table().accum_scaled_f16_bytes(acc, src, alpha, n);
}
double sum_squares(const float* x, std::size_t n) noexcept {
  return table().sum_squares(x, n);
}
void f32_to_f16(std::uint16_t* dst, const float* src, std::size_t n) noexcept {
  table().f32_to_f16(dst, src, n);
}
void f16_to_f32(float* dst, const std::uint16_t* src, std::size_t n) noexcept {
  table().f16_to_f32(dst, src, n);
}
void qsgd_quantize_i8(std::int8_t* codes, const float* v, const float* draws,
                      float norm, float s, std::uint32_t max_level,
                      std::size_t n) noexcept {
  table().qsgd_quantize_i8(codes, v, draws, norm, s, max_level, n);
}
void qsgd_quantize_i16(std::int16_t* codes, const float* v, const float* draws,
                       float norm, float s, std::uint32_t max_level,
                       std::size_t n) noexcept {
  table().qsgd_quantize_i16(codes, v, draws, norm, s, max_level, n);
}
void qsgd_dequantize_i8(float* out, const std::uint8_t* codes, float norm, float s,
                        std::size_t n) noexcept {
  table().qsgd_dequantize_i8(out, codes, norm, s, n);
}
void qsgd_dequantize_i16(float* out, const std::uint8_t* codes, float norm, float s,
                         std::size_t n) noexcept {
  table().qsgd_dequantize_i16(out, codes, norm, s, n);
}
std::array<std::uint32_t, 4> philox4x32_10(std::array<std::uint32_t, 4> ctr,
                                           std::array<std::uint32_t, 2> key) noexcept {
  return sc::philox(ctr, key);
}
void dp_perturb_store_bytes(std::uint8_t* dst, const float* u, float clip_scale,
                            double sigma, const NoiseStream& stream, std::uint64_t first,
                            std::size_t n) noexcept {
  table().dp_perturb_store_bytes(dst, u, clip_scale, sigma, stream, first, n);
}
void gemm(float* c, std::size_t ldc, MatRef a, MatRef b, const float* bias, std::size_t m,
          std::size_t n, std::size_t k, bool accumulate) {
  using sc::kTileCols;
  using sc::kTileRows;
  const Table& t = table();
  // A full-width strip of a row-major b is read in place. Any other strip
  // (b read transposed, or the last columns of a ragged n) is packed
  // k-major into a panel zero-padded to kTileCols, so the tile always reads
  // whole vectors. The panel is reused across calls, and each strip writes
  // all of [0, k · kTileCols) before the tiles read it.
  thread_local std::vector<float> panel;
  alignas(32) float bias_pad[kTileCols];
  for (std::size_t j0 = 0; j0 < n; j0 += kTileCols) {
    const std::size_t nr = std::min(kTileCols, n - j0);
    const float* strip = b.p + j0 * b.col;
    std::size_t ldb = b.row;
    if (b.col != 1 || nr < kTileCols) {
      if (panel.size() < k * kTileCols) panel.resize(k * kTileCols);
      float* pp = panel.data();
      for (std::size_t kk = 0; kk < k; ++kk) {
        float* dst = pp + kk * kTileCols;
        for (std::size_t j = 0; j < nr; ++j) dst[j] = strip[kk * b.row + j * b.col];
        std::fill(dst + nr, dst + kTileCols, 0.0f);
      }
      strip = pp;
      ldb = kTileCols;
    }
    if (bias) {
      std::copy_n(bias + j0, nr, bias_pad);
      std::fill(bias_pad + nr, bias_pad + kTileCols, 0.0f);
    }
    for (std::size_t i0 = 0; i0 < m; i0 += kTileRows) {
      t.gemm_tile(c + i0 * ldc + j0, ldc, a.p + i0 * a.row, a.row, a.col, strip, ldb,
                  bias ? bias_pad : nullptr, accumulate, k, std::min(kTileRows, m - i0), nr);
    }
  }
}

double unit_log(double u) noexcept { return sc::unit_log(u); }
void sincos_turns(double t, double& sin_out, double& cos_out) noexcept {
  sc::sincos_turns(t, sin_out, cos_out);
}

}  // namespace of::simd
