// of::simd — runtime-dispatched portable SIMD kernels (DESIGN.md §15).
//
// Every hot inner loop of the update pipeline (tensor elementwise ops, the
// matmul tiles, the conv axpy, scale-while-flatten stores, frame-body
// accumulation, QSGD quantize/dequantize, DP clip-and-perturb) funnels
// through this facade. At configure() time the facade binds either the
// AVX2 kernel table (when the CPU supports avx2+f16c and the mode allows
// it) or the scalar table; call sites never branch on the ISA themselves.
//
// The contract that makes `exec: {simd: auto}` safe to flip on: every
// kernel's scalar fallback performs the *same arithmetic in the same order*
// as its AVX2 twin, so the two tables produce bitwise-identical results —
// the same discipline of::exec applies to threads=1 vs N. Elementwise
// kernels are lane-independent, so any vector width matches the serial
// loop; reductions (sum_squares) commit to a fixed 4-lane double
// accumulation mirrored exactly by the scalar table. The TU is compiled
// with -ffp-contract=off so the compiler cannot fuse the scalar mul+add
// pairs into FMAs the explicit intrinsics do not use.
//
// Min/max-style kernels (clamp) define their semantics as the intrinsic's
// `(a OP b) ? a : b` operand order, which both tables implement literally —
// NaN propagation is identical by construction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "refl/refl.hpp"

namespace of::simd {

// The `exec: {simd: auto|off}` knob. Auto binds AVX2 when the CPU has it;
// Off forces the scalar table (the bitwise-identity reference).
enum class Mode : std::uint8_t { Auto, Off };

// Bind the kernel table for `mode`. Cheap and thread-safe (an atomic
// pointer swap); the Engine calls it from the exec config before node
// threads spawn, tests flip it per-case.
void configure(Mode mode) noexcept;
Mode mode() noexcept;
// True when the AVX2 table is bound (Auto on a capable CPU).
bool avx2_active() noexcept;
// "avx2" or "scalar" — what level() the bound table implements.
const char* active_level() noexcept;

// --- elementwise kernels (lane-independent; bitwise == serial loop) --------
void add(float* d, const float* o, std::size_t n) noexcept;       // d[i] += o[i]
void sub(float* d, const float* o, std::size_t n) noexcept;       // d[i] -= o[i]
void mul(float* d, const float* o, std::size_t n) noexcept;       // d[i] *= o[i]
void div(float* d, const float* o, std::size_t n) noexcept;       // d[i] /= o[i]
void axpy(float* d, const float* o, float alpha, std::size_t n) noexcept;  // d[i] += alpha*o[i]
void scale(float* d, float v, std::size_t n) noexcept;            // d[i] *= v
void add_scalar(float* d, float v, std::size_t n) noexcept;       // d[i] += v
// d[i] = min(max(d[i], lo), hi) with intrinsic operand order:
// t = (d > lo) ? d : lo; d = (t < hi) ? t : hi.
void clamp(float* d, float lo, float hi, std::size_t n) noexcept;

// acc[i] += s[i] * w (mul then add — never contracted; w == 1 adds s).
void accum_weighted(float* acc, const float* s, float w, std::size_t n) noexcept;

// --- matrix multiply (register-blocked tiles) ------------------------------
// Rows per tile: a caller that splits the rows keeps every chunk but the
// last a multiple of this, so no chunk runs short tiles it need not.
inline constexpr std::size_t kGemmTileRows = 6;

// A read-only matrix operand with arbitrary strides: element (r, c) is
// p[r * row + c * col]. (row, col) = (cols, 1) is a row-major matrix and
// (1, rows) reads the transpose of one in place.
struct MatRef {
  const float* p;
  std::size_t row;
  std::size_t col;
};

// c[i * ldc + j] = Σ_kk a(i, kk) · b(kk, j), plus bias[j] when bias is not
// null, for i < m, j < n, kk < k. Every output is one chain: it starts at
// +0, adds the products in kk order, rounds each product before its add
// (never an FMA), and adds the bias to the finished sum. So the bytes do not
// depend on the table, the 6×16 tile, or how a caller splits the rows. A
// zero a(i, kk) is not skipped: it adds 0 · b(kk, j), which is NaN where
// b(kk, j) is Inf or NaN. Every element of c is written and none is read,
// unless `accumulate` is set: then c[i * ldc + j] becomes c + (Σ), the sum
// formed first, exactly `c += product` of a separately computed product
// (bias must be null).
// A 16-column strip of b that is not row-major and full width is first
// packed into a reused per-thread panel of k × 16 floats.
void gemm(float* c, std::size_t ldc, MatRef a, MatRef b, const float* bias, std::size_t m,
          std::size_t n, std::size_t k, bool accumulate = false);

// --- scale-while-flatten stores (double-precision scale) -------------------
// dst[i] = float(double(src[i]) * scale). Returns true iff every *input*
// was finite — the encode-admission check fused into the store, so the
// NaN/Inf screen costs no extra pass. `dst` variants taking bytes write to
// unaligned frame offsets.
bool scale_store(float* dst, const float* src, double scale, std::size_t n) noexcept;
bool scale_store_bytes(std::uint8_t* dst, const float* src, double scale,
                       std::size_t n) noexcept;
// fp16 wire store: dst[i] = f16_rne(float(double(src[i]) * scale)).
bool scale_store_f16_bytes(std::uint8_t* dst, const float* src, double scale,
                           std::size_t n) noexcept;
// Index of the first non-finite element (n when all finite) — the cold
// rescan that turns a false scale_store flag into a structured error.
std::size_t find_nonfinite(const float* src, std::size_t n) noexcept;

// --- frame-body accumulation (unaligned byte sources) ----------------------
// acc[i] += float(alpha * double(src_f32[i])), src unaligned.
void accum_scaled_bytes(float* acc, const std::uint8_t* src, double alpha,
                        std::size_t n) noexcept;
// acc[i] += float(alpha * double(f32(src_f16[i]))), src unaligned halves.
void accum_scaled_f16_bytes(float* acc, const std::uint8_t* src, double alpha,
                            std::size_t n) noexcept;

// --- fixed-lane reduction --------------------------------------------------
// Sum of squares in double over a fixed 4-lane accumulation: lane j gathers
// elements i ≡ j (mod 4), lanes fold as ((l0+l1)+l2)+l3, tail appended
// serially. Identical on both tables by construction; note the lane
// structure makes this a *different* float sum than a naive serial loop.
double sum_squares(const float* x, std::size_t n) noexcept;

// --- fp16 conversion (wire repr) -------------------------------------------
// Round-to-nearest-even float→half, matching VCVTPS2PH bit-for-bit
// (subnormals produced, overflow→inf, NaN quieted with truncated payload).
void f32_to_f16(std::uint16_t* dst, const float* src, std::size_t n) noexcept;
void f16_to_f32(float* dst, const std::uint16_t* src, std::size_t n) noexcept;

// --- QSGD kernels ----------------------------------------------------------
// Quantize one bucket (norm > 0): per element
//   a = fabs(v)/norm*s; level = floor(a) + (draw < a-floor(a)); clamp to
//   max_level; code = v < 0 ? -level : level.
// `draws` holds one uniform [0,1) float per element (generated by the
// caller's counter-based stream — RNG state advances serially, arithmetic
// vectorizes).
void qsgd_quantize_i8(std::int8_t* codes, const float* v, const float* draws,
                      float norm, float s, std::uint32_t max_level,
                      std::size_t n) noexcept;
void qsgd_quantize_i16(std::int16_t* codes, const float* v, const float* draws,
                       float norm, float s, std::uint32_t max_level,
                       std::size_t n) noexcept;
// Dequantize one bucket: out[i] = norm * float(code[i]) / s (mul then div),
// codes read from the unaligned payload.
void qsgd_dequantize_i8(float* out, const std::uint8_t* codes, float norm, float s,
                        std::size_t n) noexcept;
void qsgd_dequantize_i16(float* out, const std::uint8_t* codes, float norm, float s,
                         std::size_t n) noexcept;

// --- DP clip-and-perturb with counter-based Gaussian noise -----------------
// Philox4x32-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
// 3", SC'11): ten rounds of the Random123 bijection over a 128-bit counter
// under a 64-bit key.
std::array<std::uint32_t, 4> philox4x32_10(std::array<std::uint32_t, 4> ctr,
                                           std::array<std::uint32_t, 2> key) noexcept;

// The stream one DP release draws from. Coordinate i takes element i % 2 of
// the Box–Muller pair drawn from counter (i / 2, round, client, release), so
// every coordinate's noise is a pure function of the stream and i.
struct NoiseStream {
  std::array<std::uint32_t, 2> key{};
  std::uint32_t round = 0;
  std::uint32_t client = 0;
  std::uint32_t release = 0;
};

// dst[j] = float(u[j] * clip_scale + float(sigma·z_{first+j})), stored to
// unaligned bytes: the fused draw + Box–Muller + clip + perturb pass. `first`
// is the global coordinate index of u[0], so any chunking of [0, n) gives
// the same bytes. The Gaussian uses 52-bit uniforms and only exact integer
// ops, +, −, ×, ÷, √ and floor (no libm, no FMA), so both tables agree.
void dp_perturb_store_bytes(std::uint8_t* dst, const float* u, float clip_scale,
                            double sigma, const NoiseStream& stream, std::uint64_t first,
                            std::size_t n) noexcept;

// The kernel's polynomial building blocks (scalar), for the accuracy tests:
// ln(u) for u in [2^-52, 1], and sin/cos of 2πt for t in [0, 1).
double unit_log(double u) noexcept;
void sincos_turns(double t, double& sin_out, double& cos_out) noexcept;

}  // namespace of::simd

template <>
struct of::refl::EnumNames<of::simd::Mode> {
  static constexpr std::pair<of::simd::Mode, const char*> names[] = {
      {of::simd::Mode::Auto, "auto"},
      {of::simd::Mode::Off, "off"},
  };
};
