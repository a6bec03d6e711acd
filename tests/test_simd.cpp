// Bitwise-identity property tests for the of::simd dispatch facade: every
// kernel must produce byte-for-byte identical results under the scalar table
// (`exec: {simd: off}`) and the AVX2 table (`auto`), across awkward tail
// lengths and non-finite inputs. On a host without AVX2 both modes bind the
// scalar table and the comparisons are trivially true — the suite still
// exercises the kernels once, so it never silently skips the scalar path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "config/yaml.hpp"
#include "core/engine.hpp"
#include "exec/pool.hpp"
#include "simd/simd.hpp"
#include "tensor/rng.hpp"

namespace {

using of::simd::Mode;
using of::tensor::Rng;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// Lengths chosen to hit the empty case, sub-width tails, exact vector
// widths, width+1 straddles and a long run (AVX2 float width is 8).
const std::size_t kLens[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 1001};

std::vector<float> random_floats(std::size_t n, std::uint64_t seed,
                                 bool specials = false) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.next_float() * 8.0f - 4.0f;
  if (specials && n >= 8) {
    v[1] = kNan;
    v[3] = kInf;
    v[5] = -kInf;
    v[n / 2] = -0.0f;
    v[n - 1] = std::numeric_limits<float>::denorm_min();
  }
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * 4) == 0);
}

// Run `fn` under both tables and require byte-identical buffers out. `fn`
// receives fresh copies of the inputs each time and returns the buffer to
// compare.
template <typename Fn>
void expect_both_tables_equal(Fn&& fn) {
  of::simd::configure(Mode::Off);
  const auto scalar = fn();
  of::simd::configure(Mode::Auto);
  const auto vec = fn();
  of::simd::configure(Mode::Auto);
  EXPECT_EQ(scalar.size(), vec.size());
  if (!scalar.empty())
    EXPECT_EQ(std::memcmp(scalar.data(), vec.data(),
                          scalar.size() * sizeof(scalar[0])),
              0);
}

TEST(SimdIdentity, ElementwiseKernels) {
  for (std::size_t n : kLens) {
    const auto d0 = random_floats(n, 11, /*specials=*/true);
    const auto o = random_floats(n, 22, /*specials=*/true);
    const auto run = [&](auto&& kernel) {
      expect_both_tables_equal([&] {
        std::vector<float> d = d0;
        kernel(d);
        return d;
      });
    };
    run([&](std::vector<float>& d) { of::simd::add(d.data(), o.data(), n); });
    run([&](std::vector<float>& d) { of::simd::sub(d.data(), o.data(), n); });
    run([&](std::vector<float>& d) { of::simd::mul(d.data(), o.data(), n); });
    run([&](std::vector<float>& d) { of::simd::div(d.data(), o.data(), n); });
    run([&](std::vector<float>& d) {
      of::simd::axpy(d.data(), o.data(), 0.37f, n);
    });
    run([&](std::vector<float>& d) { of::simd::scale(d.data(), -1.7f, n); });
    run([&](std::vector<float>& d) { of::simd::add_scalar(d.data(), 0.9f, n); });
    run([&](std::vector<float>& d) { of::simd::clamp(d.data(), -1.0f, 1.0f, n); });
    run([&](std::vector<float>& d) {
      of::simd::accum_weighted(d.data(), o.data(), 0.25f, n);
    });
  }
}

TEST(SimdIdentity, ScaleStoresAndAdmission) {
  for (std::size_t n : kLens) {
    for (bool specials : {false, true}) {
      const auto src = random_floats(n, 33, specials);
      const bool want_finite = !specials || n < 8;
      // f32 store into floats.
      expect_both_tables_equal([&] {
        std::vector<float> dst(n, 0.0f);
        EXPECT_EQ(of::simd::scale_store(dst.data(), src.data(), 0.125, n),
                  want_finite);
        return dst;
      });
      // f32 store into a deliberately unaligned byte buffer.
      expect_both_tables_equal([&] {
        std::vector<std::uint8_t> buf(n * 4 + 1, 0xCD);
        EXPECT_EQ(
            of::simd::scale_store_bytes(buf.data() + 1, src.data(), 3.5, n),
            want_finite);
        return buf;
      });
      // f16 store into an unaligned byte buffer.
      expect_both_tables_equal([&] {
        std::vector<std::uint8_t> buf(n * 2 + 1, 0xCD);
        EXPECT_EQ(
            of::simd::scale_store_f16_bytes(buf.data() + 1, src.data(), 0.75, n),
            want_finite);
        return buf;
      });
      // The cold rescan agrees between tables too.
      of::simd::configure(Mode::Off);
      const std::size_t at_scalar = of::simd::find_nonfinite(src.data(), n);
      of::simd::configure(Mode::Auto);
      EXPECT_EQ(of::simd::find_nonfinite(src.data(), n), at_scalar);
      EXPECT_EQ(at_scalar == n, want_finite);
    }
  }
}

TEST(SimdIdentity, AccumulateFromUnalignedBytes) {
  for (std::size_t n : kLens) {
    const auto src = random_floats(n, 44);
    const auto acc0 = random_floats(n, 55);
    std::vector<std::uint8_t> f32_bytes(n * 4 + 3, 0);
    if (n > 0)  // memcpy from an empty vector's null data() is UB
      std::memcpy(f32_bytes.data() + 3, src.data(), n * 4);
    std::vector<std::uint16_t> halves(n);
    of::simd::f32_to_f16(halves.data(), src.data(), n);
    std::vector<std::uint8_t> f16_bytes(n * 2 + 1, 0);
    if (n > 0)
      std::memcpy(f16_bytes.data() + 1, halves.data(), n * 2);
    expect_both_tables_equal([&] {
      std::vector<float> acc = acc0;
      of::simd::accum_scaled_bytes(acc.data(), f32_bytes.data() + 3, 0.2, n);
      return acc;
    });
    expect_both_tables_equal([&] {
      std::vector<float> acc = acc0;
      of::simd::accum_scaled_f16_bytes(acc.data(), f16_bytes.data() + 1, 0.2, n);
      return acc;
    });
  }
}

TEST(SimdIdentity, SumSquaresFixedLanes) {
  for (std::size_t n : kLens) {
    const auto x = random_floats(n, 66);
    of::simd::configure(Mode::Off);
    const double scalar = of::simd::sum_squares(x.data(), n);
    of::simd::configure(Mode::Auto);
    const double vec = of::simd::sum_squares(x.data(), n);
    // Bitwise, not approximate: the fixed 4-lane accumulation is the contract.
    EXPECT_EQ(std::memcmp(&scalar, &vec, sizeof(double)), 0) << "n=" << n;
  }
}

TEST(SimdIdentity, F16RoundTripExhaustive) {
  // f16→f32 over every one of the 65536 half patterns, then the RTNE
  // f32→f16 round-trip back (NaN payloads may quieten; compare through the
  // float image instead for NaN inputs).
  std::vector<std::uint16_t> halves(1 << 16);
  for (std::size_t i = 0; i < halves.size(); ++i)
    halves[i] = static_cast<std::uint16_t>(i);
  expect_both_tables_equal([&] {
    std::vector<float> f(halves.size());
    of::simd::f16_to_f32(f.data(), halves.data(), halves.size());
    return f;
  });
  std::vector<float> floats(halves.size());
  of::simd::f16_to_f32(floats.data(), halves.data(), halves.size());
  expect_both_tables_equal([&] {
    std::vector<std::uint16_t> back(floats.size());
    of::simd::f32_to_f16(back.data(), floats.data(), floats.size());
    return back;
  });
  // Dense float sweep around the rounding-interesting ranges.
  const auto sweep = [&](float lo, float hi, std::size_t steps) {
    std::vector<float> xs(steps);
    for (std::size_t i = 0; i < steps; ++i)
      xs[i] = lo + (hi - lo) * static_cast<float>(i) / static_cast<float>(steps);
    expect_both_tables_equal([&] {
      std::vector<std::uint16_t> out(xs.size());
      of::simd::f32_to_f16(out.data(), xs.data(), xs.size());
      return out;
    });
  };
  sweep(-2.0f, 2.0f, 40000);            // normals incl. subnormal target range
  sweep(60000.0f, 80000.0f, 10000);     // overflow→inf boundary
  sweep(-1e-7f, 1e-7f, 10000);          // flush-to-subnormal boundary
}

TEST(SimdIdentity, QsgdKernels) {
  for (std::size_t n : kLens) {
    const auto v = random_floats(n, 77);
    const auto draws = random_floats(n, 88);  // [−4,4) is fine: identity only
    const float norm =
        std::sqrt(static_cast<float>(of::simd::sum_squares(v.data(), n)));
    if (!(norm > 0.0f)) continue;
    expect_both_tables_equal([&] {
      std::vector<std::int8_t> codes(n);
      of::simd::qsgd_quantize_i8(codes.data(), v.data(), draws.data(), norm,
                                 127.0f, 127, n);
      return codes;
    });
    expect_both_tables_equal([&] {
      std::vector<std::int16_t> codes(n);
      of::simd::qsgd_quantize_i16(codes.data(), v.data(), draws.data(), norm,
                                  32767.0f, 32767, n);
      return codes;
    });
    std::vector<std::int8_t> c8(n);
    of::simd::qsgd_quantize_i8(c8.data(), v.data(), draws.data(), norm, 127.0f,
                               127, n);
    std::vector<std::uint8_t> c8_bytes(n + 1, 0);
    if (n > 0)
      std::memcpy(c8_bytes.data() + 1, c8.data(), n);
    expect_both_tables_equal([&] {
      std::vector<float> out(n, -1.0f);
      of::simd::qsgd_dequantize_i8(out.data(), c8_bytes.data() + 1, norm,
                                   127.0f, n);
      return out;
    });
    std::vector<std::int16_t> c16(n);
    of::simd::qsgd_quantize_i16(c16.data(), v.data(), draws.data(), norm,
                                32767.0f, 32767, n);
    std::vector<std::uint8_t> c16_bytes(n * 2 + 1, 0);
    if (n > 0)
      std::memcpy(c16_bytes.data() + 1, c16.data(), n * 2);
    expect_both_tables_equal([&] {
      std::vector<float> out(n, -1.0f);
      of::simd::qsgd_dequantize_i16(out.data(), c16_bytes.data() + 1, norm,
                                    32767.0f, n);
      return out;
    });
  }
}

TEST(SimdIdentity, DpClipPerturbStore) {
  const of::simd::NoiseStream stream{{0x1234567u, 0x89ABCDEu}, 3, 5, 1};
  for (std::size_t n : kLens) {
    const auto u = random_floats(n, 99);
    // Even and odd global starts: an odd chunk start begins on a sin arm.
    for (std::uint64_t first : {0ull, 1ull, 6ull, 1001ull, 0xFFFFFFF0ull}) {
      expect_both_tables_equal([&] {
        std::vector<std::uint8_t> buf(n * 4 + 1, 0xEE);
        of::simd::dp_perturb_store_bytes(buf.data() + 1, u.data(), 0.8f, 0.37, stream,
                                         first, n);
        return buf;
      });
    }
  }
}

// Any split of [0, n) into chunks writes the same bytes as one pass: the
// noise of coordinate i depends only on the stream and i.
TEST(SimdIdentity, DpPerturbChunkingInvariant) {
  const of::simd::NoiseStream stream{{7u, 0u}, 1, 2, 0};
  const std::size_t n = 1001;
  const auto u = random_floats(n, 5);
  for (Mode mode : {Mode::Off, Mode::Auto}) {
    of::simd::configure(mode);
    std::vector<std::uint8_t> whole(n * 4);
    of::simd::dp_perturb_store_bytes(whole.data(), u.data(), 0.5f, 1.0, stream, 0, n);
    for (std::size_t chunk : {1u, 3u, 8u, 9u, 17u, 64u}) {
      std::vector<std::uint8_t> split(n * 4, 0);
      for (std::size_t b = 0; b < n; b += chunk) {
        const std::size_t len = std::min(chunk, n - b);
        of::simd::dp_perturb_store_bytes(split.data() + b * 4, u.data() + b, 0.5f, 1.0,
                                         stream, b, len);
      }
      EXPECT_EQ(split, whole) << "chunk " << chunk;
    }
  }
  of::simd::configure(Mode::Auto);
}

// The Box–Muller polynomials against libm over the domains the kernel
// feeds them: every 52-bit radius uniform in (0, 1] and angle in [0, 1).
TEST(SimdNoise, PolynomialsMatchLibm) {
  Rng rng(2024);
  double worst_log = 0.0, worst_trig = 0.0;
  const auto check_log = [&](double u) {
    worst_log = std::max(worst_log, std::fabs(of::simd::unit_log(u) - std::log(u)));
  };
  const auto check_trig = [&](double t) {
    double s = 0.0, c = 0.0;
    of::simd::sincos_turns(t, s, c);
    const double theta = 6.283185307179586476925286766559 * t;
    worst_trig = std::max({worst_trig, std::fabs(s - std::sin(theta)),
                           std::fabs(c - std::cos(theta))});
  };
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t k = rng.next_u64() >> 12;
    check_log(1.0 - static_cast<double>(k) * 0x1p-52);
    // Log-uniform too, so the deep tail's binades are all visited.
    check_log(std::ldexp(1.0 - rng.next_double() * 0.5, -static_cast<int>(k % 52)));
    check_trig(static_cast<double>(k) * 0x1p-52);
  }
  // Endpoints and the reduction's seams (octant and quadrant edges).
  for (double u : {0x1p-52, 0x1p-51, 0.5, 0.70710678118654752, 0.70710678118654757, 1.0})
    check_log(u);
  for (int q = 0; q < 16; ++q) {
    check_trig(q / 16.0);
    check_trig(std::nextafter(q / 16.0, 1.0));
  }
  check_trig(std::nextafter(1.0, 0.0));
  EXPECT_LT(worst_log, 1e-12);
  EXPECT_LT(worst_trig, 1e-12);
}

// --- gemm tiles --------------------------------------------------------------

enum class Op { NN, TN, NT };
// What the tile does with each finished sum: store it, add the bias to it,
// or add it to c's old value.
enum class Epilogue { Store, Bias, Accumulate };

// One product's operands, each at an odd float offset inside its buffer so
// that no row starts on a vector boundary.
struct GemmCase {
  std::size_t m, n, k;
  Op op;
  std::vector<float> a, b, bias;
  static constexpr std::size_t kOffset = 3;

  // op(a) is m × k and op(b) is k × n; a transposed operand is stored as the
  // row-major transpose and read through the strides.
  of::simd::MatRef lhs() const {
    return op == Op::TN ? of::simd::MatRef{a.data() + kOffset, 1, m}
                        : of::simd::MatRef{a.data() + kOffset, k, 1};
  }
  of::simd::MatRef rhs() const {
    return op == Op::NT ? of::simd::MatRef{b.data() + kOffset, 1, k}
                        : of::simd::MatRef{b.data() + kOffset, n, 1};
  }
  float at(const of::simd::MatRef& r, std::size_t i, std::size_t j) const {
    return r.p[i * r.row + j * r.col];
  }
};

GemmCase make_case(std::size_t m, std::size_t n, std::size_t k, Op op, std::uint64_t seed) {
  GemmCase g{m, n, k, op, {}, {}, {}};
  g.a = random_floats(GemmCase::kOffset + m * k, seed);
  g.b = random_floats(GemmCase::kOffset + k * n, seed + 1);
  g.bias = random_floats(GemmCase::kOffset + n, seed + 2);
  return g;
}

// The old value of output element (i, j) in the Accumulate epilogue.
float old_value(std::size_t i, std::size_t j) {
  return static_cast<float>((i * 31 + j * 17) % 23) * 0.25f - 2.5f;
}

// The contract written as the plainest loop: each element starts at +0,
// adds a·b in kk order (the product rounded first; baseline x86-64 has no
// FMA to contract into), then adds the bias or is added to the old value.
std::vector<float> reference_gemm(const GemmCase& g, Epilogue e) {
  const auto a = g.lhs(), b = g.rhs();
  std::vector<float> c(g.m * g.n);
  for (std::size_t i = 0; i < g.m; ++i)
    for (std::size_t j = 0; j < g.n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < g.k; ++kk) {
        const float p = g.at(a, i, kk) * g.at(b, kk, j);
        acc = acc + p;
      }
      if (e == Epilogue::Bias) acc = acc + g.bias[GemmCase::kOffset + j];
      if (e == Epilogue::Accumulate) acc = old_value(i, j) + acc;
      c[i * g.n + j] = acc;
    }
  return c;
}

// Runs the bound table into an output of odd leading dimension n + 5, with
// sentinel bytes around every row, and returns the m × n result.
std::vector<float> table_gemm(const GemmCase& g, Epilogue e) {
  const std::size_t ldc = g.n + 5;
  std::vector<float> c(GemmCase::kOffset + g.m * ldc + 8, -7.0f);
  if (e == Epilogue::Accumulate)
    for (std::size_t i = 0; i < g.m; ++i)
      for (std::size_t j = 0; j < g.n; ++j) c[GemmCase::kOffset + i * ldc + j] = old_value(i, j);
  of::simd::gemm(c.data() + GemmCase::kOffset, ldc, g.lhs(), g.rhs(),
                 e == Epilogue::Bias ? g.bias.data() + GemmCase::kOffset : nullptr, g.m, g.n,
                 g.k, e == Epilogue::Accumulate);
  std::vector<float> out(g.m * g.n);
  for (std::size_t i = 0; i < g.m; ++i) {
    std::copy_n(c.data() + GemmCase::kOffset + i * ldc, g.n, out.data() + i * g.n);
    for (std::size_t j = g.n; j < ldc; ++j)
      EXPECT_EQ(c[GemmCase::kOffset + i * ldc + j], -7.0f) << "wrote past column " << g.n;
  }
  return out;
}

// Equal bytes, except that any NaN matches any NaN: the NaN payload an
// operation returns depends on operand order, which C++ does not pin.
bool same_values(const std::vector<float>& x, const std::vector<float>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) && std::isnan(y[i])) continue;
    if (std::memcmp(&x[i], &y[i], sizeof(float)) != 0) return false;
  }
  return true;
}

TEST(SimdGemm, TablesMatchReferenceAtEveryTileEdge) {
  // m crosses the 6-row tile, n the 8- and 16-wide column tiles (and the
  // models' 10-, 80-, 100- and 256-wide layers), k the batch and layer widths.
  const std::size_t ms[] = {1, 2, 3, 4, 5, 6, 7, 31, 32, 33};
  const std::size_t ns[] = {1, 4, 8, 10, 15, 16, 17, 80, 100, 256};
  const std::size_t ks[] = {1, 32, 80, 256};
  std::uint64_t seed = 100;
  for (Op op : {Op::NN, Op::TN, Op::NT})
    for (std::size_t m : ms)
      for (std::size_t n : ns)
        for (std::size_t k : ks) {
          const GemmCase g = make_case(m, n, k, op, seed += 3);
          const auto e = static_cast<Epilogue>((m + n + k) % 3);
          const auto ref = reference_gemm(g, e);
          of::simd::configure(Mode::Off);
          const auto scalar = table_gemm(g, e);
          of::simd::configure(Mode::Auto);
          const auto vec = table_gemm(g, e);
          ASSERT_TRUE(bitwise_equal(scalar, ref))
              << "scalar m=" << m << " n=" << n << " k=" << k << " op=" << int(op)
              << " epilogue=" << int(e);
          ASSERT_TRUE(bitwise_equal(vec, ref))
              << of::simd::active_level() << " m=" << m << " n=" << n << " k=" << k
              << " op=" << int(op) << " epilogue=" << int(e);
        }
}

TEST(SimdGemm, ZeroTimesInfIsNotSkipped) {
  // A zero in a still multiplies its row of b: 0·Inf and 0·NaN are NaN, so
  // every output column where b holds Inf or NaN is NaN. Other columns keep
  // their finite sums, on both tables, for every op.
  const std::size_t m = 7, n = 20, k = 9;
  for (Op op : {Op::NN, Op::TN, Op::NT}) {
    GemmCase g = make_case(m, n, k, op, 900);
    const auto a = g.lhs(), b = g.rhs();
    const auto set = [](const of::simd::MatRef& r, std::size_t i, std::size_t j, float v) {
      const_cast<float*>(r.p)[i * r.row + j * r.col] = v;
    };
    for (std::size_t i = 0; i < m; ++i) set(a, i, 4, 0.0f);  // column kk = 4 of a is zero
    set(b, 4, 3, kInf);
    set(b, 4, 11, -kInf);
    set(b, 4, 17, kNan);
    const auto ref = reference_gemm(g, Epilogue::Bias);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(std::isnan(ref[i * n + j]), j == 3 || j == 11 || j == 17) << i << "," << j;
    for (Mode mode : {Mode::Off, Mode::Auto}) {
      of::simd::configure(mode);
      EXPECT_TRUE(same_values(table_gemm(g, Epilogue::Bias), ref)) << of::simd::active_level();
    }
  }
  of::simd::configure(Mode::Auto);
}

TEST(SimdGemm, EmptyShapesWriteNothing) {
  std::vector<float> c(4, 5.0f);
  const float ones[2] = {1.0f, 1.0f};  // a is 2 × 1 and b is 1 × 2, row-major
  of::simd::gemm(c.data(), 2, {ones, 1, 1}, {ones, 2, 1}, nullptr, 0, 2, 1);
  of::simd::gemm(c.data(), 2, {ones, 1, 1}, {ones, 2, 1}, nullptr, 2, 0, 1);
  EXPECT_EQ(c, std::vector<float>(4, 5.0f));
  // k = 0 is an empty sum: +0, plus the bias when given.
  const float bias[2] = {1.5f, -0.0f};
  of::simd::gemm(c.data(), 2, {ones, 0, 1}, {ones, 2, 1}, bias, 2, 2, 0);
  EXPECT_EQ(c[0], 1.5f);
  EXPECT_EQ(c[2], 1.5f);
  EXPECT_FALSE(std::signbit(c[1])) << "+0 + -0 is +0";
}

TEST(SimdConfig, ModeKnobBindsTables) {
  of::simd::configure(Mode::Off);
  EXPECT_EQ(of::simd::mode(), Mode::Off);
  EXPECT_FALSE(of::simd::avx2_active());
  EXPECT_STREQ(of::simd::active_level(), "scalar");
  of::simd::configure(Mode::Auto);
  EXPECT_EQ(of::simd::mode(), Mode::Auto);
  // Auto binds whatever the CPU supports; either way the name is reported.
  const char* level = of::simd::active_level();
  EXPECT_TRUE(std::strcmp(level, "avx2") == 0 || std::strcmp(level, "scalar") == 0);
}

// End-to-end: a full federation run under `exec: {simd: off}` must produce
// the same final model bytes and the same deterministic metrics CSV as
// `exec: {simd: auto}` — the whole-pipeline form of the bitwise contract.
TEST(SimdEndToEnd, FederationRunBitwiseIdentical) {
  const auto run_with = [](const char* simd_mode) {
    of::config::ConfigNode cfg = of::config::parse_yaml(R"(
seed: 7
exec:
  threads: 1
  simd: auto
topology:
  _target_: src.omnifed.topology.CentralizedTopology
  num_clients: 4
  inner_comm:
    _target_: src.omnifed.communicator.TorchDistCommunicator
model: mlp_tiny
datamodule:
  preset: toy
  partition: iid
  batch_size: 16
algorithm:
  _target_: src.omnifed.algorithm.FedAvg
  global_rounds: 2
  local_epochs: 1
  lr: 0.05
eval_every: 1
)");
    cfg.set_path("exec.simd", of::config::ConfigNode::string(simd_mode));
    of::core::Engine engine(cfg);
    return engine.run();
  };
  const auto off = run_with("off");
  const auto fast = run_with("auto");
  of::simd::configure(Mode::Auto);
  ASSERT_EQ(off.final_model_bytes.size(), fast.final_model_bytes.size());
  EXPECT_EQ(std::memcmp(off.final_model_bytes.data(),
                        fast.final_model_bytes.data(),
                        off.final_model_bytes.size()),
            0);
  EXPECT_EQ(off.to_metrics_csv(), fast.to_metrics_csv());
}

// Same contract through DP: the fused Philox noise kernel gives the same
// bytes on both tables. A 63-coordinate grain makes the noise pass start
// chunks on odd coordinates.
TEST(SimdEndToEnd, DpFederationRunBitwiseIdentical) {
  const auto run_with = [](const char* simd_mode) {
    of::config::ConfigNode cfg = of::config::parse_yaml(R"(
seed: 7
exec:
  threads: 1
  grain: 63
  simd: auto
topology:
  _target_: src.omnifed.topology.CentralizedTopology
  num_clients: 3
  inner_comm:
    _target_: src.omnifed.communicator.TorchDistCommunicator
model: mlp_tiny
datamodule:
  preset: toy
  partition: iid
  batch_size: 16
privacy:
  _target_: DifferentialPrivacy
  epsilon: 10.0
  delta: 1.0e-5
  clip_norm: 5.0
algorithm:
  _target_: src.omnifed.algorithm.FedAvg
  global_rounds: 2
  local_epochs: 1
  lr: 0.05
eval_every: 1
)");
    cfg.set_path("exec.simd", of::config::ConfigNode::string(simd_mode));
    of::core::Engine engine(cfg);
    return engine.run();
  };
  const auto off = run_with("off");
  const auto fast = run_with("auto");
  of::simd::configure(Mode::Auto);
  of::exec::Pool::global().configure(1);
  ASSERT_FALSE(off.final_model_bytes.empty());
  EXPECT_TRUE(off.final_model_bytes == fast.final_model_bytes)
      << "DP final model diverged between simd off and auto";
  EXPECT_EQ(off.to_metrics_csv(), fast.to_metrics_csv());
}

// Same contract through the compressed (fused quantize-on-the-wire) path.
TEST(SimdEndToEnd, QsgdFederationRunBitwiseIdentical) {
  const auto run_with = [](const char* simd_mode) {
    of::config::ConfigNode cfg = of::config::parse_yaml(R"(
seed: 9
exec:
  threads: 1
  simd: auto
topology:
  _target_: src.omnifed.topology.CentralizedTopology
  num_clients: 3
  inner_comm:
    _target_: src.omnifed.communicator.TorchDistCommunicator
model: mlp_tiny
datamodule:
  preset: toy
  partition: iid
  batch_size: 16
compression:
  _target_: QSGD
  bits: 8
algorithm:
  _target_: src.omnifed.algorithm.FedAvg
  global_rounds: 2
  local_epochs: 1
  lr: 0.05
eval_every: 1
)");
    cfg.set_path("exec.simd", of::config::ConfigNode::string(simd_mode));
    of::core::Engine engine(cfg);
    return engine.run();
  };
  const auto off = run_with("off");
  const auto fast = run_with("auto");
  of::simd::configure(Mode::Auto);
  ASSERT_EQ(off.final_model_bytes.size(), fast.final_model_bytes.size());
  EXPECT_EQ(std::memcmp(off.final_model_bytes.data(),
                        fast.final_model_bytes.data(),
                        off.final_model_bytes.size()),
            0);
  EXPECT_EQ(off.to_metrics_csv(), fast.to_metrics_csv());
}

}  // namespace
