#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <utility>

#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

// Counts every plain operator new, so a test can assert that a warm decode
// allocates nothing. Array and nothrow forms route through this pair in
// libstdc++, and GCC cannot see that the malloc/free pair matches.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
std::atomic<std::size_t> g_allocs{0};
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using of::tensor::Bytes;
using of::tensor::Rng;
using of::tensor::Shape;
using of::tensor::Tensor;

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.ndim(), 2u);
  EXPECT_EQ(t.size(0), 2u);
  EXPECT_EQ(t.size(1), 3u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FactoryOnesFullArange) {
  EXPECT_EQ(Tensor::ones({4}).sum(), 4.0f);
  EXPECT_EQ(Tensor::full({3}, 2.5f).sum(), 7.5f);
  const Tensor a = Tensor::arange(5);
  EXPECT_EQ(a[0], 0.0f);
  EXPECT_EQ(a[4], 4.0f);
}

TEST(Tensor, FromVectorAndMismatchThrows) {
  const Tensor t = Tensor::from_vector({1, 2, 3});
  EXPECT_EQ(t.numel(), 3u);
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), std::runtime_error);
}

TEST(Tensor, ElementwiseInPlace) {
  Tensor a = Tensor::from_vector({1, 2, 3});
  Tensor b = Tensor::from_vector({4, 5, 6});
  a.add_(b);
  EXPECT_EQ(a[0], 5.0f);
  a.sub_(b);
  EXPECT_EQ(a[2], 3.0f);
  a.mul_(b);
  EXPECT_EQ(a[1], 10.0f);
  a.div_(b);
  EXPECT_FLOAT_EQ(a[1], 2.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(a.add_(b), std::runtime_error);
  EXPECT_THROW(a.dot(b), std::runtime_error);
  EXPECT_THROW(a.add_scaled_(b, 1.0f), std::runtime_error);
}

TEST(Tensor, AddScaled) {
  Tensor a = Tensor::from_vector({1, 1});
  const Tensor b = Tensor::from_vector({2, 4});
  a.add_scaled_(b, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], 3.0f);
}

TEST(Tensor, ScalarOps) {
  Tensor a = Tensor::from_vector({1, -2});
  a.scale_(2.0f);
  EXPECT_EQ(a[1], -4.0f);
  a.add_scalar_(1.0f);
  EXPECT_EQ(a[0], 3.0f);
  a.clamp_(-1.0f, 1.0f);
  EXPECT_EQ(a[1], -1.0f);
  a.abs_();
  EXPECT_EQ(a[1], 1.0f);
  Tensor s = Tensor::from_vector({-3, 0, 5});
  s.sign_();
  EXPECT_EQ(s[0], -1.0f);
  EXPECT_EQ(s[1], 0.0f);
  EXPECT_EQ(s[2], 1.0f);
}

TEST(Tensor, OutOfPlaceOperators) {
  const Tensor a = Tensor::from_vector({1, 2});
  const Tensor b = Tensor::from_vector({3, 4});
  EXPECT_EQ((a + b)[1], 6.0f);
  EXPECT_EQ((b - a)[0], 2.0f);
  EXPECT_EQ((a * b)[1], 8.0f);
  EXPECT_EQ((a * 3.0f)[0], 3.0f);
  EXPECT_EQ((2.0f * a)[1], 4.0f);
  EXPECT_EQ((-a)[0], -1.0f);
}

TEST(Tensor, Reductions) {
  const Tensor t = Tensor::from_vector({3, -1, 4, -1, 5});
  EXPECT_FLOAT_EQ(t.sum(), 10.0f);
  EXPECT_FLOAT_EQ(t.mean(), 2.0f);
  EXPECT_EQ(t.min(), -1.0f);
  EXPECT_EQ(t.max(), 5.0f);
  EXPECT_EQ(t.argmax(), 4u);
  EXPECT_FLOAT_EQ(t.l2_norm_squared(), 9 + 1 + 16 + 1 + 25);
  EXPECT_FLOAT_EQ(t.l2_norm(), std::sqrt(52.0f));
}

TEST(Tensor, Dot) {
  const Tensor a = Tensor::from_vector({1, 2, 3});
  const Tensor b = Tensor::from_vector({4, 5, 6});
  EXPECT_FLOAT_EQ(a.dot(b), 32.0f);
}

TEST(Tensor, ArgmaxRows) {
  Tensor t({2, 3}, std::vector<float>{0, 5, 1, 9, 2, 3});
  const auto rows = t.argmax_rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 1u);
  EXPECT_EQ(rows[1], 0u);
}

TEST(Tensor, MatmulKnownValues) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  const Tensor c = a.matmul(b);
  ASSERT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Tensor, MatmulIdentity) {
  Rng rng(3);
  const Tensor a = Tensor::randn({5, 5}, rng);
  Tensor eye({5, 5});
  for (std::size_t i = 0; i < 5; ++i) eye(i, i) = 1.0f;
  EXPECT_TRUE(a.matmul(eye).allclose(a));
  EXPECT_TRUE(eye.matmul(a).allclose(a));
}

TEST(Tensor, MatmulDimensionMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(a.matmul(b), std::runtime_error);
}

// Explicit copy transpose, for checking the in-place transposed products.
Tensor transposed(const Tensor& t) {
  Tensor out({t.size(1), t.size(0)});
  for (std::size_t i = 0; i < t.size(0); ++i)
    for (std::size_t j = 0; j < t.size(1); ++j) out(j, i) = t(i, j);
  return out;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(Tensor, MatmulTnNtReadTheTransposeInPlace) {
  // Same k-ordered chain per element as a product on a copied transpose,
  // so the bytes agree exactly.
  Rng rng(5);
  const Tensor a = Tensor::randn({7, 3}, rng);
  const Tensor b = Tensor::randn({7, 19}, rng);
  const Tensor c = Tensor::randn({19, 3}, rng);
  const Tensor tn = a.matmul_tn(b);
  EXPECT_EQ(tn.shape(), (Shape{3, 19}));
  EXPECT_TRUE(bitwise_equal(tn, transposed(a).matmul(b)));
  const Tensor nt = b.matmul_nt(b);
  EXPECT_EQ(nt.shape(), (Shape{7, 7}));
  EXPECT_TRUE(bitwise_equal(nt, b.matmul(transposed(b))));
  EXPECT_TRUE(bitwise_equal(a.matmul_nt(c), a.matmul(transposed(c))));
  EXPECT_THROW(a.matmul_tn(c), std::runtime_error);
  EXPECT_THROW(a.matmul_nt(b), std::runtime_error);
}

TEST(Tensor, MatmulTransposeProperty) {
  // (A·B)ᵀ == Bᵀ·Aᵀ
  Rng rng(11);
  const Tensor a = Tensor::randn({4, 6}, rng);
  const Tensor b = Tensor::randn({6, 3}, rng);
  EXPECT_TRUE(transposed(a.matmul(b)).allclose(b.matmul_tn(transposed(a)), 1e-4f, 1e-4f));
}

TEST(Tensor, MatmulIntoReusesStorageAcrossShapes) {
  // A reused output shrinks and regrows (32 -> 1 -> 32 rows) without
  // reallocating, and every element is rewritten each time, bias included.
  Rng rng(13);
  const Tensor w = Tensor::randn({10, 17}, rng);
  const Tensor bias = Tensor::randn({17}, rng);
  Tensor out;
  for (std::size_t rows : {32u, 1u, 32u}) {
    const Tensor x = Tensor::randn({rows, 10}, rng);
    of::tensor::matmul_into(out, x, w, of::tensor::Transpose::None, &bias);
    Tensor expect = x.matmul(w);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < 17; ++j) expect(i, j) = expect(i, j) + bias[j];
    EXPECT_TRUE(bitwise_equal(out, expect)) << rows << " rows";
  }
  const float* storage = out.data();
  of::tensor::matmul_into(out, Tensor::randn({1, 10}, rng), w);
  EXPECT_EQ(out.data(), storage);
  EXPECT_THROW(of::tensor::matmul_into(out, out, w), std::runtime_error);
}

TEST(Tensor, MatmulAccMatchesAddingTheProduct) {
  Rng rng(14);
  const Tensor x = Tensor::randn({32, 20}, rng);
  const Tensor dy = Tensor::randn({32, 17}, rng);
  Tensor grad = Tensor::randn({20, 17}, rng);
  Tensor expect = grad;
  expect.add_(x.matmul_tn(dy));
  of::tensor::matmul_acc(grad, x, dy, of::tensor::Transpose::Lhs);
  EXPECT_TRUE(bitwise_equal(grad, expect));
  Tensor wrong({17, 20});
  EXPECT_THROW(of::tensor::matmul_acc(wrong, x, dy, of::tensor::Transpose::Lhs),
               std::runtime_error);
}

TEST(Tensor, ReshapeAndFlatten) {
  const Tensor t = Tensor::arange(6);
  const Tensor r = t.reshape({2, 3});
  EXPECT_FLOAT_EQ(r(1, 2), 5.0f);
  EXPECT_EQ(r.flatten().shape(), (Shape{6}));
  EXPECT_THROW(t.reshape({4}), std::runtime_error);
}

TEST(Tensor, RowAccessors) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor r = t.row(1);
  EXPECT_EQ(r[0], 4.0f);
  t.set_row(0, Tensor::from_vector({9, 9, 9}));
  EXPECT_EQ(t(0, 2), 9.0f);
  EXPECT_THROW(t.row(5), std::runtime_error);
}

TEST(Tensor, Allclose) {
  const Tensor a = Tensor::from_vector({1.0f, 2.0f});
  Tensor b = a;
  b[0] += 1e-7f;
  EXPECT_TRUE(a.allclose(b));
  b[0] += 1.0f;
  EXPECT_FALSE(a.allclose(b));
  EXPECT_FALSE(a.allclose(Tensor({3})));
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t({2});
  EXPECT_THROW(t.at(2), std::runtime_error);
  EXPECT_NO_THROW(t.at(1));
}

// --- RNG -----------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(7), 7u);
}

TEST(Rng, BernoulliRate) {
  Rng rng(21);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, SplitIndependence) {
  Rng parent(31);
  Rng child = parent.split();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Rng, RandnShapeAndMoments) {
  Rng rng(5);
  const Tensor t = Tensor::randn({100, 100}, rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.mean(), 1.0f, 0.05f);
}

// --- serialization ---------------------------------------------------------------

TEST(Serialize, TensorRoundtrip) {
  Rng rng(7);
  const Tensor t = Tensor::randn({3, 4, 5}, rng);
  const Bytes b = of::tensor::serialize_tensor(t);
  const Tensor u = of::tensor::deserialize_tensor(b);
  EXPECT_EQ(u.shape(), t.shape());
  EXPECT_TRUE(u.allclose(t, 0.0f, 0.0f));
}

TEST(Serialize, EmptyTensorRoundtrip) {
  const Tensor t({0});
  const Tensor u = of::tensor::deserialize_tensor(of::tensor::serialize_tensor(t));
  EXPECT_EQ(u.numel(), 0u);
}

TEST(Serialize, TensorListRoundtrip) {
  Rng rng(7);
  std::vector<Tensor> ts{Tensor::randn({2, 2}, rng), Tensor::randn({5}, rng), Tensor({1})};
  const auto out = of::tensor::deserialize_tensors(of::tensor::serialize_tensors(ts));
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(out[i].allclose(ts[i], 0.0f, 0.0f));
}

TEST(Serialize, TruncatedBufferThrows) {
  Rng rng(7);
  Bytes b = of::tensor::serialize_tensor(Tensor::randn({4}, rng));
  b.pop_back();
  EXPECT_THROW(of::tensor::deserialize_tensor(b), std::runtime_error);
}

TEST(Serialize, TrailingBytesThrow) {
  Rng rng(7);
  Bytes b = of::tensor::serialize_tensor(Tensor::randn({4}, rng));
  b.push_back(0);
  EXPECT_THROW(of::tensor::deserialize_tensor(b), std::runtime_error);
}

TEST(Serialize, TensorListAppendsAfterPrefix) {
  Rng rng(7);
  const std::vector<Tensor> ts{Tensor::randn({3, 2}, rng), Tensor::randn({5}, rng), Tensor({0})};
  const Bytes whole = of::tensor::serialize_tensors(ts);
  Bytes out{0x7E};
  of::tensor::serialize_tensors(ts, out);
  ASSERT_EQ(out.size(), 1 + whole.size());
  EXPECT_EQ(out[0], 0x7E);
  EXPECT_TRUE(std::equal(whole.begin(), whole.end(), out.begin() + 1));
}

// The message of the runtime_error `fn` throws, or "" if it throws none.
std::string rejection(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Serialize, DecodeIntoRejectsWhatDecodeRejects) {
  Rng rng(7);
  const Bytes good = of::tensor::serialize_tensors({Tensor::randn({4}, rng)});
  Bytes truncated = good;
  truncated.pop_back();
  Bytes trailing = good;
  trailing.push_back(0);
  Bytes count_past;  // a count no frame of this size can hold
  of::tensor::append_pod<std::uint32_t>(count_past, 0xFFFFFFFFu);
  Bytes rank9;
  of::tensor::append_pod<std::uint32_t>(rank9, 1);
  of::tensor::append_pod<std::uint32_t>(rank9, 9);
  Bytes dims_past;
  of::tensor::append_pod<std::uint32_t>(dims_past, 1);
  of::tensor::append_pod<std::uint32_t>(dims_past, 1);
  of::tensor::append_pod<std::uint64_t>(dims_past, std::uint64_t{1} << 50);
  const std::pair<const Bytes*, const char*> cases[] = {
      {&truncated, "tensor dims exceed remaining frame"},
      {&trailing, "trailing bytes after tensor list frame"},
      {&count_past, "tensor count 4294967295 exceeds remaining frame"},
      {&rank9, "implausible tensor rank 9"},
      {&dims_past, "tensor dims exceed remaining frame"},
  };
  for (const auto& [frame, want] : cases) {
    const std::string plain = rejection([&] { (void)of::tensor::deserialize_tensors(*frame); });
    std::vector<Tensor> into{Tensor({4})};
    const std::string reused =
        rejection([&] { of::tensor::deserialize_tensors_into(*frame, into); });
    EXPECT_NE(plain.find(want), std::string::npos) << plain;
    EXPECT_NE(reused.find(want), std::string::npos) << reused;
  }
}

TEST(Serialize, DecodeIntoReusesMatchingTensors) {
  Rng rng(7);
  const std::vector<Tensor> a{Tensor::randn({3, 2}, rng), Tensor::randn({5}, rng)};
  const std::vector<Tensor> b{Tensor::randn({3, 2}, rng), Tensor::randn({5}, rng)};
  const Bytes fa = of::tensor::serialize_tensors(a);
  const Bytes fb = of::tensor::serialize_tensors(b);
  std::vector<Tensor> out;
  of::tensor::deserialize_tensors_into(fa, out);
  ASSERT_EQ(out.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_TRUE(out[i].allclose(a[i], 0.0f, 0.0f));

  const float* data0 = out[0].data();
  const std::size_t before = g_allocs.load();
  of::tensor::deserialize_tensors_into(fb, out);
  EXPECT_EQ(g_allocs.load() - before, 0u) << "a warm decode allocated";
  EXPECT_EQ(out[0].data(), data0);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_TRUE(out[i].allclose(b[i], 0.0f, 0.0f));

  // A shape change re-allocates just that tensor, and the list may shrink.
  const std::vector<Tensor> c{Tensor::randn({2, 3}, rng)};
  of::tensor::deserialize_tensors_into(of::tensor::serialize_tensors(c), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].shape(), (Shape{2, 3}));
  EXPECT_TRUE(out[0].allclose(c[0], 0.0f, 0.0f));
}

TEST(Serialize, PodHelpers) {
  Bytes b;
  of::tensor::append_pod<std::uint32_t>(b, 0xDEADBEEFu);
  of::tensor::append_pod<float>(b, 1.5f);
  std::size_t off = 0;
  EXPECT_EQ(of::tensor::read_pod<std::uint32_t>(b, off), 0xDEADBEEFu);
  EXPECT_EQ(of::tensor::read_pod<float>(b, off), 1.5f);
  EXPECT_THROW(of::tensor::read_pod<std::uint64_t>(b, off), std::runtime_error);
}

// --- flatten / unflatten ----------------------------------------------------------

TEST(Flatten, RoundTrip) {
  Rng rng(23);
  std::vector<Tensor> ts{Tensor::randn({3, 2}, rng), Tensor::randn({4}, rng)};
  const Tensor flat = of::tensor::flatten_all(ts);
  EXPECT_EQ(flat.numel(), 10u);
  std::vector<Tensor> out{Tensor({3, 2}), Tensor({4})};
  of::tensor::unflatten_into(flat, out);
  EXPECT_TRUE(out[0].allclose(ts[0], 0.0f, 0.0f));
  EXPECT_TRUE(out[1].allclose(ts[1], 0.0f, 0.0f));
}

TEST(Flatten, SizeMismatchThrows) {
  const Tensor flat({5});
  std::vector<Tensor> out{Tensor({2}), Tensor({2})};
  EXPECT_THROW(of::tensor::unflatten_into(flat, out), std::runtime_error);
}

// --- parameterized property sweep: ring-sum identity on many sizes ---------------

class TensorSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TensorSizeSweep, SumMatchesKahanReference) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  const Tensor t = Tensor::uniform({n}, rng, -1.0f, 1.0f);
  long double ref = 0.0L;
  for (std::size_t i = 0; i < n; ++i) ref += t[i];
  EXPECT_NEAR(t.sum(), static_cast<float>(ref), 1e-3f);
}

TEST_P(TensorSizeSweep, SerializeRoundtrip) {
  const std::size_t n = GetParam();
  Rng rng(n + 2);
  const Tensor t = Tensor::randn({n}, rng);
  const Tensor u = of::tensor::deserialize_tensor(of::tensor::serialize_tensor(t));
  EXPECT_TRUE(u.allclose(t, 0.0f, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, TensorSizeSweep,
                         ::testing::Values(1, 2, 3, 7, 64, 1000, 4097));

}  // namespace
