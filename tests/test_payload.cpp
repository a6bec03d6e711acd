// Payload codec properties: round-trips across every mode, exact mean
// recovery, skip-frame handling, hostile/malformed frame rejection, the
// double-precision weight scaling, view-based compressed decode and the
// FramePool the zero-copy pipeline rides on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "common/nonfinite.hpp"
#include "simd/simd.hpp"

#include "compression/quantize.hpp"
#include "compression/sparsify.hpp"
#include "core/frame_pool.hpp"
#include "core/payload.hpp"
#include "exec/pool.hpp"
#include "privacy/dp.hpp"
#include "privacy/mechanism.hpp"
#include "refl/tlv.hpp"
#include "tensor/serialize.hpp"

namespace {

using of::core::FramePool;
using of::core::PayloadPlugins;
using of::tensor::Bytes;
using of::tensor::ConstByteSpan;
using of::tensor::Rng;
using of::tensor::Tensor;

// A payload with `count` tensors of varied rank (1-D/2-D mix) and a fixed
// total element count budget per tensor, integer-valued so float sums over
// power-of-two cohorts are exact.
std::vector<Tensor> make_payload(std::size_t count, std::uint64_t seed,
                                 bool integer_valued = false) {
  Rng rng(seed);
  std::vector<Tensor> ts;
  for (std::size_t i = 0; i < count; ++i) {
    Tensor t = (i % 2 == 0) ? Tensor::randn({5, 7}, rng) : Tensor::randn({23}, rng);
    if (integer_valued)
      for (std::size_t j = 0; j < t.numel(); ++j) t[j] = std::round(t[j] * 8.0f);
    ts.push_back(std::move(t));
  }
  return ts;
}

void expect_equal(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].shape(), b[i].shape());
    for (std::size_t j = 0; j < a[i].numel(); ++j) EXPECT_EQ(a[i][j], b[i][j]) << i;
  }
}

// --- round-trips across modes and tensor counts --------------------------------

TEST(PayloadRoundTrip, PlainAllTensorCounts) {
  for (std::size_t count : {1u, 3u, 17u}) {
    const auto payload = make_payload(count, 100 + count);
    const Bytes frame = of::core::encode_update(payload, 1.0, {}, 0, 1);
    const auto decoded = of::core::decode_update(frame, nullptr);
    expect_equal(payload, decoded);
    // Re-encoding the decoded payload reproduces the frame byte-for-byte.
    const Bytes again = of::core::encode_update(decoded, 1.0, {}, 0, 1);
    EXPECT_EQ(frame, again);
  }
}

TEST(PayloadRoundTrip, IdentityCodecAllTensorCounts) {
  for (std::size_t count : {1u, 3u, 17u}) {
    of::compression::Identity codec;
    const auto payload = make_payload(count, 200 + count);
    const PayloadPlugins plugins{&codec, nullptr};
    const Bytes frame = of::core::encode_update(payload, 1.0, plugins, 0, 1);
    const auto decoded = of::core::decode_update(frame, &codec);
    expect_equal(payload, decoded);
    const Bytes again = of::core::encode_update(decoded, 1.0, plugins, 0, 1);
    EXPECT_EQ(frame, again);
  }
}

TEST(PayloadRoundTrip, SparseCodecsAreIdempotentOnOwnOutput) {
  // A lossy sparsifier applied to its own (already k-sparse) output selects
  // the same support: decode ∘ encode is idempotent after one application.
  of::compression::TopK topk(/*factor_or_k=*/10.0, /*is_factor=*/true);
  const auto payload = make_payload(3, 7);
  const PayloadPlugins plugins{&topk, nullptr};
  const Bytes frame = of::core::encode_update(payload, 1.0, plugins, 0, 1);
  const auto once = of::core::decode_update(frame, &topk);
  const Bytes frame2 = of::core::encode_update(once, 1.0, plugins, 0, 1);
  const auto twice = of::core::decode_update(frame2, &topk);
  expect_equal(once, twice);
}

TEST(PayloadRoundTrip, QsgdSameSeedSameFrame) {
  // QSGD is stochastic; determinism is per seed.
  const auto payload = make_payload(3, 9);
  of::compression::QSGD a(8, /*seed=*/21), b(8, /*seed=*/21);
  const Bytes fa =
      of::core::encode_update(payload, 1.0, PayloadPlugins{&a, nullptr}, 0, 1);
  const Bytes fb =
      of::core::encode_update(payload, 1.0, PayloadPlugins{&b, nullptr}, 0, 1);
  EXPECT_EQ(fa, fb);
}

TEST(PayloadRoundTrip, NoPrivacyMeanExactAllTensorCounts) {
  for (std::size_t count : {1u, 3u, 17u}) {
    of::privacy::NoPrivacy mech;
    const PayloadPlugins plugins{nullptr, &mech};
    const auto payload = make_payload(count, 300 + count, /*integer_valued=*/true);
    std::vector<Bytes> frames;
    for (int c = 0; c < 8; ++c)
      frames.push_back(of::core::encode_update(payload, 1.0, plugins, c, 8));
    const auto mean = of::core::mean_updates(frames, nullptr, &mech);
    expect_equal(payload, mean);  // identical updates: mean == update exactly
  }
}

// --- aggregation ----------------------------------------------------------------

TEST(PayloadAggregate, ExactMeanRecoveryPlain) {
  // Integer-valued updates and a power-of-two cohort make the float
  // sum/divide exact, so the mean must be recovered bit-for-bit.
  const std::size_t k = 8;
  std::vector<std::vector<Tensor>> updates;
  std::vector<Bytes> frames;
  for (std::size_t c = 0; c < k; ++c) {
    updates.push_back(make_payload(3, 40 + c, /*integer_valued=*/true));
    frames.push_back(of::core::encode_update(updates.back(), 1.0, {}, int(c), int(k)));
  }
  const auto mean = of::core::mean_updates(frames, nullptr, nullptr);
  ASSERT_EQ(mean.size(), updates[0].size());
  for (std::size_t i = 0; i < mean.size(); ++i) {
    for (std::size_t j = 0; j < mean[i].numel(); ++j) {
      float expected = 0.0f;
      for (std::size_t c = 0; c < k; ++c) expected += updates[c][i][j];
      expected /= float(k);
      EXPECT_EQ(mean[i][j], expected);
    }
  }
}

TEST(PayloadAggregate, SkipFramesAreExcludedFromTheMean) {
  const auto payload = make_payload(3, 50, /*integer_valued=*/true);
  std::vector<Bytes> frames;
  frames.push_back(of::core::encode_update(payload, 1.0, {}, 0, 4));
  frames.push_back(of::core::encode_skip_update());
  frames.push_back(of::core::encode_update(payload, 1.0, {}, 2, 4));
  frames.push_back(of::core::encode_skip_update());
  const auto mean = of::core::mean_updates(frames, nullptr, nullptr);
  expect_equal(payload, mean);  // two identical contributions / 2
}

TEST(PayloadAggregate, AllSkippedThrows) {
  std::vector<Bytes> frames{of::core::encode_skip_update(),
                            of::core::encode_skip_update()};
  EXPECT_THROW((void)of::core::mean_updates(frames, nullptr, nullptr),
               std::runtime_error);
}

TEST(PayloadAggregate, DpMeanWithinNoiseTolerance) {
  // clip_norm 10 > update norm (~7.6), so clipping is inactive; sigma is
  // clip·sqrt(2 ln(1.25/delta))/eps ≈ 6.8 per client, /sqrt(16) ≈ 1.7 on the
  // mean. A 7-sigma band keeps the check deterministic-tight but unflaky.
  of::privacy::DifferentialPrivacy dp(
      of::privacy::DpParams{/*epsilon=*/8.0, /*delta=*/1e-5, /*clip_norm=*/10.0},
      /*seed=*/5);
  const PayloadPlugins plugins{nullptr, &dp};
  const auto payload = make_payload(2, 60);
  const std::size_t k = 16;
  std::vector<Bytes> frames;
  for (std::size_t c = 0; c < k; ++c)
    frames.push_back(of::core::encode_update(payload, 1.0, plugins, int(c), int(k)));
  const auto mean = of::core::mean_updates(frames, nullptr, &dp);
  ASSERT_EQ(mean.size(), payload.size());
  for (std::size_t i = 0; i < mean.size(); ++i)
    for (std::size_t j = 0; j < mean[i].numel(); ++j)
      EXPECT_NEAR(mean[i][j], payload[i][j], 12.0) << "noise far beyond sigma";
}

// --- malformed / hostile frames -------------------------------------------------

TEST(PayloadMalformed, TruncatedManifestRejected) {
  const auto payload = make_payload(3, 70);
  Bytes frame = of::core::encode_update(payload, 1.0, {}, 0, 1);
  // Cut mid-manifest: mode byte + count survive, dims do not.
  Bytes cut(frame.begin(), frame.begin() + 7);
  EXPECT_THROW((void)of::core::decode_update(cut, nullptr), std::runtime_error);
}

TEST(PayloadMalformed, TrailingBytesRejected) {
  const auto payload = make_payload(2, 71);
  Bytes frame = of::core::encode_update(payload, 1.0, {}, 0, 1);
  frame.push_back(0xAB);
  EXPECT_THROW((void)of::core::decode_update(frame, nullptr), std::runtime_error);
  std::vector<Bytes> frames{frame};
  EXPECT_THROW((void)of::core::mean_updates(frames, nullptr, nullptr),
               std::runtime_error);
}

TEST(PayloadMalformed, MixedModesRejected) {
  of::compression::Identity codec;
  const auto payload = make_payload(2, 72);
  std::vector<Bytes> frames;
  frames.push_back(of::core::encode_update(payload, 1.0, {}, 0, 2));
  frames.push_back(
      of::core::encode_update(payload, 1.0, PayloadPlugins{&codec, nullptr}, 1, 2));
  EXPECT_THROW((void)of::core::mean_updates(frames, &codec, nullptr),
               std::runtime_error);
}

TEST(PayloadMalformed, HostileTensorCountRejected) {
  // count = 2^32-1 in a frame with almost no bytes behind it must be
  // rejected before the shapes vector allocates.
  Bytes frame;
  frame.push_back(0);  // kPlain
  of::tensor::append_pod<std::uint32_t>(frame, 0xFFFFFFFFu);
  EXPECT_THROW((void)of::core::decode_update(frame, nullptr), std::runtime_error);
}

TEST(PayloadMalformed, BogusDimsRejected) {
  // One tensor claiming 2^40 elements: over the 1 GiB frame cap.
  Bytes frame;
  frame.push_back(0);  // kPlain
  of::tensor::append_pod<std::uint32_t>(frame, 1);   // one tensor
  of::tensor::append_pod<std::uint32_t>(frame, 1);   // ndim
  of::tensor::append_pod<std::uint64_t>(frame, std::uint64_t{1} << 40);
  EXPECT_THROW((void)of::core::decode_update(frame, nullptr), std::runtime_error);

  // Individually-small dims whose product overflows must also be rejected.
  Bytes frame2;
  frame2.push_back(0);
  of::tensor::append_pod<std::uint32_t>(frame2, 1);
  of::tensor::append_pod<std::uint32_t>(frame2, 4);  // ndim = 4
  for (int d = 0; d < 4; ++d)
    of::tensor::append_pod<std::uint64_t>(frame2, std::uint64_t{1} << 20);
  EXPECT_THROW((void)of::core::decode_update(frame2, nullptr), std::runtime_error);
}

TEST(PayloadMalformed, HostileSerializedTensorRejected) {
  // The pack_tensors/unpack_tensors path (global broadcast) has the same
  // hardening: hostile count and bogus dims must not allocate.
  Bytes b;
  of::tensor::append_pod<std::uint32_t>(b, 0xFFFFFFFFu);
  EXPECT_THROW((void)of::core::unpack_tensors(b), std::runtime_error);

  Bytes b2;
  of::tensor::append_pod<std::uint32_t>(b2, 1);  // one tensor
  of::tensor::append_pod<std::uint32_t>(b2, 1);  // ndim
  of::tensor::append_pod<std::uint64_t>(b2, std::uint64_t{1} << 50);
  EXPECT_THROW((void)of::core::unpack_tensors(b2), std::runtime_error);
}

// Expect `fn` to throw a runtime_error whose message names the defect.
void expect_named_rejection(const std::function<void()>& fn, const std::string& name) {
  try {
    fn();
    ADD_FAILURE() << "accepted a malformed frame (expected: " << name << ")";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
  }
}

TEST(PayloadMalformed, FrameShorterThanMetricsTrailerRejected) {
  of::core::RoundMetrics m;
  m.loss_sum = 1.5f;
  m.steps = 3.0f;
  Bytes frame = of::core::encode_skip_update();
  of::core::append_metrics(frame, m);
  ASSERT_EQ(frame.size(), 1 + of::core::kMetricsTrailerBytes);
  Bytes copy = frame;
  const auto got = of::core::strip_metrics(copy);
  EXPECT_EQ(got.loss_sum, 1.5f);
  EXPECT_EQ(got.steps, 3.0f);
  EXPECT_TRUE(of::core::is_skip_update(copy));

  for (std::size_t len = 0; len < of::core::kMetricsTrailerBytes; ++len) {
    Bytes cut(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len));
    expect_named_rejection([&] { (void)of::core::strip_metrics(cut); }, "metrics trailer");
    EXPECT_EQ(cut.size(), len) << "a rejected frame must be left untouched";
  }
}

Bytes two_client_partial(of::core::FramePool& pool) {
  of::core::StreamingSum sum(pool);
  sum.add(of::core::encode_update(make_payload(2, 90), 1.0, {}, 0, 2));
  sum.add(of::core::encode_update(make_payload(2, 91), 1.0, {}, 1, 2));
  Bytes partial;
  sum.encode_partial_into(1.0, nullptr, partial);
  return partial;
}

TEST(PayloadMalformed, TruncatedPartialHeaderRejected) {
  of::core::FramePool pool;
  const Bytes partial = two_client_partial(pool);
  // Cut inside the TLV header: magic and header_len survive, the header
  // bytes they announce do not.
  Bytes cut(partial.begin(), partial.begin() + 10);
  of::core::StreamingSum root(pool);
  expect_named_rejection([&] { root.add_partial(cut); }, "partial header truncated");
  // A header_len pointing past the frame end is the same defect.
  Bytes lying = partial;
  lying[4] = 0xFF;
  lying[5] = 0xFF;
  expect_named_rejection([&] { root.add_partial(lying); }, "partial header truncated");
  EXPECT_EQ(root.count(), 0u);
}

TEST(PayloadMalformed, LegacyBareCountPartialRejected) {
  // The retired v1 partial: u64 count | update frame, no OFP2 header.
  Bytes legacy;
  of::tensor::append_pod<std::uint64_t>(legacy, 2);
  const Bytes body = of::core::encode_update(make_payload(2, 92), 1.0, {}, 0, 1);
  legacy.insert(legacy.end(), body.begin(), body.end());
  of::core::FramePool pool;
  of::core::StreamingSum root(pool);
  expect_named_rejection([&] { root.add_partial(legacy); }, "without the OFP2 header");
  Bytes tiny(3, 0x4F);  // shorter than the magic itself
  expect_named_rejection([&] { root.add_partial(tiny); }, "without the OFP2 header");
  EXPECT_EQ(root.count(), 0u);
}

// --- weight scaling precision ---------------------------------------------------

TEST(PayloadWeightScale, AppliedInDoublePrecision) {
  // Two per-client weights that collapse to the same float: only a scaling
  // path that stays double until the final narrowing store can tell the
  // resulting frames apart. (The weight must stay away from small-denominator
  // rationals like 2/3 — products with those cluster away from float
  // rounding midpoints and the two scales become indistinguishable even in
  // double.)
  const double w1 = 700000001.0 / 1234567891.0;
  const double w2 = 700000000.0 / 1234567891.0;
  ASSERT_EQ(static_cast<float>(w1), static_cast<float>(w2));
  ASSERT_NE(w1, w2);

  Rng rng(123);
  std::vector<Tensor> payload{Tensor::randn({256, 256}, rng)};
  const Bytes f1 = of::core::encode_update(payload, w1, {}, 0, 2);
  const Bytes f2 = of::core::encode_update(payload, w2, {}, 1, 2);
  EXPECT_NE(f1, f2) << "sub-float weight distinction lost in encode";

  // Every element must equal the double product narrowed once at the end.
  const auto decoded = of::core::decode_update(f1, nullptr);
  ASSERT_EQ(decoded.size(), 1u);
  for (std::size_t j = 0; j < payload[0].numel(); ++j) {
    const float expected =
        static_cast<float>(static_cast<double>(payload[0][j]) * w1);
    ASSERT_EQ(decoded[0][j], expected) << "element " << j;
  }
}

// --- view-based compressed decode -----------------------------------------------

TEST(PayloadViews, CompressedBodyDecodedAtNonzeroOffset) {
  // decompress() must read through the view at its offset inside the frame;
  // build a buffer with a junk prefix and hand the codec a subspan view.
  of::compression::TopK topk(/*factor_or_k=*/4.0, /*is_factor=*/true);
  Rng rng(11);
  const Tensor t = Tensor::randn({128}, rng);
  of::compression::Compressed c = topk.compress(t);

  Bytes buffer(13, 0xEE);  // unaligned junk prefix
  buffer.insert(buffer.end(), c.payload.begin(), c.payload.end());
  const of::compression::CompressedView view(ConstByteSpan(buffer).subspan(13),
                                             c.original_numel);
  std::vector<float> out(c.original_numel);
  topk.decompress(view, of::tensor::FloatSpan(out.data(), out.size()));

  const Tensor reference = topk.decompress(c);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], reference[i]);
}

TEST(PayloadViews, DecodeUpdateMatchesCodecOutput) {
  of::compression::TopK topk(/*factor_or_k=*/4.0, /*is_factor=*/true);
  of::compression::TopK server(/*factor_or_k=*/4.0, /*is_factor=*/true);
  const auto payload = make_payload(3, 80);
  const Bytes frame =
      of::core::encode_update(payload, 1.0, PayloadPlugins{&topk, nullptr}, 0, 1);
  const auto via_frame = of::core::decode_update(frame, &server);
  ASSERT_EQ(via_frame.size(), payload.size());
  for (std::size_t i = 0; i < via_frame.size(); ++i)
    ASSERT_EQ(via_frame[i].shape(), payload[i].shape());
}

// --- FramePool ------------------------------------------------------------------

TEST(FramePoolTest, BuffersAreRecycled) {
  FramePool pool;
  {
    auto h = pool.acquire();
    h->resize(4096);
  }
  EXPECT_EQ(pool.created(), 1u);
  {
    auto h = pool.acquire();
    EXPECT_TRUE(h->empty());            // cleared on reacquire…
    EXPECT_GE(h->capacity(), 4096u);    // …but capacity survives
  }
  EXPECT_EQ(pool.created(), 1u);  // no second allocation
  EXPECT_EQ(pool.acquired(), 2u);
}

TEST(FramePoolTest, FloatBuffersSizedOnAcquire) {
  FramePool pool;
  {
    auto h = pool.acquire_floats(100);
    EXPECT_EQ(h->size(), 100u);
  }
  auto h2 = pool.acquire_floats(50);
  EXPECT_EQ(h2->size(), 50u);
  EXPECT_EQ(pool.created(), 1u);
}

TEST(FramePoolTest, LeaseMoveTransfersOwnership) {
  FramePool pool;
  auto a = pool.acquire();
  a->push_back(7);
  FramePool::Handle b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(b->size(), 1u);
}

TEST(FramePoolTest, SteadyStateEncodeReusesPooledBuffers) {
  FramePool pool;
  const auto payload = make_payload(3, 90);
  of::compression::TopK topk(/*factor_or_k=*/10.0, /*is_factor=*/true);
  const PayloadPlugins plugins{&topk, nullptr};
  Bytes frame;
  of::core::encode_update_into(payload, 1.0, plugins, 0, 4, pool, frame);
  const std::size_t after_warmup = pool.created();
  for (int round = 0; round < 16; ++round)
    of::core::encode_update_into(payload, 1.0, plugins, 0, 4, pool, frame);
  EXPECT_EQ(pool.created(), after_warmup) << "steady-state encode allocated";
}

// --- numeric admission (NaN/Inf screen at encode) ------------------------------

TEST(PayloadNonFinite, PlainEncodeRejectsNaNWithCoordinate) {
  auto payload = make_payload(3, 200);
  // Poison a coordinate in the *second* tensor so the reported flat index
  // exercises the cross-tensor offset arithmetic: flat = 35 (5x7) + 11.
  payload[1][11] = std::numeric_limits<float>::quiet_NaN();
  try {
    (void)of::core::encode_update(payload, 1.0, {}, 3, 8);
    FAIL() << "expected NonFiniteUpdateError";
  } catch (const of::NonFiniteUpdateError& e) {
    EXPECT_EQ(e.coordinate(), 35u + 11u);
    EXPECT_EQ(e.client_id(), 3);
  }
}

TEST(PayloadNonFinite, QsgdFusedEncodeRejectsInf) {
  auto payload = make_payload(3, 201);
  payload[2][4] = std::numeric_limits<float>::infinity();
  of::compression::QSGD codec(8, /*seed=*/5);
  const PayloadPlugins plugins{&codec, nullptr};
  EXPECT_THROW((void)of::core::encode_update(payload, 1.0, plugins, 1, 4),
               of::NonFiniteUpdateError);
}

TEST(PayloadNonFinite, F16EncodeRejectsNaN) {
  auto payload = make_payload(2, 202);
  payload[0][0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW((void)of::core::encode_update(payload, 1.0, {}, 0, 2,
                                             of::core::WireRepr::F16),
               of::NonFiniteUpdateError);
}

TEST(PayloadNonFinite, PoisonedClientIsDroppedViaSkipFrame) {
  // The engine-level contract: the caller catches the admission error and
  // substitutes a skip frame, so the aggregate is the mean of the healthy
  // clients only.
  const auto healthy = make_payload(3, 203, /*integer_valued=*/true);
  auto poisoned = make_payload(3, 204);
  poisoned[0][0] = std::numeric_limits<float>::quiet_NaN();
  std::vector<Bytes> frames;
  frames.push_back(of::core::encode_update(healthy, 1.0, {}, 0, 4));
  try {
    frames.push_back(of::core::encode_update(poisoned, 1.0, {}, 1, 4));
  } catch (const of::NonFiniteUpdateError&) {
    frames.push_back(of::core::encode_skip_update());
  }
  frames.push_back(of::core::encode_update(healthy, 1.0, {}, 2, 4));
  const auto mean = of::core::mean_updates(frames, nullptr, nullptr);
  expect_equal(healthy, mean);  // two identical healthy contributions / 2
  for (const auto& t : mean)
    for (std::size_t j = 0; j < t.numel(); ++j)
      EXPECT_TRUE(std::isfinite(t[j]));
}

// --- fp16 wire representation --------------------------------------------------

TEST(PayloadF16, RoundTripIsRtneQuantized) {
  const auto payload = make_payload(3, 210);
  const Bytes frame =
      of::core::encode_update(payload, 1.0, {}, 0, 1, of::core::WireRepr::F16);
  // Half the plain-body bytes: 2 per element instead of 4.
  const Bytes f32_frame = of::core::encode_update(payload, 1.0, {}, 0, 1);
  std::size_t total = 0;
  for (const auto& t : payload) total += t.numel();
  EXPECT_EQ(f32_frame.size() - frame.size(), total * 2);
  const auto decoded = of::core::decode_update(frame, nullptr);
  ASSERT_EQ(decoded.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    ASSERT_EQ(decoded[i].shape(), payload[i].shape());
    for (std::size_t j = 0; j < payload[i].numel(); ++j) {
      // Each coordinate equals its RTNE half image exactly.
      std::uint16_t h = 0;
      float back = 0.0f;
      const float x = payload[i][j];
      of::simd::f32_to_f16(&h, &x, 1);
      of::simd::f16_to_f32(&back, &h, 1);
      EXPECT_EQ(decoded[i][j], back) << i << "," << j;
      EXPECT_NEAR(decoded[i][j], payload[i][j],
                  1e-3f + 1e-3f * std::fabs(payload[i][j]));
    }
  }
}

TEST(PayloadF16, MeanAndStreamingSumAgreeWithDecodedFrames) {
  const std::size_t k = 4;
  std::vector<Bytes> frames;
  for (std::size_t c = 0; c < k; ++c)
    frames.push_back(of::core::encode_update(make_payload(3, 220 + c), 1.0, {},
                                             int(c), int(k),
                                             of::core::WireRepr::F16));
  const auto mean = of::core::mean_updates(frames, nullptr, nullptr);
  // Reference: decode each f16 frame, mean in float.
  std::vector<std::vector<Tensor>> decoded;
  for (const auto& f : frames) decoded.push_back(of::core::decode_update(f, nullptr));
  for (std::size_t i = 0; i < mean.size(); ++i)
    for (std::size_t j = 0; j < mean[i].numel(); ++j) {
      float expected = 0.0f;
      for (std::size_t c = 0; c < k; ++c) expected += decoded[c][i][j];
      expected /= float(k);
      EXPECT_NEAR(mean[i][j], expected, 1e-6f) << i << "," << j;
    }
  // StreamingSum folds the same frames to the same mean (bitwise vs its own
  // finish; near vs the reference above).
  of::core::FramePool pool;
  of::core::StreamingSum sum(pool);
  for (const auto& f : frames) sum.add(f);
  const auto streamed = sum.finish_mean();
  ASSERT_EQ(streamed.size(), mean.size());
  for (std::size_t i = 0; i < mean.size(); ++i)
    for (std::size_t j = 0; j < mean[i].numel(); ++j)
      EXPECT_EQ(streamed[i][j], mean[i][j]) << i << "," << j;
}

TEST(PayloadF16, PartialHeaderAnnouncesReprAndOldFramesStillDecode) {
  of::core::FramePool pool;
  of::core::StreamingSum sum(pool);
  sum.add(of::core::encode_update(make_payload(2, 230), 1.0, {}, 0, 2,
                                  of::core::WireRepr::F16));
  sum.add(of::core::encode_update(make_payload(2, 231), 1.0, {}, 1, 2,
                                  of::core::WireRepr::F16));
  Bytes partial;
  sum.encode_partial_into(1.0, nullptr, partial, of::core::WireRepr::F16);
  // A downstream combiner decodes the f16 partial and agrees on the count.
  of::core::StreamingSum root(pool);
  root.add_partial(partial);
  EXPECT_EQ(root.count(), 2u);
  const auto mean = root.finish_mean();
  ASSERT_EQ(mean.size(), 2u);
  // f32 partials (the default) remain byte-compatible with pre-repr
  // decoders: the repr TLV field defaults and the body is plain mode 0.
  of::core::StreamingSum f32_sum(pool);
  f32_sum.add(of::core::encode_update(make_payload(2, 230), 1.0, {}, 0, 2));
  Bytes f32_partial;
  f32_sum.encode_partial_into(1.0, nullptr, f32_partial);
  of::core::StreamingSum f32_root(pool);
  f32_root.add_partial(f32_partial);
  EXPECT_EQ(f32_root.count(), 1u);
}


// --- fold-order equivalence ------------------------------------------------------
//
// Random-valued (not integer) payloads, so float sums round: any change in
// fold order or in the rounding of a term shows up in the low bits.
// mean_updates and the streaming fold, over raw frames or over count-1
// partials wrapping them, must all reproduce an in-test scalar fold
// bitwise — the hierarchical root folds its combiners' count-1 partials
// where the centralized hub folds client frames.

// The OFP2 partial wire layout, built independently of the library:
// u32 magic | u32 header_len | TLV(PartialHeader) | update frame. A skip
// frame wraps as a count-0 partial.
Bytes wrap_count_one(const Bytes& frame, of::core::WireRepr repr) {
  of::core::PartialHeader hdr;
  hdr.count = of::core::is_skip_update(frame) ? 0 : 1;
  hdr.repr = repr;
  of::refl::tlv::Bytes htlv;
  of::refl::tlv::encode(hdr, htlv);
  Bytes out;
  of::tensor::append_pod<std::uint32_t>(out, 0x3250464Fu);  // "OFP2"
  of::tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(htlv.size()));
  out.insert(out.end(), htlv.begin(), htlv.end());
  out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

void expect_bitwise(const std::vector<Tensor>& got, const std::vector<Tensor>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].numel(), want[i].numel()) << what;
    for (std::size_t j = 0; j < got[i].numel(); ++j) {
      const float g = got[i][j], w = want[i][j];
      ASSERT_EQ(std::memcmp(&g, &w, sizeof(float)), 0)
          << what << ": tensor " << i << " elem " << j << " got " << g << " want " << w;
    }
  }
}

// The reference mean, built without the library's accumulator: decode
// each contributing frame on its own, add the decoded values in rank order
// in f32, then multiply by 1/k. Every library fold must reproduce this
// scalar expression bitwise, at any thread count.
std::vector<Tensor> scalar_fold_mean(const std::vector<Bytes>& frames,
                                     of::compression::Compressor* codec) {
  std::vector<Tensor> sum;
  std::size_t k = 0;
  for (const auto& f : frames) {
    if (of::core::is_skip_update(f)) continue;
    const auto update = of::core::decode_update(f, codec);
    if (sum.empty())
      for (const auto& t : update) sum.push_back(Tensor::zeros(t.shape()));
    for (std::size_t t = 0; t < update.size(); ++t)
      for (std::size_t i = 0; i < update[t].numel(); ++i) sum[t][i] += update[t][i];
    ++k;
  }
  const float inv_k = 1.0f / static_cast<float>(k);
  for (auto& t : sum)
    for (std::size_t i = 0; i < t.numel(); ++i) t[i] *= inv_k;
  return sum;
}

enum class FoldCodec { PlainF32, PlainF16, Qsgd8 };

void check_fold_equivalence(FoldCodec kind, const std::vector<of::tensor::Shape>& shapes) {
  constexpr int kClients = 7;  // not a power of two: the 1/k scale rounds too
  const auto repr =
      kind == FoldCodec::PlainF16 ? of::core::WireRepr::F16 : of::core::WireRepr::F32;
  of::compression::QSGD decoder(8, /*seed=*/1);
  of::compression::Compressor* codec = kind == FoldCodec::Qsgd8 ? &decoder : nullptr;
  Rng rng(0xF01D + static_cast<std::uint64_t>(kind) + shapes.size());
  std::vector<Bytes> frames;
  for (int c = 0; c < kClients; ++c) {
    if (c == 2 || c == 5) {  // sat this round out
      frames.push_back(of::core::encode_skip_update());
      continue;
    }
    // Clients several binades apart: even f16 bodies (11 significant bits)
    // then sum to more bits than an f32 accumulator keeps, so they round.
    std::vector<Tensor> payload;
    for (const auto& s : shapes) {
      payload.push_back(Tensor::randn(s, rng, 0.1f, 3.0f));
      payload.back().scale_(std::ldexp(1.0f, 3 * c - 8));
    }
    const double weight = 0.5 + 0.25 * c + 1e-3 * static_cast<double>(c * c);
    of::compression::QSGD client_codec(8, /*seed=*/100 + static_cast<std::uint64_t>(c));
    const PayloadPlugins plugins{codec ? &client_codec : nullptr, nullptr};
    frames.push_back(of::core::encode_update(payload, weight, plugins, c, kClients, repr));
  }
  FramePool pool;
  const auto reference = scalar_fold_mean(frames, codec);
  expect_bitwise(of::core::mean_updates(frames, codec, nullptr, &pool), reference,
                 "mean_updates");

  of::core::StreamingSum added(pool, codec);
  for (const auto& f : frames) added.add(f);
  EXPECT_EQ(added.count(), 5u);
  expect_bitwise(added.finish_mean(), reference, "StreamingSum::add");

  of::core::StreamingSum partials(pool, codec);
  for (const auto& f : frames) partials.add_partial(wrap_count_one(f, repr));
  EXPECT_EQ(partials.count(), 5u);
  expect_bitwise(partials.finish_mean(), reference, "StreamingSum::add_partial");
}

// Small shapes stay serial; the large ones are past the aggregation
// parallel cutoff, so with a 4-thread pool the fold takes its
// coordinate-sharded path.
void check_all_shapes(FoldCodec kind) {
  check_fold_equivalence(kind, {{5, 7}, {23}, {3, 3, 3}});
  for (const std::size_t threads : {1u, 4u}) {
    of::exec::Pool::global().configure(threads);
    check_fold_equivalence(kind, {{130, 131}, {517}});
  }
  of::exec::Pool::global().configure(1);
}

TEST(FoldEquivalence, PlainF32MatchesMeanUpdatesBitwise) {
  check_all_shapes(FoldCodec::PlainF32);
}

TEST(FoldEquivalence, PlainF16MatchesMeanUpdatesBitwise) {
  check_all_shapes(FoldCodec::PlainF16);
}

TEST(FoldEquivalence, Qsgd8MatchesMeanUpdatesBitwise) { check_all_shapes(FoldCodec::Qsgd8); }

TEST(FoldEquivalence, WrapCountOnePartialMatchesTheWireLayout) {
  // The library wrapper a privacy combiner uses builds exactly the layout
  // above: the header goes in front and the frame bytes stay as they are.
  // A plain-f16 body announces its repr; compressed and skip bodies do not.
  const auto payload = make_payload(3, 240);
  of::compression::QSGD codec(8, /*seed=*/9);
  const std::pair<Bytes, of::core::WireRepr> cases[] = {
      {of::core::encode_update(payload, 1.5, {}, 0, 2), of::core::WireRepr::F32},
      {of::core::encode_update(payload, 1.5, {}, 0, 2, of::core::WireRepr::F16),
       of::core::WireRepr::F16},
      {of::core::encode_update(payload, 1.5, {&codec, nullptr}, 0, 2),
       of::core::WireRepr::F32},
      {of::core::encode_skip_update(), of::core::WireRepr::F32},
  };
  for (const auto& [frame, repr] : cases) {
    Bytes wrapped = frame;
    of::core::wrap_count_one_partial(wrapped);
    EXPECT_EQ(wrapped, wrap_count_one(frame, repr));
  }
}

}  // namespace
