#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "common/nonfinite.hpp"
#include "compression/compressor.hpp"
#include "compression/powersgd.hpp"
#include "compression/quantize.hpp"
#include "compression/sparsify.hpp"
#include "config/yaml.hpp"
#include "simd/simd.hpp"

namespace {

using of::compression::Compressed;
using of::compression::Compressor;
using of::tensor::Rng;
using of::tensor::Tensor;

std::size_t nnz(const Tensor& t) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (t[i] != 0.0f) ++n;
  return n;
}

TEST(TopK, KeepsExactlyKLargest) {
  of::compression::TopK codec(/*k=*/3, /*is_factor=*/false);
  const Tensor t = Tensor::from_vector({0.1f, -5.0f, 0.2f, 4.0f, -0.3f, 3.0f});
  const Tensor out = codec.decompress(codec.compress(t));
  EXPECT_EQ(nnz(out), 3u);
  EXPECT_FLOAT_EQ(out[1], -5.0f);
  EXPECT_FLOAT_EQ(out[3], 4.0f);
  EXPECT_FLOAT_EQ(out[5], 3.0f);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
}

TEST(TopK, FactorFormMatchesPaperSpelling) {
  // "k: 1000x" → keep numel/1000 coordinates.
  of::compression::TopK codec(/*factor=*/10.0, /*is_factor=*/true);
  Rng rng(1);
  const Tensor t = Tensor::randn({1000}, rng);
  const auto c = codec.compress(t);
  const Tensor out = codec.decompress(c);
  EXPECT_EQ(nnz(out), 100u);
  EXPECT_GT(c.achieved_ratio(), 4.0);  // ~10x data, minus index overhead
}

TEST(TopK, PreservedValuesAreExact) {
  of::compression::TopK codec(5, false);
  Rng rng(2);
  const Tensor t = Tensor::randn({64}, rng);
  const Tensor out = codec.decompress(codec.compress(t));
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (out[i] != 0.0f) EXPECT_FLOAT_EQ(out[i], t[i]);
}

// TopK keeps its selection buffers across calls: a codec that already
// compressed a larger and a smaller tensor writes the same bytes as a
// fresh one.
TEST(TopK, ReusedScratchGivesFreshCodecBytes) {
  Rng rng(12);
  const Tensor big = Tensor::randn({4099}, rng);
  const Tensor small = Tensor::randn({37}, rng);
  of::compression::TopK reused(/*factor=*/10.0, true);
  (void)reused.compress(big);
  (void)reused.compress(small);
  for (const Tensor* t : {&small, &big}) {
    of::compression::TopK fresh(10.0, true);
    const Compressed want = fresh.compress(*t);
    const Compressed got = reused.compress(*t);
    EXPECT_TRUE(got.payload == want.payload);
    EXPECT_EQ(got.original_numel, want.original_numel);
  }
}

// Sparse decode reads peer bytes in place: a wrong count, trailing bytes
// or an out-of-range index are rejected.
TEST(SparseDecode, RejectsCorruptPayloads) {
  of::compression::TopK codec(/*k=*/3, false);
  const Tensor t = Tensor::from_vector({0.5f, -4.0f, 1.0f, 3.0f, -0.1f});
  const Compressed good = codec.compress(t);
  const Tensor back = codec.decompress(good);
  EXPECT_FLOAT_EQ(back[1], -4.0f);
  EXPECT_FLOAT_EQ(back[3], 3.0f);
  EXPECT_FLOAT_EQ(back[0], 0.0f);

  Compressed trailing = good;
  trailing.payload.push_back(0);
  EXPECT_THROW(codec.decompress(trailing), std::runtime_error);

  Compressed too_many = good;
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(too_many.payload.data(), &huge, sizeof(huge));
  EXPECT_THROW(codec.decompress(too_many), std::runtime_error);

  Compressed bad_index = good;
  const std::uint32_t far = 5;  // numel is 5
  std::memcpy(bad_index.payload.data() + sizeof(std::uint64_t), &far, sizeof(far));
  EXPECT_THROW(codec.decompress(bad_index), std::runtime_error);

  Compressed truncated = good;
  truncated.payload.resize(4);
  EXPECT_THROW(codec.decompress(truncated), std::runtime_error);
}

TEST(RandomK, UnbiasedInExpectation) {
  of::compression::RandomK codec(/*factor=*/4.0, true, 7);
  const Tensor t = Tensor::full({64}, 2.0f);
  Tensor acc({64});
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) acc.add_(codec.decompress(codec.compress(t)));
  acc.scale_(1.0f / trials);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(acc[i], 2.0f, 0.35f);
}

TEST(RandomK, SelectsDistinctIndices) {
  of::compression::RandomK codec(16, false, 3);
  Rng rng(3);
  const Tensor t = Tensor::randn({32}, rng);
  const auto c = codec.compress(t);
  std::vector<std::uint32_t> idx;
  std::vector<float> val;
  of::compression::sparse_decode(
      of::tensor::Bytes(c.payload.begin(), c.payload.end()), idx, val);
  std::set<std::uint32_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), idx.size());
  EXPECT_EQ(idx.size(), 16u);
}

class SparsifierSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {
 protected:
  std::unique_ptr<Compressor> make(const std::string& name, double factor) {
    using namespace of::compression;
    if (name == "TopK") return std::make_unique<TopK>(factor, true);
    if (name == "DGC") return std::make_unique<DGC>(factor, true, 11);
    if (name == "RedSync") return std::make_unique<RedSync>(factor, true);
    if (name == "SIDCo") return std::make_unique<SIDCo>(factor, true);
    if (name == "RandomK") return std::make_unique<RandomK>(factor, true, 11);
    return nullptr;
  }
};

TEST_P(SparsifierSweep, SparsityNearTarget) {
  const auto [name, factor] = GetParam();
  auto codec = make(name, factor);
  Rng rng(5);
  const Tensor t = Tensor::randn({20000}, rng);
  const Tensor out = codec->decompress(codec->compress(t));
  const double target = 20000.0 / factor;
  const double got = static_cast<double>(nnz(out));
  // Threshold-estimating codecs (DGC/RedSync/SIDCo) land within a band.
  EXPECT_GT(got, target * 0.3) << name;
  EXPECT_LT(got, target * 3.0) << name;
}

TEST_P(SparsifierSweep, SurvivingValuesComeFromInput) {
  const auto [name, factor] = GetParam();
  if (name == "RandomK") return;  // RandomK rescales by n/k by design
  auto codec = make(name, factor);
  Rng rng(6);
  const Tensor t = Tensor::randn({5000}, rng);
  const Tensor out = codec->decompress(codec->compress(t));
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (out[i] != 0.0f) EXPECT_FLOAT_EQ(out[i], t[i]) << name;
}

TEST_P(SparsifierSweep, CompressionReducesBytes) {
  const auto [name, factor] = GetParam();
  auto codec = make(name, factor);
  Rng rng(7);
  const Tensor t = Tensor::randn({20000}, rng);
  const auto c = codec->compress(t);
  EXPECT_LT(c.bytes(), 20000 * sizeof(float) / 2) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, SparsifierSweep,
    ::testing::Combine(::testing::Values("TopK", "DGC", "RedSync", "SIDCo", "RandomK"),
                       ::testing::Values(10.0, 100.0, 1000.0)));

TEST(QSGD, UnbiasedQuantization) {
  of::compression::QSGD codec(8, 13);
  Rng rng(8);
  const Tensor t = Tensor::randn({128}, rng);
  Tensor acc({128});
  const int trials = 3000;
  // QSGD's stochastic rounding is counter-seeded per (round, client, bucket),
  // so fresh randomness needs a fresh stream — advance the round each trial.
  for (int i = 0; i < trials; ++i) {
    codec.set_stream(static_cast<std::uint64_t>(i), 0);
    acc.add_(codec.decompress(codec.compress(t)));
  }
  acc.scale_(1.0f / trials);
  const float scale = t.l2_norm() / 127.0f;  // one quantization level
  for (std::size_t i = 0; i < t.numel(); ++i)
    EXPECT_NEAR(acc[i], t[i], 3.0f * scale / std::sqrt(static_cast<float>(trials)) * 30)
        << i;
}

TEST(QSGD, CompressionFactorsMatchPaper) {
  Rng rng(9);
  const Tensor t = Tensor::randn({10000}, rng);
  of::compression::QSGD q8(8, 1), q16(16, 1);
  // Paper: 8-bit ≈ 4×, 16-bit ≈ 2× versus float32.
  EXPECT_NEAR(q8.compress(t).achieved_ratio(), 4.0, 0.05);
  EXPECT_NEAR(q16.compress(t).achieved_ratio(), 2.0, 0.05);
}

TEST(QSGD, QuantizationErrorBounded) {
  of::compression::QSGD codec(16, 2);
  Rng rng(10);
  const Tensor t = Tensor::randn({256}, rng);
  const Tensor out = codec.decompress(codec.compress(t));
  const float level = t.l2_norm() / 32767.0f;
  for (std::size_t i = 0; i < t.numel(); ++i)
    EXPECT_LE(std::fabs(out[i] - t[i]), level * 1.001f);
}

TEST(QSGD, ZeroTensorRoundtrip) {
  of::compression::QSGD codec(8, 3);
  const Tensor t({100});
  const Tensor out = codec.decompress(codec.compress(t));
  EXPECT_FLOAT_EQ(out.l2_norm(), 0.0f);
}

TEST(QSGD, SignsPreserved) {
  of::compression::QSGD codec(8, 4);
  const Tensor t = Tensor::from_vector({10.0f, -10.0f, 10.0f, -10.0f});
  const Tensor out = codec.decompress(codec.compress(t));
  EXPECT_GT(out[0], 0.0f);
  EXPECT_LT(out[1], 0.0f);
}

TEST(QSGD, RejectsOddBitWidths) {
  EXPECT_THROW(of::compression::QSGD(12, 1), std::runtime_error);
}

TEST(QSGD, CompressTwiceSameStreamIsIdentical) {
  // Stochastic rounding is seeded per (round, client, bucket) rather than
  // from a mutating generator: re-encoding the same tensor in the same
  // stream must produce byte-identical payloads (retries, ring re-sends).
  of::compression::QSGD codec(8, 13);
  Rng rng(21);
  const Tensor t = Tensor::randn({10000}, rng);
  codec.set_stream(/*round=*/5, /*client=*/2);
  const auto first = codec.compress(t);
  codec.set_stream(5, 2);
  const auto second = codec.compress(t);
  ASSERT_EQ(first.payload.size(), second.payload.size());
  EXPECT_EQ(first.payload, second.payload);

  // ...and distinct streams decorrelate: a different round or client must
  // flip at least one rounding decision on a 10k-element tensor.
  codec.set_stream(6, 2);
  const auto other_round = codec.compress(t);
  EXPECT_NE(first.payload, other_round.payload);
  codec.set_stream(5, 3);
  const auto other_client = codec.compress(t);
  EXPECT_NE(first.payload, other_client.payload);
}

TEST(QSGD, StreamsMatchAcrossCodecInstances) {
  // Two codecs with the same construction seed and stream coordinates agree —
  // determinism cannot depend on per-instance hidden state.
  of::compression::QSGD a(8, 7), b(8, 7);
  Rng rng(22);
  const Tensor t = Tensor::randn({4096}, rng);
  a.set_stream(3, 1);
  b.set_stream(3, 1);
  EXPECT_EQ(a.compress(t).payload, b.compress(t).payload);
}

TEST(PowerSGD, RankConstrainsPayloadSize) {
  of::compression::PowerSGD r4(4, 1);
  Rng rng(11);
  const Tensor t = Tensor::randn({10000}, rng);
  const auto c = r4.compress(t);
  // (rows + cols) * r * 4 bytes + header ≈ (100+100)*4*4 = 3.2 KB ≪ 40 KB.
  EXPECT_LT(c.bytes(), 5000u);
  EXPECT_GT(c.achieved_ratio(), 8.0);
}

TEST(PowerSGD, ReconstructsLowRankSignalsWell) {
  // A rank-1 "gradient" should be captured almost exactly.
  Rng rng(12);
  const Tensor u = Tensor::randn({100}, rng);
  const Tensor v = Tensor::randn({100}, rng);
  Tensor t({10000});
  for (std::size_t i = 0; i < 100; ++i)
    for (std::size_t j = 0; j < 100; ++j) t[i * 100 + j] = u[i] * v[j];
  of::compression::PowerSGD codec(2, 13);
  // Warm-started power iteration: a few rounds to converge the subspace.
  Tensor out;
  for (int round = 0; round < 4; ++round) out = codec.decompress(codec.compress(t));
  Tensor err = out - t;
  EXPECT_LT(err.l2_norm() / t.l2_norm(), 0.05f);
}

TEST(PowerSGD, HigherRankIsMoreAccurate) {
  Rng rng(14);
  const Tensor t = Tensor::randn({4096}, rng);
  auto rel_err = [&](std::size_t rank) {
    of::compression::PowerSGD codec(rank, 15);
    Tensor out;
    for (int i = 0; i < 3; ++i) out = codec.decompress(codec.compress(t));
    return (out - t).l2_norm() / t.l2_norm();
  };
  EXPECT_LT(rel_err(32), rel_err(4));
}

// Pins PowerSGD's exact bytes: the payload and the reconstruction over
// three warm-started rounds, on a length that leaves the matrix view
// zero-padded, under both SIMD tables.
TEST(PowerSGD, PayloadAndReconstructionGolden) {
  const auto run = [] {
    Rng rng(17);
    const Tensor t = Tensor::randn({1000}, rng);
    of::compression::PowerSGD codec(4, 18);
    std::uint64_t h = 0xCBF29CE484222325ULL;
    const auto mix = [&h](const void* data, std::size_t n) {
      const auto* p = static_cast<const unsigned char*>(data);
      for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
    };
    for (int round = 0; round < 3; ++round) {
      const Compressed c = codec.compress(t);
      const Tensor out = codec.decompress(c);
      mix(c.payload.data(), c.payload.size());
      mix(out.data(), out.numel() * sizeof(float));
    }
    return h;
  };
  of::simd::configure(of::simd::Mode::Off);
  const std::uint64_t scalar = run();
  of::simd::configure(of::simd::Mode::Auto);
  EXPECT_EQ(run(), scalar);
  EXPECT_EQ(scalar, 0x15DDCA4CB99C3D51ULL)
      << "PowerSGD bytes drifted, got 0x" << std::hex << scalar;
}

TEST(ErrorFeedback, ResidualIsWhatTheCodecDropped) {
  auto inner = std::make_unique<of::compression::TopK>(2.0, true);
  of::compression::ErrorFeedbackCompressor ef(std::move(inner));
  Rng rng(16);
  const Tensor t = Tensor::randn({64}, rng);
  const Tensor out = ef.decompress(ef.compress(t));
  Tensor expected_residual = t - out;
  EXPECT_TRUE(ef.residual().allclose(expected_residual, 1e-5f, 1e-5f));
}

TEST(ErrorFeedback, CompressedSgdConvergesOnQuadratic) {
  // minimize ‖w − target‖² with 10×-compressed gradients; EF makes the
  // iterates converge anyway (Karimireddy et al. 2019).
  Rng rng(17);
  const Tensor target = Tensor::randn({100}, rng);
  Tensor w({100});
  auto inner = std::make_unique<of::compression::TopK>(10.0, true);
  of::compression::ErrorFeedbackCompressor ef(std::move(inner));
  // The LR must absorb residual bursts: coordinates outside the top-k
  // accumulate ~compression-factor rounds of gradient before release, so
  // the stable step size shrinks by roughly that factor.
  for (int step = 0; step < 1500; ++step) {
    Tensor grad = w - target;
    const Tensor applied = ef.decompress(ef.compress(grad));
    w.add_scaled_(applied, -0.05f);
  }
  EXPECT_LT((w - target).l2_norm() / target.l2_norm(), 0.05f);
}

TEST(ErrorFeedback, WithoutEfTopKSgdStalls) {
  // Control for the previous test: same setup, no residual accumulation,
  // coordinates outside the top-k never move.
  Rng rng(17);
  Tensor target = Tensor::randn({100}, rng);
  target.abs_();          // all positive...
  target.add_scalar_(1.0f);
  target[7] = 100.0f;     // ...one dominant coordinate hogs the top-k
  Tensor w({100});
  of::compression::TopK codec(/*k=*/1, false);
  for (int step = 0; step < 50; ++step) {
    Tensor grad = w - target;
    const Tensor applied = codec.decompress(codec.compress(grad));
    w.add_scaled_(applied, -0.3f);
  }
  // At most 50 coordinates can have been selected; most never moved.
  std::size_t untouched = 0;
  for (std::size_t i = 0; i < 100; ++i)
    if (w[i] == 0.0f) ++untouched;
  EXPECT_GE(untouched, 50u);
}

TEST(Identity, ExactRoundtrip) {
  of::compression::Identity codec;
  Rng rng(18);
  const Tensor t = Tensor::randn({37}, rng);
  EXPECT_TRUE(codec.decompress(codec.compress(t)).allclose(t, 0.0f, 0.0f));
  EXPECT_TRUE(codec.allreduce_compatible());
}

// --- allreduce compatibility flags (paper §3.4.2) -------------------------------

TEST(Compatibility, SparsifiersNeedAllgatherDenseCodecsAllreduce) {
  EXPECT_FALSE(of::compression::TopK(10, true).allreduce_compatible());
  EXPECT_FALSE(of::compression::DGC(10, true, 1).allreduce_compatible());
  EXPECT_TRUE(of::compression::QSGD(8, 1).allreduce_compatible());
  EXPECT_TRUE(of::compression::PowerSGD(8, 1).allreduce_compatible());
}

// --- config factory ---------------------------------------------------------------

TEST(Factory, PaperStyleTopKConfig) {
  const auto cfg = of::config::parse_yaml(R"(
_target_: src.omnifed.communicator.compression.TopK
k: 1000x
)");
  auto codec = of::compression::make_compressor(cfg);
  EXPECT_EQ(codec->name(), "TopK");
  Rng rng(19);
  const Tensor t = Tensor::randn({10000}, rng);
  EXPECT_EQ(nnz(codec->decompress(codec->compress(t))), 10u);
}

TEST(Factory, AbsoluteKAndFactorForms) {
  auto abs_cfg = of::config::parse_yaml("_target_: TopK\nk: 25\n");
  auto codec = of::compression::make_compressor(abs_cfg);
  Rng rng(20);
  const Tensor t = Tensor::randn({1000}, rng);
  EXPECT_EQ(nnz(codec->decompress(codec->compress(t))), 25u);

  auto fac_cfg = of::config::parse_yaml("_target_: TopK\nfactor: 50\n");
  auto codec2 = of::compression::make_compressor(fac_cfg);
  EXPECT_EQ(nnz(codec2->decompress(codec2->compress(t))), 20u);
}

TEST(Factory, ErrorFeedbackFlagWraps) {
  auto cfg = of::config::parse_yaml("_target_: TopK\nk: 10\nerror_feedback: true\n");
  auto codec = of::compression::make_compressor(cfg);
  EXPECT_EQ(codec->name(), "EF(TopK)");
}

TEST(Factory, AllRegisteredCodecsConstruct) {
  for (const auto& name : of::compression::compressor_registry().names()) {
    // One kitchen-sink config for every codec: each target reads its own
    // knobs, so this only parses with the strict unknown-key gate off.
    auto cfg = of::config::ConfigNode::map();
    cfg["_target_"] = of::config::ConfigNode::string(name);
    cfg["k"] = of::config::ConfigNode::string("10x");
    cfg["bits"] = of::config::ConfigNode::integer(8);
    cfg["rank"] = of::config::ConfigNode::integer(4);
    auto codec = of::compression::make_compressor(cfg, /*strict=*/false);
    Rng rng(21);
    const Tensor t = Tensor::randn({512}, rng);
    const Tensor out = codec->decompress(codec->compress(t));
    EXPECT_EQ(out.numel(), t.numel()) << name;
  }
}

TEST(Factory, UnknownCodecThrows) {
  auto cfg = of::config::parse_yaml("_target_: Zstd\n");
  EXPECT_THROW(of::compression::make_compressor(cfg), std::runtime_error);
}

// --- fused quantize-on-the-wire ------------------------------------------------

TEST(QsgdFused, CompressScaledMatchesUnfusedBytes) {
  // The fused path (scale-while-flatten a bucket tile, quantize in place)
  // must produce the exact bytes of the two-pass reference: flatten with the
  // double-precision scale into one float vector, then compress that.
  for (int bits : {8, 16}) {
    of::compression::QSGD codec(bits, /*seed=*/31, /*bucket_size=*/64);
    Rng rng(41);
    std::vector<Tensor> payload;
    payload.push_back(Tensor::randn({9, 7}, rng));   // odd shapes so tensor
    payload.push_back(Tensor::randn({130}, rng));    // boundaries straddle
    payload.push_back(Tensor::randn({3}, rng));      // bucket boundaries
    const double scale = 0.3125;
    std::size_t total = 0;
    for (const auto& t : payload) total += t.numel();
    Tensor flat({total});
    std::size_t off = 0;
    for (const auto& t : payload)
      for (std::size_t j = 0; j < t.numel(); ++j)
        flat[off++] = static_cast<float>(static_cast<double>(t[j]) * scale);
    codec.set_stream(2, 5);
    const auto reference = codec.compress(flat);
    of::compression::Compressed fused;
    codec.set_stream(2, 5);
    ASSERT_TRUE(codec.compress_scaled(payload, scale, fused));
    EXPECT_EQ(fused.payload, reference.payload) << "bits=" << bits;
    EXPECT_EQ(fused.original_numel, reference.original_numel);
  }
}

TEST(QsgdFused, NonFiniteInputThrowsWithFlatCoordinate) {
  of::compression::QSGD codec(8, 1, /*bucket_size=*/32);
  Rng rng(42);
  std::vector<Tensor> payload;
  payload.push_back(Tensor::randn({40}, rng));
  payload.push_back(Tensor::randn({40}, rng));
  payload[1][5] = std::numeric_limits<float>::quiet_NaN();  // flat coord 45
  of::compression::Compressed out;
  try {
    (void)codec.compress_scaled(payload, 1.0, out);
    FAIL() << "expected NonFiniteUpdateError";
  } catch (const of::NonFiniteUpdateError& e) {
    EXPECT_EQ(e.coordinate(), 45u);
  }
}

TEST(QSGD, NonFiniteInputRejectedAtAdmission) {
  // The unfused path screens too: a NaN poisons the bucket norm, which used
  // to propagate silently into every coordinate of the bucket.
  of::compression::QSGD codec(8, 1);
  Tensor t({16});
  for (std::size_t i = 0; i < 16; ++i) t[i] = 1.0f;
  t[7] = std::numeric_limits<float>::infinity();
  EXPECT_THROW((void)codec.compress(t), of::NonFiniteUpdateError);
}

TEST(QSGD, ZeroNormBucketConsumesNoDrawsAndDecodesToZero) {
  // A bucket of exact zeros short-circuits before drawing any rounding
  // randomness (the seed's contract — replays stay aligned) and must
  // decode back to exact zeros; neighbouring buckets keep their own
  // per-bucket streams regardless.
  of::compression::QSGD codec(8, 3, /*bucket_size=*/8);
  Rng rng(43);
  Tensor t({24});
  for (std::size_t i = 0; i < 24; ++i) t[i] = rng.next_float() + 0.1f;
  for (std::size_t i = 8; i < 16; ++i) t[i] = 0.0f;  // bucket 1 all-zero
  codec.set_stream(1, 1);
  const auto c = codec.compress(t);
  const Tensor out = codec.decompress(c);
  for (std::size_t i = 8; i < 16; ++i) EXPECT_EQ(out[i], 0.0f);
  // Bytes for buckets 0 and 2 match a tensor where bucket 1 is nonzero —
  // per-bucket streams mean the zero bucket cannot shift its neighbours.
  Tensor t2 = t;
  for (std::size_t i = 8; i < 16; ++i) t2[i] = 1.0f;
  codec.set_stream(1, 1);
  const auto c2 = codec.compress(t2);
  ASSERT_EQ(c.payload.size(), c2.payload.size());
  const std::size_t bucket_bytes = 4 + 8;  // norm + 8 int8 codes
  EXPECT_EQ(std::memcmp(c.payload.data(), c2.payload.data(), bucket_bytes), 0);
  EXPECT_EQ(std::memcmp(c.payload.data() + 2 * bucket_bytes,
                        c2.payload.data() + 2 * bucket_bytes, bucket_bytes),
            0);
}

}  // namespace
