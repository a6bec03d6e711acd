// Cross-module property tests: randomized invariants that tie substrates
// together (DESIGN.md §5). Each property runs over a seed sweep via
// parameterized gtest.
#include <gtest/gtest.h>

#include "compression/compressor.hpp"
#include "compression/powersgd.hpp"
#include "compression/quantize.hpp"
#include "compression/sparsify.hpp"
#include "config/yaml.hpp"
#include "core/engine.hpp"
#include "core/payload.hpp"
#include "data/partition.hpp"
#include "exec/pool.hpp"
#include "privacy/biguint.hpp"
#include "privacy/he.hpp"
#include "privacy/secure_agg.hpp"

namespace {

using of::config::ConfigNode;
using of::privacy::BigUInt;
using of::tensor::Rng;
using of::tensor::Tensor;

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// --- random config tree ↔ YAML fixpoint ------------------------------------------

ConfigNode random_node(Rng& rng, int depth) {
  const int kind = depth <= 0 ? static_cast<int>(rng.next_below(4))
                              : static_cast<int>(rng.next_below(6));
  switch (kind) {
    case 0: return ConfigNode::integer(static_cast<std::int64_t>(rng.next_u64() >> 40) - 1000);
    case 1: return ConfigNode::floating(rng.uniform(-10.0, 10.0));
    case 2: return ConfigNode::boolean(rng.bernoulli(0.5));
    case 3: {
      // Strings that stress the quoting rules.
      static const char* pool[] = {"plain", "needs: quoting", "1000x", "true",
                                   "-dash", "sp ace", "", "a#b", "{curly}"};
      return ConfigNode::string(pool[rng.next_below(9)]);
    }
    case 4: {
      ConfigNode list = ConfigNode::list();
      const std::size_t n = rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i) list.push_back(random_node(rng, depth - 1));
      return list;
    }
    default: {
      ConfigNode map = ConfigNode::map();
      const std::size_t n = rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i)
        map["key" + std::to_string(i)] = random_node(rng, depth - 1);
      return map;
    }
  }
}

TEST_P(SeedSweep, YamlDumpParseFixpoint) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    ConfigNode root = ConfigNode::map();
    root["payload"] = random_node(rng, 3);
    const ConfigNode reparsed = of::config::parse_yaml(root.dump());
    EXPECT_TRUE(root == reparsed) << root.dump();
  }
}

// --- BigUInt ring axioms ------------------------------------------------------------

TEST_P(SeedSweep, BigUIntRingAxioms) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const BigUInt a = BigUInt::random_bits(1 + rng.next_below(200), rng);
    const BigUInt b = BigUInt::random_bits(1 + rng.next_below(200), rng);
    const BigUInt c = BigUInt::random_bits(1 + rng.next_below(200), rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST_P(SeedSweep, BigUIntShiftMulEquivalence) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const BigUInt a = BigUInt::random_bits(1 + rng.next_below(150), rng);
    const std::size_t s = rng.next_below(80);
    EXPECT_EQ(a << s, a * BigUInt::powmod(BigUInt(2), BigUInt(s),
                                          BigUInt(1) << (s + 200)));
  }
}

// --- compressor contracts ------------------------------------------------------------

std::unique_ptr<of::compression::Compressor> codec_for(std::size_t which,
                                                       std::uint64_t seed) {
  using namespace of::compression;
  switch (which % 7) {
    case 0: return std::make_unique<TopK>(20.0, true);
    case 1: return std::make_unique<RandomK>(20.0, true, seed);
    case 2: return std::make_unique<DGC>(20.0, true, seed);
    case 3: return std::make_unique<RedSync>(20.0, true);
    case 4: return std::make_unique<SIDCo>(20.0, true);
    case 5: return std::make_unique<QSGD>(8, seed);
    default: return std::make_unique<PowerSGD>(8, seed);
  }
}

TEST_P(SeedSweep, EveryCodecPreservesShapeAndShrinksError) {
  Rng rng(GetParam());
  for (std::size_t which = 0; which < 7; ++which) {
    auto codec = codec_for(which, GetParam());
    const Tensor t = Tensor::randn({3000}, rng);
    const Tensor out = codec->decompress(codec->compress(t));
    ASSERT_EQ(out.numel(), t.numel()) << codec->name();
    EXPECT_GT(out.l2_norm(), 0.0f) << codec->name();
    // Reconstruction must carry signal: error below the trivial all-zero
    // reconstruction (= ‖t‖). RandomK is exempt — its n/k rescaling is
    // unbiased in expectation but inflates per-draw L2 error by design.
    if (codec->name() != "RandomK")
      EXPECT_LT((out - t).l2_norm(), t.l2_norm() * 1.05f) << codec->name();
    else
      EXPECT_GT(out.dot(t), 0.0f);  // still positively aligned with the input
  }
}

TEST_P(SeedSweep, ErrorFeedbackResidualInvariant) {
  // For any inner codec: input + old_residual == reconstruction + new_residual.
  Rng rng(GetParam());
  for (std::size_t which = 0; which < 7; ++which) {
    of::compression::ErrorFeedbackCompressor ef(codec_for(which, GetParam()));
    for (int round = 0; round < 3; ++round) {
      const Tensor g = Tensor::randn({500}, rng);
      Tensor pre = g;
      if (!ef.residual().empty()) pre.add_(ef.residual());
      const Tensor out = ef.decompress(ef.compress(g));
      Tensor sum = out;
      sum.add_(ef.residual());
      EXPECT_TRUE(sum.allclose(pre, 1e-3f, 1e-3f)) << ef.name();
    }
  }
}

// --- privacy mechanisms agree with the plain mean --------------------------------------

TEST_P(SeedSweep, SecureAggregationMatchesPlainMean) {
  Rng rng(GetParam());
  const int k = 2 + static_cast<int>(rng.next_below(6));
  of::privacy::SecureAggregation sa("prop", k);
  of::core::PayloadPlugins sa_plugins;
  sa_plugins.privacy = &sa;
  std::vector<of::tensor::Bytes> sa_frames, plain_frames;
  for (int i = 0; i < k; ++i) {
    std::vector<Tensor> payload{Tensor::randn({64}, rng)};
    sa_frames.push_back(of::core::encode_update(payload, 1.0, sa_plugins, i, k));
    plain_frames.push_back(of::core::encode_update(payload, 1.0, {}, i, k));
  }
  const auto sa_mean = of::core::mean_updates(sa_frames, nullptr, &sa);
  const auto plain_mean = of::core::mean_updates(plain_frames, nullptr, nullptr);
  EXPECT_TRUE(sa_mean[0].allclose(plain_mean[0], 1e-3f, 1e-3f));
}

TEST_P(SeedSweep, HomomorphicMeanMatchesPlainMean) {
  Rng rng(GetParam());
  of::privacy::HomomorphicEncryption he(128, 8, GetParam() + 1);
  of::core::PayloadPlugins he_plugins;
  he_plugins.privacy = &he;
  const int k = 3;
  std::vector<of::tensor::Bytes> he_frames, plain_frames;
  for (int i = 0; i < k; ++i) {
    std::vector<Tensor> payload{Tensor::randn({12}, rng)};
    he_frames.push_back(of::core::encode_update(payload, 1.0, he_plugins, i, k));
    plain_frames.push_back(of::core::encode_update(payload, 1.0, {}, i, k));
  }
  const auto he_mean = of::core::mean_updates(he_frames, nullptr, &he);
  const auto plain_mean = of::core::mean_updates(plain_frames, nullptr, nullptr);
  EXPECT_TRUE(he_mean[0].allclose(plain_mean[0], 2e-2f, 1e-2f));
}

// --- partitions cover exactly, for random shapes ----------------------------------------

TEST_P(SeedSweep, PartitionsAlwaysCoverExactlyOnce) {
  Rng rng(GetParam());
  const std::size_t classes = 2 + rng.next_below(20);
  const std::size_t per_class = 10 + rng.next_below(30);
  std::vector<std::size_t> labels;
  for (std::size_t c = 0; c < classes; ++c)
    for (std::size_t i = 0; i < per_class; ++i) labels.push_back(c);
  const std::size_t clients = 2 + rng.next_below(8);
  for (const char* scheme : {"iid", "dirichlet", "shards"}) {
    of::data::PartitionIndices parts;
    if (std::string(scheme) == "iid")
      parts = of::data::iid_partition(labels.size(), clients, GetParam());
    else if (std::string(scheme) == "dirichlet")
      parts = of::data::dirichlet_partition(labels, classes, clients, 0.3, GetParam());
    else
      parts = of::data::shard_partition(labels, clients, 2, GetParam());
    std::vector<std::size_t> all;
    for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), labels.size()) << scheme;
    for (std::size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i) << scheme;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1, 2, 3, 5, 8, 13));

// --- end-to-end execution determinism ---------------------------------------------------

// The of::exec contract (DESIGN.md §8): chunk decomposition depends only on
// (size, grain), reductions always fold partials in fixed chunk order, and
// parallel aggregation preserves per-coordinate frame order. Consequence: the
// entire federated run — final model bytes AND the metric trace — is bitwise
// identical whether the pool has 1 thread or 4.
TEST(ExecDeterminism, FullRunBitwiseIdenticalAcrossThreadCounts) {
  const auto run_with_threads = [](std::int64_t threads) {
    ConfigNode cfg = of::config::parse_yaml(R"(
seed: 7
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
  global_rounds: 3
  local_epochs: 1
  lr: 0.05
  momentum: 0.9
  weight_decay: 1.0e-4
eval_every: 1
)");
    cfg.set_path("exec.threads", ConfigNode::integer(threads));
    of::core::Engine engine(std::move(cfg));
    return engine.run();
  };

  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  of::exec::Pool::global().configure(1);  // leave later tests serial

  ASSERT_FALSE(serial.final_model_bytes.empty());
  ASSERT_EQ(serial.final_model_bytes.size(), parallel.final_model_bytes.size());
  EXPECT_TRUE(serial.final_model_bytes == parallel.final_model_bytes)
      << "final model diverged between threads=1 and threads=4";
  EXPECT_EQ(serial.to_metrics_csv(), parallel.to_metrics_csv());
}

// The same contract with DP on: each trainer's noise pass splits over the
// pool (grain 63, so chunks start on odd coordinates), and the counter-based
// stream gives every coordinate the same noise on any thread.
TEST(ExecDeterminism, DpRunBitwiseIdenticalAcrossThreadCounts) {
  const auto run_with_threads = [](std::int64_t threads) {
    ConfigNode cfg = of::config::parse_yaml(R"(
seed: 7
exec:
  grain: 63
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
  global_rounds: 3
  local_epochs: 1
  lr: 0.05
eval_every: 1
)");
    cfg.set_path("exec.threads", ConfigNode::integer(threads));
    of::core::Engine engine(std::move(cfg));
    return engine.run();
  };

  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  of::exec::Pool::global().configure(1);  // leave later tests serial

  ASSERT_FALSE(serial.final_model_bytes.empty());
  EXPECT_TRUE(serial.final_model_bytes == parallel.final_model_bytes)
      << "DP final model diverged between threads=1 and threads=4";
  EXPECT_EQ(serial.to_metrics_csv(), parallel.to_metrics_csv());
}

}  // namespace
