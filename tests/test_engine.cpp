// End-to-end Engine integration tests: every topology kind, every backend
// combination, plugin wiring, and learning-progress sanity checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "config/yaml.hpp"
#include "net_util.hpp"
#include "core/engine.hpp"
#include "obs/registry.hpp"

namespace {

using of::config::ConfigNode;
using of::config::parse_yaml;
using of::core::Engine;
using of::core::RunResult;

ConfigNode base_config() {
  return parse_yaml(R"(
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
}

TEST(Engine, CentralizedFedAvgLearns) {
  Engine engine(base_config());
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_GT(r.final_accuracy, 0.5f);  // the toy task is easy
  EXPECT_GT(r.rounds.front().train_loss, r.rounds.back().train_loss * 0.5);
  EXPECT_GT(r.root_comm.bytes_sent, 0u);
  EXPECT_GT(r.root_comm.bytes_received, 0u);
}

TEST(Engine, RingTopologyLearns) {
  ConfigNode cfg = base_config();
  cfg.set_path("topology._target_", ConfigNode::string("RingTopology"));
  cfg.set_path("topology.num_nodes", ConfigNode::integer(4));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_GT(r.final_accuracy, 0.5f);
}

TEST(Engine, HierarchicalTopologyLearns) {
  ConfigNode cfg = base_config();
  cfg.set_path("topology._target_", ConfigNode::string("HierarchicalTopology"));
  cfg.set_path("topology.groups", ConfigNode::integer(2));
  cfg.set_path("topology.group_size", ConfigNode::integer(2));
  cfg.set_path("topology.outer_comm._target_",
               ConfigNode::string("TorchDistCommunicator"));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_GT(r.final_accuracy, 0.5f);
  EXPECT_GT(r.outer_comm.bytes_sent, 0u);
}

ConfigNode hierarchical_config() {
  ConfigNode cfg = base_config();
  cfg.set_path("topology._target_", ConfigNode::string("HierarchicalTopology"));
  cfg.set_path("topology.groups", ConfigNode::integer(2));
  cfg.set_path("topology.group_size", ConfigNode::integer(2));
  cfg.set_path("topology.outer_comm._target_",
               ConfigNode::string("TorchDistCommunicator"));
  return cfg;
}

TEST(Engine, HierarchicalRecordsPerRoundBytes) {
  // Every round moves the same partial frames over the outer tier, so a
  // per-round (not cumulative) byte count is flat across rounds.
  Engine engine(hierarchical_config());
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_GT(r.rounds[0].bytes_up, 0u);
  for (const auto& rec : r.rounds) {
    EXPECT_EQ(rec.bytes_up, r.rounds[0].bytes_up) << "round " << rec.round;
    EXPECT_EQ(rec.bytes_down, r.rounds[0].bytes_down) << "round " << rec.round;
  }
}

TEST(Engine, HierarchicalCombinerDeadlineShortensRounds) {
  // One trainer of group 1 is slowed far past the combiner deadline. Its
  // update is cut each round, and nothing else may wait for it either: the
  // root's rounds stay near the deadline while the straggler's own rounds
  // (which bound the whole run) take seconds.
  ConfigNode cfg = hierarchical_config();
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(2));
  cfg.set_path("eval_every", ConfigNode::integer(0));
  cfg.set_path("topology.combiner.deadline_seconds", ConfigNode::floating(0.2));
  cfg.set_path("topology.combiner.min_clients", ConfigNode::integer(1));
  // A slowdown multiplies the measured train time, which is tens of
  // microseconds per round here, so the factor must be large to last
  // past 0.5 s.
  ConfigNode slow = ConfigNode::list();
  for (double f : {1.0, 1.0, 1.0, 20000.0}) slow.push_back(ConfigNode::floating(f));
  cfg.set_path("heterogeneity.slowdowns", slow);
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 2u);
  const double straggler_round = r.total_seconds / 2.0;
  ASSERT_GT(straggler_round, 0.5) << "slowdown too small to pass the deadline";
  for (const auto& rec : r.rounds) {
    EXPECT_LT(rec.seconds, 0.5 * straggler_round) << "round " << rec.round;
    EXPECT_TRUE(std::isfinite(rec.train_loss));
  }
}

TEST(Engine, CompressionViaPaperFig4Placement) {
  // Compression configured inside inner_comm, exactly like the paper's Fig. 4.
  ConfigNode cfg = base_config();
  cfg.set_path("topology.inner_comm.compression._target_",
               ConfigNode::string("src.omnifed.communicator.compression.TopK"));
  cfg.set_path("topology.inner_comm.compression.k", ConfigNode::string("10x"));
  cfg.set_path("topology.inner_comm.compression.error_feedback",
               ConfigNode::boolean(true));
  Engine engine(cfg);
  const RunResult r = engine.run();
  EXPECT_GT(r.final_accuracy, 0.4f);

  // Compression must reduce upstream bytes vs. the plain run.
  Engine plain(base_config());
  const RunResult p = plain.run();
  EXPECT_LT(r.root_comm.bytes_received, p.root_comm.bytes_received / 2);
}

TEST(Engine, QsgdCompressionTopLevelPlacement) {
  ConfigNode cfg = base_config();
  cfg.set_path("compression._target_", ConfigNode::string("QSGD"));
  cfg.set_path("compression.bits", ConfigNode::integer(8));
  Engine engine(cfg);
  EXPECT_GT(engine.run().final_accuracy, 0.4f);
}

TEST(Engine, DifferentialPrivacyPluginRuns) {
  ConfigNode cfg = base_config();
  cfg.set_path("privacy._target_",
               ConfigNode::string("src.omnifed.privacy.DifferentialPrivacy"));
  cfg.set_path("privacy.epsilon", ConfigNode::floating(10.0));
  cfg.set_path("privacy.delta", ConfigNode::floating(1e-5));
  cfg.set_path("privacy.clip_norm", ConfigNode::floating(5.0));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  // With a generous ε the model still learns something.
  EXPECT_GT(r.final_accuracy, 0.25f);
}

TEST(Engine, SecureAggregationMatchesPlainRun) {
  // SA masks cancel in the sum, so the learning trajectory matches the
  // unprotected run up to fixed-point quantization.
  ConfigNode cfg = base_config();
  cfg.set_path("privacy._target_", ConfigNode::string("SecureAggregation"));
  Engine sa_engine(cfg);
  const RunResult sa = sa_engine.run();
  Engine plain(base_config());
  const RunResult p = plain.run();
  EXPECT_NEAR(sa.final_accuracy, p.final_accuracy, 0.05f);
}

TEST(Engine, HomomorphicEncryptionSmallModel) {
  ConfigNode cfg = base_config();
  cfg.set_path("topology.num_clients", ConfigNode::integer(2));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(1));
  cfg.set_path("privacy._target_", ConfigNode::string("HomomorphicEncryption"));
  cfg.set_path("privacy.key_bits", ConfigNode::integer(128));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_GT(r.rounds[0].train_loss, 0.0);
}

TEST(Engine, CompressionPlusPrivacyRejected) {
  ConfigNode cfg = base_config();
  cfg.set_path("compression._target_", ConfigNode::string("TopK"));
  cfg.set_path("compression.k", ConfigNode::string("10x"));
  cfg.set_path("privacy._target_", ConfigNode::string("SecureAggregation"));
  Engine engine(cfg);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Engine, RingRejectsStarCommunicator) {
  ConfigNode cfg = base_config();
  cfg.set_path("topology._target_", ConfigNode::string("RingTopology"));
  cfg.set_path("topology.inner_comm._target_", ConfigNode::string("GrpcCommunicator"));
  Engine engine(cfg);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Engine, DeterministicAcrossRuns) {
  Engine a(base_config());
  Engine b(base_config());
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.final_accuracy, rb.final_accuracy);
  EXPECT_EQ(ra.rounds.back().train_loss, rb.rounds.back().train_loss);
}

TEST(Engine, NonIidShardsPartitionRuns) {
  ConfigNode cfg = base_config();
  cfg.set_path("datamodule.partition", ConfigNode::string("shards"));
  cfg.set_path("datamodule.alpha", ConfigNode::integer(2));
  Engine engine(cfg);
  EXPECT_GT(engine.run().final_accuracy, 0.3f);
}

TEST(Engine, WeightedAggregationHandlesImbalance) {
  // Dirichlet with small alpha gives very unequal shard sizes; the run must
  // still converge thanks to sample-weighted aggregation.
  ConfigNode cfg = base_config();
  cfg.set_path("datamodule.partition", ConfigNode::string("dirichlet"));
  cfg.set_path("datamodule.alpha", ConfigNode::floating(0.2));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(5));
  Engine engine(cfg);
  EXPECT_GT(engine.run().final_accuracy, 0.4f);
}

TEST(Engine, EvalEveryControlsEvaluationRounds) {
  ConfigNode cfg = base_config();
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(4));
  cfg.set_path("eval_every", ConfigNode::integer(2));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 4u);
  EXPECT_LT(r.rounds[0].accuracy, 0.0f);  // not evaluated
  EXPECT_GE(r.rounds[1].accuracy, 0.0f);  // round 2 evaluated
  EXPECT_LT(r.rounds[2].accuracy, 0.0f);
  EXPECT_GE(r.rounds[3].accuracy, 0.0f);  // last round always evaluated
}

TEST(Engine, ModeledLinksAccountTime) {
  ConfigNode cfg = base_config();
  cfg.set_path("topology.inner_comm.link.latency_us", ConfigNode::integer(100));
  cfg.set_path("topology.inner_comm.link.bandwidth_mbps", ConfigNode::integer(100));
  cfg.set_path("topology.inner_comm.link.mode", ConfigNode::string("virtual"));
  Engine engine(cfg);
  const RunResult r = engine.run();
  EXPECT_GT(r.inner_comm.modeled_seconds, 0.0);
}

TEST(Engine, RunTwiceThrows) {
  Engine engine(base_config());
  (void)engine.run();
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Engine, ResultCarriesExperimentIdentity) {
  ConfigNode cfg = base_config();
  cfg.set_path("model", ConfigNode::string("resnet18_mini"));
  cfg.set_path("algorithm._target_", ConfigNode::string("FedProx"));
  Engine engine(cfg);
  const RunResult r = engine.run();
  EXPECT_EQ(r.model, "resnet18_mini");
  EXPECT_EQ(r.algorithm, "FedProx");
  EXPECT_EQ(r.dataset, "toy");
  EXPECT_GT(r.model_scalars, 1000u);
}

TEST(Engine, AmqpBackendMatchesInProc) {
  // Swapping TorchDist → AMQP pub/sub is a one-line config change and must
  // not alter the learning trajectory (paper §3.3's communicator claim).
  ConfigNode cfg = base_config();
  cfg.set_path("topology.inner_comm._target_",
               ConfigNode::string("src.omnifed.communicator.AMQPCommunicator"));
  Engine amqp_engine(cfg);
  const RunResult amqp = amqp_engine.run();
  Engine inproc_engine(base_config());
  const RunResult inproc = inproc_engine.run();
  EXPECT_NEAR(amqp.final_accuracy, inproc.final_accuracy, 1e-6f);
  EXPECT_NEAR(amqp.rounds.back().train_loss, inproc.rounds.back().train_loss, 1e-5);
}

TEST(Engine, AmqpRingTopology) {
  ConfigNode cfg = base_config();
  cfg.set_path("topology._target_", ConfigNode::string("RingTopology"));
  cfg.set_path("topology.inner_comm._target_", ConfigNode::string("AMQPCommunicator"));
  Engine engine(cfg);
  EXPECT_GT(engine.run().final_accuracy, 0.5f);
}

TEST(Engine, HierarchicalWithTcpInnerGroups) {
  // Each site runs its own gRPC-style star (one port per group), leaders
  // exchange over an in-proc outer tier.
  ConfigNode cfg = base_config();
  cfg.set_path("topology._target_", ConfigNode::string("HierarchicalTopology"));
  cfg.set_path("topology.groups", ConfigNode::integer(2));
  cfg.set_path("topology.group_size", ConfigNode::integer(2));
  cfg.set_path("topology.inner_comm._target_", ConfigNode::string("GrpcCommunicator"));
  // The engine derives each group's listen port as base+group, so the whole
  // block must be free, not just the base.
  const std::uint16_t port = of::testutil::free_port_block(2);
  ASSERT_NE(port, 0) << "no block of two free loopback ports";
  cfg.set_path("topology.inner_comm.port", ConfigNode::integer(port));
  cfg.set_path("topology.outer_comm._target_",
               ConfigNode::string("TorchDistCommunicator"));
  Engine engine(cfg);
  EXPECT_GT(engine.run().final_accuracy, 0.4f);
}

TEST(Engine, TcpBackendMatchesInProc) {
  ConfigNode cfg = base_config();
  cfg.set_path("topology.inner_comm._target_", ConfigNode::string("GrpcCommunicator"));
  cfg.set_path("topology.inner_comm.port", ConfigNode::integer(of::testutil::ephemeral_port()));
  Engine tcp_engine(cfg);
  const RunResult tcp = tcp_engine.run();

  Engine inproc_engine(base_config());
  const RunResult inproc = inproc_engine.run();

  ASSERT_EQ(tcp.rounds.size(), inproc.rounds.size());
  // Same seed, same dataset, same round structure → identical learning.
  EXPECT_NEAR(tcp.final_accuracy, inproc.final_accuracy, 1e-6f);
  EXPECT_NEAR(tcp.rounds.back().train_loss, inproc.rounds.back().train_loss, 1e-5);
}

// --- async scheduling / heterogeneity / partial participation ----------------------

TEST(Engine, AsyncSchedulingLearns) {
  ConfigNode cfg = base_config();
  cfg.set_path("scheduling.mode", ConfigNode::string("async"));
  cfg.set_path("scheduling.alpha", ConfigNode::floating(0.6));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(8));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_FALSE(r.rounds.empty());
  EXPECT_GT(r.final_accuracy, 0.5f);
}

TEST(Engine, AsyncRejectsNonCentralizedAndPrivacy) {
  {
    ConfigNode cfg = base_config();
    cfg.set_path("scheduling.mode", ConfigNode::string("async"));
    cfg.set_path("topology._target_", ConfigNode::string("RingTopology"));
    Engine engine(cfg);
    EXPECT_THROW(engine.run(), std::runtime_error);
  }
  {
    ConfigNode cfg = base_config();
    cfg.set_path("scheduling.mode", ConfigNode::string("async"));
    cfg.set_path("privacy._target_", ConfigNode::string("SecureAggregation"));
    Engine engine(cfg);
    EXPECT_THROW(engine.run(), std::runtime_error);
  }
}

TEST(Engine, AsyncNotBlockedByStraggler) {
  // One client 8× slower. Lockstep rounds wait for it: no update is ever
  // applied to a model that moved on (staleness 0), and while it trains each
  // other client delivers exactly one update. Async keeps absorbing the fast
  // clients' updates while it trains, so some update lands `clients` or
  // more model versions after its invite: another client delivered twice
  // while its own client trained once, which a lockstep round never allows.
  // Both checks count events the runs record, never wall time.
  constexpr std::size_t kClients = 4;
  auto run = [](bool async) {
    ConfigNode cfg = base_config();
    cfg.set_path("topology.num_clients", ConfigNode::integer(kClients));
    cfg.set_path("algorithm.global_rounds", ConfigNode::integer(12));
    cfg.set_path("algorithm.local_epochs", ConfigNode::integer(4));
    cfg.set_path("eval_every", ConfigNode::integer(0));
    cfg.set_path("heterogeneity.slowdowns",
                 of::config::parse_yaml("v: [1.0, 1.0, 1.0, 8.0]").at("v"));
    if (async) cfg.set_path("scheduling.mode", ConfigNode::string("async"));
    Engine engine(cfg);
    return engine.run();
  };
  for (const auto& rec : run(false).rounds)
    EXPECT_EQ(rec.mean_staleness, 0.0) << "round " << rec.round;

  // The serve loop observes every update's staleness into this histogram.
  // kClients is a power of two, so it starts a bucket.
  const auto& hist = of::obs::Registry::global().histogram("async.staleness");
  const auto at_least_clients = [&] {
    std::uint64_t n = 0;
    for (std::size_t b = of::obs::Histogram::bucket_index(kClients);
         b < of::obs::Histogram::kBuckets; ++b)
      n += hist.bucket_count(b);
    return n;
  };
  const std::uint64_t before = at_least_clients();
  const RunResult async = run(true);
  ASSERT_FALSE(async.rounds.empty());
  EXPECT_GT(async.rounds.back().mean_staleness, 0.0);
  EXPECT_GE(at_least_clients() - before, 1u)
      << "async served the clients in lockstep order: no update was " << kClients
      << " or more versions stale";
}

TEST(Engine, AsyncReportsStaleness) {
  ConfigNode cfg = base_config();
  cfg.set_path("scheduling.mode", ConfigNode::string("async"));
  cfg.set_path("heterogeneity.slowdowns",
               of::config::parse_yaml("v: [1.0, 1.0, 1.0, 4.0]").at("v"));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_FALSE(r.rounds.empty());
  EXPECT_GT(r.rounds.back().mean_staleness, 0.0);
}

TEST(Engine, AsyncComposesWithCompression) {
  ConfigNode cfg = base_config();
  cfg.set_path("scheduling.mode", ConfigNode::string("async"));
  cfg.set_path("compression._target_", ConfigNode::string("TopK"));
  cfg.set_path("compression.k", ConfigNode::string("10x"));
  cfg.set_path("compression.error_feedback", ConfigNode::boolean(true));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(8));
  Engine engine(cfg);
  EXPECT_GT(engine.run().final_accuracy, 0.4f);
}

TEST(Engine, AsyncOverAmqpQueues) {
  // The combination the paper's AMQP plans point at: clients push updates
  // into a queue, the aggregator pulls them asynchronously.
  ConfigNode cfg = base_config();
  cfg.set_path("scheduling.mode", ConfigNode::string("async"));
  cfg.set_path("topology.inner_comm._target_", ConfigNode::string("AMQPCommunicator"));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(6));
  Engine engine(cfg);
  EXPECT_GT(engine.run().final_accuracy, 0.4f);
}

TEST(Engine, PartialParticipationLearns) {
  ConfigNode cfg = base_config();
  cfg.set_path("topology.num_clients", ConfigNode::integer(6));
  cfg.set_path("clients_per_round", ConfigNode::integer(2));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(8));
  Engine engine(cfg);
  const RunResult r = engine.run();
  EXPECT_GT(r.final_accuracy, 0.5f);
  // Upstream traffic must be far below full participation.
  Engine full([&] {
    ConfigNode c2 = base_config();
    c2.set_path("topology.num_clients", ConfigNode::integer(6));
    c2.set_path("algorithm.global_rounds", ConfigNode::integer(8));
    return c2;
  }());
  const RunResult f = full.run();
  EXPECT_LT(r.root_comm.bytes_received, f.root_comm.bytes_received / 2);
}

TEST(Engine, PartialParticipationRejectsSecureAggregation) {
  ConfigNode cfg = base_config();
  cfg.set_path("clients_per_round", ConfigNode::integer(2));
  cfg.set_path("privacy._target_", ConfigNode::string("SecureAggregation"));
  Engine engine(cfg);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Engine, HeterogeneitySlowsSyncRounds) {
  // Enough local work per round (3 epochs) that the multiplicative
  // slowdown dominates scheduler jitter even on a loaded machine.
  auto round_time = [](double slow) {
    ConfigNode cfg = base_config();
    cfg.set_path("algorithm.global_rounds", ConfigNode::integer(3));
    cfg.set_path("algorithm.local_epochs", ConfigNode::integer(3));
    cfg.set_path("eval_every", ConfigNode::integer(0));
    of::config::ConfigNode list = of::config::ConfigNode::list();
    list.push_back(ConfigNode::floating(slow));
    cfg.set_path("heterogeneity.slowdowns", list);
    Engine engine(cfg);
    return engine.run().mean_round_seconds;
  };
  EXPECT_GT(round_time(30.0), round_time(1.0) * 2.0);
}

TEST(Engine, CustomTopologyGraphRuns) {
  ConfigNode cfg = base_config();
  ConfigNode topo = parse_yaml(R"(
_target_: CustomTopology
nodes:
  - {id: 0, role: aggregator}
  - {id: 1, role: trainer}
  - {id: 2, role: trainer}
  - {id: 3, role: trainer}
edges:
  - [0, 1]
  - [0, 2]
  - [0, 3]
)");
  cfg["topology"] = topo;
  Engine engine(cfg);
  EXPECT_GT(engine.run().final_accuracy, 0.4f);
}

// --- robust aggregation / byzantine tolerance --------------------------------------

TEST(Engine, MedianSurvivesByzantineClientFedAvgDoesNot) {
  auto run_with = [](const char* rule) {
    ConfigNode cfg = base_config();
    cfg.set_path("topology.num_clients", ConfigNode::integer(6));
    cfg.set_path("algorithm.global_rounds", ConfigNode::integer(5));
    cfg.set_path("eval_every", ConfigNode::integer(5));
    cfg.set_path("byzantine.count", ConfigNode::integer(1));
    cfg.set_path("byzantine.kind", ConfigNode::string("sign_flip"));
    cfg.set_path("aggregation.rule", ConfigNode::string(rule));
    Engine engine(cfg);
    return engine.run().final_accuracy;
  };
  const float mean_acc = run_with("mean");
  const float median_acc = run_with("median");
  EXPECT_GT(median_acc, 0.6f);               // robust rule shrugs it off
  EXPECT_GT(median_acc, mean_acc + 0.15f);   // plain mean is poisoned
}

TEST(Engine, TrimmedMeanSurvivesNoiseInjection) {
  ConfigNode cfg = base_config();
  cfg.set_path("topology.num_clients", ConfigNode::integer(6));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(5));
  cfg.set_path("eval_every", ConfigNode::integer(5));
  cfg.set_path("byzantine.count", ConfigNode::integer(1));
  cfg.set_path("byzantine.kind", ConfigNode::string("noise"));
  cfg.set_path("aggregation.rule", ConfigNode::string("trimmed_mean"));
  cfg.set_path("aggregation.trim", ConfigNode::floating(0.2));
  Engine engine(cfg);
  EXPECT_GT(engine.run().final_accuracy, 0.6f);
}

TEST(Engine, RobustRuleMatchesMeanWithoutAttack) {
  ConfigNode cfg = base_config();
  cfg.set_path("aggregation.rule", ConfigNode::string("trimmed_mean"));
  cfg.set_path("aggregation.trim", ConfigNode::floating(0.0));
  Engine robust(cfg);
  Engine plain(base_config());
  // trim=0 trimmed mean is exactly the mean.
  EXPECT_NEAR(robust.run().final_accuracy, plain.run().final_accuracy, 1e-6f);
}

TEST(Engine, RobustAggregationRejectsPrivacy) {
  ConfigNode cfg = base_config();
  cfg.set_path("aggregation.rule", ConfigNode::string("median"));
  cfg.set_path("privacy._target_", ConfigNode::string("SecureAggregation"));
  Engine engine(cfg);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

// Runs `cfg` and expects a config-time rejection whose message names the
// reason.
void expect_rejected(const ConfigNode& cfg, const std::string& reason) {
  Engine engine(cfg);
  try {
    (void)engine.run();
    ADD_FAILURE() << "config ran; expected rejection: " << reason;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
  }
}

TEST(Engine, RobustRulesRejectedOnRingAndHierarchical) {
  // Ring all-reduce and the combiner tree only ever form means: a robust
  // rule there would be silently ignored.
  for (const char* rule : {"median", "trimmed_mean"}) {
    ConfigNode ring = base_config();
    ring.set_path("topology._target_", ConfigNode::string("RingTopology"));
    ring.set_path("topology.num_nodes", ConfigNode::integer(4));
    ring.set_path("aggregation.rule", ConfigNode::string(rule));
    expect_rejected(ring, "robust aggregation rules need a centralized topology");
    ConfigNode hier = hierarchical_config();
    hier.set_path("aggregation.rule", ConfigNode::string(rule));
    expect_rejected(hier, "robust aggregation rules need a centralized topology");
  }
}

TEST(Engine, CombinerDeadlineWithPrivacyRejected) {
  // A privacy combiner needs every member's update, so it always waits for
  // its whole group: a combiner deadline would be silently ignored.
  for (const char* mechanism : {"DifferentialPrivacy", "SecureAggregation"}) {
    ConfigNode cfg = hierarchical_config();
    cfg.set_path("topology.combiner.deadline_seconds", ConfigNode::floating(0.2));
    cfg.set_path("privacy._target_", ConfigNode::string(mechanism));
    expect_rejected(cfg, "topology.combiner.deadline_seconds cannot be combined with a "
                         "privacy mechanism");
  }
}

TEST(Engine, RingOverStarCommunicatorRejected) {
  // The ring all-reduce sends to both neighbours; a client/server star only
  // links clients to the server, so the config is refused before any link.
  ConfigNode cfg = base_config();
  cfg.set_path("topology._target_", ConfigNode::string("RingTopology"));
  cfg.set_path("topology.num_nodes", ConfigNode::integer(4));
  cfg.set_path("topology.inner_comm._target_", ConfigNode::string("GrpcCommunicator"));
  cfg.set_path("topology.inner_comm.port", ConfigNode::integer(of::testutil::ephemeral_port()));
  expect_rejected(cfg, "ring topology requires an all-to-all communicator");
}

TEST(Engine, CsvExport) {
  Engine engine(base_config());
  const RunResult r = engine.run();
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("round,seconds,train_loss"), std::string::npos);
  // header + 3 rounds = 4 lines
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  const std::string path = ::testing::TempDir() + "of_run.csv";
  r.write_csv(path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
}

// --- shipped config files ---------------------------------------------------------

TEST(Configs, EveryShippedGroupFileParses) {
  const std::string dir = OF_CONFIGS_DIR;
  for (const char* rel :
       {"topology/centralized.yaml", "topology/centralized_grpc.yaml",
        "topology/ring.yaml", "topology/hierarchical.yaml", "algorithm/fedavg.yaml",
        "algorithm/fedprox.yaml", "algorithm/fedmom.yaml", "algorithm/fednova.yaml",
        "algorithm/scaffold.yaml", "algorithm/moon.yaml", "algorithm/fedper.yaml",
        "algorithm/feddyn.yaml", "algorithm/fedbn.yaml", "algorithm/ditto.yaml",
        "algorithm/diloco.yaml", "model/resnet18.yaml", "model/vgg11.yaml",
        "model/alexnet.yaml", "model/mobilenetv3.yaml", "datamodule/cifar10.yaml",
        "datamodule/cifar100.yaml", "datamodule/caltech101.yaml",
        "datamodule/caltech256.yaml", "datamodule/cifar10_noniid.yaml",
        "privacy/dp.yaml", "privacy/secure_aggregation.yaml", "privacy/he.yaml",
        "compression/topk.yaml", "compression/qsgd8.yaml", "compression/powersgd.yaml",
        "fault/none.yaml", "fault/crash_one.yaml", "fault/flaky_network.yaml",
        "fault/delay_spikes.yaml", "exec/serial.yaml", "exec/parallel.yaml"}) {
    EXPECT_NO_THROW((void)of::config::load_yaml_file(dir + "/" + rel)) << rel;
  }
}

TEST(Configs, QuickstartComposesAndBuildsEngine) {
  const std::string dir = OF_CONFIGS_DIR;
  ConfigNode cfg = of::config::compose(dir + "/quickstart.yaml",
                                       {"algorithm.global_rounds=1",
                                        "datamodule.preset=toy", "model.name=mlp_tiny",
                                        "topology.num_clients=3"});
  Engine engine(std::move(cfg));
  const RunResult r = engine.run();
  EXPECT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.model, "mlp_tiny");
}

TEST(Configs, CrossFacilityComposes) {
  const std::string dir = OF_CONFIGS_DIR;
  ConfigNode cfg = of::config::compose(dir + "/cross_facility.yaml",
                                       {"algorithm.global_rounds=1",
                                        "datamodule.preset=toy", "model.name=mlp_tiny",
                                        "topology.groups=2", "topology.group_size=2"});
  Engine engine(std::move(cfg));
  const RunResult r = engine.run();
  EXPECT_EQ(r.rounds.size(), 1u);
  EXPECT_GT(r.outer_comm.bytes_sent, 0u);
}

}  // namespace
