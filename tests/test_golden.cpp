// Golden end-to-end hashes: one toy federation per supported shape, hashed
// over the final-model bytes and the exact `round,train_loss,accuracy`
// values of every RoundRecord. A refactor of the round loops or the wire
// framing must leave this table unchanged — the same bytes out, not merely
// similar accuracy. Hierarchical cells hash the model bytes too: every
// combiner folds its members in rank order, parking early arrivals, and the
// root folds the combiner partials in outer-rank order, so the tree's bytes
// do not depend on arrival order at any group size (DESIGN.md §10).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "config/compose.hpp"
#include "config/yaml.hpp"
#include "core/engine.hpp"
#include "exec/pool.hpp"
#include "net_util.hpp"
#include "obs/telemetry.hpp"
#include "simd/simd.hpp"

namespace {

using of::config::ConfigNode;
using of::config::parse_yaml;
using of::core::Engine;
using of::core::RunResult;

ConfigNode base_config() {
  return parse_yaml(R"(
seed: 11
topology:
  _target_: CentralizedTopology
  num_clients: 4
  inner_comm:
    _target_: TorchDistCommunicator
model: mlp_tiny
datamodule:
  preset: toy
  partition: iid
  batch_size: 16
algorithm:
  _target_: FedAvg
  global_rounds: 3
  local_epochs: 1
  lr: 0.05
  momentum: 0.9
  weight_decay: 1.0e-4
eval_every: 1
)");
}

void set(ConfigNode& cfg, const std::string& path, ConfigNode v) {
  cfg.set_path(path, std::move(v));
}

// Plugin variants shared by the centralized cells.
void use_dp(ConfigNode& cfg) {
  set(cfg, "privacy._target_", ConfigNode::string("DifferentialPrivacy"));
  set(cfg, "privacy.epsilon", ConfigNode::floating(10.0));
  set(cfg, "privacy.delta", ConfigNode::floating(1e-5));
  set(cfg, "privacy.clip_norm", ConfigNode::floating(5.0));
}
void use_sa(ConfigNode& cfg) {
  set(cfg, "privacy._target_", ConfigNode::string("SecureAggregation"));
}
void use_qsgd8(ConfigNode& cfg) {
  set(cfg, "compression._target_", ConfigNode::string("QSGD"));
  set(cfg, "compression.bits", ConfigNode::integer(8));
}
void use_topk(ConfigNode& cfg) {
  set(cfg, "compression._target_", ConfigNode::string("TopK"));
  set(cfg, "compression.k", ConfigNode::string("10x"));
  set(cfg, "compression.error_feedback", ConfigNode::boolean(true));
}
void use_median(ConfigNode& cfg) {
  set(cfg, "aggregation.rule", ConfigNode::string("median"));
}
void use_tcp(ConfigNode& cfg) {
  set(cfg, "topology.inner_comm._target_", ConfigNode::string("GrpcCommunicator"));
  set(cfg, "topology.inner_comm.port", ConfigNode::integer(of::testutil::ephemeral_port()));
}
void use_ring(ConfigNode& cfg) {
  set(cfg, "topology._target_", ConfigNode::string("RingTopology"));
  set(cfg, "topology.num_nodes", ConfigNode::integer(4));
}
// Fault model on, nothing injected: every round takes the deadline-quorum
// gather, and nobody misses the (generous) deadline.
void use_fault(ConfigNode& cfg) {
  set(cfg, "fault.enabled", ConfigNode::boolean(true));
  set(cfg, "fault.min_clients", ConfigNode::integer(1));
  set(cfg, "fault.round_deadline_seconds", ConfigNode::floating(30.0));
}
void use_hierarchical(ConfigNode& cfg) {
  set(cfg, "topology._target_", ConfigNode::string("HierarchicalTopology"));
  set(cfg, "topology.groups", ConfigNode::integer(2));
  // Two trainers per group; the 3×4 cell below covers combiners whose
  // members can arrive in more than one order that matters.
  set(cfg, "topology.group_size", ConfigNode::integer(2));
  set(cfg, "topology.outer_comm._target_", ConfigNode::string("TorchDistCommunicator"));
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

// The hashed text: `round,train_loss,accuracy` per record at full
// round-trip precision, so any bit flip in a metric changes the hash.
std::string metric_columns(const RunResult& r) {
  std::string out = "round,train_loss,accuracy\n";
  char line[96];
  for (const auto& rec : r.rounds) {
    std::snprintf(line, sizeof(line), "%zu,%.17g,%.9g\n", rec.round, rec.train_loss,
                  static_cast<double>(rec.accuracy));
    out += line;
  }
  return out;
}

std::uint64_t golden_hash(const RunResult& r, bool with_model) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const std::string cols = metric_columns(r);
  h = fnv1a(h, cols.data(), cols.size());
  if (with_model) h = fnv1a(h, r.final_model_bytes.data(), r.final_model_bytes.size());
  return h;
}

struct Cell {
  const char* name;
  std::function<void(ConfigNode&)> configure;
  bool with_model;
  std::uint64_t expected;
};

RunResult run_cell(const Cell& c) {
  ConfigNode cfg = base_config();
  c.configure(cfg);
  Engine engine(of::config::compose_from(std::move(cfg), OF_CONFIGS_DIR));
  return engine.run();
}

void check_result(const Cell& c, const RunResult& r) {
  ASSERT_EQ(r.rounds.size(), 3u) << c.name;
  for (const auto& rec : r.rounds) ASSERT_TRUE(std::isfinite(rec.train_loss)) << c.name;
  if (c.with_model) {
    ASSERT_FALSE(r.final_model_bytes.empty()) << c.name;
  }
  const std::uint64_t got = golden_hash(r, c.with_model);
  EXPECT_EQ(got, c.expected) << c.name << ": golden hash drifted, got 0x" << std::hex << got
                             << "\n"
                             << metric_columns(r);
}

void check_cell(const Cell& c) { check_result(c, run_cell(c)); }

auto both(std::function<void(ConfigNode&)> a, std::function<void(ConfigNode&)> b) {
  return [a, b](ConfigNode& cfg) {
    a(cfg);
    b(cfg);
  };
}

void plain(ConfigNode&) {}

TEST(Golden, CentralizedInProc) {
  const Cell cells[] = {
      {"inproc/plain", plain, true, 0x711CF7E4EF72B9B5ULL},
      {"inproc/dp", use_dp, true, 0x2C3C36F44198F47CULL},
      {"inproc/sa", use_sa, true, 0x7B8063A7AA421174ULL},
      {"inproc/qsgd8", use_qsgd8, true, 0x09895887C6A08FC4ULL},
      {"inproc/topk", use_topk, true, 0x8F499133275BF18DULL},
      {"inproc/median", use_median, true, 0xB9C3B760AFEB0B17ULL},
  };
  for (const auto& c : cells) check_cell(c);
}

TEST(Golden, CentralizedTcp) {
  const Cell cells[] = {
      {"tcp/plain", use_tcp, true, 0x711CF7E4EF72B9B5ULL},
      {"tcp/dp", both(use_tcp, use_dp), true, 0x2C3C36F44198F47CULL},
      {"tcp/sa", both(use_tcp, use_sa), true, 0x7B8063A7AA421174ULL},
      {"tcp/qsgd8", both(use_tcp, use_qsgd8), true, 0x09895887C6A08FC4ULL},
      {"tcp/topk", both(use_tcp, use_topk), true, 0x8F499133275BF18DULL},
      {"tcp/median", both(use_tcp, use_median), true, 0xB9C3B760AFEB0B17ULL},
  };
  for (const auto& c : cells) check_cell(c);
}

TEST(Golden, Ring) {
  const Cell cells[] = {
      {"ring/plain", use_ring, true, 0xED7EAF03890D875AULL},
      {"ring/topk", both(use_ring, use_topk), true, 0x9FAF1380346B1A00ULL},
  };
  for (const auto& c : cells) check_cell(c);
}

TEST(Golden, ServeSyncAndDeterministicFedBuff) {
  const Cell cells[] = {
      {"serve/sync",
       [](ConfigNode& cfg) {
         set(cfg, "defaults", parse_yaml("d:\n  - serve: sync\n").at("d"));
       },
       true, 0x711CF7E4EF72B9B5ULL},
      // One invitee in flight at a time (fraction 0.5 of 2 clients): arrival
      // order is the invite order, so the buffered fold is deterministic.
      {"serve/fedbuff",
       [](ConfigNode& cfg) {
         set(cfg, "topology.num_clients", ConfigNode::integer(2));
         set(cfg, "serve.enabled", ConfigNode::boolean(true));
         set(cfg, "serve.mode", ConfigNode::string("fedbuff"));
         set(cfg, "serve.fraction", ConfigNode::floating(0.5));
         set(cfg, "serve.buffer_size", ConfigNode::integer(2));
         set(cfg, "serve.alpha", ConfigNode::floating(0.6));
         set(cfg, "serve.max_staleness", ConfigNode::integer(4));
       },
       true, 0x1AB4B5A874E57236ULL},
  };
  for (const auto& c : cells) check_cell(c);
}

TEST(Golden, Hierarchical) {
  const Cell cells[] = {
      {"hier/plain", use_hierarchical, true, 0xF227E37F77CC2D3EULL},
      {"hier/dp", both(use_hierarchical, use_dp), true, 0x64541B7BDCDDF1CDULL},
      {"hier/topk", both(use_hierarchical, use_topk), true, 0x34A9C2F7D304D2B1ULL},
  };
  for (const auto& c : cells) check_cell(c);
}

TEST(Golden, HierarchicalFourGroupsFoldInRankOrder) {
  // Four groups of two: the root folds four combiner partials, so only a
  // rank-order fold makes the model bytes a pure function of the config.
  // Two runs must agree byte for byte as well as match the golden.
  const Cell cell{"hier/4x2",
                  [](ConfigNode& cfg) {
                    use_hierarchical(cfg);
                    set(cfg, "topology.groups", ConfigNode::integer(4));
                  },
                  true, 0x5A3339B65F41DA7DULL};
  const RunResult first = run_cell(cell);
  const RunResult second = run_cell(cell);
  EXPECT_EQ(first.final_model_bytes, second.final_model_bytes);
  check_cell(cell);
}

TEST(Golden, HierarchicalThreeByFourFoldsInRankOrder) {
  // Three groups of four: each combiner sums four frames, and float
  // addition does not associate, so only a rank-order fold makes the model
  // bytes a pure function of the config. Two plain runs must agree byte for
  // byte and match the golden. So must a run whose lowest-rank member of
  // every group trains 8× slower: a slowdown only sleeps, so it reorders
  // arrivals without changing what is computed.
  const auto three_by_four = [](ConfigNode& cfg) {
    use_hierarchical(cfg);
    set(cfg, "topology.groups", ConfigNode::integer(3));
    set(cfg, "topology.group_size", ConfigNode::integer(4));
  };
  const Cell cell{"hier/3x4", three_by_four, true, 0x9A33E925E0DD8B85ULL};
  const Cell slow_first{"hier/3x4/slow-first",
                        [&](ConfigNode& cfg) {
                          three_by_four(cfg);
                          set(cfg, "heterogeneity.slowdowns",
                              parse_yaml("v: [8.0, 1.0, 1.0, 1.0]").at("v"));
                        },
                        true, cell.expected};
  const RunResult first = run_cell(cell);
  const RunResult second = run_cell(cell);
  EXPECT_EQ(first.final_model_bytes, second.final_model_bytes);
  check_result(cell, first);
  check_cell(slow_first);
}

TEST(Golden, FaultCellsMatchTheirFaultOffTwins) {
  // No golden of their own: an injection-free fault run must hash exactly
  // like the fault-off cell it shadows.
  const Cell cells[] = {
      {"fault/inproc/plain", use_fault, true, 0x711CF7E4EF72B9B5ULL},
      {"fault/inproc/dp", both(use_fault, use_dp), true, 0x2C3C36F44198F47CULL},
      {"fault/inproc/median", both(use_fault, use_median), true, 0xB9C3B760AFEB0B17ULL},
      {"fault/tcp/plain", both(use_fault, use_tcp), true, 0x711CF7E4EF72B9B5ULL},
      {"fault/tcp/qsgd8", both(use_fault, both(use_tcp, use_qsgd8)), true,
       0x09895887C6A08FC4ULL},
      {"fault/tcp/topk", both(use_fault, both(use_tcp, use_topk)), true,
       0x8F499133275BF18DULL},
  };
  for (const auto& c : cells) check_cell(c);
}

// The benchmark's own model shapes. mlp_tiny only has 32- and 10-wide
// layers; these pin the 80-wide residual stack, the 256/128-wide layers and
// the 100-wide head, and the ragged last batches: `train_per_class: 1` with
// 3 clients leaves shards of 33 and 34 samples, so batch 32 ends in a
// batch of one (and of two). Every variant must hash like its plain cell.
void use_resnet_cifar10(ConfigNode& cfg) {
  set(cfg, "model", ConfigNode::string("resnet18_mini"));
  set(cfg, "datamodule.preset", ConfigNode::string("cifar10_like"));
  set(cfg, "datamodule.batch_size", ConfigNode::integer(32));
  set(cfg, "topology.num_clients", ConfigNode::integer(3));
}
void use_vgg_cifar100_one_per_class(ConfigNode& cfg) {
  set(cfg, "model", ConfigNode::string("vgg11_mini"));
  set(cfg, "datamodule.preset", ConfigNode::string("cifar100_like"));
  set(cfg, "datamodule.train_per_class", ConfigNode::integer(1));
  set(cfg, "datamodule.batch_size", ConfigNode::integer(32));
  set(cfg, "topology.num_clients", ConfigNode::integer(3));
  set(cfg, "algorithm.lr", ConfigNode::floating(0.01));
}
void use_simd_off(ConfigNode& cfg) { set(cfg, "exec.simd", ConfigNode::string("off")); }
void use_four_threads(ConfigNode& cfg) { set(cfg, "exec.threads", ConfigNode::integer(4)); }

// Leaves the process-wide exec state as the other suites expect it.
struct ExecReset {
  ~ExecReset() {
    of::simd::configure(of::simd::Mode::Auto);
    of::exec::Pool::global().configure(1);
  }
};

TEST(Golden, ModelShapesResnet18Cifar10) {
  const ExecReset reset;
  constexpr std::uint64_t kHash = 0x9889B5309FCA6D63ULL;
  const Cell cells[] = {
      {"resnet/plain", use_resnet_cifar10, true, kHash},
      {"resnet/simd-off", both(use_resnet_cifar10, use_simd_off), true, kHash},
      {"resnet/threads4", both(use_resnet_cifar10, use_four_threads), true, kHash},
  };
  for (const auto& c : cells) check_cell(c);
}

TEST(Golden, ModelShapesVgg11Cifar100OnePerClass) {
  const ExecReset reset;
  constexpr std::uint64_t kHash = 0xFC179838B126617EULL;
  const Cell cells[] = {
      {"vgg/plain", use_vgg_cifar100_one_per_class, true, kHash},
      {"vgg/simd-off", both(use_vgg_cifar100_one_per_class, use_simd_off), true, kHash},
      {"vgg/threads4", both(use_vgg_cifar100_one_per_class, use_four_threads), true, kHash},
  };
  for (const auto& c : cells) check_cell(c);
}

// Tracing must never change what is computed: a traced child and an
// untraced one have different heap histories, and the benchmark compares
// their final-model bytes. The traced run goes over TCP, as the benchmark's.
// The DP workload's shape: vgg11_mini on one sample per class.
const Cell kVggDp{"vgg/dp", both(use_vgg_cifar100_one_per_class, use_dp), true,
                  0x8FAF59461F7539F2ULL};

TEST(Golden, TracingDoesNotChangeModelBytes) {
  const Cell& cell = kVggDp;
  const auto traced = [&](ConfigNode& cfg) {
    cell.configure(cfg);
    use_tcp(cfg);
    set(cfg, "obs.enabled", ConfigNode::boolean(true));
    set(cfg, "obs.telemetry", ConfigNode::boolean(true));
  };
  const RunResult plain_run = run_cell(cell);
  const RunResult traced_run = run_cell({"vgg/dp/traced", traced, true, cell.expected});
  of::obs::Fleet::global().reset(0);  // leave the singleton clean for other suites
  check_result(cell, plain_run);
  EXPECT_TRUE(plain_run.final_model_bytes == traced_run.final_model_bytes)
      << "tracing changed the final model bytes";
}

// Fills and frees heap blocks of the sizes training allocates with 0xFF
// bytes (a NaN pattern), on this thread and on short-lived threads whose
// arenas later node threads inherit. Any buffer read before it is written
// then shows up as different bytes or a non-finite model.
void poison_heap() {
  const auto churn = [] {
    std::vector<std::vector<unsigned char>> blocks;
    for (std::size_t bytes : {48u, 320u, 1024u, 4096u, 10240u, 32768u, 131072u, 262144u})
      for (int i = 0; i < 6; ++i) blocks.emplace_back(bytes, static_cast<unsigned char>(0xFF));
    for (std::size_t i = 0; i < blocks.size(); i += 2) blocks[i] = {};
  };
  churn();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(churn);
  for (auto& t : threads) t.join();
}

TEST(Golden, HeapHistoryDoesNotChangeModelBytes) {
  const Cell& cell = kVggDp;
  const RunResult first = run_cell(cell);
  poison_heap();
  const RunResult second = run_cell(cell);
  check_result(cell, first);
  EXPECT_TRUE(first.final_model_bytes == second.final_model_bytes)
      << "heap history changed the final model bytes";
}

TEST(Golden, CrashOneCompletesWithFiniteMetrics) {
  // The shipped crash_one group over TCP: client 1 powers off in round 1
  // and every later round aggregates the survivors.
  ConfigNode cfg = base_config();
  use_tcp(cfg);
  set(cfg, "defaults", parse_yaml("d:\n  - fault: crash_one\n").at("d"));
  set(cfg, "fault.round_deadline_seconds", ConfigNode::floating(0.5));
  Engine engine(of::config::compose_from(std::move(cfg), OF_CONFIGS_DIR));
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_EQ(r.rounds[0].participated, 4u);
  for (const auto& rec : r.rounds) {
    EXPECT_TRUE(std::isfinite(rec.train_loss)) << "round " << rec.round;
    EXPECT_GE(rec.accuracy, 0.0f) << "round " << rec.round;
  }
  EXPECT_EQ(r.rounds[2].dropped_ranks, (std::vector<int>{1}));
}

}  // namespace
