// Fault-model tests: spec parsing/validation, deterministic injection,
// deadline-based partial gather, and end-to-end faulty Engine runs.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "comm/inproc.hpp"
#include "comm/star.hpp"
#include "net_util.hpp"
#include "config/yaml.hpp"
#include "core/engine.hpp"
#include "fault/fault.hpp"

namespace {

using of::comm::Communicator;
using of::comm::InProcGroup;
using of::config::ConfigNode;
using of::config::parse_yaml;
using of::core::Engine;
using of::core::RunResult;
using of::fault::FaultInjector;
using of::fault::FaultKind;
using of::fault::FaultSpec;
using of::tensor::Bytes;

namespace star = of::comm::star;

// --- FaultSpec parsing ---------------------------------------------------------------

TEST(FaultSpec, NullNodeYieldsDisabledSpec) {
  const FaultSpec s = FaultSpec::from_config(ConfigNode());
  EXPECT_FALSE(s.enabled);
  EXPECT_TRUE(s.injections.empty());
}

TEST(FaultSpec, ParsesFullGroup) {
  const ConfigNode n = parse_yaml(R"(
enabled: true
min_clients: 2
round_deadline_seconds: 1.5
quorum_timeout_seconds: 12.0
reconnect:
  max_attempts: 5
  backoff_seconds: 0.01
  backoff_max_seconds: 0.2
injections:
  - kind: crash
    client: 1
    round: 2
  - kind: delay
    probability: 0.5
    delay_seconds: 0.3
  - kind: disconnect
    client: 2
)");
  const FaultSpec s = FaultSpec::from_config(n);
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.min_clients, 2);
  EXPECT_DOUBLE_EQ(s.round_deadline_seconds, 1.5);
  EXPECT_DOUBLE_EQ(s.quorum_timeout_seconds, 12.0);
  EXPECT_EQ(s.reconnect.max_attempts, 5);
  EXPECT_DOUBLE_EQ(s.reconnect.backoff_seconds, 0.01);
  EXPECT_DOUBLE_EQ(s.reconnect.backoff_max_seconds, 0.2);
  ASSERT_EQ(s.injections.size(), 3u);
  EXPECT_EQ(s.injections[0].kind, FaultKind::Crash);
  EXPECT_EQ(s.injections[0].client, 1);
  EXPECT_EQ(s.injections[0].round, 2);
  EXPECT_DOUBLE_EQ(s.injections[0].probability, 1.0);
  EXPECT_EQ(s.injections[1].kind, FaultKind::Delay);
  EXPECT_EQ(s.injections[1].client, -1);  // any client
  EXPECT_EQ(s.injections[1].round, -1);   // every round
  EXPECT_DOUBLE_EQ(s.injections[1].probability, 0.5);
  EXPECT_DOUBLE_EQ(s.injections[1].delay_seconds, 0.3);
  EXPECT_EQ(s.injections[2].kind, FaultKind::Disconnect);
  EXPECT_EQ(s.injections[2].client, 2);
}

TEST(FaultSpec, RejectsOutOfRangeValues) {
  EXPECT_THROW((void)FaultSpec::from_config(parse_yaml(R"(
injections:
  - kind: crash
    probability: 1.5
)")),
               std::runtime_error);
  EXPECT_THROW((void)FaultSpec::from_config(parse_yaml("injections:\n  - kind: meltdown\n")),
               std::runtime_error);
  EXPECT_THROW((void)FaultSpec::from_config(parse_yaml(
                   "round_deadline_seconds: 1.0\nquorum_timeout_seconds: 0.5\n")),
               std::runtime_error);
}

TEST(FaultSpec, ValidateChecksQuorumAndTargets) {
  FaultSpec s;
  s.enabled = true;
  s.min_clients = 3;
  EXPECT_NO_THROW(s.validate(4));  // 3 clients in a world of 4
  s.min_clients = 4;
  EXPECT_THROW(s.validate(4), std::runtime_error);
  s.min_clients = 1;
  s.injections.push_back({FaultKind::Crash, 9, -1, 1.0, 0.0});
  EXPECT_THROW(s.validate(4), std::runtime_error);
}

TEST(FaultSpec, ShippedCrashOneGroupFileParses) {
  const std::string dir = OF_CONFIGS_DIR;
  const FaultSpec s =
      FaultSpec::from_config(of::config::load_yaml_file(dir + "/fault/crash_one.yaml"));
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.min_clients, 2);
  ASSERT_EQ(s.injections.size(), 1u);
  EXPECT_EQ(s.injections[0].kind, FaultKind::Crash);
  EXPECT_EQ(s.injections[0].client, 1);
  EXPECT_EQ(s.injections[0].round, 1);
}

// --- FaultInjector ---------------------------------------------------------------------

TEST(FaultInjector, TargetedCrashFiresExactlyOnce) {
  FaultSpec s;
  s.enabled = true;
  s.injections.push_back({FaultKind::Crash, 1, 2, 1.0, 0.0});
  FaultInjector hit(s, 1, 42);
  FaultInjector miss(s, 2, 42);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(hit.at_round(r).crash, r == 2) << "round " << r;
    EXPECT_FALSE(miss.at_round(r).crash) << "round " << r;
  }
}

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultSpec s;
  s.enabled = true;
  s.injections.push_back({FaultKind::Delay, -1, -1, 0.5, 0.1});
  s.injections.push_back({FaultKind::Disconnect, -1, -1, 0.3, 0.0});
  FaultInjector a(s, 1, 7);
  FaultInjector b(s, 1, 7);
  FaultInjector other_client(s, 2, 7);
  bool streams_differ = false;
  for (int r = 0; r < 64; ++r) {
    const auto da = a.at_round(r);
    const auto db = b.at_round(r);
    const auto dc = other_client.at_round(r);
    EXPECT_DOUBLE_EQ(da.extra_delay_seconds, db.extra_delay_seconds);
    EXPECT_EQ(da.disconnect, db.disconnect);
    if (da.extra_delay_seconds != dc.extra_delay_seconds || da.disconnect != dc.disconnect)
      streams_differ = true;
  }
  EXPECT_TRUE(streams_differ);  // per-client streams are decorrelated
}

TEST(FaultInjector, DisabledSpecNeverFires) {
  FaultSpec s;  // enabled = false
  s.injections.push_back({FaultKind::Crash, -1, -1, 1.0, 0.0});
  FaultInjector inj(s, 1, 7);
  for (int r = 0; r < 8; ++r) {
    const auto d = inj.at_round(r);
    EXPECT_FALSE(d.crash);
    EXPECT_FALSE(d.disconnect);
    EXPECT_DOUBLE_EQ(d.extra_delay_seconds, 0.0);
  }
}

// --- deadline-based partial gather -----------------------------------------------------

void run_group(int world, const std::function<void(int, Communicator&)>& fn) {
  InProcGroup group(world);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r, group.comm(r));
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

// The deadline-quorum gather with a store-by-rank sink: the hub's own frame
// sits at [0], each reporting client's at its rank, and a dropped client's
// slot stays empty. Clients only send and get no frames back.
struct StoredGather {
  std::vector<Bytes> frames;
  star::StreamingGather g;
};

StoredGather gather_and_store(Communicator& c, const Bytes& mine,
                              const star::PartialGatherOptions& opt) {
  StoredGather out;
  if (c.rank() == 0) {
    out.frames.resize(static_cast<std::size_t>(c.world_size()));
    out.frames[0] = mine;
  }
  out.g = star::gather_bytes_streaming(
      c, mine,
      [&out](int src, Bytes&& frame) {
        out.frames[static_cast<std::size_t>(src)] = std::move(frame);
      },
      opt);
  return out;
}

TEST(PartialGather, AllClientsArriveBeforeDeadline) {
  run_group(3, [](int rank, Communicator& c) {
    star::PartialGatherOptions opt{2, 5.0, 10.0};
    const auto out = gather_and_store(c, Bytes{static_cast<std::uint8_t>(rank)}, opt);
    if (rank == 0) {
      EXPECT_EQ(out.g.participated, (std::vector<int>{1, 2}));
      EXPECT_TRUE(out.g.dropped.empty());
      EXPECT_FALSE(out.g.deadline_hit);
      ASSERT_EQ(out.frames.size(), 3u);
      for (std::uint8_t p = 0; p < 3; ++p)
        EXPECT_EQ(out.frames[p], Bytes{p}) << "rank " << int(p);
    } else {
      EXPECT_TRUE(out.frames.empty());  // clients only send
    }
  });
}

TEST(PartialGather, StragglerPastDeadlineIsDropped) {
  run_group(3, [](int rank, Communicator& c) {
    star::PartialGatherOptions opt{1, 0.15, 0.15};
    if (rank == 2) std::this_thread::sleep_for(std::chrono::milliseconds(600));
    const auto out = gather_and_store(c, Bytes{static_cast<std::uint8_t>(rank)}, opt);
    if (rank == 0) {
      EXPECT_EQ(out.g.participated, (std::vector<int>{1}));
      EXPECT_EQ(out.g.dropped, (std::vector<int>{2}));
      EXPECT_TRUE(out.g.deadline_hit);
    }
  });
}

TEST(PartialGather, QuorumOutwaitsTheDeadline) {
  run_group(3, [](int rank, Communicator& c) {
    star::PartialGatherOptions opt{2, 0.05, 10.0};
    if (rank == 2) std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const auto out = gather_and_store(c, Bytes{static_cast<std::uint8_t>(rank)}, opt);
    if (rank == 0) {
      // The deadline passed with one report, but quorum=2 keeps the hub
      // waiting until the straggler lands.
      EXPECT_EQ(out.g.participated, (std::vector<int>{1, 2}));
      EXPECT_TRUE(out.g.dropped.empty());
      EXPECT_TRUE(out.g.deadline_hit);
    }
  });
}

TEST(PartialGather, MissedQuorumTimesOutWithReadableError) {
  EXPECT_THROW(
      run_group(3,
                [](int rank, Communicator& c) {
                  star::PartialGatherOptions opt{2, 0.05, 0.25};
                  if (rank == 2)
                    std::this_thread::sleep_for(std::chrono::seconds(1));
                  (void)gather_and_store(c, Bytes{static_cast<std::uint8_t>(rank)}, opt);
                }),
      std::runtime_error);
}

// --- faulty Engine runs ----------------------------------------------------------------

ConfigNode faulty_config(const std::string& fault_block) {
  return parse_yaml(R"(seed: 7
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
)" + fault_block);
}

constexpr const char* kCrashBlock = R"(fault:
  enabled: true
  min_clients: 1
  round_deadline_seconds: 0.3
  injections:
    - kind: crash
      client: 1
      round: 1
)";

TEST(EngineFault, CrashWithQuorumCompletesAllRounds) {
  Engine engine(faulty_config(kCrashBlock));
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_EQ(r.rounds[0].participated, 4u);
  EXPECT_TRUE(r.rounds[0].dropped_ranks.empty());
  for (std::size_t round : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_EQ(r.rounds[round].participated, 3u) << "round " << round;
    EXPECT_EQ(r.rounds[round].dropped_ranks, (std::vector<int>{1})) << "round " << round;
    EXPECT_TRUE(r.rounds[round].deadline_hit) << "round " << round;
  }
  EXPECT_GT(r.final_accuracy, 0.5f);

  // Telemetry reaches the CSV export.
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("participated,dropped,deadline_hit,reconnects"), std::string::npos);

  // Losing one of four clients must not wreck convergence on the toy task.
  Engine clean(faulty_config(""));
  const RunResult cr = clean.run();
  EXPECT_NEAR(r.final_accuracy, cr.final_accuracy, 0.15f);
}

TEST(EngineFault, NoInjectionsIsBitwiseIdenticalToFaultOff) {
  // With nothing to cut, the deadline-quorum round loop must reproduce the
  // plain one byte for byte: the survivor re-weighting is exactly 1 when
  // the whole cohort the hub serves (here six clients) reported.
  auto run = [](bool fault_on) {
    ConfigNode cfg = faulty_config(fault_on ? R"(fault:
  enabled: true
  min_clients: 1
  round_deadline_seconds: 30.0
)"
                                            : "");
    cfg.set_path("topology.num_clients", ConfigNode::integer(6));
    Engine engine(cfg);
    return engine.run();
  };
  const RunResult on = run(true);
  const RunResult off = run(false);
  ASSERT_FALSE(off.final_model_bytes.empty());
  EXPECT_TRUE(on.final_model_bytes == off.final_model_bytes)
      << "fault mode perturbed an injection-free run";
  ASSERT_EQ(on.rounds.size(), off.rounds.size());
  for (std::size_t i = 0; i < on.rounds.size(); ++i) {
    EXPECT_EQ(on.rounds[i].train_loss, off.rounds[i].train_loss) << "round " << i;
    EXPECT_EQ(on.rounds[i].accuracy, off.rounds[i].accuracy) << "round " << i;
  }
}

TEST(EngineFault, CrashOverTcpBackend) {
  ConfigNode cfg = faulty_config(kCrashBlock);
  cfg.set_path("topology.inner_comm._target_", ConfigNode::string("GrpcCommunicator"));
  cfg.set_path("topology.inner_comm.port", ConfigNode::integer(of::testutil::ephemeral_port()));
  cfg.set_path("fault.round_deadline_seconds", ConfigNode::floating(1.0));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_EQ(r.rounds[1].dropped_ranks, (std::vector<int>{1}));
  // Round 2: the transport already knows the peer is dead, so it is dropped
  // up front instead of being outwaited.
  EXPECT_EQ(r.rounds[2].participated, 3u);
  EXPECT_FALSE(r.rounds[2].deadline_hit);
  EXPECT_GT(r.final_accuracy, 0.4f);
}

TEST(EngineFault, TransientDisconnectComesBackNextRound) {
  Engine engine(faulty_config(R"(fault:
  enabled: true
  min_clients: 1
  round_deadline_seconds: 0.3
  injections:
    - kind: disconnect
      client: 3
      round: 0
)"));
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  // Over a backend with no severable link the outage is a deadline-length
  // stall: client 3 misses round 0 only.
  EXPECT_EQ(r.rounds[0].dropped_ranks, (std::vector<int>{3}));
  EXPECT_TRUE(r.rounds[0].deadline_hit);
  EXPECT_EQ(r.rounds[1].participated, 4u);
  EXPECT_TRUE(r.rounds[1].dropped_ranks.empty());
}

TEST(EngineFault, DelaySpikesAreOutwaitedOrDropped) {
  Engine engine(faulty_config(R"(fault:
  enabled: true
  min_clients: 1
  round_deadline_seconds: 0.2
  injections:
    - kind: delay
      client: 2
      delay_seconds: 0.5
)"));
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  for (const auto& rec : r.rounds) {
    EXPECT_EQ(rec.dropped_ranks, (std::vector<int>{2})) << "round " << rec.round;
    EXPECT_TRUE(rec.deadline_hit) << "round " << rec.round;
    EXPECT_EQ(rec.participated, 3u) << "round " << rec.round;
  }
  EXPECT_GT(r.final_accuracy, 0.4f);
}

TEST(EngineFault, RejectsIncompatibleConfigurations) {
  {
    ConfigNode cfg = faulty_config(kCrashBlock);
    cfg.set_path("topology._target_", ConfigNode::string("RingTopology"));
    cfg.set_path("topology.num_nodes", ConfigNode::integer(4));
    Engine engine(cfg);
    EXPECT_THROW((void)engine.run(), std::runtime_error);
  }
  {
    ConfigNode cfg = faulty_config(kCrashBlock);
    cfg.set_path("scheduling.mode", ConfigNode::string("async"));
    Engine engine(cfg);
    EXPECT_THROW((void)engine.run(), std::runtime_error);
  }
  {
    ConfigNode cfg = faulty_config(kCrashBlock);
    cfg.set_path("privacy._target_", ConfigNode::string("SecureAggregation"));
    Engine engine(cfg);
    EXPECT_THROW((void)engine.run(), std::runtime_error);
  }
}

}  // namespace
