// `of_perfbench fed`: one child process's federations for run.py.
//
// Runs a short warm-up federation, then (untraced) a short allocation-base
// federation, then the measured one, each a real of::core::Engine over TCP
// loopback with one coordinator and kClients trainers. Prints one JSON line:
// setup and run times, per-round wall times, root wire bytes and messages,
// marginal allocations per round, peak RSS, the final-model hash and the
// finiteness/completion facts run.py's correctness verdict is made of.
//
// With --trace the measured federation runs with obs tracing and telemetry
// on, and the drained span events are attributed per node (not from the
// cross-node summed RoundRecord phase columns): each node's phase seconds
// plus its unattributed remainder are checked against the root's round wall
// time.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "config/yaml.hpp"
#include "core/engine.hpp"
#include "core/payload.hpp"
#include "net_util.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

const Workload& workload(const std::string& name) {
  static const std::vector<Workload> table = {
      // Compute-bound lockstep FedAvg: local training dominates every round.
      {.name = "sync_train", .model = "resnet18_mini", .preset = "cifar10_like",
       .algorithm = "FedAvg"},
      // Payload-bound lockstep FedAvgDelta + DP: encode (noise draws), the
      // packed broadcast and collect-then-mean aggregation show here.
      {.name = "sync_dp", .model = "vgg11_mini", .preset = "cifar100_like",
       .train_per_class = 1, .algorithm = "FedAvgDelta", .lr = 0.01f, .dp = true},
      // FedBuff serving with a QSGD-8 uplink: streaming fold of quantized
      // frames and a model re-pack per invite.
      {.name = "serve_qsgd", .model = "vgg11_mini", .preset = "cifar100_like",
       .train_per_class = 1, .algorithm = "FedAvg", .lr = 0.01f, .qsgd = true, .serve = true},
      // Failure reproducer: DP at ε=1 makes every update non-finite, the
      // coordinator throws "no client updates to aggregate", and the trainers
      // block in broadcast recv, so Engine::run does not return.
      {.name = "dp_eps1_repro", .model = "vgg11_mini", .preset = "cifar100_like",
       .algorithm = "FedAvg", .dp = true, .dp_epsilon = 1.0},
  };
  for (const auto& w : table)
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace {

using of::obs::Name;

constexpr std::size_t kServeBuffer = 2;  // serve.buffer_size

// The Engine config for one federation of `w`, built inline (the shipped
// topology/centralized_grpc.yaml carries `master_addr`, which strict config
// rejects). `rounds` is the global-round count (lockstep) or the virtual-round
// count (serve); `port` the coordinator's TCP port.
of::config::ConfigNode make_config(const Workload& w, std::uint64_t seed, std::size_t rounds,
                                   std::uint16_t port, bool traced) {
  std::ostringstream y;
  y << "seed: " << seed << "\n"
    << "topology:\n"
    << "  _target_: src.omnifed.topology.CentralizedTopology\n"
    << "  num_clients: " << kClients << "\n"
    << "  inner_comm:\n"
    << "    _target_: src.omnifed.communicator.GrpcCommunicator\n"
    << "    port: " << port << "\n"
    << "model: " << w.model << "\n"
    << "datamodule:\n"
    << "  preset: " << w.preset << "\n"
    << "  partition: iid\n"
    << "  batch_size: " << kBatchSize << "\n";
  if (w.train_per_class > 0) y << "  train_per_class: " << w.train_per_class << "\n";
  y << "algorithm:\n"
    << "  _target_: src.omnifed.algorithm." << w.algorithm << "\n"
    << "  global_rounds: " << rounds << "\n"
    << "  local_epochs: 1\n"
    << "  lr: " << w.lr << "\n"
    << "  momentum: 0.9\n"
    << "  weight_decay: 1.0e-4\n"
    << "eval_every: 0\n"
    << "exec:\n"
    << "  threads: 1\n"
    << "  simd: auto\n"
    << "payload:\n"
    << "  wire: f32\n"
    << "obs:\n"
    << "  enabled: " << (traced ? "true" : "false") << "\n"
    << "  telemetry: " << (traced ? "true" : "false") << "\n";
  if (w.dp)
    y << "privacy:\n"
      << "  _target_: src.omnifed.privacy.DifferentialPrivacy\n"
      << "  epsilon: " << w.dp_epsilon << "\n"
      << "  delta: 1.0e-5\n"
      << "  clip_norm: 5.0\n";
  if (w.qsgd)
    y << "compression:\n"
      << "  _target_: src.omnifed.communicator.compression.QSGD\n"
      << "  bits: 8\n";
  if (w.serve)
    y << "serve:\n"
      << "  enabled: true\n"
      << "  mode: fedbuff\n"
      << "  fraction: 1.0\n"
      << "  buffer_size: " << kServeBuffer << "\n"
      << "  alpha: 0.6\n"
      << "  max_staleness: 4\n"
      << "  retry_seconds: 0.01\n"
      << "  total_updates: " << rounds * kClients << "\n";
  return of::config::parse_yaml(y.str());
}

// Peak resident set of this process, KiB.
std::uint64_t peak_rss_kb() {
  struct rusage ru {};
  return getrusage(RUSAGE_SELF, &ru) == 0 ? static_cast<std::uint64_t>(ru.ru_maxrss) : 0;
}

// FNV-1a 64 of a byte range, as 16 hex digits.
std::string fnv1a_hex(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}


// One Engine construction + run, with what the measurement needs from it.
struct FedRun {
  double setup_s = 0.0;
  std::uint64_t allocs = 0;
  of::core::RunResult result;
  std::int64_t nonfinite_rejected = 0;
  std::int64_t frames_dropped = 0;
  std::vector<of::obs::TraceEvent> events;
  std::optional<of::obs::Fleet::ServeHealth> serve;
};

std::int64_t delta(const std::map<std::string, std::int64_t>& before,
                   const std::map<std::string, std::int64_t>& after, const char* key) {
  const auto a = after.find(key);
  if (a == after.end()) return 0;
  const auto b = before.find(key);
  return a->second - (b != before.end() ? b->second : 0);
}

FedRun run_federation(const Workload& w, std::uint64_t seed, std::size_t rounds, bool traced) {
  auto cfg = make_config(w, seed, rounds, of::testutil::ephemeral_port(), traced);
  FedRun out;
  const auto reg0 = of::obs::Registry::global().snapshot();
  const std::uint64_t a0 = allocs();
  const auto t0 = Clock::now();
  of::core::Engine engine(std::move(cfg));
  out.result = engine.run();
  const double wall = seconds_since(t0);
  out.allocs = allocs() - a0;
  out.setup_s = wall - out.result.total_seconds;
  const auto reg1 = of::obs::Registry::global().snapshot();
  out.nonfinite_rejected = delta(reg0, reg1, "payload.nonfinite_rejected");
  out.frames_dropped = delta(reg0, reg1, "tcp.frames_dropped");
  if (traced) {
    // The Engine drained already; the rings hold their events until the next
    // reset, so a second drain reads the same run.
    out.events = of::obs::TraceRecorder::global().drain();
    out.serve = of::obs::Fleet::global().serve();
  }
  return out;
}

bool finite_model(const of::tensor::Bytes& packed) {
  if (packed.empty()) return false;
  for (const auto& t : of::core::unpack_tensors(packed))
    for (std::size_t i = 0; i < t.numel(); ++i)
      if (!std::isfinite(t.data()[i])) return false;
  return true;
}

// The seven node-level phases, in the RoundRecord column order.
constexpr Name kPhases[] = {Name::LocalTrain, Name::Encode,    Name::Send,     Name::Recv,
                            Name::Decode,     Name::Aggregate, Name::Broadcast};
constexpr const char* kPhaseKeys[] = {"local_train", "encode",    "send",     "recv",
                                      "decode",      "aggregate", "broadcast"};
constexpr std::size_t kNumPhases = sizeof(kPhases) / sizeof(kPhases[0]);

enum Phase : std::size_t { kTrain, kEncode, kSend, kRecv, kDecode, kAggregate, kBroadcast };

struct NodeTotals {
  double phase_s[kNumPhases] = {};         // checked rounds only
  std::uint64_t phase_n[kNumPhases] = {};  // every round
  double round_span_s = 0.0;               // own Round spans, checked rounds
  std::uint64_t round_spans = 0;           // every round
  std::uint64_t lo = UINT64_MAX, hi = 0;   // extent of its spans, checked rounds
};

// Index of `n` in kPhases, or kNumPhases.
std::size_t phase_of(Name n) {
  std::size_t p = 0;
  while (p < kNumPhases && kPhases[p] != n) ++p;
  return p;
}

// The span counts every node must show, whatever their time: a phase span
// that is never emitted (or lost) would otherwise only move its time into
// the node's unattributed remainder. Lockstep: one span per phase per round.
// Serve: each trainer decodes, trains, encodes and sends once per invite it
// answers and receives once more (the Stop); the coordinator sends one invite
// per trainer update, receives each update, and drains once per buffer.
std::vector<std::string> span_problems(const Workload& w, std::map<int, NodeTotals>& nodes,
                                       std::uint64_t rounds, std::uint64_t accepted) {
  std::vector<std::string> out;
  auto expect = [&out](int node, const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want)
      out.push_back("node " + std::to_string(node) + ": " + std::to_string(got) + " " + what +
                    " spans, expected " + std::to_string(want));
  };
  if (!w.serve) {
    for (int id = 0; id <= kClients; ++id) {
      NodeTotals& n = nodes[id];
      expect(id, "round", n.round_spans, rounds);
      const auto phases = id == 0 ? std::vector<Phase>{kBroadcast, kRecv, kAggregate}
                                  : std::vector<Phase>{kRecv, kDecode, kTrain, kEncode, kSend};
      for (const Phase p : phases) expect(id, kPhaseKeys[p], n.phase_n[p], rounds);
    }
    return out;
  }
  std::uint64_t updates = 0;
  for (int id = 1; id <= kClients; ++id) {
    NodeTotals& n = nodes[id];
    const std::uint64_t u = n.phase_n[kTrain];
    if (u == 0) out.push_back("node " + std::to_string(id) + ": no local_train spans");
    for (const Phase p : {kDecode, kEncode, kSend}) expect(id, kPhaseKeys[p], n.phase_n[p], u);
    if (n.phase_n[kRecv] < u + 1)
      out.push_back("node " + std::to_string(id) + ": " + std::to_string(n.phase_n[kRecv]) +
                    " recv spans for " + std::to_string(u) + " updates");
    updates += u;
  }
  NodeTotals& c = nodes[0];
  expect(0, "send", c.phase_n[kSend], updates);
  expect(0, "recv", c.phase_n[kRecv], updates);
  expect(0, "aggregate", c.phase_n[kAggregate], accepted / kServeBuffer);
  return out;
}

// Per-node attribution of the measured federation's spans. Node 0 is the
// coordinator. Each node's round wall time is taken on its own clock: the sum
// of its own Round spans, or for serve, which records no Round span, the
// extent of its spans. Its unattributed time is that wall minus its phase
// spans, floored at 0. Σ phases + unattributed is then checked against the
// root's round wall, Σ RoundRecord.seconds as the coordinator measures it:
// phases that overlap or double-count, or a node whose rounds do not line up
// with the root's, push the error past the tolerance, and span_problems()
// catches a phase span that goes missing. Lockstep round 0 is left out on both
// sides: a trainer thread that gets going late lengthens the coordinator's
// first round, not its own.
std::string attribution_json(const Workload& w, const FedRun& run, double& max_err) {
  std::map<int, NodeTotals> nodes;
  for (const auto& e : run.events) {
    const bool is_round = e.name == Name::Round;
    const std::size_t p = phase_of(e.name);
    if (e.node < 0 || e.span_id == 0 || (!is_round && p == kNumPhases)) continue;
    NodeTotals& n = nodes[e.node];
    const double s = static_cast<double>(e.dur_ns) * 1e-9;
    const bool checked = w.serve || e.round >= 1;
    if (is_round) {
      ++n.round_spans;
      if (checked) n.round_span_s += s;
    } else {
      ++n.phase_n[p];
      if (checked) n.phase_s[p] += s;
    }
    if (checked) {
      n.lo = std::min(n.lo, e.ts_ns);
      n.hi = std::max(n.hi, e.ts_ns + e.dur_ns);
    }
  }
  const auto& rounds = run.result.rounds;
  double root_wall = 0.0;
  std::size_t root_rounds = 0;
  for (std::size_t i = w.serve ? 0 : 1; i < rounds.size(); ++i, ++root_rounds)
    root_wall += rounds[i].seconds;
  const std::uint64_t accepted = run.serve ? run.serve->accepted_total : 0;
  const auto problems = span_problems(w, nodes, rounds.size(), accepted);

  max_err = 0.0;
  std::ostringstream arr;
  arr << "[";
  for (int id = 0; id <= kClients; ++id) {
    const NodeTotals& n = nodes[id];
    double phases = 0.0;
    JsonObject ph;
    JsonObject counts;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      phases += n.phase_s[p];
      ph.num(kPhaseKeys[p], n.phase_s[p]);
      counts.integer(kPhaseKeys[p], static_cast<std::int64_t>(n.phase_n[p]));
    }
    const double own_wall =
        w.serve ? (n.hi > n.lo ? static_cast<double>(n.hi - n.lo) * 1e-9 : 0.0) : n.round_span_s;
    const double unattributed = std::max(0.0, own_wall - phases);
    const double err =
        root_wall > 0.0 ? std::fabs(phases + unattributed - root_wall) / root_wall : 1.0;
    max_err = std::max(max_err, err);
    JsonObject node;
    node.integer("node", id)
        .str("role", id == 0 ? "coordinator" : "trainer")
        .num("own_wall_s", own_wall)
        .integer("round_spans", static_cast<std::int64_t>(n.round_spans))
        .raw("phase_s", ph.done())
        .raw("phase_count", counts.done())
        .num("unattributed_s", unattributed)
        .num("err_frac", err);
    arr << (id ? "," : "") << node.done();
  }
  arr << "]";
  std::string problems_arr = "[";
  for (std::size_t i = 0; i < problems.size(); ++i)
    problems_arr += (i ? ",\"" : "\"") + problems[i] + "\"";
  problems_arr += "]";
  JsonObject out;
  out.num("root_wall_s", root_wall)
      .integer("rounds", static_cast<std::int64_t>(root_rounds))
      .num("max_err_frac", max_err)
      .raw("nodes", arr.str())
      .raw("span_problems", problems_arr);
  return out.done();
}

std::string run_json(const char* role, std::size_t rounds, const FedRun& r) {
  JsonObject o;
  o.str("role", role)
      .integer("rounds_target", static_cast<std::int64_t>(rounds))
      .integer("rounds_done", static_cast<std::int64_t>(r.result.rounds.size()))
      .num("setup_s", r.setup_s)
      .num("total_s", r.result.total_seconds)
      .integer("allocs", static_cast<std::int64_t>(r.allocs))
      .integer("nonfinite_rejected", r.nonfinite_rejected)
      .integer("frames_dropped", r.frames_dropped);
  return o.done();
}

}  // namespace

// Entry point of the `fed` subcommand; returns the process exit code.
int fed_main(const Workload& w, std::uint64_t seed, std::size_t rounds, bool traced) {
  constexpr std::size_t kWarmRounds = 3;
  constexpr std::size_t kBaseRounds = 5;
  std::vector<std::string> runs;

  const FedRun warm = run_federation(w, seed, kWarmRounds, false);
  runs.push_back(run_json("warm", kWarmRounds, warm));
  std::optional<FedRun> base;
  if (!traced) {
    base = run_federation(w, seed, kBaseRounds, false);
    runs.push_back(run_json("alloc_base", kBaseRounds, *base));
  }
  const FedRun main = run_federation(w, seed, rounds, traced);
  runs.push_back(run_json("main", rounds, main));

  const auto& res = main.result;
  std::vector<double> round_s;
  bool loss_finite = true;
  for (const auto& r : res.rounds) {
    round_s.push_back(r.seconds);
    if (!std::isfinite(r.train_loss)) loss_finite = false;
  }
  std::string runs_arr = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) runs_arr += (i ? "," : "") + runs[i];
  runs_arr += "]";

  JsonObject o;
  o.str("kind", "fed")
      .str("workload", w.name)
      .integer("seed", static_cast<std::int64_t>(seed))
      .boolean("traced", traced)
      .raw("runs", runs_arr)
      .raw("round_s", json_array(round_s))
      .integer("root_bytes",
               static_cast<std::int64_t>(res.root_comm.bytes_sent + res.root_comm.bytes_received))
      .integer("root_msgs", static_cast<std::int64_t>(res.root_comm.messages_sent +
                                                      res.root_comm.messages_received))
      .num("pool_hit_rate", res.pool_hit_rate)
      .integer("model_scalars", static_cast<std::int64_t>(res.model_scalars))
      .str("model_hash", fnv1a_hex(res.final_model_bytes.data(), res.final_model_bytes.size()))
      .num("final_accuracy", res.final_accuracy)
      .boolean("loss_finite", loss_finite)
      .boolean("model_finite", finite_model(res.final_model_bytes))
      .num("peak_rss_kb", static_cast<double>(peak_rss_kb()));
  if (base && rounds > kBaseRounds)
    o.num("allocs_per_round", (static_cast<double>(main.allocs) - static_cast<double>(base->allocs)) /
                                  static_cast<double>(rounds - kBaseRounds));
  if (traced) {
    double max_err = 0.0;
    o.raw("attribution", attribution_json(w, main, max_err));
    JsonObject s;
    if (main.serve) {
      const auto& h = *main.serve;
      s.integer("accepted", static_cast<std::int64_t>(h.accepted_total))
          .integer("rejected",
                   static_cast<std::int64_t>(h.rejected_stale_total + h.rejected_full_total))
          .num("mean_staleness", h.mean_staleness);
    }
    o.raw("serve_health", s.done());
  }
  std::cout << o.done() << std::endl;
  return 0;
}

}  // namespace perfbench
