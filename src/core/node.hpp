// Node — a federation participant (paper §3.3). The Engine prepares one
// NodeSetup per topology node (model, data shard, algorithm instance,
// communicator spec, plugins); NodeRuntime then executes the round loop for
// the node's role on its own thread, exactly like the paper's Ray actors.
//
// Communicators are constructed *inside* the node thread (a TCP server
// blocks in accept until its clients connect), from a CommSpec.
#pragma once

#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "algorithms/algorithm.hpp"
#include "comm/amqp.hpp"
#include "comm/inproc.hpp"
#include "comm/modeled.hpp"
#include "comm/star.hpp"
#include "comm/tcp.hpp"
#include "core/metrics.hpp"
#include "core/payload.hpp"
#include "core/topology.hpp"
#include "data/loader.hpp"
#include "fault/fault.hpp"
#include "obs/clocksync.hpp"
#include "obs/telemetry.hpp"
#include "serve/serve.hpp"

namespace of::core {

struct CommSpec {
  enum class Backend { None, InProc, Tcp, Amqp } backend = Backend::None;
  comm::InProcGroup* group = nullptr;      // InProc: shared group owned by the Engine
  comm::AmqpGroup* amqp_group = nullptr;   // Amqp: shared broker-backed group
  int rank = 0;
  int world = 1;
  std::uint16_t port = 0;             // Tcp
  std::string host = "127.0.0.1";     // Tcp clients
  std::optional<comm::LinkModel> link;  // wrap with a modeled WAN/LAN link
  comm::DelayMode delay_mode = comm::DelayMode::Virtual;
  comm::TcpFaultTolerance tcp_ft;       // Tcp: reconnect policy (fault runs)
};

// A communicator built from a spec, with its ownership chain.
struct OwnedComm {
  std::unique_ptr<comm::TcpCommunicator> tcp;
  std::unique_ptr<comm::ModeledLinkCommunicator> modeled;
  comm::Communicator* use = nullptr;  // innermost interface to talk through

  static OwnedComm make(const CommSpec& spec);
};

struct NodeSetup {
  int node_id = 0;
  NodeRole role = NodeRole::Trainer;
  int group = 0;
  std::string mode;  // topology kind: "centralized" | "ring" | "hierarchical"
  std::size_t global_rounds = 1;
  std::size_t local_epochs = 1;
  std::size_t eval_every = 1;  // 0 = only after the last round

  // Serving tier (src/serve/): population registry + fraction-fit sampling
  // + bounded staleness buffer. FedBuff mode replaces the lockstep round
  // loops; the old `scheduling: {mode: async}` group maps onto it with
  // fraction = 1 and buffer_size = 1 (exactly FedAsync).
  serve::ServeConfig serve;

  // Simulated compute heterogeneity: this node trains `slowdown`× slower
  // than baseline (sleeps the difference after each local_train).
  double slowdown = 1.0;

  // Partial participation: sample this many trainers per round
  // (0 = everyone). Selection is derived from `participation_seed`,
  // identically on every node — no coordination traffic needed.
  std::size_t clients_per_round = 0;
  std::uint64_t participation_seed = 0;

  // Robust aggregation at the central server (byzantine tolerance).
  AggregationRule aggregation_rule = AggregationRule::Mean;
  double aggregation_trim = 0.1;
  // Fault injection: this trainer sends corrupted updates.
  bool byzantine = false;
  std::string byzantine_kind = "sign_flip";  // sign_flip | noise

  // Fault model (crash/disconnect/delay injections + deadline-based partial
  // aggregation; centralized sync mode only). See src/fault/.
  fault::FaultSpec fault;
  // Aggregator only: per-cohort-index sample weights w_i = n_i / total, used
  // to re-normalize a partial round's mean over the surviving cohort.
  std::vector<double> client_weights;

  nn::Model model;
  std::unique_ptr<nn::Optimizer> optimizer;
  std::unique_ptr<nn::LRScheduler> scheduler;
  std::unique_ptr<data::DataLoader> loader;      // trainers
  const data::InMemoryDataset* test_set = nullptr;
  double weight_scale = 1.0;  // pre-scaling making uniform means weighted
  int cohort_index = 0;       // index within the aggregation cohort
  int cohort_size = 1;

  // Hierarchical combiner tier (leaders only). A leader folds its group's
  // updates into a StreamingSum in rank order, parking early arrivals, and
  // forwards `partial_scale × sum` upward — the scale bridges the
  // per-client weight_scale pre-scaling to the root's divide-by-total-count
  // mean, so the tree reproduces the flat weighted mean exactly at full
  // participation. deadline 0 = wait for the whole
  // group; with a deadline, stragglers are cut once `hier_min_clients`
  // reported. A privacy leader collects its whole group instead and
  // forwards the group mean at `weight_scale` as a count-1 partial.
  double partial_scale = 1.0;
  double hier_deadline_seconds = 0.0;
  int hier_min_clients = 0;

  std::unique_ptr<algorithms::Algorithm> algorithm;
  config::ConfigNode algorithm_params;

  CommSpec inner_spec;
  CommSpec outer_spec;  // hierarchical leaders only

  std::unique_ptr<compression::Compressor> compressor;        // client→aggregator link
  std::unique_ptr<compression::Compressor> outer_compressor;  // leader→root link
  std::unique_ptr<privacy::PrivacyMechanism> privacy;

  // Wire repr for plain update frames (`payload: {wire: f16}` halves plain
  // traffic); Engine-set on every node so both link ends agree. Compressed
  // frames carry their codec's own int8/int16 representation.
  WireRepr wire_repr = WireRepr::F32;

  // Distributed telemetry plane (obs/, DESIGN.md §9): trainers piggyback a
  // per-round TLV summary on each update frame, after the metrics trailer
  // (stripped server-side before decode, so training state never sees it),
  // and ping the coordinator clock every `obs_clock_sync_every` rounds.
  // Engine-set from the obs config on every node, so both ends of a link
  // agree on the framing. Active on centralized topologies (lockstep and
  // serving).
  bool obs_telemetry = false;
  std::size_t obs_clock_sync_every = 0;

  std::uint64_t seed = 1;
};

struct NodeReport {
  std::vector<RoundRecord> rounds;  // filled by the root aggregator only
  comm::CommStats comm_inner;       // intra-group traffic totals
  comm::CommStats comm_outer;       // cross-group traffic (hierarchical leaders)
  double train_seconds = 0.0;       // time spent in local_train
  tensor::Bytes final_model;        // packed global model (aggregator roles only)
};

class NodeRuntime {
 public:
  explicit NodeRuntime(NodeSetup setup);
  NodeReport run();

 private:
  // Lockstep rounds (paper §3.3): the trainer loop (centralized clients
  // and hierarchical group members) and the hub loop. Each update frame
  // carries its round metrics as a trailer, so one gather per round moves
  // both. A trainer always sends its frame with one plain gather_bytes; the
  // hub alone decides how long it waits (a deadline-quorum cut in fault
  // runs, where it re-weights the mean around the dropped clients, and at
  // combiners with a deadline). Trainers also evaluate the configured fault
  // injections.
  //
  // run_hub is the one aggregator loop (DESIGN.md §4). Without `outer` it is
  // the centralized aggregator; with it, a hierarchical combiner that
  // forwards its group as an OFP2 partial, and on outer rank 0 also the
  // tree root that folds every partial in rank order.
  NodeReport run_trainer(comm::Communicator& inner);
  NodeReport run_hub(comm::Communicator& inner, comm::Communicator* outer);
  NodeReport run_ring_node(comm::Communicator& inner);
  // Serving tier (src/serve/, DESIGN.md §14): the coordinator samples a
  // fraction of the registered population each aggregation window, folds
  // staleness-weighted updates into a bounded buffer, and answers over-stale
  // or overflow updates with retry-after. Also runs classic async mode
  // (fraction 1, buffer 1 = FedAsync).
  NodeReport run_serve_aggregator(comm::Communicator& inner);
  NodeReport run_serve_trainer(comm::Communicator& inner);

  // The local-training steps every trainer loop shares: adopt the global
  // model for `round`, then one timed local_train (plus the configured
  // compute slowdown).
  void apply_global(const std::vector<tensor::Tensor>& global, std::size_t round);
  algorithms::TrainStats train_local(std::size_t round);
  // Lockstep trainer round body; encodes the update into frame_buf_
  // (reused, so steady-state rounds do not allocate).
  algorithms::TrainStats train_one_round(const std::vector<tensor::Tensor>& global,
                                         std::size_t round);
  // Encode `payload` into frame_buf_, or a skip frame when numeric
  // admission rejects it: the aggregator then drops this client for the
  // round like a non-participant instead of letting one poisoned coordinate
  // spread through the aggregate.
  void encode_or_skip(const std::vector<tensor::Tensor>& payload,
                      privacy::PrivacyMechanism* privacy, std::size_t round);
  RoundMetrics round_metrics(const algorithms::TrainStats& stats, std::size_t round);

  // Start-of-round snapshot; record_round reports wall time and bytes as
  // deltas against it, so every mode's RoundRecord is per-round.
  struct RoundStart {
    std::chrono::steady_clock::time_point t0;
    comm::CommStats stats;
  };
  static RoundStart round_start(const comm::Communicator& link);
  // The one RoundRecord builder. `link` is the root's link for the round's
  // byte deltas (the outer tier on the hierarchical root); `gather` is the
  // centralized hub's participation record, if any. Mirrors the record into
  // the fleet's RoundHealth when telemetry is on.
  RoundRecord record_round(std::size_t round, const RoundStart& start,
                           const comm::Communicator& link, double train_loss,
                           float accuracy, double aggregate_seconds = 0.0,
                           const comm::star::StreamingGather* gather = nullptr);

  // Deterministic partial-participation schedule (same on every node).
  bool selected_this_round(std::size_t round) const;
  // Inject the configured compute slowdown for `train_seconds` of real work.
  void simulate_slowdown(double train_seconds_elapsed);
  // Telemetry plane (telem_on_ only): ping the coordinator clock if this
  // round is a sync point, and append this round's summary to an outgoing
  // update frame (resets the running phase digests).
  void maybe_clock_sync(std::size_t round);
  void append_telemetry(tensor::Bytes& frame, comm::Communicator& inner,
                        std::size_t round);

  NodeSetup s_;
  algorithms::TrainContext ctx_;
  tensor::Rng rng_;
  // Per-node buffer arena: encode scratch, flat accumulators and decode
  // buffers all recycle through here, so round loops run allocation-free
  // at steady state (DESIGN.md § Update pipeline & memory model).
  FramePool pool_;
  tensor::Bytes frame_buf_;  // this node's outgoing update frame, reused
  // A trainer's decoded global model and its serve delta, reused: once the
  // shapes are set, decoding and differencing allocate nothing.
  std::vector<tensor::Tensor> global_buf_;
  std::vector<tensor::Tensor> delta_buf_;
  double train_seconds_ = 0.0;
  // Raw TCP transport under the inner communicator, when that is the
  // backend — the target of transport-level fault injections.
  comm::TcpCommunicator* tcp_inner_ = nullptr;

  // Telemetry plane state (see NodeSetup::obs_telemetry). Digests are fed
  // by ScopedSpan through the thread-local phase sink; byte counters hold
  // the previous round's comm totals so each summary carries round deltas.
  bool telem_on_ = false;
  std::array<obs::PhaseDigest, obs::kPhaseCount> phase_digests_{};
  obs::OffsetEstimator offset_est_;
  std::uint64_t telem_prev_sent_ = 0;
  std::uint64_t telem_prev_recv_ = 0;
  std::uint64_t telem_faults_ = 0;
};

}  // namespace of::core
