#include "core/node.hpp"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>

#include "comm/star.hpp"
#include "common/check.hpp"
#include "common/nonfinite.hpp"
#include "obs/flightrec.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/buffer.hpp"
#include "serve/registry.hpp"
#include "serve/sampler.hpp"

namespace of::core {
namespace {

using obs::Name;
using obs::ScopedSpan;

using Clock = std::chrono::steady_clock;

obs::Histogram& async_staleness_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram("async.staleness");
  return h;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Aggregator side of the telemetry piggyback: strip the variable-size TLV
// tail off an update frame (parse_tail reports its size) and feed it to the
// fleet registry. Frames without a telemetry tail pass through as-is.
void strip_telemetry(tensor::Bytes& frame) {
  std::size_t tail = 0;
  const auto t = obs::TelemetrySummary::parse_tail(frame.data(), frame.size(), &tail);
  if (!t) return;
  frame.resize(frame.size() - tail);
  obs::Fleet::global().record(*t);
}

// Detach the thread-local phase sink on every exit path out of run().
struct PhaseSinkGuard {
  ~PhaseSinkGuard() { obs::set_phase_sink(nullptr); }
};

}  // namespace

OwnedComm OwnedComm::make(const CommSpec& spec) {
  OwnedComm out;
  comm::Communicator* base = nullptr;
  switch (spec.backend) {
    case CommSpec::Backend::InProc:
      OF_CHECK_MSG(spec.group != nullptr, "InProc spec without a group");
      base = &spec.group->comm(spec.rank);
      break;
    case CommSpec::Backend::Tcp:
      if (spec.rank == 0)
        out.tcp = comm::TcpCommunicator::make_server(spec.port, spec.world, spec.tcp_ft);
      else
        out.tcp = comm::TcpCommunicator::make_client(spec.host, spec.port, spec.rank,
                                                     spec.world, spec.tcp_ft);
      base = out.tcp.get();
      break;
    case CommSpec::Backend::Amqp:
      OF_CHECK_MSG(spec.amqp_group != nullptr, "Amqp spec without a group");
      base = &spec.amqp_group->comm(spec.rank);
      break;
    case CommSpec::Backend::None:
      OF_CHECK_MSG(false, "cannot build a communicator from an empty spec");
  }
  if (spec.link.has_value()) {
    out.modeled =
        std::make_unique<comm::ModeledLinkCommunicator>(*base, *spec.link, spec.delay_mode);
    out.use = out.modeled.get();
  } else {
    out.use = base;
  }
  return out;
}

NodeRuntime::NodeRuntime(NodeSetup setup) : s_(std::move(setup)), rng_(s_.seed) {
  ctx_.model = &s_.model;
  ctx_.optimizer = s_.optimizer.get();
  ctx_.scheduler = s_.scheduler.get();
  ctx_.loader = s_.loader.get();
  ctx_.client_id = s_.cohort_index;
  ctx_.num_clients = s_.cohort_size;
  ctx_.local_epochs = s_.local_epochs;
  ctx_.rng = &rng_;
  ctx_.params = s_.algorithm_params;
}

NodeReport NodeRuntime::run() {
  OwnedComm inner = OwnedComm::make(s_.inner_spec);
  tcp_inner_ = inner.tcp.get();
  // Telemetry rides the client→aggregator update frames, so it is only
  // active on centralized topologies, whose hub strips it back off.
  telem_on_ = s_.obs_telemetry && s_.mode == "centralized";
  PhaseSinkGuard sink_guard;
  if (telem_on_ && s_.role == NodeRole::Trainer)
    obs::set_phase_sink(phase_digests_.data());
  NodeReport report;
  if (s_.serve.enabled && s_.serve.mode == serve::Mode::FedBuff) {
    report = s_.role == NodeRole::Aggregator ? run_serve_aggregator(*inner.use)
                                             : run_serve_trainer(*inner.use);
  } else if (s_.mode == "ring") {
    report = run_ring_node(*inner.use);
  } else if (s_.role == NodeRole::Trainer) {
    report = run_trainer(*inner.use);
  } else {
    OwnedComm outer = s_.mode == "hierarchical" ? OwnedComm::make(s_.outer_spec) : OwnedComm{};
    report = run_hub(*inner.use, outer.use);
    if (outer.use != nullptr) report.comm_outer += outer.use->stats();
  }
  report.comm_inner += inner.use->stats();
  report.train_seconds = train_seconds_;
  return report;
}

bool NodeRuntime::selected_this_round(std::size_t round) const {
  if (s_.clients_per_round == 0 ||
      s_.clients_per_round >= static_cast<std::size_t>(s_.cohort_size))
    return true;
  // Same seed + round on every node → identical selection, no coordination.
  tensor::Rng rng(s_.participation_seed ^ (0x9E3779B97F4A7C15ULL * (round + 1)));
  std::vector<int> ids(static_cast<std::size_t>(s_.cohort_size));
  std::iota(ids.begin(), ids.end(), 0);
  for (std::size_t i = 0; i < s_.clients_per_round; ++i) {
    const std::size_t j = i + rng.next_below(ids.size() - i);
    std::swap(ids[i], ids[j]);
    if (ids[i] == s_.cohort_index) return true;
  }
  return false;
}

void NodeRuntime::simulate_slowdown(double train_seconds_elapsed) {
  if (s_.slowdown <= 1.0) return;
  // The simulated extra compute is train time from the fleet's point of
  // view: span it so phase digests (and critical-path attribution) see it.
  ScopedSpan span(Name::LocalTrain, s_.node_id, ctx_.round);
  std::this_thread::sleep_for(
      std::chrono::duration<double>((s_.slowdown - 1.0) * train_seconds_elapsed));
}

void NodeRuntime::maybe_clock_sync(std::size_t round) {
  if (!telem_on_ || tcp_inner_ == nullptr || tcp_inner_->rank() == 0) return;
  const std::size_t every = s_.obs_clock_sync_every;
  if (round != 0 && (every == 0 || round % every != 0)) return;
  // A short burst at the first round, then one refresh sample per sync
  // point; the estimator keeps the minimum-RTT sample, which carries the
  // least queueing distortion.
  const int samples = round == 0 ? 4 : 1;
  for (int i = 0; i < samples; ++i)
    if (const auto sample = tcp_inner_->ping_server()) offset_est_.add(*sample);
}

void NodeRuntime::append_telemetry(tensor::Bytes& frame, comm::Communicator& inner,
                                   std::size_t round) {
  if (!telem_on_) return;
  obs::TelemetrySummary t;
  t.trace_id = obs::run_trace_id();
  t.rank = static_cast<std::uint32_t>(inner.rank());
  t.round = static_cast<std::uint32_t>(round);
  // The innermost open span here is this client's Round span: the exemplar
  // the coordinator attaches to critical-path attribution.
  t.round_span_id = obs::current_context().span_id;
  if (offset_est_.valid()) {
    t.clock_offset_ns = offset_est_.offset_ns();
    t.rtt_ns = offset_est_.rtt_ns();
  }
  const auto st = inner.stats();
  t.bytes_sent = st.bytes_sent - telem_prev_sent_;
  t.bytes_received = st.bytes_received - telem_prev_recv_;
  telem_prev_sent_ = st.bytes_sent;
  telem_prev_recv_ = st.bytes_received;
  t.pool_hits = pool_.acquired() - pool_.created();
  t.pool_misses = pool_.created();
  t.reconnects = st.reconnects;
  t.frames_dropped = st.frames_dropped;
  t.faults_injected = telem_faults_;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    t.phases[i] = phase_digests_[i];
    phase_digests_[i] = obs::PhaseDigest{};
  }
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0)
    t.peak_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
  t.serialize_tlv_to(frame);
}

void NodeRuntime::apply_global(const std::vector<tensor::Tensor>& global,
                               std::size_t round) {
  ctx_.round = round;
  if (round == 0) s_.algorithm->on_train_start(ctx_);
  s_.algorithm->apply_global(ctx_, global);
}

algorithms::TrainStats NodeRuntime::train_local(std::size_t round) {
  s_.algorithm->on_round_start(ctx_);
  const auto t0 = Clock::now();
  algorithms::TrainStats stats;
  {
    ScopedSpan span(Name::LocalTrain, s_.node_id, round);
    stats = s_.algorithm->local_train(ctx_);
  }
  const double elapsed = seconds_since(t0);
  train_seconds_ += elapsed;
  simulate_slowdown(elapsed);
  return stats;
}

algorithms::TrainStats NodeRuntime::train_one_round(const std::vector<tensor::Tensor>& global,
                                                    std::size_t round) {
  auto& algo = *s_.algorithm;
  apply_global(global, round);
  if (!selected_this_round(round)) {
    frame_buf_ = encode_skip_update();
    return {};
  }
  const algorithms::TrainStats stats = train_local(round);
  auto payload = algo.client_update(ctx_);
  algo.on_round_end(ctx_);
  if (s_.byzantine) {
    // Fault injection for robust-aggregation experiments.
    for (auto& t : payload) {
      if (s_.byzantine_kind == "noise") {
        for (std::size_t i = 0; i < t.numel(); ++i)
          t[i] += static_cast<float>(rng_.gaussian(0.0, 10.0));
      } else {  // sign_flip (scaled, the classic model-poisoning attack)
        t.scale_(-10.0f);
      }
    }
  }
  encode_or_skip(payload, s_.privacy.get(), round);
  return stats;
}

void NodeRuntime::encode_or_skip(const std::vector<tensor::Tensor>& payload,
                                 privacy::PrivacyMechanism* privacy, std::size_t round) {
  if (s_.compressor)
    s_.compressor->set_stream(round, static_cast<std::uint64_t>(s_.cohort_index));
  if (privacy != nullptr)
    privacy->set_stream(round, static_cast<std::uint64_t>(s_.cohort_index));
  ScopedSpan span(Name::Encode, s_.node_id, round);
  try {
    encode_update_into(payload, s_.weight_scale, PayloadPlugins{s_.compressor.get(), privacy},
                       s_.cohort_index, s_.cohort_size, pool_, frame_buf_, s_.wire_repr);
  } catch (const NonFiniteUpdateError&) {
    obs::Registry::global().counter("payload.nonfinite_rejected").inc();
    frame_buf_ = encode_skip_update();
  }
  span.set_arg(frame_buf_.size());
}

RoundMetrics NodeRuntime::round_metrics(const algorithms::TrainStats& stats,
                                        std::size_t round) {
  RoundMetrics m;
  m.loss_sum = static_cast<float>(stats.loss_sum);
  m.steps = static_cast<float>(stats.steps);
  const bool eval_now = (s_.eval_every > 0 && (round + 1) % s_.eval_every == 0) ||
                        round + 1 == s_.global_rounds;
  if (eval_now && s_.test_set != nullptr) {
    // Training-sized batches: the layers' buffers need not grow (DESIGN.md §15).
    nn::Model* em = s_.algorithm->eval_model(ctx_);
    m.acc_sum = algorithms::evaluate_accuracy(*em, *s_.test_set, s_.loader->batch_size());
    m.acc_n = 1.0f;
  }
  return m;
}

NodeRuntime::RoundStart NodeRuntime::round_start(const comm::Communicator& link) {
  return {Clock::now(), link.stats()};
}

RoundRecord NodeRuntime::record_round(std::size_t round, const RoundStart& start,
                                      const comm::Communicator& link, double train_loss,
                                      float accuracy, double aggregate_seconds,
                                      const comm::star::StreamingGather* gather) {
  RoundRecord rec;
  rec.round = round;
  rec.seconds = seconds_since(start.t0);
  rec.train_loss = train_loss;
  rec.accuracy = accuracy;
  const comm::CommStats now = link.stats();
  rec.bytes_down = now.bytes_sent - start.stats.bytes_sent;
  rec.bytes_up = now.bytes_received - start.stats.bytes_received;
  rec.reconnects = now.reconnects;
  const auto expected = static_cast<std::uint32_t>(link.world_size() - 1);
  if (gather != nullptr) {
    rec.participated = gather->participated.size();
    rec.dropped_ranks = gather->dropped;
    rec.deadline_hit = gather->deadline_hit;
  }
  if (telem_on_) {
    obs::Fleet::RoundHealth h;
    h.round = static_cast<std::uint32_t>(round);
    h.participated =
        gather != nullptr ? static_cast<std::uint32_t>(rec.participated) : expected;
    h.expected = expected;
    h.dropped = rec.dropped_ranks;
    h.deadline_hit = rec.deadline_hit;
    h.bytes_up = rec.bytes_up;
    h.bytes_down = rec.bytes_down;
    h.seconds = rec.seconds;
    h.aggregate_seconds = aggregate_seconds;
    obs::Fleet::global().record_round(h);
  }
  return rec;
}

NodeReport NodeRuntime::run_trainer(comm::Communicator& inner) {
  // Fault injections (src/fault/); a disabled spec never fires.
  fault::FaultInjector injector(s_.fault, inner.rank(), s_.participation_seed);
  for (std::size_t round = 0; round < s_.global_rounds; ++round) {
    ScopedSpan round_span(Name::Round, s_.node_id, round);
    // Parent this round under the aggregator span that sent the broadcast
    // we are about to receive — the cross-node edge of the merged trace.
    round_span.link_remote_parent();
    maybe_clock_sync(round);
    tensor::Bytes gbytes;
    {
      ScopedSpan span(Name::Recv, s_.node_id, round);
      inner.broadcast_bytes(gbytes, 0);
      span.set_arg(gbytes.size());
    }
    const auto decision = injector.at_round(static_cast<int>(round));
    if (decision.crash) {  // device powers off mid-run
      if (obs::FlightRecorder::global().armed_for_fault())
        obs::FlightRecorder::global().dump("fault_crash");
      return NodeReport{};
    }
    if (decision.disconnect || decision.extra_delay_seconds > 0.0) ++telem_faults_;
    {
      ScopedSpan span(Name::Decode, s_.node_id, round, gbytes.size());
      tensor::deserialize_tensors_into(gbytes, global_buf_);
    }
    const algorithms::TrainStats stats = train_one_round(global_buf_, round);
    if (decision.extra_delay_seconds > 0.0) {
      // An injected straggler is indistinguishable from slow compute on the
      // wire; span the stall as train time so attribution names it `compute`
      // and the flight recorder captures it as this client's final span.
      ScopedSpan delay_span(Name::LocalTrain, s_.node_id, round);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(decision.extra_delay_seconds));
      delay_span.end();
      if (obs::FlightRecorder::global().armed_for_fault())
        obs::FlightRecorder::global().dump("fault_delay");
    }
    if (decision.disconnect) {
      if (tcp_inner_ != nullptr) {
        // Real link loss: the transport reconnects with backoff and replays
        // the queued frame; whether we make the deadline is up to the race.
        tcp_inner_->inject_disconnect(0);
      } else {
        // Backends without a severable link model the outage as an outage-
        // length stall — just past the deadline, so the round is missed.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(s_.fault.round_deadline_seconds + 0.05));
      }
    }
    append_metrics(frame_buf_, round_metrics(stats, round));
    append_telemetry(frame_buf_, inner, round);
    {
      ScopedSpan span(Name::Send, s_.node_id, round, frame_buf_.size());
      (void)inner.gather_bytes(frame_buf_, 0);
    }
  }
  return NodeReport{};
}

NodeReport NodeRuntime::run_hub(comm::Communicator& inner, comm::Communicator* outer) {
  NodeReport report;
  auto& algo = *s_.algorithm;
  // The root owns the global model: the centralized hub, or outer rank 0 of
  // the tree. Every hierarchical leader, the root too, is a combiner.
  const bool is_root = outer == nullptr || outer->rank() == 0;
  algorithms::ServerState state;
  state.params = s_.algorithm_params;
  if (is_root) state.global = algo.initial_global(s_.model);
  const int members = inner.world_size() - 1;
  // A mean-rule hub without privacy folds every frame into one StreamingSum
  // in rank order; privacy hubs and robust rules collect the frames by rank.
  const bool fold = s_.privacy == nullptr && s_.aggregation_rule == AggregationRule::Mean;
  StreamingSum group_sum(pool_, s_.compressor.get());
  // Centralized fault runs cut stragglers at the fault deadline; folding
  // combiners at the combiner deadline, if set. Other hubs wait for all.
  const bool hier_cut = s_.hier_deadline_seconds > 0;
  std::optional<comm::star::PartialGatherOptions> cut;
  if (outer == nullptr && s_.fault.enabled)
    cut = {{s_.fault.min_clients, s_.fault.round_deadline_seconds,
            s_.fault.quorum_timeout_seconds}};
  else if (outer != nullptr && fold)
    cut = {{hier_cut ? std::min(s_.hier_min_clients, members) : members,
            hier_cut ? s_.hier_deadline_seconds : 60.0, 60.0}};
  // Frames and metric trailers parked by rank, so every fold and metric sum
  // runs in rank order whatever the arrival order.
  std::vector<tensor::Bytes> frames(static_cast<std::size_t>(inner.world_size()));
  std::vector<RoundMetrics> metrics(frames.size());
  std::size_t parked_peak = 0;  // run-wide, like StreamingSum::peak_bytes
  tensor::Bytes gbytes;  // the broadcast model frame, re-packed in place by the root

  for (std::size_t round = 0; round < s_.global_rounds; ++round) {
    ScopedSpan round_span(Name::Round, s_.node_id, round);
    const RoundStart start = round_start(outer != nullptr ? *outer : inner);
    if (is_root) {
      gbytes.clear();
      tensor::serialize_tensors(state.global, gbytes);
    }
    {
      ScopedSpan span(Name::Broadcast, s_.node_id, round);
      if (outer != nullptr) outer->broadcast_bytes(gbytes, 0);
      inner.broadcast_bytes(gbytes, 0);
      span.set_arg(gbytes.size());
    }
    group_sum.reset();
    MetricSums<double> central;  // the centralized hub folds metrics in double,
    RoundMetrics tree;           // the combiner tree in f32
    std::vector<tensor::Bytes> collected;  // updates taken in rank order
    double weight_sum = 0.0;  // Σ client weight of the contributors
    std::size_t next = 1, parked_bytes = 0;
    // Take the parked prefix frames[next..] in rank order, emptying each
    // slot; a folding hub folds it in one StreamingSum pass and frees it.
    // After the gather, drain steps over ranks that never came.
    const auto drain = [&](bool gathered) {
      for (; next < frames.size() && (gathered || !frames[next].empty()); ++next) {
        tensor::Bytes frame = std::move(frames[next]);
        if (frame.empty()) continue;
        parked_bytes -= frame.size();
        central.add(metrics[next]);
        tree.add(metrics[next]);
        if (is_skip_update(frame)) continue;
        // rank next ↔ cohort index next-1
        if (next - 1 < s_.client_weights.size()) weight_sum += s_.client_weights[next - 1];
        collected.push_back(std::move(frame));
      }
      if (!fold) return;
      group_sum.add(collected);
      collected.clear();
    };
    // Park a frame in its rank slot. A streaming gather folds the ready
    // prefix on every arrival, so only frames ahead of a missing lower rank
    // stay parked; a plain gather already holds the whole group, so it
    // parks everything and folds once.
    const auto take = [&](int src, tensor::Bytes&& frame) {
      if (telem_on_) strip_telemetry(frame);
      metrics[static_cast<std::size_t>(src)] = strip_metrics(frame);
      OF_CHECK_MSG(!frame.empty(), "empty update frame from rank " << src);
      parked_bytes += frame.size();
      frames[static_cast<std::size_t>(src)] = std::move(frame);
      if (fold && cut) drain(false);
      parked_peak = std::max(parked_peak, parked_bytes);
    };
    comm::star::StreamingGather g;
    std::vector<tensor::Bytes> all;
    ScopedSpan recv_span(Name::Recv, s_.node_id, round);
    if (cut) {
      g = comm::star::gather_bytes_streaming(inner, {}, take, *cut);
    } else {
      all = inner.gather_bytes({}, 0);
      for (int p = 1; p <= members; ++p) g.participated.push_back(p);
    }
    recv_span.end();
    if (g.deadline_hit) {
      obs::Registry::global().counter("fault.deadline_cuts").inc();
      obs::instant(Name::DeadlineCut, s_.node_id, round, g.dropped.size());
      if (obs::FlightRecorder::global().armed_for_deadline_cut())
        obs::FlightRecorder::global().dump("deadline_cut");
    }

    const auto agg_t0 = Clock::now();
    std::optional<ScopedSpan> agg_span(std::in_place, Name::Aggregate, s_.node_id, round,
                                       g.participated.size());
    if (!cut)
      for (const int p : g.participated) take(p, std::move(all[static_cast<std::size_t>(p)]));
    drain(true);
    std::vector<tensor::Tensor> mean;  // stays empty when every update skipped
    const std::size_t contributions = fold ? group_sum.count() : collected.size();
    // A folding combiner forwards its sum, not a mean; privacy and robust
    // rules never meet (config check).
    if (contributions > 0 && !(fold && outer != nullptr)) {
      mean = fold ? group_sum.finish_mean()
             : s_.privacy
                 ? mean_updates(collected, s_.compressor.get(), s_.privacy.get(), &pool_)
                 : robust_combine(collected, s_.compressor.get(), s_.aggregation_rule,
                                  s_.aggregation_trim, &pool_);
      // Fault runs (client_weights set): each update was pre-scaled by
      // n_i·N/total, so the uniform mean over the k survivors needs
      // k / (N·Σ w_i) to become the exact weighted mean over the surviving
      // cohort (= 1 at full participation).
      if (s_.aggregation_rule == AggregationRule::Mean && weight_sum > 1e-12) {
        const double corr = static_cast<double>(contributions) /
                            (static_cast<double>(members) * weight_sum);
        if (std::abs(corr - 1.0) > 1e-9)
          for (auto& t : mean) t.scale_(static_cast<float>(corr));
      }
    }

    if (outer != nullptr) {
      // A combiner forwards an OFP2 partial: its folded sum at
      // partial_scale, or its collected group mean at weight_scale as a
      // count-1 partial. The root gathers them all, its own included, and
      // folds them in outer-rank order.
      agg_span.reset();
      {
        ScopedSpan span(Name::Encode, s_.node_id, round);
        if (s_.outer_compressor)
          s_.outer_compressor->set_stream(round, static_cast<std::uint64_t>(outer->rank()));
        if (fold)
          group_sum.encode_partial_into(s_.partial_scale, s_.outer_compressor.get(),
                                        frame_buf_, s_.wire_repr);
        else if (mean.empty())
          frame_buf_ = encode_skip_update();
        else
          encode_update_into(mean, s_.weight_scale, {s_.outer_compressor.get(), nullptr},
                             outer->rank(), outer->world_size(), pool_, frame_buf_,
                             s_.wire_repr);
        if (!fold) wrap_count_one_partial(frame_buf_);
        span.set_arg(frame_buf_.size());
      }
      if (s_.obs_telemetry && fold)
        obs::Fleet::global().record_combiner(
            {.group = s_.group,
             .round = static_cast<std::uint32_t>(round),
             .participated = static_cast<std::uint32_t>(g.participated.size()),
             .expected = static_cast<std::uint32_t>(members),
             .dropped = static_cast<std::uint32_t>(g.dropped.size()),
             .deadline_hit = g.deadline_hit,
             .agg_peak_bytes = group_sum.peak_bytes() + parked_peak,  // + rank order's cost
             .seconds = seconds_since(start.t0)});
      append_metrics(frame_buf_, tree);
      ScopedSpan send_span(Name::Send, s_.node_id, round, frame_buf_.size());
      std::vector<tensor::Bytes> partials = outer->gather_bytes(frame_buf_, 0);
      send_span.end();
      if (!is_root) continue;
      agg_span.emplace(Name::Aggregate, s_.node_id, round, partials.size());
      StreamingSum root_sum(pool_, s_.outer_compressor.get());
      tree = {};
      for (auto& partial : partials) {
        tree.add(strip_metrics(partial));
        root_sum.add_partial(partial);
      }
      mean = root_sum.count() > 0 ? root_sum.finish_mean() : std::vector<tensor::Tensor>{};
    }
    if (!mean.empty()) {  // an all-skip round leaves the global model untouched
      state.round = round;
      state.global = algo.server_update(state, mean);
    }
    agg_span.reset();
    report.rounds.push_back(
        outer != nullptr
            ? record_round(round, start, *outer, tree.train_loss(), tree.accuracy())
            : record_round(round, start, inner, central.train_loss(), central.accuracy(),
                           seconds_since(agg_t0), &g));
  }
  if (is_root) report.final_model = pack_tensors(state.global);
  return report;
}

NodeReport NodeRuntime::run_ring_node(comm::Communicator& inner) {
  NodeReport report;
  auto& algo = *s_.algorithm;
  // Decentralized: the "server" state is replicated on every node and
  // evolves deterministically from identical means.
  algorithms::ServerState state;
  state.params = s_.algorithm_params;
  state.global = algo.initial_global(s_.model);

  for (std::size_t round = 0; round < s_.global_rounds; ++round) {
    ScopedSpan round_span(Name::Round, s_.node_id, round);
    const RoundStart start = round_start(inner);
    apply_global(state.global, round);
    const algorithms::TrainStats stats = train_local(round);
    auto payload = algo.client_update(ctx_);
    algo.on_round_end(ctx_);

    std::vector<tensor::Tensor> mean;
    if (s_.compressor) {
      // Sparse codecs exchange via all-gather (paper §3.4.2).
      encode_or_skip(payload, nullptr, round);
      ScopedSpan agg_span(Name::Aggregate, s_.node_id, round);
      const auto frames = inner.allgather_bytes(frame_buf_);
      mean = mean_updates(frames, s_.compressor.get(), nullptr, &pool_);
    } else {
      // Dense path: bandwidth-optimal ring all-reduce on the flat payload.
      ScopedSpan agg_span(Name::Aggregate, s_.node_id, round);
      std::vector<tensor::Tensor> scaled = payload;
      for (auto& t : scaled) t.scale_(static_cast<float>(s_.weight_scale));
      tensor::Tensor flat = tensor::flatten_all(scaled);
      inner.allreduce(flat, comm::ReduceOp::Mean);
      mean = payload;  // reuse shapes
      for (auto& t : mean) t.zero_();
      tensor::unflatten_into(flat, mean);
    }
    state.round = round;
    state.global = algo.server_update(state, mean);

    // Metrics: the dense path has no update frame to carry them, so they
    // are summed across the ring; rank 0 records.
    const RoundMetrics mine = round_metrics(stats, round);
    tensor::Tensor m({4}, {mine.loss_sum, mine.steps, mine.acc_sum, mine.acc_n});
    inner.allreduce(m, comm::ReduceOp::Sum);
    if (inner.rank() == 0) {
      const RoundMetrics all{m[0], m[1], m[2], m[3]};
      report.rounds.push_back(
          record_round(round, start, inner, all.train_loss(), all.accuracy()));
    }
  }
  report.final_model = pack_tensors(state.global);
  return report;
}

// --- serving tier (src/serve/, DESIGN.md §14) ---------------------------------
//
// The coordinator serves a registered population instead of running
// lockstep rounds: fraction-fit sampling keeps ceil(fraction × alive)
// clients training concurrently, arriving updates fold into a bounded
// staleness buffer (the FedBuff shape; Nguyen et al. 2022) that drains into
// the global model every `buffer_size` accepted updates, and over-stale or
// overflow updates are answered with a retry-after control frame instead of
// silently folded. buffer_size = 1 with fraction = 1 reproduces the classic
// FedAsync rule w ← w + α/(1+s)·Δ — the old `scheduling: {mode: async}`
// group maps onto exactly that configuration. Frames:
//   kServeModel  server → client: u8 kind | body
//     kind 0 Invite: packed global tensors, framed once per model version
//     kind 1 Retry:  u8 reason (1 = stale, 2 = full) | f32 retry_after_s
//     kind 2 Stop:   (empty)
//   kServeUpdate client → server: u8 kind | body
//     kind 0 Update: payload frame | metrics trailer [| telemetry tail]
//     kind 1 Join:   (empty)  re-registration after a churn departure
//     kind 2 Leave:  (empty)  voluntary churn departure
//     kind 3 Final:  metrics trailer (acc_sum, acc_n)
namespace {
constexpr int kServeModel = 105;
constexpr int kServeUpdate = 106;

constexpr std::uint8_t kDownInvite = 0;
constexpr std::uint8_t kDownRetry = 1;
constexpr std::uint8_t kDownStop = 2;
constexpr std::uint8_t kUpUpdate = 0;
constexpr std::uint8_t kUpJoin = 1;
constexpr std::uint8_t kUpLeave = 2;
constexpr std::uint8_t kUpFinal = 3;
constexpr std::uint8_t kRetryStale = 1;
constexpr std::uint8_t kRetryFull = 2;

// Detach the transport lifecycle observer on every exit path — the callback
// captures serve-loop locals that die with the stack frame.
struct LifecycleGuard {
  comm::TcpCommunicator* tcp;
  ~LifecycleGuard() {
    if (tcp) tcp->set_peer_lifecycle(nullptr);
  }
};
}  // namespace

NodeReport NodeRuntime::run_serve_aggregator(comm::Communicator& inner) {
  NodeReport report;
  auto& algo = *s_.algorithm;
  algorithms::ServerState state;
  state.params = s_.algorithm_params;
  state.global = algo.initial_global(s_.model);
  const int clients = inner.world_size() - 1;
  OF_CHECK_MSG(clients >= 1, "the serving tier needs at least one trainer");
  const std::size_t total = s_.serve.total_updates
                                ? s_.serve.total_updates
                                : s_.global_rounds * static_cast<std::size_t>(clients);

  serve::PopulationRegistry registry;
  serve::ClientSampler sampler(s_.participation_seed);
  serve::StalenessBuffer buffer(pool_, s_.compressor.get(), s_.serve.buffer_size,
                                s_.serve.max_staleness, s_.serve.alpha);

  // Server model version = buffer drains so far. Atomic because the
  // transport lifecycle callback below reads it from the event-loop thread.
  std::atomic<std::uint64_t> version{0};

  // Transport liveness feed: a dropped socket marks the client dead the
  // moment the event loop sees it, ahead of any protocol-level timeout; a
  // re-admission marks it alive again. Protocol join/leave frames drive the
  // same registry, so non-TCP backends (InProc/AMQP) churn correctly too.
  LifecycleGuard lifecycle{tcp_inner_};
  if (tcp_inner_)
    tcp_inner_->set_peer_lifecycle([&registry, &version](int rank, bool up) {
      if (up)
        registry.join(rank, version.load(std::memory_order_relaxed));
      else
        registry.leave(rank, version.load(std::memory_order_relaxed));
    });

  // OwnedComm::make blocks until every client connected, so the whole
  // transport world starts registered (idempotent against the feed above).
  for (int c = 1; c <= clients; ++c) registry.join(c, 0);

  std::size_t trace_round = 0;
  std::vector<std::uint64_t> invited_version(static_cast<std::size_t>(clients) + 1, 0);
  std::set<int> in_flight;  // invites outstanding (model sent, no reply yet)
  std::uint64_t resampled = 0;
  std::uint64_t pick_counter = 0;

  tensor::Bytes model_frame;  // the invite frame and the version it holds
  std::optional<std::uint64_t> framed_version;
  auto send_model = [&](int dst) {
    const std::uint64_t v = version.load(std::memory_order_relaxed);
    if (std::exchange(framed_version, v) != v) {
      model_frame.assign(1, kDownInvite);
      tensor::serialize_tensors(state.global, model_frame);
    }
    ScopedSpan span(Name::Send, s_.node_id, trace_round, model_frame.size());
    inner.send_bytes(dst, kServeModel, model_frame);
    invited_version[static_cast<std::size_t>(dst)] = v;
    in_flight.insert(dst);
  };

  std::vector<int> sample = sampler.sample(0, registry.alive(), s_.serve.fraction);

  // Keep the window's concurrency at target: idle sample members first,
  // then deterministic replacement picks for churned-away invitees.
  auto top_up = [&] {
    const auto accepted = static_cast<std::size_t>(buffer.accepted_total());
    if (accepted >= total) return;
    std::size_t target = serve::ClientSampler::target_count(registry.alive_count(),
                                                            s_.serve.fraction);
    // Never keep more clients training than updates still wanted.
    target = std::min(target, total - accepted);
    for (int r : sample) {
      if (in_flight.size() >= target) break;
      if (in_flight.count(r) == 0 && registry.is_alive(r)) send_model(r);
    }
    while (in_flight.size() < target) {
      const std::vector<int> exclude(in_flight.begin(), in_flight.end());
      const int pick = sampler.resample(version.load(std::memory_order_relaxed),
                                        pick_counter++, registry.alive(), exclude);
      if (pick < 0) break;
      send_model(pick);
      ++resampled;
    }
  };

  const auto run_t0 = Clock::now();
  RoundStart window_start = round_start(inner);
  MetricSums<double> window;  // accepted updates' metrics, this virtual round

  auto record_serve_health = [&] {
    if (!telem_on_) return;
    obs::Fleet::ServeHealth h;
    h.version = version.load(std::memory_order_relaxed);
    h.population = registry.population();
    h.alive = static_cast<std::uint32_t>(registry.alive_count());
    h.sampled = static_cast<std::uint32_t>(sample.size());
    h.buffered = static_cast<std::uint32_t>(buffer.size());
    h.buffer_size = static_cast<std::uint32_t>(buffer.capacity());
    h.accepted_total = buffer.accepted_total();
    h.rejected_stale_total = buffer.rejected_stale_total();
    h.rejected_full_total = buffer.rejected_full_total();
    h.resampled_total = resampled;
    h.joins_total = registry.joins_total();
    h.leaves_total = registry.leaves_total();
    h.mean_staleness = buffer.accepted_total() > 0
                           ? static_cast<double>(buffer.staleness_sum()) /
                                 static_cast<double>(buffer.accepted_total())
                           : 0.0;
    h.seconds = seconds_since(run_t0);
    obs::Fleet::global().record_serve(h);
  };

  top_up();
  record_serve_health();

  while (static_cast<std::size_t>(buffer.accepted_total()) < total) {
    ScopedSpan recv_span(Name::Recv, s_.node_id, trace_round);
    auto [src, frame] = inner.recv_bytes_any(kServeUpdate);
    recv_span.set_arg(frame.size());
    recv_span.end();
    if (telem_on_) strip_telemetry(frame);
    std::size_t off = 0;
    const auto kind = tensor::read_pod<std::uint8_t>(frame, off);
    const std::uint64_t v = version.load(std::memory_order_relaxed);
    if (kind == kUpLeave) {
      registry.leave(src, v);
      in_flight.erase(src);
      top_up();
      record_serve_health();
      continue;
    }
    if (kind == kUpJoin) {
      registry.join(src, v);
      top_up();
      record_serve_health();
      continue;
    }
    OF_CHECK_MSG(kind == kUpUpdate, "serve: unexpected up-frame kind "
                                        << static_cast<int>(kind) << " from rank "
                                        << src);
    registry.seen(src, v);
    in_flight.erase(src);
    const RoundMetrics metrics = strip_metrics(frame);
    const auto staleness =
        static_cast<std::size_t>(v - invited_version[static_cast<std::size_t>(src)]);
    obs::instant(Name::AsyncStaleness, s_.node_id, trace_round, staleness);
    async_staleness_hist().observe(staleness);
    const tensor::ConstByteSpan payload(frame.data() + off, frame.size() - off);
    const auto admission = buffer.offer(payload, staleness);
    if (admission == serve::StalenessBuffer::Admission::Accepted) {
      window.add(metrics);
    } else {
      // Backpressure (admission control): answer with a retry-after control
      // frame instead of silently folding or dropping the client's work.
      tensor::Bytes reply{kDownRetry};
      tensor::append_pod<std::uint8_t>(
          reply, admission == serve::StalenessBuffer::Admission::RejectedStale
                     ? kRetryStale
                     : kRetryFull);
      tensor::append_pod<float>(reply, static_cast<float>(s_.serve.retry_seconds));
      inner.send_bytes(src, kServeModel, reply);
    }

    if (buffer.ready()) {
      ScopedSpan span(Name::Aggregate, s_.node_id, trace_round, buffer.size());
      const auto mean = buffer.drain();
      // An all-skip window drains to no model change; the version (and so
      // the sampling window) still advances.
      if (!mean.empty()) {
        OF_CHECK_MSG(mean.size() == state.global.size(), "serve payload size drift");
        for (std::size_t i = 0; i < mean.size(); ++i)
          state.global[i].add_scaled_(mean[i], 1.0f);
      }
      const std::uint64_t nv = version.fetch_add(1, std::memory_order_relaxed) + 1;
      // New aggregation window: a fresh invitation sample over the current
      // alive set.
      sample = sampler.sample(nv, registry.alive(), s_.serve.fraction);
      pick_counter = 0;
    }

    top_up();

    const auto accepted = static_cast<std::size_t>(buffer.accepted_total());
    // One RoundRecord per `clients` accepted updates — the old async loop's
    // cadence, so metrics CSVs stay comparable across modes.
    if (admission == serve::StalenessBuffer::Admission::Accepted &&
        (accepted % static_cast<std::size_t>(clients) == 0 || accepted == total)) {
      report.rounds.push_back(record_round(report.rounds.size(), window_start, inner,
                                           window.train_loss(), window.accuracy()));
      // Running mean over every accepted update so far, so each virtual
      // round reports staleness; the last record carries the run mean.
      report.rounds.back().mean_staleness = static_cast<double>(buffer.staleness_sum()) /
                                            static_cast<double>(accepted);
      trace_round = report.rounds.size();
      window = {};
      window_start = round_start(inner);
    }
    record_serve_health();
  }

  // Stop every transport rank — in-flight stragglers and away churners all
  // see the queued Stop once their current step completes.
  const tensor::Bytes stop{kDownStop};
  for (int c = 1; c <= clients; ++c) inner.send_bytes(c, kServeModel, stop);

  // Collect each client's final test accuracy, discarding stray frames
  // (late updates, churn re-registrations) that raced the Stop.
  MetricSums<double> finals;
  for (int got = 0; got < clients;) {
    auto [src, frame] = inner.recv_bytes_any(kServeUpdate);
    (void)src;
    if (telem_on_) strip_telemetry(frame);
    std::size_t off = 0;
    if (tensor::read_pod<std::uint8_t>(frame, off) != kUpFinal) continue;
    finals.add(strip_metrics(frame));
    ++got;
  }
  if (!report.rounds.empty() && finals.acc_n > 0)
    report.rounds.back().accuracy = finals.accuracy();
  record_serve_health();
  report.final_model = pack_tensors(state.global);
  return report;
}

NodeReport NodeRuntime::run_serve_trainer(comm::Communicator& inner) {
  auto& algo = *s_.algorithm;
  // Churn decisions replay deterministically from (run seed, rank):
  // participation_seed is the same run-derived value on every node, salted
  // per client inside ChurnProcess.
  fault::ChurnProcess churn(s_.fault.churn, inner.rank(), s_.participation_seed);
  std::size_t round = 0;
  for (;;) {
    ScopedSpan recv_span(Name::Recv, s_.node_id, round);
    tensor::Bytes frame = inner.recv_bytes(0, kServeModel);
    recv_span.set_arg(frame.size());
    recv_span.end();
    std::size_t off = 0;
    const auto kind = tensor::read_pod<std::uint8_t>(frame, off);
    if (kind == kDownStop) break;
    if (kind == kDownRetry) {
      // Our update was rejected (buffer full or over-stale): honour the
      // coordinator's pacing before blocking on the next invite.
      ++off;  // reason byte — coordinator-side telemetry, unused here
      const auto retry_after = tensor::read_pod<float>(frame, off);
      if (retry_after > 0.0f)
        std::this_thread::sleep_for(std::chrono::duration<double>(retry_after));
      continue;
    }
    OF_CHECK_MSG(kind == kDownInvite,
                 "serve: unexpected down-frame kind " << static_cast<int>(kind));
    // Sync after the invite, between spans: the first burst then counts as
    // this trainer's unattributed time instead of delaying its first span
    // past the coordinator's first round.
    maybe_clock_sync(round);
    if (churn.leave_now()) {
      // Churn departure: deregister, stay away, come back as a fresh
      // registration. The invite's model snapshot is discarded — the
      // coordinator resamples a replacement for this window.
      inner.send_bytes(0, kServeUpdate, tensor::Bytes{kUpLeave});
      std::this_thread::sleep_for(
          std::chrono::duration<double>(churn.down_seconds()));
      inner.send_bytes(0, kServeUpdate, tensor::Bytes{kUpJoin});
      continue;
    }
    ScopedSpan decode_span(Name::Decode, s_.node_id, round, frame.size() - off);
    tensor::deserialize_tensors_into(tensor::ConstByteSpan(frame).subspan(off), global_buf_);
    tensor::Bytes().swap(frame);  // decoded: free the invite before training
    decode_span.end();

    apply_global(global_buf_, round);
    const algorithms::TrainStats stats = train_local(round);
    algo.on_round_end(ctx_);

    // The wire always carries the delta against the snapshot we trained
    // from, whatever the algorithm's own payload convention is (the buffer
    // folds staleness-weighted deltas).
    const auto shared = algo.shared_parameters(*ctx_.model);
    OF_CHECK_MSG(shared.size() == global_buf_.size(), "serve payload/global mismatch");
    delta_buf_.resize(shared.size());
    for (std::size_t i = 0; i < shared.size(); ++i) {
      delta_buf_[i] = shared[i]->value;  // copy-assign keeps the storage
      delta_buf_[i].sub_(global_buf_[i]);
    }
    // The buffer's StreamingSum ignores a skip marker, so a rejected update
    // contributes nothing to the folded aggregate.
    encode_or_skip(delta_buf_, nullptr, round);
    // The up-frame is built in place around the payload in the reused
    // frame buffer, so steady-state updates allocate nothing.
    frame_buf_.insert(frame_buf_.begin(), kUpUpdate);
    append_metrics(frame_buf_,
                   {static_cast<float>(stats.loss_sum), static_cast<float>(stats.steps)});
    append_telemetry(frame_buf_, inner, round);
    {
      ScopedSpan span(Name::Send, s_.node_id, round, frame_buf_.size());
      inner.send_bytes(0, kServeUpdate, frame_buf_);
    }
    ++round;
  }
  // Final evaluation.
  RoundMetrics fin;
  if (s_.test_set) {
    fin.acc_sum = algorithms::evaluate_accuracy(*algo.eval_model(ctx_), *s_.test_set,
                                                s_.loader->batch_size());
    fin.acc_n = 1.0f;
  }
  tensor::Bytes msg{kUpFinal};
  append_metrics(msg, fin);
  inner.send_bytes(0, kServeUpdate, msg);
  return NodeReport{};
}

}  // namespace of::core
