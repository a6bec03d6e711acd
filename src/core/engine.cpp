#include "core/engine.hpp"

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/check.hpp"
#include "core/config_check.hpp"
#include "data/partition.hpp"
#include "exec/pool.hpp"
#include "nn/zoo.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"

namespace of::core {
namespace {

std::optional<comm::LinkModel> parse_link(const config::ConfigNode& comm_cfg,
                                          comm::DelayMode& mode_out) {
  if (!comm_cfg.is_map() || !comm_cfg.has("link")) return std::nullopt;
  const auto& link = comm_cfg.at("link");
  comm::LinkModel m;
  m.latency_seconds = link.get_or<double>("latency_us", 0.0) * 1e-6;
  const double mbps = link.get_or<double>("bandwidth_mbps", 0.0);
  m.bandwidth_bytes_per_second = mbps > 0.0 ? mbps * 1e6 / 8.0 : 0.0;
  mode_out = link.get_or<std::string>("mode", "virtual") == "sleep"
                 ? comm::DelayMode::Sleep
                 : comm::DelayMode::Virtual;
  return m;
}

CommSpec::Backend parse_backend(const config::ConfigNode& comm_cfg,
                                const std::string& fallback_target) {
  const std::string target = config::target_basename(
      comm_cfg.is_map() ? comm_cfg.get_or<std::string>("_target_", fallback_target)
                        : fallback_target);
  if (target == "TorchDistCommunicator" || target == "InProcCommunicator")
    return CommSpec::Backend::InProc;
  if (target == "GrpcCommunicator" || target == "TcpCommunicator")
    return CommSpec::Backend::Tcp;
  if (target == "AMQPCommunicator" || target == "AmqpCommunicator" ||
      target == "MqttCommunicator")
    return CommSpec::Backend::Amqp;
  OF_CHECK_MSG(false, "unknown communicator target '" << target << "'");
}

config::ConfigNode node_or_empty(const config::ConfigNode& cfg, const std::string& key) {
  return (cfg.is_map() && cfg.has(key)) ? cfg.at(key) : config::ConfigNode::map();
}

// Fold the drained trace into the per-round records: the per-phase columns
// are the summed span durations across every node for that round.
void fold_phase_seconds(const std::vector<obs::TraceEvent>& events,
                        std::vector<RoundRecord>& rounds) {
  for (const auto& e : events) {
    if (e.dur_ns == 0) continue;
    if (e.round >= rounds.size()) continue;
    RoundRecord& rec = rounds[e.round];
    const double s = static_cast<double>(e.dur_ns) * 1e-9;
    switch (e.name) {
      case obs::Name::LocalTrain: rec.train_s += s; break;
      case obs::Name::Encode: rec.encode_s += s; break;
      case obs::Name::Send: rec.send_s += s; break;
      case obs::Name::Recv: rec.recv_s += s; break;
      case obs::Name::Decode: rec.decode_s += s; break;
      case obs::Name::Aggregate: rec.aggregate_s += s; break;
      case obs::Name::Broadcast: rec.broadcast_s += s; break;
      default: break;
    }
  }
}

}  // namespace

Engine::Engine(config::ConfigNode cfg) : cfg_(std::move(cfg)) {
  strict_ = config_strict(cfg_);
  if (strict_) check_config_keys(cfg_);
  topology_ = Topology::from_config(node_or_empty(cfg_, "topology"), strict_);
  topology_.validate();
}

Engine Engine::from_file(const std::string& path, const std::vector<std::string>& overrides) {
  return Engine(config::compose(path, overrides));
}

std::vector<NodeSetup> Engine::build_setups() {
  const auto seed = static_cast<std::uint64_t>(cfg_.get_or<std::int64_t>("seed", 42));

  // --- dataset -------------------------------------------------------------
  const config::ConfigNode dm = node_or_empty(cfg_, "datamodule");
  const std::string preset_name = dm.get_or<std::string>("preset", "toy");
  data::DatasetSpec spec = data::preset(preset_name);
  if (dm.has("train_per_class")) spec.train_per_class = dm.get<std::size_t>("train_per_class");
  if (dm.has("test_per_class")) spec.test_per_class = dm.get<std::size_t>("test_per_class");
  if (dm.has("label_noise")) spec.label_noise = dm.get<float>("label_noise");
  dataset_ = data::make_synthetic(spec, seed);
  const std::size_t batch_size = dm.get_or<std::size_t>("batch_size", 32);
  const std::string scheme = dm.get_or<std::string>("partition", "iid");
  const double part_param = dm.get_or<double>("alpha", scheme == "shards" ? 2.0 : 0.5);

  const auto trainer_ids = topology_.trainer_ids();
  const std::size_t num_trainers = trainer_ids.size();
  const auto parts =
      data::make_partition(scheme, dataset_.train, num_trainers, part_param, seed + 1);

  // --- model ----------------------------------------------------------------
  std::string model_name = "mlp_tiny";
  if (cfg_.has("model")) {
    const auto& m = cfg_.at("model");
    model_name = m.is_map() ? m.get_or<std::string>("name", "mlp_tiny") : m.as_string();
  }

  // --- algorithm --------------------------------------------------------------
  const config::ConfigNode algo_cfg = node_or_empty(cfg_, "algorithm");
  const std::string algo_target =
      algo_cfg.get_or<std::string>("_target_", "src.omnifed.algorithm.FedAvg");
  const auto global_rounds = algo_cfg.get_or<std::size_t>("global_rounds", 1);
  const auto local_epochs = algo_cfg.get_or<std::size_t>("local_epochs", 1);
  const float lr = algo_cfg.get_or<float>("lr", 0.05f);
  const float momentum = algo_cfg.get_or<float>("momentum", 0.9f);
  const float weight_decay = algo_cfg.get_or<float>("weight_decay", 1e-4f);
  const float lr_gamma = algo_cfg.get_or<float>("lr_gamma", 0.1f);
  std::vector<std::size_t> milestones;
  if (algo_cfg.has("lr_milestones")) {
    const auto& ms = algo_cfg.at("lr_milestones");
    for (std::size_t i = 0; i < ms.size(); ++i)
      milestones.push_back(static_cast<std::size_t>(ms.at(i).as_int()));
  }
  const auto eval_every = cfg_.get_or<std::size_t>("eval_every", 0);

  // --- plugins ----------------------------------------------------------------
  const config::ConfigNode topo_cfg = node_or_empty(cfg_, "topology");
  const config::ConfigNode inner_comm_cfg = node_or_empty(topo_cfg, "inner_comm");
  const config::ConfigNode outer_comm_cfg = node_or_empty(topo_cfg, "outer_comm");
  config::ConfigNode compression_cfg = node_or_empty(cfg_, "compression");
  if (!compression_cfg.has("_target_") && inner_comm_cfg.has("compression"))
    compression_cfg = inner_comm_cfg.at("compression");  // paper Fig. 4 placement
  const bool has_compression = compression_cfg.has("_target_");
  const config::ConfigNode outer_compression_cfg = node_or_empty(outer_comm_cfg, "compression");
  const bool has_outer_compression = outer_compression_cfg.has("_target_");
  const config::ConfigNode privacy_cfg = node_or_empty(cfg_, "privacy");
  const bool has_privacy =
      privacy_cfg.has("_target_") &&
      config::target_basename(privacy_cfg.at("_target_").as_string()) != "NoPrivacy";
  OF_CHECK_MSG(!(has_compression && has_privacy),
               "compression and privacy cannot stack on the same link (run them in "
               "separate experiments, as the paper does)");
  const auto payload_cfg =
      PayloadConfig::from_config(node_or_empty(cfg_, "payload"), strict_);

  // --- scheduling / serving tier / heterogeneity / participation ------------
  const config::ConfigNode sched_cfg = node_or_empty(cfg_, "scheduling");
  const bool async_mode = sched_cfg.get_or<std::string>("mode", "sync") == "async";
  serve::ServeConfig serve_cfg =
      serve::ServeConfig::from_config(node_or_empty(cfg_, "serve"), strict_);
  if (async_mode) {
    // `scheduling: {mode: async}` is the legacy spelling of the serving
    // tier's FedAsync point: full participation, unit buffer.
    OF_CHECK_MSG(!serve_cfg.enabled,
                 "scheduling: {mode: async} and an enabled serve: group conflict — "
                 "configure the serving tier through serve: alone");
    serve_cfg.enabled = true;
    serve_cfg.mode = serve::Mode::FedBuff;
    serve_cfg.fraction = 1.0;
    serve_cfg.buffer_size = 1;
    serve_cfg.alpha = sched_cfg.get_or<double>("alpha", 0.6);
    serve_cfg.total_updates = sched_cfg.get_or<std::size_t>("total_updates", 0);
  }
  const bool fedbuff = serve_cfg.enabled && serve_cfg.mode == serve::Mode::FedBuff;
  if (fedbuff) {
    OF_CHECK_MSG(topology_.kind == "centralized",
                 "the serving tier (serve: fedbuff / async scheduling) requires a "
                 "centralized topology");
    OF_CHECK_MSG(!has_privacy,
                 "the serving tier aggregates updates one at a time — sum-based "
                 "privacy mechanisms (SA/HE) and per-cohort DP do not apply");
  }
  const auto clients_per_round = cfg_.get_or<std::size_t>("clients_per_round", 0);
  OF_CHECK_MSG(!fedbuff || clients_per_round == 0,
               "clients_per_round is the lockstep participation knob — the serving "
               "tier samples with serve.fraction instead");
  if (clients_per_round > 0 && has_privacy) {
    const std::string ptarget =
        config::target_basename(privacy_cfg.at("_target_").as_string());
    OF_CHECK_MSG(ptarget == "DifferentialPrivacy",
                 "partial participation breaks fixed-cohort mechanisms (" << ptarget
                                                                          << ")");
  }
  const config::ConfigNode agg_cfg = node_or_empty(cfg_, "aggregation");
  const AggregationRule agg_rule =
      parse_aggregation_rule(agg_cfg.get_or<std::string>("rule", "mean"));
  const double agg_trim = agg_cfg.get_or<double>("trim", 0.1);
  OF_CHECK_MSG(agg_rule == AggregationRule::Mean || !has_privacy,
               "robust aggregation rules need individual updates and cannot compose "
               "with sum-only privacy mechanisms");
  OF_CHECK_MSG(agg_rule == AggregationRule::Mean || !fedbuff,
               "robust aggregation rules need the whole cohort at once — the "
               "serving tier folds updates into a streaming buffer");
  OF_CHECK_MSG(agg_rule == AggregationRule::Mean ||
                   (topology_.kind != "ring" && topology_.kind != "hierarchical"),
               "robust aggregation rules need a centralized topology — ring "
               "all-reduce and the hierarchical combiner tree only form means");
  OF_CHECK_MSG(topology_.combiner.deadline_seconds <= 0 || !has_privacy,
               "topology.combiner.deadline_seconds cannot be combined with a privacy "
               "mechanism — a privacy combiner needs every member's update, so it "
               "always waits for its whole group");
  const config::ConfigNode byz_cfg = node_or_empty(cfg_, "byzantine");
  const auto byzantine_count = byz_cfg.get_or<std::size_t>("count", 0);
  const std::string byzantine_kind = byz_cfg.get_or<std::string>("kind", "sign_flip");

  // --- fault model -----------------------------------------------------------
  const auto fault_spec =
      fault::FaultSpec::from_config(node_or_empty(cfg_, "fault"), strict_);
  if (fault_spec.enabled) {
    OF_CHECK_MSG(topology_.kind == "centralized",
                 "fault tolerance (deadline-based partial aggregation) requires a "
                 "centralized topology");
    OF_CHECK_MSG(!fedbuff,
                 "fault tolerance (deadline cuts) applies to synchronous rounds "
                 "only — the serving tier already absorbs stragglers by design");
    if (has_privacy) {
      const std::string ptarget =
          config::target_basename(privacy_cfg.at("_target_").as_string());
      OF_CHECK_MSG(ptarget == "DifferentialPrivacy",
                   "partial aggregation breaks fixed-cohort privacy mechanisms ("
                       << ptarget << ")");
    }
    fault_spec.validate(topology_.size());
  }
  OF_CHECK_MSG(!fault_spec.churn.enabled || fedbuff,
               "fault.churn models population churn in the serving tier — enable "
               "serve: {mode: fedbuff} (or async scheduling)");
  comm::TcpFaultTolerance tcp_ft;
  if (fault_spec.enabled) {
    tcp_ft.enabled = true;
    tcp_ft.max_reconnect_attempts = fault_spec.reconnect.max_attempts;
    tcp_ft.backoff_seconds = fault_spec.reconnect.backoff_seconds;
    tcp_ft.backoff_max_seconds = fault_spec.reconnect.backoff_max_seconds;
  }

  const config::ConfigNode het_cfg = node_or_empty(cfg_, "heterogeneity");
  std::vector<double> slowdowns;
  if (het_cfg.has("slowdowns")) {
    const auto& list = het_cfg.at("slowdowns");
    for (std::size_t i = 0; i < list.size(); ++i)
      slowdowns.push_back(list.at(i).as_double());
    for (double s : slowdowns)
      OF_CHECK_MSG(s >= 1.0, "slowdown factors must be >= 1");
  } else if (het_cfg.has("max_slowdown")) {
    const double mx = het_cfg.at("max_slowdown").as_double();
    OF_CHECK_MSG(mx >= 1.0, "max_slowdown must be >= 1");
    tensor::Rng hrng(seed ^ 0x48E7ULL);
    for (std::size_t i = 0; i < num_trainers; ++i)
      slowdowns.push_back(hrng.uniform(1.0, mx));
  }

  // --- communicators ------------------------------------------------------------
  const auto inner_backend = parse_backend(inner_comm_cfg, "TorchDistCommunicator");
  const auto outer_backend = parse_backend(outer_comm_cfg, "GrpcCommunicator");
  comm::DelayMode inner_delay = comm::DelayMode::Virtual;
  comm::DelayMode outer_delay = comm::DelayMode::Virtual;
  const auto inner_link = parse_link(inner_comm_cfg, inner_delay);
  const auto outer_link = parse_link(outer_comm_cfg, outer_delay);
  const auto inner_port =
      static_cast<std::uint16_t>(inner_comm_cfg.get_or<int>("port", 50051));
  const auto outer_port =
      static_cast<std::uint16_t>(outer_comm_cfg.get_or<int>("port", 50151));

  if (topology_.kind == "ring")
    OF_CHECK_MSG(inner_backend != CommSpec::Backend::Tcp,
                 "ring topology requires an all-to-all communicator (TorchDist/AMQP), "
                 "not a client/server star");

  // Shared-infrastructure groups (InProc / AMQP): one per sub-cluster +
  // optionally the outer tier. TCP groups form their own connections inside
  // the node threads and need nothing here.
  groups_.clear();
  amqp_groups_.clear();
  std::vector<comm::InProcGroup*> group_for;       // per topology group
  std::vector<comm::AmqpGroup*> amqp_group_for;    // per topology group
  comm::InProcGroup* outer_group = nullptr;
  comm::AmqpGroup* outer_amqp_group = nullptr;
  auto make_cluster = [&](CommSpec::Backend backend, int size,
                          comm::InProcGroup*& inproc_out, comm::AmqpGroup*& amqp_out) {
    inproc_out = nullptr;
    amqp_out = nullptr;
    if (backend == CommSpec::Backend::InProc) {
      groups_.push_back(std::make_unique<comm::InProcGroup>(size));
      inproc_out = groups_.back().get();
    } else if (backend == CommSpec::Backend::Amqp) {
      amqp_groups_.push_back(std::make_unique<comm::AmqpGroup>(size));
      amqp_out = amqp_groups_.back().get();
    }
  };
  if (topology_.kind == "hierarchical") {
    for (int g = 0; g < topology_.num_groups; ++g) {
      const auto members = topology_.group_members(g);
      comm::InProcGroup* ip = nullptr;
      comm::AmqpGroup* aq = nullptr;
      make_cluster(inner_backend, static_cast<int>(members.size()), ip, aq);
      group_for.push_back(ip);
      amqp_group_for.push_back(aq);
    }
    make_cluster(outer_backend, topology_.num_groups, outer_group, outer_amqp_group);
  } else {
    comm::InProcGroup* ip = nullptr;
    comm::AmqpGroup* aq = nullptr;
    make_cluster(inner_backend, topology_.size(), ip, aq);
    group_for.push_back(ip);
    amqp_group_for.push_back(aq);
  }

  // Total samples for weighted aggregation scales.
  std::size_t total_samples = 0;
  for (const auto& p : parts) total_samples += p.size();

  // Survivor re-weighting for partial rounds: w_i = n_i / total, indexed by
  // cohort index (centralized: rank i+1).
  std::vector<double> client_weights;
  if (fault_spec.enabled && total_samples > 0)
    for (const auto& p : parts)
      client_weights.push_back(static_cast<double>(p.size()) /
                               static_cast<double>(total_samples));

  // Per-group sample totals (hierarchical weights).
  std::vector<std::size_t> group_samples(static_cast<std::size_t>(topology_.num_groups), 0);
  {
    std::size_t ti = 0;
    for (int id : trainer_ids) {
      const int g = topology_.nodes[static_cast<std::size_t>(id)].group;
      group_samples[static_cast<std::size_t>(g)] += parts[ti].size();
      ++ti;
    }
  }

  // --- assemble per-node setups ---------------------------------------------------
  std::vector<NodeSetup> setups;
  setups.reserve(static_cast<std::size_t>(topology_.size()));
  std::size_t trainer_index = 0;  // global trainer counter, aligned with parts
  for (const auto& tn : topology_.nodes) {
    NodeSetup s;
    s.node_id = tn.id;
    s.role = tn.role;
    s.group = tn.group;
    s.mode = topology_.kind == "custom" ? "centralized" : topology_.kind;
    s.global_rounds = global_rounds;
    s.local_epochs = local_epochs;
    s.eval_every = eval_every;
    s.serve = serve_cfg;
    s.wire_repr = payload_cfg.wire;
    s.clients_per_round = clients_per_round;
    s.participation_seed = seed ^ 0x5E1EC7ULL;
    s.aggregation_rule = agg_rule;
    s.aggregation_trim = agg_trim;
    s.fault = fault_spec;
    if (tn.role == NodeRole::Aggregator && fault_spec.enabled)
      s.client_weights = client_weights;
    s.seed = seed + 1000 + static_cast<std::uint64_t>(tn.id);
    s.model = nn::zoo::make_model(model_name, spec.dim, spec.classes, seed);
    s.algorithm = algorithms::make_algorithm(algo_target);
    s.algorithm_params = algo_cfg;
    s.test_set = &dataset_.test;

    // Cohort geometry.
    const auto members = topology_.group_members(tn.group);
    const std::size_t group_trainers =
        topology_.kind == "ring" ? members.size() : members.size() - 1;

    if (tn.role == NodeRole::Trainer) {
      const auto& my_part = parts[trainer_index];
      s.loader = std::make_unique<data::DataLoader>(dataset_.train, my_part, batch_size,
                                                    /*shuffle=*/true, s.seed + 7);
      s.optimizer = std::make_unique<nn::SGD>(s.model.parameters(), lr, momentum,
                                              weight_decay);
      if (!milestones.empty())
        s.scheduler = std::make_unique<nn::MultiStepLR>(*s.optimizer, milestones, lr_gamma);

      // Weighted-mean pre-scale (see payload.hpp).
      if (topology_.kind == "hierarchical") {
        const auto gs = group_samples[static_cast<std::size_t>(tn.group)];
        s.weight_scale = gs > 0 ? static_cast<double>(my_part.size()) *
                                      static_cast<double>(group_trainers) /
                                      static_cast<double>(gs)
                                : 1.0;
      } else {
        s.weight_scale = total_samples > 0
                             ? static_cast<double>(my_part.size()) *
                                   static_cast<double>(num_trainers) /
                                   static_cast<double>(total_samples)
                             : 1.0;
      }
      // Cohort index among this group's trainers.
      int ci = 0;
      {
        std::size_t tj = 0;
        for (int id : trainer_ids) {
          if (id == tn.id) break;
          if (topology_.nodes[static_cast<std::size_t>(id)].group == tn.group) ++ci;
          ++tj;
        }
      }
      s.cohort_index = ci;
      s.cohort_size = static_cast<int>(group_trainers);
      if (!slowdowns.empty())
        s.slowdown = slowdowns[trainer_index % slowdowns.size()];
      if (fedbuff) s.weight_scale = 1.0;  // staleness weights take over
      if (trainer_index < byzantine_count) {
        s.byzantine = true;
        s.byzantine_kind = byzantine_kind;
      }
      ++trainer_index;
    } else if (topology_.kind == "hierarchical") {
      // Leader's outer weight: group share of the global sample count.
      s.weight_scale = total_samples > 0
                           ? static_cast<double>(
                                 group_samples[static_cast<std::size_t>(tn.group)]) *
                                 static_cast<double>(topology_.num_groups) /
                                 static_cast<double>(total_samples)
                           : 1.0;
      // Streaming combiner scale (node.hpp): bridges the client-side
      // weight_scale pre-scaling to the root's divide-by-total-count mean —
      // gs·T/(K_g·total). At full participation the tree equals the flat
      // weighted mean exactly.
      const auto gs = group_samples[static_cast<std::size_t>(tn.group)];
      s.partial_scale =
          (gs > 0 && total_samples > 0 && group_trainers > 0)
              ? static_cast<double>(gs) * static_cast<double>(num_trainers) /
                    (static_cast<double>(group_trainers) *
                     static_cast<double>(total_samples))
              : 1.0;
      s.hier_deadline_seconds = topology_.combiner.deadline_seconds;
      s.hier_min_clients = topology_.combiner.min_clients;
    }

    // Plugins.
    if (has_compression) {
      config::ConfigNode c = compression_cfg;
      c["seed"] = config::ConfigNode::integer(static_cast<std::int64_t>(s.seed + 77));
      s.compressor = compression::make_compressor(c, strict_);
    }
    if (has_outer_compression && tn.role == NodeRole::Aggregator) {
      config::ConfigNode c = outer_compression_cfg;
      c["seed"] = config::ConfigNode::integer(static_cast<std::int64_t>(s.seed + 78));
      s.outer_compressor = compression::make_compressor(c, strict_);
    }
    if (has_privacy) {
      config::ConfigNode p = privacy_cfg;
      const std::string ptarget = config::target_basename(p.at("_target_").as_string());
      if (ptarget == "DifferentialPrivacy") {
        p["seed"] = config::ConfigNode::integer(
            static_cast<std::int64_t>(seed * 131 + static_cast<std::uint64_t>(tn.id)));
      } else if (ptarget == "HomomorphicEncryption") {
        p["seed"] = config::ConfigNode::integer(static_cast<std::int64_t>(seed));  // shared keys
        p["enc_seed"] = config::ConfigNode::integer(
            static_cast<std::int64_t>(seed * 313 + static_cast<std::uint64_t>(tn.id) + 1));
      } else if (ptarget == "SecureAggregation") {
        p["num_clients"] = config::ConfigNode::integer(
            tn.role == NodeRole::Trainer ? s.cohort_size
                                         : static_cast<int>(group_trainers));
      }
      s.privacy = privacy::make_mechanism(p, strict_);
    }

    // Communicator specs.
    if (topology_.kind == "hierarchical") {
      // Inner: rank = index within the group (leader first).
      int inner_rank = 0;
      for (std::size_t i = 0; i < members.size(); ++i)
        if (members[i] == tn.id) inner_rank = static_cast<int>(i);
      s.inner_spec.backend = inner_backend;
      s.inner_spec.group = group_for[static_cast<std::size_t>(tn.group)];
      s.inner_spec.amqp_group = amqp_group_for[static_cast<std::size_t>(tn.group)];
      s.inner_spec.rank = inner_rank;
      s.inner_spec.world = static_cast<int>(members.size());
      s.inner_spec.port = static_cast<std::uint16_t>(inner_port + tn.group);
      s.inner_spec.link = inner_link;
      s.inner_spec.delay_mode = inner_delay;
      if (tn.role == NodeRole::Aggregator) {
        s.outer_spec.backend = outer_backend;
        s.outer_spec.group = outer_group;
        s.outer_spec.amqp_group = outer_amqp_group;
        s.outer_spec.rank = tn.group;
        s.outer_spec.world = topology_.num_groups;
        s.outer_spec.port = outer_port;
        s.outer_spec.link = outer_link;
        s.outer_spec.delay_mode = outer_delay;
      }
    } else {
      s.inner_spec.backend = inner_backend;
      s.inner_spec.group = group_for[0];
      s.inner_spec.amqp_group = amqp_group_for[0];
      s.inner_spec.rank = tn.id;
      s.inner_spec.world = topology_.size();
      s.inner_spec.port = inner_port;
      s.inner_spec.link = inner_link;
      s.inner_spec.delay_mode = inner_delay;
      s.inner_spec.tcp_ft = tcp_ft;
      // Deterministic connect backoff: seed the retry jitter from the node's
      // splitmix64 chain so a rerun's connect schedule reproduces from the
      // run seed (tests/test_comm.cpp asserts identical schedules).
      s.inner_spec.tcp_ft.connect_backoff_seed =
          tensor::Rng(s.seed ^ 0xBACC0FFULL).next_u64();
    }

    setups.push_back(std::move(s));
  }
  return setups;
}

RunResult Engine::run() {
  OF_CHECK_MSG(!ran_, "Engine::run may only be called once per Engine");
  ran_ = true;
  auto setups = build_setups();

  // Execution pool: one process-global worker set shared by every node
  // thread, configured before any node spawns (configure is not
  // hot-swappable under load).
  const auto exec_cfg =
      exec::ExecConfig::from_config(node_or_empty(cfg_, "exec"), strict_);
  exec::Pool::global().configure(exec_cfg.threads, exec_cfg.grain);
  simd::configure(exec_cfg.simd);

  const auto obs_cfg = obs::ObsConfig::from_config(node_or_empty(cfg_, "obs"), strict_);
  // Registry instruments are process-global and always on; per-run values
  // are deltas against this snapshot.
  const auto registry_before = obs::Registry::global().snapshot();
  // Run-wide trace id, seed-derived (splitmix64) so reruns correlate.
  std::uint64_t tid =
      static_cast<std::uint64_t>(cfg_.get_or<std::int64_t>("seed", 42)) +
      0x9E3779B97F4A7C15ULL;
  tid = (tid ^ (tid >> 30)) * 0xBF58476D1CE4E5B9ULL;
  tid = (tid ^ (tid >> 27)) * 0x94D049BB133111EBULL;
  tid ^= tid >> 31;
  if (tid == 0) tid = 1;
  if (obs_cfg.enabled) {
    obs::TraceRecorder::global().reset(obs_cfg.ring_capacity);
    obs::TraceRecorder::global().set_enabled(true);
    obs::set_run_trace_id(tid);
    if (obs_cfg.telemetry) {
      obs::Fleet::global().reset(tid);
      for (auto& s : setups) {
        s.obs_telemetry = true;
        s.obs_clock_sync_every = obs_cfg.clock_sync_rounds;
      }
    }
  }
  // Tier-two observability: both run with or without span tracing. The
  // profiler samples every thread of the process; the flight recorder
  // captures whatever the trace rings and profiler lanes hold at dump time.
  if (obs_cfg.profile.enabled) obs::Profiler::global().start(obs_cfg.profile);
  if (obs_cfg.flightrec.enabled)
    obs::FlightRecorder::global().arm(obs_cfg.flightrec,
                                      dump_effective_config(cfg_), tid);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<NodeReport> reports(setups.size());
  std::vector<std::exception_ptr> errors(setups.size());
  {
    std::vector<std::thread> threads;
    threads.reserve(setups.size());
    for (std::size_t i = 0; i < setups.size(); ++i) {
      threads.emplace_back([i, &setups, &reports, &errors] {
        // Label this thread's profiler lane before any sample can land.
        char lane_name[16];
        std::snprintf(lane_name, sizeof(lane_name), "node%d", setups[i].node_id);
        obs::Profiler::set_thread_name(lane_name);
        try {
          NodeRuntime runtime(std::move(setups[i]));
          reports[i] = runtime.run();
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  // Every producer thread is joined: tracing can stop and the rings are
  // safe to drain (the joins establish the happens-before the SPSC rings
  // rely on). Disable before the rethrow too, so a failed run does not
  // leave tracing on for the next Engine in this process.
  std::vector<obs::TraceEvent> trace_events;
  if (obs_cfg.enabled) {
    obs::TraceRecorder::global().set_enabled(false);
    trace_events = obs::TraceRecorder::global().drain();
  }
  // Same discipline for tier two: disarm before the rethrow so a failed
  // run leaves no timer or signal hooks behind. Captured samples stay
  // readable (for the collapsed-stack export below and late /profile
  // scrapes) until the next start().
  if (obs_cfg.profile.enabled) obs::Profiler::global().stop();
  if (obs_cfg.flightrec.enabled) obs::FlightRecorder::global().disarm();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  RunResult result;
  result.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (!reports[i].rounds.empty()) {
      result.rounds = reports[i].rounds;
      result.root_comm = reports[i].comm_inner;
      result.root_comm += reports[i].comm_outer;
      result.final_model_bytes = reports[i].final_model;
    }
    result.inner_comm += reports[i].comm_inner;
    result.outer_comm += reports[i].comm_outer;
    result.train_seconds += reports[i].train_seconds;
  }
  if (!result.rounds.empty()) {
    double sum = 0.0;
    for (const auto& r : result.rounds) sum += r.seconds;
    result.mean_round_seconds = sum / static_cast<double>(result.rounds.size());
  }
  result.final_accuracy = result.last_accuracy();
  result.algorithm = config::target_basename(node_or_empty(cfg_, "algorithm")
                                                 .get_or<std::string>("_target_", "FedAvg"));
  if (cfg_.has("model")) {
    const auto& m = cfg_.at("model");
    result.model = m.is_map() ? m.get_or<std::string>("name", "mlp_tiny") : m.as_string();
  } else {
    result.model = "mlp_tiny";
  }
  result.dataset = node_or_empty(cfg_, "datamodule").get_or<std::string>("preset", "toy");
  {
    nn::Model ref = nn::zoo::make_model(
        result.model, dataset_.train.dim(), dataset_.train.num_classes(),
        static_cast<std::uint64_t>(cfg_.get_or<std::int64_t>("seed", 42)));
    result.model_scalars = ref.num_scalars();
  }

  // Pool hit rate over this run only: delta of the global counters.
  {
    const auto registry_after = obs::Registry::global().snapshot();
    auto delta = [&](const char* key) -> std::int64_t {
      const auto it_after = registry_after.find(key);
      if (it_after == registry_after.end()) return 0;
      const auto it_before = registry_before.find(key);
      return it_after->second -
             (it_before != registry_before.end() ? it_before->second : 0);
    };
    const std::int64_t hits = delta("pool.hit");
    const std::int64_t misses = delta("pool.miss");
    if (hits + misses > 0)
      result.pool_hit_rate =
          static_cast<double>(hits) / static_cast<double>(hits + misses);
  }

  if (obs_cfg.enabled) {
    fold_phase_seconds(trace_events, result.rounds);
    if (!obs_cfg.trace_path.empty()) {
      // With the telemetry plane on, the coordinator knows each node's clock
      // offset — emit the merged fleet trace on the coordinator timeline.
      if (obs_cfg.telemetry)
        obs::write_file(obs_cfg.trace_path,
                        obs::to_chrome_trace_merged(trace_events,
                                                    obs::Fleet::global().clock_offsets()));
      else
        obs::write_file(obs_cfg.trace_path, obs::to_chrome_trace(trace_events));
      if (obs_cfg.split_trace_per_node)
        obs::write_per_node_traces(obs_cfg.trace_path, trace_events);
    }
    if (!obs_cfg.metrics_path.empty())
      obs::write_file(obs_cfg.metrics_path,
                      obs::to_prometheus_text(obs::Registry::global()));
    if (!obs_cfg.events_csv_path.empty())
      obs::write_file(obs_cfg.events_csv_path, obs::to_event_csv(trace_events));
  }
  if (obs_cfg.profile.enabled && !obs_cfg.profile.path.empty())
    obs::write_file(obs_cfg.profile.path, obs::Profiler::global().collapsed_text());
  return result;
}

}  // namespace of::core
