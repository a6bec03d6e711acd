#include "obs/telemetry.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <type_traits>

#include "obs/export.hpp"
#include "refl/json.hpp"
#include "refl/tlv.hpp"

namespace of::obs {
namespace {

// Tail layout: [TLV payload][u32 payload_len][u16 version][u16 rsvd][u32 magic],
// parsed from the frame end.
constexpr std::uint32_t kTlvTailMagic = 0x3254464Fu;  // "OFT2"
constexpr std::uint16_t kTlvVersion = 2;
constexpr std::size_t kTlvTrailerBytes = 12;

void put_u16(AlignedBytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(AlignedBytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t get_u16(const std::uint8_t*& p) {
  std::uint16_t v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  p += 2;
  return v;
}
std::uint32_t get_u32(const std::uint8_t*& p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  p += 4;
  return v;
}

// One Prometheus sample value: bools as 0/1, doubles through prom_double,
// vectors as their size, integers verbatim.
template <class V>
void prom_value(std::ostream& os, const V& v) {
  if constexpr (std::is_same_v<V, bool>) {
    os << (v ? 1 : 0);
  } else if constexpr (std::is_floating_point_v<V>) {
    os << prom_double(static_cast<double>(v));
  } else if constexpr (refl::is_std_vector_v<V>) {
    os << v.size();
  } else {
    os << v;
  }
}

// Render every exported field of T as one `# TYPE` family: rows are
// (label value, struct) pairs; label_key == nullptr emits unlabeled
// singleton samples. The family name is prefix + export_name(), so the
// descriptor is the only name table.
template <refl::Reflected T>
void prom_families(std::ostream& os, const char* prefix, const char* label_key,
                   const std::vector<std::pair<int, const T*>>& rows) {
  refl::for_each_field<T>([&](const auto& f) {
    using FT = typename std::decay_t<decltype(f)>::Type;
    if constexpr (std::is_arithmetic_v<FT> || refl::is_std_vector_v<FT>) {
      if (f.exported != refl::Export::Gauge && f.exported != refl::Export::Counter)
        return;
      os << "# TYPE " << prefix << f.export_name()
         << (f.exported == refl::Export::Counter ? " counter\n" : " gauge\n");
      for (const auto& [label, row] : rows) {
        os << prefix << f.export_name();
        if (label_key) os << '{' << label_key << "=\"" << label << "\"}";
        os << ' ';
        prom_value(os, row->*(f.member));
        os << '\n';
      }
    }
  });
}

}  // namespace

void TelemetrySummary::serialize_tlv_to(AlignedBytes& out) const {
  refl::tlv::Bytes payload;
  refl::tlv::encode(*this, payload);
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u16(out, kTlvVersion);
  put_u16(out, 0);  // reserved
  put_u32(out, kTlvTailMagic);
}

std::optional<TelemetrySummary> TelemetrySummary::parse_tail(
    const std::uint8_t* data, std::size_t len, std::size_t* tail_bytes) {
  // Fixed trailer at the very end, TLV payload just before it.
  if (len < kTlvTrailerBytes) return std::nullopt;
  const std::uint8_t* p = data + (len - kTlvTrailerBytes);
  const std::uint32_t payload_len = get_u32(p);
  const std::uint16_t version = get_u16(p);
  get_u16(p);  // reserved
  if (get_u32(p) != kTlvTailMagic || version != kTlvVersion ||
      len - kTlvTrailerBytes < payload_len)
    return std::nullopt;
  TelemetrySummary s;
  if (!refl::tlv::decode(s, data + (len - kTlvTrailerBytes - payload_len), payload_len))
    return std::nullopt;
  if (tail_bytes) *tail_bytes = kTlvTrailerBytes + payload_len;
  return s;
}

Fleet& Fleet::global() {
  static Fleet fleet;
  return fleet;
}

void Fleet::reset(std::uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  trace_id_ = trace_id;
  nodes_.clear();
  last_round_.reset();
  combiners_.clear();
  serve_.reset();
  attribution_.reset();
  for (auto& h : phase_hist_)
    for (auto& b : h) b = 0;
}

void Fleet::record(const TelemetrySummary& s) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeState& n = nodes_[static_cast<int>(s.rank)];
  n.last = s;
  ++n.updates;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    n.cum_phases[i].count += s.phases[i].count;
    n.cum_phases[i].total_ns += s.phases[i].total_ns;
    n.cum_phases[i].max_ns = std::max(n.cum_phases[i].max_ns, s.phases[i].max_ns);
    // Histogram-backed /fleet percentiles: one observation per phase per
    // reported round (the log2 bucket of the phase's total ns).
    if (s.phases[i].count > 0) {
      std::size_t w = 0;
      for (std::uint64_t v = s.phases[i].total_ns; v != 0; v >>= 1) ++w;
      ++phase_hist_[i][w];
    }
  }
  attribution_.observe_client(s.rank, s.round, s.phases, s.round_span_id);
}

void Fleet::record_round(const RoundHealth& h) {
  std::lock_guard<std::mutex> lock(mu_);
  last_round_ = h;
  attribution_.on_round(h.round, h.seconds, h.aggregate_seconds);
}

void Fleet::record_combiner(const CombinerHealth& h) {
  std::lock_guard<std::mutex> lock(mu_);
  combiners_[h.group] = h;
}

void Fleet::record_serve(const ServeHealth& h) {
  std::lock_guard<std::mutex> lock(mu_);
  serve_ = h;
}

std::optional<Fleet::ServeHealth> Fleet::serve() const {
  std::lock_guard<std::mutex> lock(mu_);
  return serve_;
}

std::vector<Fleet::CombinerHealth> Fleet::combiners() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CombinerHealth> out;
  out.reserve(combiners_.size());
  for (const auto& [g, h] : combiners_) out.push_back(h);
  return out;
}

std::uint64_t Fleet::trace_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_id_;
}

std::vector<TelemetrySummary> Fleet::latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TelemetrySummary> out;
  out.reserve(nodes_.size());
  for (const auto& [rank, n] : nodes_) out.push_back(n.last);
  return out;
}

std::optional<CriticalPath> Fleet::critical_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attribution_.latest();
}

std::map<int, Attribution::LatencyHist> Fleet::client_hists() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attribution_.client_hists();
}

std::map<int, std::int64_t> Fleet::clock_offsets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, std::int64_t> out;
  for (const auto& [rank, n] : nodes_)
    if (n.last.rtt_ns > 0) out[rank] = n.last.clock_offset_ns;
  return out;
}

std::string Fleet::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  {
    std::ostringstream id;
    id << "0x" << std::hex << trace_id_;
    os << "# TYPE of_fleet_info gauge\n"
       << "of_fleet_info{trace_id=\"" << prom_escape_label(id.str()) << "\"} 1\n";
  }
  os << "# TYPE of_fleet_nodes gauge\nof_fleet_nodes " << nodes_.size() << '\n';

  // Per-node families, straight from the TelemetrySummary descriptor.
  std::vector<std::pair<int, const TelemetrySummary*>> rows;
  rows.reserve(nodes_.size());
  for (const auto& [rank, n] : nodes_) rows.emplace_back(rank, &n.last);
  prom_families(os, "of_fleet_", "node", rows);

  // Derived series the descriptor cannot express (ratios, coordinator-side
  // accumulations) stay hand-written.
  // Hit rate over zero acquires is 0, not NaN (prom_double also guards).
  os << "# TYPE of_fleet_pool_hit_rate gauge\n";
  for (const auto& [rank, n] : nodes_) {
    const std::uint64_t total = n.last.pool_hits + n.last.pool_misses;
    const double rate =
        total == 0 ? 0.0
                   : static_cast<double>(n.last.pool_hits) / static_cast<double>(total);
    os << "of_fleet_pool_hit_rate{node=\"" << rank << "\"} " << prom_double(rate)
       << '\n';
  }
  os << "# TYPE of_fleet_updates_total counter\n";
  for (const auto& [rank, n] : nodes_)
    os << "of_fleet_updates_total{node=\"" << rank << "\"} " << n.updates << '\n';

  os << "# TYPE of_fleet_phase_seconds_total counter\n";
  for (const auto& [rank, n] : nodes_)
    for (std::size_t i = 0; i < kPhaseCount; ++i)
      os << "of_fleet_phase_seconds_total{node=\"" << rank << "\",phase=\""
         << prom_escape_label(phase_label(i)) << "\"} "
         << prom_double(static_cast<double>(n.cum_phases[i].total_ns) / 1e9) << '\n';

  if (last_round_)
    prom_families<RoundHealth>(os, "of_fleet_", nullptr, {{0, &*last_round_}});

  // Attribution verdict: numeric fields from the CriticalPath descriptor,
  // the cause itself as a label on the derived _info series.
  if (const auto cp = attribution_.latest()) {
    prom_families<CriticalPath>(os, "of_fleet_critical_path_", nullptr, {{0, &*cp}});
    os << "# TYPE of_fleet_critical_path_info gauge\n"
       << "of_fleet_critical_path_info{cause=\"" << to_string(cp->cause)
       << "\",client=\"" << cp->client << "\"} 1\n";
  }

  // Per-client round-latency histograms (attribution engine): bucket
  // bounds in seconds, cumulative up to the last non-empty bucket.
  if (!attribution_.client_hists().empty()) {
    os << "# TYPE of_fleet_client_round_seconds histogram\n";
    for (const auto& [rank, h] : attribution_.client_hists()) {
      std::size_t last = 0;
      for (std::size_t i = 0; i < Attribution::LatencyHist::kBuckets; ++i)
        if (h.buckets[i] > 0) last = i;
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i <= last; ++i) {
        cum += h.buckets[i];
        const std::uint64_t bound_ns = i >= 64 ? ~0ull : (1ull << i) - 1;
        os << "of_fleet_client_round_seconds_bucket{node=\"" << rank << "\",le=\""
           << prom_double(static_cast<double>(bound_ns) / 1e9) << "\"} " << cum
           << '\n';
      }
      os << "of_fleet_client_round_seconds_bucket{node=\"" << rank
         << "\",le=\"+Inf\"} " << h.count << '\n'
         << "of_fleet_client_round_seconds_sum{node=\"" << rank << "\"} "
         << prom_double(static_cast<double>(h.sum_ns) / 1e9) << '\n'
         << "of_fleet_client_round_seconds_count{node=\"" << rank << "\"} "
         << h.count << '\n';
    }
  }

  if (!combiners_.empty()) {
    std::vector<std::pair<int, const CombinerHealth*>> crows;
    crows.reserve(combiners_.size());
    for (const auto& [g, h] : combiners_) crows.emplace_back(g, &h);
    prom_families(os, "of_fleet_combiner_", "group", crows);
  }

  if (serve_)
    prom_families<ServeHealth>(os, "of_fleet_serve_", nullptr, {{0, &*serve_}});
  return os.str();
}

std::string Fleet::json_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"trace_id\":";
  {
    std::ostringstream id;
    id << "0x" << std::hex << trace_id_;
    refl::json::append_escaped(id.str(), out);
  }
  out += ",\"nodes\":[";
  bool first = true;
  for (const auto& [rank, n] : nodes_) {
    (void)rank;
    if (!first) out += ',';
    first = false;
    std::string obj = refl::json::to_json(n.last);
    obj.pop_back();  // reopen the object for the derived keys
    const std::uint64_t total = n.last.pool_hits + n.last.pool_misses;
    const double rate =
        total == 0 ? 0.0
                   : static_cast<double>(n.last.pool_hits) / static_cast<double>(total);
    obj += ",\"pool_hit_rate\":";
    refl::json::append_double(rate, obj);
    obj += ",\"updates_total\":" + std::to_string(n.updates);
    obj += ",\"phase_seconds_total\":{";
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      if (i) obj += ',';
      refl::json::append_escaped(phase_label(i), obj);
      obj += ':';
      refl::json::append_double(static_cast<double>(n.cum_phases[i].total_ns) / 1e9,
                                obj);
    }
    obj += "}}";
    out += obj;
  }
  out += "],\"last_round\":";
  out += last_round_ ? refl::json::to_json(*last_round_) : std::string("null");
  out += ",\"critical_path\":";
  if (const auto cp = attribution_.latest()) {
    std::string obj = refl::json::to_json(*cp);
    obj.pop_back();  // reopen: the exemplar span renders as a hex string
    std::ostringstream span;
    span << "0x" << std::hex << cp->exemplar_span;
    obj += ",\"exemplar_span\":";
    refl::json::append_escaped(span.str(), obj);
    obj += '}';
    out += obj;
  } else {
    out += "null";
  }
  // Per-client latency digest: count / total / shared nearest-rank
  // percentiles over the log2 histogram, plus the exemplar span id.
  out += ",\"clients_latency\":{";
  {
    bool cfirst = true;
    for (const auto& [rank, h] : attribution_.client_hists()) {
      if (!cfirst) out += ',';
      cfirst = false;
      refl::json::append_escaped(std::to_string(rank), out);
      out += ":{\"rounds\":" + std::to_string(h.count);
      out += ",\"total_seconds\":";
      refl::json::append_double(static_cast<double>(h.sum_ns) / 1e9, out);
      out += ",\"p50_seconds\":";
      refl::json::append_double(
          static_cast<double>(percentile_log2(
              h.buckets, Attribution::LatencyHist::kBuckets, 50)) / 1e9,
          out);
      out += ",\"p95_seconds\":";
      refl::json::append_double(
          static_cast<double>(percentile_log2(
              h.buckets, Attribution::LatencyHist::kBuckets, 95)) / 1e9,
          out);
      std::ostringstream span;
      span << "0x" << std::hex << h.last_span;
      out += ",\"exemplar_span\":";
      refl::json::append_escaped(span.str(), out);
      out += '}';
    }
  }
  out += '}';
  out += ",\"combiners\":[";
  first = true;
  for (const auto& [g, h] : combiners_) {
    (void)g;
    if (!first) out += ',';
    first = false;
    out += refl::json::to_json(h);
  }
  out += "],\"serve\":";
  out += serve_ ? refl::json::to_json(*serve_) : std::string("null");
  out += '}';
  return out;
}

std::string Fleet::csv_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  bool first = true;
  refl::for_each_field<TelemetrySummary>([&](const auto& f) {
    using FT = typename std::decay_t<decltype(f)>::Type;
    if constexpr (std::is_arithmetic_v<FT>) {
      if (f.exported == refl::Export::Skip) return;
      os << (first ? "" : ",") << f.export_name();
      first = false;
    }
  });
  os << '\n';
  for (const auto& [rank, n] : nodes_) {
    (void)rank;
    first = true;
    refl::for_each_field<TelemetrySummary>([&](const auto& f) {
      using FT = typename std::decay_t<decltype(f)>::Type;
      if constexpr (std::is_arithmetic_v<FT>) {
        if (f.exported == refl::Export::Skip) return;
        if (!first) os << ',';
        first = false;
        prom_value(os, n.last.*(f.member));
      }
    });
    os << '\n';
  }
  return os.str();
}

std::string Fleet::health_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "OmniFed fleet health — trace 0x" << std::hex << trace_id_ << std::dec
     << ", " << nodes_.size() << " reporting node(s)\n";

  if (last_round_) {
    const RoundHealth& h = *last_round_;
    os << "round " << h.round << ": participated " << h.participated << '/'
       << h.expected << ", dropped [";
    for (std::size_t i = 0; i < h.dropped.size(); ++i)
      os << (i ? " " : "") << h.dropped[i];
    os << "], deadline_hit " << (h.deadline_hit ? "yes" : "no") << ", bytes up "
       << h.bytes_up << " / down " << h.bytes_down << ", " << std::fixed
       << std::setprecision(3) << h.seconds << " s (aggregate "
       << h.aggregate_seconds << " s)\n";
    os.unsetf(std::ios::fixed);
  }

  if (const auto cp = attribution_.latest()) {
    os << "critical path: round " << cp->round << " -> ";
    if (cp->client < 0)
      os << "coordinator";
    else
      os << "client " << cp->client;
    os << ", cause " << to_string(cp->cause) << " (" << std::fixed
       << std::setprecision(3) << cp->cause_seconds << " s of " << cp->round_seconds
       << " s round, client busy " << cp->client_seconds << " s), span 0x"
       << std::hex << cp->exemplar_span << std::dec << '\n';
    os.unsetf(std::ios::fixed);
  }

  for (const auto& [g, h] : combiners_) {
    os << "combiner " << g << ": round=" << h.round << " participated="
       << h.participated << '/' << h.expected << " dropped=" << h.dropped
       << " deadline_hit=" << (h.deadline_hit ? "yes" : "no")
       << " agg_peak_bytes=" << h.agg_peak_bytes << ' ' << std::fixed
       << std::setprecision(3) << h.seconds << " s\n";
    os.unsetf(std::ios::fixed);
  }

  if (serve_) {
    const ServeHealth& h = *serve_;
    os << "serve: version=" << h.version << " population=" << h.population
       << " alive=" << h.alive << " sampled=" << h.sampled << " buffer="
       << h.buffered << '/' << h.buffer_size << " accepted=" << h.accepted_total
       << " rejected=" << h.rejected_stale_total + h.rejected_full_total
       << " (stale " << h.rejected_stale_total << ", full " << h.rejected_full_total
       << ") resampled=" << h.resampled_total << " joins=" << h.joins_total
       << " leaves=" << h.leaves_total << " mean_staleness="
       << prom_double(h.mean_staleness) << '\n';
  }

  std::uint32_t max_round = 0;
  for (const auto& [rank, n] : nodes_) max_round = std::max(max_round, n.last.round);

  for (const auto& [rank, n] : nodes_) {
    const std::uint64_t pool_total = n.last.pool_hits + n.last.pool_misses;
    const double hit_pct =
        pool_total == 0
            ? 0.0
            : 100.0 * static_cast<double>(n.last.pool_hits) / static_cast<double>(pool_total);
    // Units rule: every duration on this page is seconds.
    os << "node " << rank << ": round=" << n.last.round << " offset_s="
       << prom_double(static_cast<double>(n.last.clock_offset_ns) / 1e9)
       << " rtt_s=" << prom_double(static_cast<double>(n.last.rtt_ns) / 1e9)
       << " sent=" << n.last.bytes_sent << " recv=" << n.last.bytes_received
       << " pool_hit%=" << prom_double(hit_pct) << " reconnects="
       << n.last.reconnects << " faults=" << n.last.faults_injected << '\n';
  }

  os << "stragglers:";
  bool any_straggler = false;
  for (const auto& [rank, n] : nodes_)
    if (n.last.round < max_round) {
      os << ' ' << rank;
      any_straggler = true;
    }
  if (!any_straggler) os << " none";
  os << '\n';

  // Cross-node phase percentiles, histogram-backed: every reported round
  // of every node is one observation, so the numbers survive stragglers
  // that stopped reporting. Seconds, like every duration on this page.
  os << "phase p50/p95 s (all rounds):";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    os << ' ' << phase_label(i) << '=';
    std::uint64_t total = 0;
    for (const auto b : phase_hist_[i]) total += b;
    if (total == 0) {
      os << "-/-";
      continue;
    }
    os << prom_double(static_cast<double>(percentile_log2(
              phase_hist_[i], Attribution::LatencyHist::kBuckets, 50)) / 1e9)
       << '/'
       << prom_double(static_cast<double>(percentile_log2(
              phase_hist_[i], Attribution::LatencyHist::kBuckets, 95)) / 1e9);
  }
  os << '\n';
  return os.str();
}

}  // namespace of::obs
