// of::obs telemetry channel — the compact per-round summary a client
// piggybacks on its update frame, and the coordinator-side fleet view
// built from those summaries (DESIGN.md §9).
//
// The summary is a TLV blob with a fixed trailer, appended to the *end* of
// an update frame, so the coordinator strips it with one resize and the
// training payload bytes are untouched — telemetry can never feed back
// into aggregation, which is what keeps the threads=1-vs-4 bitwise
// identity property intact with telemetry enabled. Both sides decide
// append/strip from the same engine-level obs config, so the framing
// always agrees.
//
// The Fleet singleton is the coordinator's registry keyed by node rank:
// latest summary per node, cumulative phase digests, plus the aggregator's
// own per-round health record. It renders two read-only views for the
// scrape endpoint: Prometheus text (`of_fleet_*`, one series per node) and
// a one-page health summary (stragglers, drops, bytes, phase p50/p95).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "obs/attribution.hpp"
#include "obs/context.hpp"
#include "refl/refl.hpp"

namespace of::obs {

// One client's round digest. Bytes and phase digests cover the round being
// reported (the client zeroes its running digests after each send, so the
// send phase reflects the previous round's send); pool / reconnect / fault
// counters are cumulative over the run.
struct TelemetrySummary {
  std::uint64_t trace_id = 0;
  std::uint32_t rank = 0;
  std::uint32_t round = 0;
  std::int64_t clock_offset_ns = 0;  // client − coordinator, 0 = unknown
  std::int64_t rtt_ns = 0;
  std::uint64_t bytes_sent = 0;      // this round, client-side comm stats
  std::uint64_t bytes_received = 0;
  std::uint64_t pool_hits = 0;       // cumulative, this node's frame pool
  std::uint64_t pool_misses = 0;
  std::uint64_t reconnects = 0;      // cumulative, transport
  std::uint64_t frames_dropped = 0;
  std::uint64_t faults_injected = 0; // cumulative, client-side injections
  PhaseDigest phases[kPhaseCount];
  // Peak resident set of the reporting process (getrusage ru_maxrss), kB.
  std::uint64_t peak_rss_kb = 0;
  // The client's open round span id when the summary was built — the
  // attribution engine's exemplar link into the merged trace. 0 when
  // tracing is off or the sender predates the field.
  std::uint64_t round_span_id = 0;

  // Append the blob: the TLV records of every descriptor field followed by
  // a fixed 12-byte trailer (payload_len, version, magic) so the
  // coordinator can strip a variable-size tail from the frame end. Unknown
  // tags are skipped on decode, so mixed-version fleets interoperate in
  // both directions (DESIGN.md §13).
  void serialize_tlv_to(AlignedBytes& out) const;

  // Parse a blob from the tail of [data, data+len). Returns nullopt if the
  // buffer is too short, the magic/version does not match, or the TLV
  // records are malformed. On success,
  // *tail_bytes (when given) receives the byte count the tail occupies —
  // what the caller must strip off the frame.
  static std::optional<TelemetrySummary> parse_tail(const std::uint8_t* data,
                                                    std::size_t len,
                                                    std::size_t* tail_bytes = nullptr);
};

class Fleet {
 public:
  static Fleet& global();

  // The coordinator's own view of one finished round.
  struct RoundHealth {
    std::uint32_t round = 0;
    std::uint32_t participated = 0;
    std::uint32_t expected = 0;
    std::vector<int> dropped;
    bool deadline_hit = false;
    std::uint64_t bytes_up = 0;
    std::uint64_t bytes_down = 0;
    double seconds = 0.0;
    // Coordinator-side aggregation time for the round — the server-side
    // candidate the attribution engine weighs against client phases.
    double aggregate_seconds = 0.0;
  };

  // One combiner's (group leader's) view of a finished round — the
  // hierarchical tier's health row (DESIGN.md §10).
  struct CombinerHealth {
    int group = 0;
    std::uint32_t round = 0;
    std::uint32_t participated = 0;  // group members that made the cutoff
    std::uint32_t expected = 0;
    std::uint32_t dropped = 0;       // stragglers cut at the deadline
    bool deadline_hit = false;
    std::uint64_t agg_peak_bytes = 0;  // StreamingSum::peak_bytes() + parked frames
    double seconds = 0.0;              // group gather + partial encode
  };

  // The serving tier's view of the run (DESIGN.md §14): population and
  // liveness from the registry, sampling and buffer admission counters,
  // staleness. The serve loop records a fresh row at every buffer drain.
  struct ServeHealth {
    std::uint64_t version = 0;  // server model version = drains so far
    std::uint64_t population = 0;  // registered identities over the run
    std::uint32_t alive = 0;
    std::uint32_t sampled = 0;      // current window's invitation count
    std::uint32_t buffered = 0;     // updates in the buffer after this drain
    std::uint32_t buffer_size = 0;
    std::uint64_t accepted_total = 0;
    std::uint64_t rejected_stale_total = 0;
    std::uint64_t rejected_full_total = 0;
    std::uint64_t resampled_total = 0;  // churned invitees replaced mid-window
    std::uint64_t joins_total = 0;
    std::uint64_t leaves_total = 0;
    double mean_staleness = 0.0;  // over accepted updates, cumulative
    double seconds = 0.0;         // since the serve loop started
  };

  // Start a fresh fleet view for a run.
  void reset(std::uint64_t trace_id);

  // Record a client summary / the aggregator's round record / one combiner's
  // round record. Thread-safe.
  void record(const TelemetrySummary& s);
  void record_round(const RoundHealth& h);
  void record_combiner(const CombinerHealth& h);
  void record_serve(const ServeHealth& h);

  // Latest health row per combiner group, ascending group id.
  std::vector<CombinerHealth> combiners() const;
  // Latest serving-tier row, when a serve loop is (or was) running.
  std::optional<ServeHealth> serve() const;

  std::uint64_t trace_id() const;
  // Latest summary per node, ascending rank.
  std::vector<TelemetrySummary> latest() const;
  // Latest round critical-path verdict from the attribution engine, when
  // round health and client telemetry have both arrived.
  std::optional<CriticalPath> critical_path() const;
  // Per-client round-latency histograms (attribution engine), keyed by rank.
  std::map<int, Attribution::LatencyHist> client_hists() const;
  // Node rank → min-RTT clock offset (ns, client − coordinator). Nodes
  // that never reported an offset are omitted.
  std::map<int, std::int64_t> clock_offsets() const;

  // Prometheus 0.0.4 text: of_fleet_* families with a node="<rank>" label.
  // Family names and types come from the TelemetrySummary / RoundHealth /
  // CombinerHealth field descriptors.
  std::string prometheus_text() const;
  // The same fleet view as a JSON document (GET /fleet.json) — keys match
  // the Prometheus families name-for-name, from the same descriptors.
  std::string json_text() const;
  // Per-node CSV (GET /fleet.csv), one row per reporting node; the column
  // set is the TelemetrySummary descriptor's exported fields.
  std::string csv_text() const;
  // Human-readable one-page per-round health summary.
  std::string health_text() const;

 private:
  struct NodeState {
    TelemetrySummary last;
    PhaseDigest cum_phases[kPhaseCount];
    std::uint64_t updates = 0;
  };

  mutable std::mutex mu_;
  std::uint64_t trace_id_ = 0;
  std::map<int, NodeState> nodes_;
  std::optional<RoundHealth> last_round_;
  std::map<int, CombinerHealth> combiners_;  // group id → latest row
  std::optional<ServeHealth> serve_;
  // Mutated only under mu_ (the engine itself is lock-free plain data).
  Attribution attribution_;
  // Cross-client per-phase round-time histograms (log2 buckets over ns),
  // fed once per summary — what the /fleet percentiles render from.
  std::uint64_t phase_hist_[kPhaseCount][Attribution::LatencyHist::kBuckets] = {};
};

}  // namespace of::obs

// The telemetry schema (DESIGN.md §13). Tags are wire ABI: stable forever,
// never reused. Adding a field here is the single edit that makes it
// appear on the v2 TLV wire, in the of_fleet_* Prometheus families, in
// /fleet.json, and in the /fleet.csv columns. The exporter name defaults
// to the field name; .prom_name() overrides keep the historical gauge
// names stable where they differ.
template <>
struct of::refl::Reflect<of::obs::TelemetrySummary> {
  using S = of::obs::TelemetrySummary;
  OF_REFL_FIELDS(
      field("trace_id", &S::trace_id, 1).skip_export(),
      field("rank", &S::rank, 2).label().prom_name("node"),
      field("round", &S::round, 3),
      field("clock_offset_ns", &S::clock_offset_ns, 4),
      field("rtt_ns", &S::rtt_ns, 5).prom_name("clock_rtt_ns"),
      field("bytes_sent", &S::bytes_sent, 6).prom_name("round_bytes_sent"),
      field("bytes_received", &S::bytes_received, 7).prom_name("round_bytes_received"),
      field("pool_hits", &S::pool_hits, 8).counter().prom_name("pool_hits_total"),
      field("pool_misses", &S::pool_misses, 9).counter().prom_name("pool_misses_total"),
      field("reconnects", &S::reconnects, 10).counter().prom_name("reconnects_total"),
      field("frames_dropped", &S::frames_dropped, 11).counter().prom_name("frames_dropped_total"),
      field("faults_injected", &S::faults_injected, 12).counter().prom_name("faults_injected_total"),
      field("phases", &S::phases, 13).skip_export(),
      field("peak_rss_kb", &S::peak_rss_kb, 14),
      field("round_span_id", &S::round_span_id, 15).skip_export())
};

template <>
struct of::refl::Reflect<of::obs::Fleet::RoundHealth> {
  using S = of::obs::Fleet::RoundHealth;
  OF_REFL_FIELDS(
      field("round", &S::round, 1).prom_name("last_round"),
      field("participated", &S::participated, 2).prom_name("last_round_participated"),
      field("expected", &S::expected, 3).prom_name("last_round_expected"),
      field("dropped", &S::dropped, 4).prom_name("last_round_dropped"),
      field("deadline_hit", &S::deadline_hit, 5).prom_name("last_round_deadline_hit"),
      field("bytes_up", &S::bytes_up, 6).prom_name("last_round_bytes_up"),
      field("bytes_down", &S::bytes_down, 7).prom_name("last_round_bytes_down"),
      field("seconds", &S::seconds, 8).prom_name("last_round_seconds"),
      field("aggregate_seconds", &S::aggregate_seconds, 9)
          .prom_name("last_round_aggregate_seconds"))
};

template <>
struct of::refl::Reflect<of::obs::Fleet::ServeHealth> {
  using S = of::obs::Fleet::ServeHealth;
  OF_REFL_FIELDS(
      field("version", &S::version, 1),
      field("population", &S::population, 2),
      field("alive", &S::alive, 3),
      field("sampled", &S::sampled, 4),
      field("buffered", &S::buffered, 5),
      field("buffer_size", &S::buffer_size, 6),
      field("accepted_total", &S::accepted_total, 7).counter(),
      field("rejected_stale_total", &S::rejected_stale_total, 8).counter(),
      field("rejected_full_total", &S::rejected_full_total, 9).counter(),
      field("resampled_total", &S::resampled_total, 10).counter(),
      field("joins_total", &S::joins_total, 11).counter(),
      field("leaves_total", &S::leaves_total, 12).counter(),
      field("mean_staleness", &S::mean_staleness, 13),
      field("seconds", &S::seconds, 14))
};

template <>
struct of::refl::Reflect<of::obs::Fleet::CombinerHealth> {
  using S = of::obs::Fleet::CombinerHealth;
  OF_REFL_FIELDS(
      field("group", &S::group, 1).label(),
      field("round", &S::round, 2),
      field("participated", &S::participated, 3),
      field("expected", &S::expected, 4),
      field("dropped", &S::dropped, 5),
      field("deadline_hit", &S::deadline_hit, 6),
      field("agg_peak_bytes", &S::agg_peak_bytes, 7),
      field("seconds", &S::seconds, 8))
};
