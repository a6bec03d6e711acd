// of::obs — always-on observability for the federated round loop.
//
//   trace.hpp     TraceRecorder: per-thread SPSC rings of span/instant
//                 events, lock-free on the record path, drained at join
//   registry.hpp  Registry: named counters/gauges/histograms (always on)
//   export.hpp    Chrome-trace JSON, Prometheus text, event CSV
//
// Selected by the `obs/` config group (configs/obs/{off,trace,full}.yaml)
// parsed here into an ObsConfig; the Engine enables tracing for the run,
// drains after joining the node threads, folds per-phase seconds into the
// RoundRecords, and writes whichever export paths are configured.
#pragma once

#include <cstddef>
#include <string>

#include "config/node.hpp"
#include "obs/export.hpp"
#include "obs/flightrec.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "refl/refl.hpp"

namespace of::obs {

struct ObsConfig {
  // Master switch for tracing. Registry instruments are always on (a
  // relaxed atomic add each), so `enabled: false` costs one relaxed load
  // per would-be span — measured in bench/bench_obs_overhead.
  bool enabled = false;
  std::size_t ring_capacity = TraceRecorder::kDefaultRingCapacity;

  // Export destinations; empty = skip that exporter.
  std::string trace_path;       // merged Chrome trace-event JSON (Perfetto)
  std::string metrics_path;     // Prometheus text exposition
  std::string events_csv_path;  // raw per-event CSV

  // Distributed telemetry plane (DESIGN.md §9). `telemetry` turns on the
  // client→coordinator piggyback channel (per-round summaries appended to
  // update frames, stripped before decode) and the fleet registry behind
  // the scrape endpoint; requires `enabled`. `clock_sync_rounds` re-pings
  // the coordinator every K rounds to refresh the per-client clock offset
  // (TCP only; 0 disables re-pings, the connect-time burst still runs).
  bool telemetry = false;
  std::size_t clock_sync_rounds = 8;
  // Additionally write one per-node trace "<trace_path>.rank<N>.json"
  // besides the merged file.
  bool split_trace_per_node = false;

  // Tier-two observability (DESIGN.md §16): the SIGPROF sampling profiler
  // and the crash/deadline flight recorder. Nested reflected groups so
  // `obs.profile.hz: 97` etc. strict-validate like every other key.
  ProfileConfig profile;
  FlightRecConfig flightrec;

  // Parse the `obs:` config group; a null/missing node yields the disabled
  // default.
  static ObsConfig from_config(const config::ConfigNode& node, bool strict = true);
};

}  // namespace of::obs

template <>
struct of::refl::Reflect<of::obs::ObsConfig> {
  OF_REFL_FIELDS(
      field("enabled", &of::obs::ObsConfig::enabled, 1),
      field("ring_capacity", &of::obs::ObsConfig::ring_capacity, 2).ge(1),
      field("trace_path", &of::obs::ObsConfig::trace_path, 3),
      field("metrics_path", &of::obs::ObsConfig::metrics_path, 4),
      field("events_csv_path", &of::obs::ObsConfig::events_csv_path, 5),
      field("telemetry", &of::obs::ObsConfig::telemetry, 6),
      field("clock_sync_rounds", &of::obs::ObsConfig::clock_sync_rounds, 7),
      field("split_trace_per_node", &of::obs::ObsConfig::split_trace_per_node, 8),
      // Tag 9 (the retired `telemetry_wire` knob) stays reserved.
      field("profile", &of::obs::ObsConfig::profile, 10).skip_export(),
      field("flightrec", &of::obs::ObsConfig::flightrec, 11).skip_export())
};
