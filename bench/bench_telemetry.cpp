// Cost of the distributed telemetry plane (EXPERIMENTS.md "observability
// overhead" table, DESIGN.md §9):
//
//   disabled_span_ctx    one would-be span plus the frame-header context
//                        capture when tracing is off — the per-send price
//                        every transport pays forever (asserts zero heap
//                        allocations; budget: within 2x the plain
//                        disabled-span cost in bench_obs_overhead)
//   summary_serialize    encode one piggyback blob; counters report the
//                        TLV tail size added to each update frame
//   summary_parse_tail   coordinator-side strip of the same blob
//   attribution_round    critical-path attribution cost per round at a
//                        32-client fleet: 32 observe_client joins + one
//                        on_round verdict (runs under Fleet's mutex in
//                        production, so this is the full added lock hold)
//   round_telemetry_off  a 10-round 4-client inproc FedAvg run with obs
//   round_telemetry_on   disabled vs the full plane (spans + piggyback +
//                        fleet registry) — end-to-end per-round overhead
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "config/yaml.hpp"
#include "core/engine.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"

// --- global allocation counter (same pattern as bench_obs_overhead) ------------

static std::atomic<std::uint64_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(a), n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using of::config::parse_yaml;
using of::core::Engine;
using of::obs::Name;
using of::obs::ScopedSpan;
using of::obs::TelemetrySummary;
using of::obs::TraceRecorder;

// --- micro: the per-send disabled path -----------------------------------------

void bench_disabled_span_ctx(benchmark::State& state) {
  TraceRecorder::global().reset(1 << 10);
  TraceRecorder::global().set_enabled(false);
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    ScopedSpan span(Name::Send, 1, 0, 42);
    auto ctx = of::obs::current_context();
    benchmark::DoNotOptimize(&span);
    benchmark::DoNotOptimize(ctx);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs"] = static_cast<double>(allocs);
}
BENCHMARK(bench_disabled_span_ctx);

// --- micro: piggyback blob encode/decode ---------------------------------------

TelemetrySummary sample_summary() {
  TelemetrySummary t;
  t.trace_id = 0x1234'5678'9ABCull;
  t.rank = 3;
  t.round = 17;
  t.clock_offset_ns = -250'000;
  t.rtt_ns = 120'000;
  t.bytes_sent = 1 << 20;
  t.bytes_received = 1 << 20;
  t.pool_hits = 100;
  t.pool_misses = 3;
  for (std::size_t i = 0; i < of::obs::kPhaseCount; ++i)
    t.phases[i] = {10, 5'000'000, 900'000};
  return t;
}

void bench_summary_serialize(benchmark::State& state) {
  const TelemetrySummary t = sample_summary();
  of::AlignedBytes frame;
  frame.reserve(4096);
  for (auto _ : state) {
    frame.clear();
    t.serialize_tlv_to(frame);
    benchmark::DoNotOptimize(frame.data());
  }
  state.counters["piggyback_bytes_per_round"] = static_cast<double>(frame.size());
}
BENCHMARK(bench_summary_serialize);

void bench_summary_parse_tail(benchmark::State& state) {
  of::AlignedBytes frame(4096, 0x5A);
  sample_summary().serialize_tlv_to(frame);
  for (auto _ : state) {
    auto t = TelemetrySummary::parse_tail(frame.data(), frame.size());
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(bench_summary_parse_tail);

// --- micro: critical-path attribution ------------------------------------------

void bench_attribution_round(benchmark::State& state) {
  of::obs::Attribution attr;
  constexpr int kClients = 32;
  of::obs::PhaseDigest phases[of::obs::kPhaseCount] = {};
  for (std::size_t i = 0; i < of::obs::kPhaseCount; ++i) {
    phases[i].count = 4;
    phases[i].total_ns = 1000000 * (i + 1);
    phases[i].max_ns = 400000 * (i + 1);
  }
  std::uint32_t round = 0;
  for (auto _ : state) {
    for (int c = 1; c <= kClients; ++c)
      attr.observe_client(static_cast<std::uint32_t>(c), round, phases,
                          0x1000u + static_cast<std::uint64_t>(c));
    const auto cp = attr.on_round(round, 0.25, 0.01);
    benchmark::DoNotOptimize(cp);
    ++round;
  }
  state.counters["clients"] = kClients;
}
BENCHMARK(bench_attribution_round);

// --- macro: full run, telemetry plane off vs on --------------------------------

of::config::ConfigNode run_config(bool telemetry_on) {
  auto cfg = parse_yaml(R"(
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
  global_rounds: 10
  local_epochs: 1
)");
  if (telemetry_on) {
    auto obs = of::config::ConfigNode::map();
    obs["enabled"] = of::config::ConfigNode::boolean(true);
    obs["telemetry"] = of::config::ConfigNode::boolean(true);
    obs["ring_capacity"] = of::config::ConfigNode::integer(1 << 16);
    // No export paths: measure the plane itself, not file I/O.
    cfg["obs"] = obs;
  }
  return cfg;
}

void bench_round_telemetry(benchmark::State& state, bool telemetry_on) {
  double rounds_s = 0.0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Engine engine(run_config(telemetry_on));
    const auto result = engine.run();
    rounds_s += result.mean_round_seconds;
    ++runs;
  }
  state.counters["mean_round_ms"] =
      runs > 0 ? rounds_s / static_cast<double>(runs) * 1e3 : 0.0;
}

void bench_round_telemetry_off(benchmark::State& state) {
  bench_round_telemetry(state, false);
}
void bench_round_telemetry_on(benchmark::State& state) {
  bench_round_telemetry(state, true);
}
BENCHMARK(bench_round_telemetry_off)->Unit(benchmark::kMillisecond);
BENCHMARK(bench_round_telemetry_on)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
