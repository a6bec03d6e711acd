// Distributed telemetry plane tests (DESIGN.md §9): clock-offset estimator
// goldens, telemetry blob round-trip, cross-thread/cross-node span linking,
// merged Chrome-trace export (offset correction + truncated-span synthesis),
// TCP ping/pong clock sync with injected skew, ping-vs-collective tag
// isolation, the HTTP scrape endpoint, and end-to-end Engine runs (TCP fleet
// trace, fault-round health, threads=1-vs-4 identity with telemetry on).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/inproc.hpp"
#include "comm/tcp.hpp"
#include "net_util.hpp"
#include "config/yaml.hpp"
#include "core/engine.hpp"
#include "exec/pool.hpp"
#include "obs/clocksync.hpp"
#include "obs/export.hpp"
#include "obs/scrape.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace {

using of::comm::InProcGroup;
using of::comm::TcpCommunicator;
using of::config::ConfigNode;
using of::config::parse_yaml;
using of::core::Engine;
using of::core::RunResult;
using of::obs::ClockSample;
using of::obs::Fleet;
using of::obs::Name;
using of::obs::OffsetEstimator;
using of::obs::ScopedSpan;
using of::obs::TelemetrySummary;
using of::obs::TraceEvent;
using of::obs::TraceRecorder;
using of::tensor::Bytes;

// Scoped tracing session: reset + enable on entry, disable on exit so no
// later test inherits an armed recorder.
struct TracingOn {
  TracingOn() {
    TraceRecorder::global().reset();
    TraceRecorder::global().set_enabled(true);
  }
  ~TracingOn() { TraceRecorder::global().set_enabled(false); }
};

// --- clock-offset estimator ----------------------------------------------------

TEST(ClockOffset, RecoversStaticSkewExactly) {
  // Client clock runs `offset` ahead of the server clock; a symmetric wire
  // makes the midpoint estimate exact. offset = (t0+t1)/2 − server.
  const std::int64_t offset = 7'000'000;  // 7 ms
  OffsetEstimator est;
  EXPECT_FALSE(est.valid());
  const std::int64_t t0 = 1'000'000'000;
  const std::int64_t rtt = 200'000;
  est.add(ClockSample{t0, t0 + rtt / 2 - offset, t0 + rtt});
  ASSERT_TRUE(est.valid());
  EXPECT_EQ(est.offset_ns(), offset);
  EXPECT_EQ(est.rtt_ns(), rtt);
}

TEST(ClockOffset, ExactIntegerMidpointForOddTimestamps) {
  // (t0 + t1) / 2 must not overflow-shift or round differently from the
  // true integer midpoint when t0 + t1 is odd.
  OffsetEstimator est;
  est.add(ClockSample{1, 0, 2});  // midpoint floor(1.5) = 1
  ASSERT_TRUE(est.valid());
  EXPECT_EQ(est.offset_ns(), 1);
}

TEST(ClockOffset, MinRttFilterBeatsQueueingJitter) {
  // Samples with queueing delay on one leg distort the midpoint; the
  // estimator must keep the minimum-RTT (least distorted) sample.
  const std::int64_t offset = -3'000'000;  // client 3 ms behind
  OffsetEstimator est;
  std::int64_t t0 = 5'000'000'000;
  for (int i = 0; i < 10; ++i) {
    const std::int64_t queue = (i == 4) ? 0 : 400'000 + 90'000 * i;  // one clean ping
    const std::int64_t rtt = 150'000 + queue;
    // All the queueing lands on the return leg: server stamp near t0.
    est.add(ClockSample{t0, t0 + 75'000 - offset, t0 + rtt});
    t0 += 1'000'000'000;
  }
  ASSERT_TRUE(est.valid());
  EXPECT_EQ(est.rtt_ns(), 150'000);
  EXPECT_NEAR(static_cast<double>(est.offset_ns()), static_cast<double>(offset), 1000.0);
}

TEST(ClockOffset, RejectsNegativeRtt) {
  OffsetEstimator est;
  est.add(ClockSample{100, 50, 90});  // t1 < t0: clock stepped mid-ping
  EXPECT_FALSE(est.valid());
}

// --- telemetry blob ------------------------------------------------------------

TelemetrySummary make_summary() {
  TelemetrySummary t;
  t.trace_id = 0xDEADBEEFCAFEull;
  t.rank = 3;
  t.round = 17;
  t.clock_offset_ns = -1'234'567;
  t.rtt_ns = 89'000;
  t.bytes_sent = 111;
  t.bytes_received = 222;
  t.pool_hits = 10;
  t.pool_misses = 2;
  t.reconnects = 1;
  t.frames_dropped = 4;
  t.faults_injected = 5;
  for (std::size_t i = 0; i < of::obs::kPhaseCount; ++i) {
    t.phases[i].count = i + 1;
    t.phases[i].total_ns = 1000 * (i + 1);
    t.phases[i].max_ns = 900 * (i + 1);
  }
  return t;
}

TEST(Telemetry, SummaryRoundTripsThroughFrameTail) {
  const TelemetrySummary t = make_summary();
  // The blob rides at the end of a payload frame, exactly like the wire.
  of::AlignedBytes frame(137, 0x5A);
  const std::size_t payload_len = frame.size();
  t.serialize_tlv_to(frame);
  std::size_t tail = 0;
  const auto got = TelemetrySummary::parse_tail(frame.data(), frame.size(), &tail);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(tail, frame.size() - payload_len);
  EXPECT_EQ(got->trace_id, t.trace_id);
  EXPECT_EQ(got->rank, t.rank);
  EXPECT_EQ(got->round, t.round);
  EXPECT_EQ(got->clock_offset_ns, t.clock_offset_ns);
  EXPECT_EQ(got->rtt_ns, t.rtt_ns);
  EXPECT_EQ(got->bytes_sent, t.bytes_sent);
  EXPECT_EQ(got->bytes_received, t.bytes_received);
  EXPECT_EQ(got->pool_hits, t.pool_hits);
  EXPECT_EQ(got->pool_misses, t.pool_misses);
  EXPECT_EQ(got->reconnects, t.reconnects);
  EXPECT_EQ(got->frames_dropped, t.frames_dropped);
  EXPECT_EQ(got->faults_injected, t.faults_injected);
  for (std::size_t i = 0; i < of::obs::kPhaseCount; ++i) {
    EXPECT_EQ(got->phases[i].count, t.phases[i].count);
    EXPECT_EQ(got->phases[i].total_ns, t.phases[i].total_ns);
    EXPECT_EQ(got->phases[i].max_ns, t.phases[i].max_ns);
  }
}

TEST(Telemetry, ParseTailRejectsShortOrCorruptBuffers) {
  of::AlignedBytes frame;
  make_summary().serialize_tlv_to(frame);
  EXPECT_FALSE(TelemetrySummary::parse_tail(frame.data(), frame.size() - 1).has_value());
  EXPECT_FALSE(TelemetrySummary::parse_tail(frame.data(), 11).has_value());
  frame[frame.size() - 1] ^= 0xFF;  // break the magic
  EXPECT_FALSE(TelemetrySummary::parse_tail(frame.data(), frame.size()).has_value());
}

TEST(Telemetry, FleetPrometheusViewAndEscaping) {
  Fleet::global().reset(0xABCDull);
  TelemetrySummary t = make_summary();
  t.rank = 2;
  t.round = 5;
  Fleet::global().record(t);
  const std::string prom = Fleet::global().prometheus_text();
  EXPECT_NE(prom.find("of_fleet_info{trace_id=\"0xabcd\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("of_fleet_nodes 1"), std::string::npos);
  EXPECT_NE(prom.find("of_fleet_round{node=\"2\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("of_fleet_pool_hit_rate{node=\"2\"}"), std::string::npos);
  EXPECT_NE(prom.find("of_fleet_phase_seconds_total{node=\"2\",phase=\"train\"}"),
            std::string::npos);
  EXPECT_EQ(prom.find(" nan"), std::string::npos);
  EXPECT_EQ(prom.find(" inf"), std::string::npos);

  // Conformance helpers: label escaping and the never-emit-NaN rule.
  EXPECT_EQ(of::obs::prom_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(of::obs::prom_double(std::nan("")), "0");
  EXPECT_EQ(of::obs::prom_double(0.25), "0.25");
}

TEST(Telemetry, FleetHealthPageFlagsStragglers) {
  Fleet::global().reset(0x1ull);
  TelemetrySummary fast = make_summary();
  fast.rank = 1;
  fast.round = 9;
  TelemetrySummary slow = make_summary();
  slow.rank = 2;
  slow.round = 6;
  Fleet::global().record(fast);
  Fleet::global().record(slow);
  Fleet::RoundHealth h;
  h.round = 9;
  h.participated = 1;
  h.expected = 2;
  h.dropped = {2};
  h.deadline_hit = true;
  Fleet::global().record_round(h);
  const std::string page = Fleet::global().health_text();
  EXPECT_NE(page.find("participated 1/2"), std::string::npos);
  EXPECT_NE(page.find("deadline_hit yes"), std::string::npos);
  EXPECT_NE(page.find("stragglers: 2"), std::string::npos);
}

// --- span parenting & cross-node context ---------------------------------------

TEST(TraceContext, NestedSpansRecordParentChain) {
  TracingOn tracing;
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    ScopedSpan outer(Name::Round, 0, 0);
    outer_id = outer.span_id();
    ASSERT_NE(outer_id, 0u);
    {
      ScopedSpan inner(Name::LocalTrain, 0, 0);
      inner_id = inner.span_id();
    }
  }
  TraceRecorder::global().set_enabled(false);
  const auto events = TraceRecorder::global().drain();
  const TraceEvent* outer_e = nullptr;
  const TraceEvent* inner_e = nullptr;
  for (const auto& e : events) {
    if (e.span_id == outer_id) outer_e = &e;
    if (e.span_id == inner_id) inner_e = &e;
  }
  ASSERT_NE(outer_e, nullptr);
  ASSERT_NE(inner_e, nullptr);
  EXPECT_EQ(outer_e->parent_span, 0u);
  EXPECT_EQ(inner_e->parent_span, outer_id);
}

TEST(TraceContext, InProcFrameCarriesSenderSpanToReceiver) {
  TracingOn tracing;
  InProcGroup group(2);
  std::uint64_t sender_span = 0;
  {
    ScopedSpan s(Name::Broadcast, 0, 4);
    sender_span = s.span_id();
    group.comm(0).send_bytes(1, 7, Bytes{1, 2, 3});
  }
  (void)group.comm(1).recv_bytes(0, 7);  // adopts the sender's context
  std::uint64_t round_span = 0;
  {
    ScopedSpan r(Name::Round, 1, 4);
    r.link_remote_parent();
    round_span = r.span_id();
  }
  TraceRecorder::global().set_enabled(false);
  const auto events = TraceRecorder::global().drain();
  const TraceEvent* round_e = nullptr;
  for (const auto& e : events)
    if (e.span_id == round_span) round_e = &e;
  ASSERT_NE(round_e, nullptr);
  EXPECT_EQ(round_e->parent_span, sender_span) << "cross-thread edge lost";
}

// --- merged Chrome trace -------------------------------------------------------

TEST(MergedTrace, AppliesOffsetsAndAssignsPidsPerNode) {
  std::vector<TraceEvent> events;
  TraceEvent server;
  server.ts_ns = 1000;
  server.dur_ns = 5000;
  server.span_id = 11;
  server.node = 0;
  server.round = 0;
  server.name = Name::Round;
  TraceEvent client;
  client.ts_ns = 2000;
  client.dur_ns = 1000;
  client.span_id = 21;
  client.parent_span = 11;
  client.node = 1;
  client.round = 0;
  client.name = Name::Round;
  TraceEvent shared;
  shared.ts_ns = 100;
  shared.dur_ns = 50;
  shared.node = -1;
  shared.name = Name::ExecJob;
  events = {server, client, shared};

  // Node 1's clock runs 500 ns ahead of the coordinator.
  const std::string json =
      of::obs::to_chrome_trace_merged(events, {{1, 500}});
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"args\":{\"name\":\"node 0\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"node 1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":9999"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"shared\"}"), std::string::npos);
  // Corrected timestamp: 2000 − 500 = 1500 ns → "1.500" µs, same pid as node.
  EXPECT_NE(json.find("\"ts\":1.500,\"dur\":1.000,\"pid\":1"), std::string::npos);
  // The cross-node parent edge survives the merge.
  EXPECT_NE(json.find("\"id\":21,\"parent\":11"), std::string::npos);
}

TEST(MergedTrace, NegativeCorrectedTimestampsAreWellFormed) {
  TraceEvent e;
  e.ts_ns = 100;
  e.dur_ns = 10;
  e.span_id = 1;
  e.node = 1;
  e.name = Name::Round;
  const std::string json = of::obs::to_chrome_trace_merged({e}, {{1, 500}});
  EXPECT_NE(json.find("\"ts\":-0.400"), std::string::npos);
}

TEST(MergedTrace, SynthesizesTruncatedRoundForDeadlineCutClient) {
  // A client cut mid-round leaves phase spans with no enclosing Round span;
  // the merge must synthesize a well-formed, truncated envelope.
  TraceEvent train;
  train.ts_ns = 1000;
  train.dur_ns = 400;
  train.span_id = 31;
  train.node = 2;
  train.round = 3;
  train.tid = 7;
  train.name = Name::LocalTrain;
  TraceEvent send;
  send.ts_ns = 1500;
  send.dur_ns = 200;
  send.span_id = 32;
  send.node = 2;
  send.round = 3;
  send.tid = 7;
  send.name = Name::Send;
  const std::string json = of::obs::to_chrome_trace_merged({train, send}, {});
  EXPECT_NE(json.find("{\"name\":\"round\",\"cat\":\"node\",\"ph\":\"X\",\"ts\":1.000,"
                      "\"dur\":0.700,\"pid\":2,\"tid\":7,\"args\":{\"node\":2,"
                      "\"round\":3,\"arg\":0,\"truncated\":1}}"),
            std::string::npos);
}

TEST(MergedTrace, DoesNotSynthesizeWhenRoundSpanClosed) {
  TraceEvent round;
  round.ts_ns = 900;
  round.dur_ns = 1000;
  round.span_id = 40;
  round.node = 2;
  round.round = 3;
  round.name = Name::Round;
  TraceEvent train;
  train.ts_ns = 1000;
  train.dur_ns = 400;
  train.span_id = 41;
  train.node = 2;
  train.round = 3;
  train.name = Name::LocalTrain;
  const std::string json = of::obs::to_chrome_trace_merged({round, train}, {});
  EXPECT_EQ(json.find("truncated"), std::string::npos);
}

// --- TCP clock sync ------------------------------------------------------------

TEST(TcpClockSync, PingPongRecoversInjectedSkew) {
  std::unique_ptr<TcpCommunicator> server;
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::thread srv([&] { server = TcpCommunicator::make_server(port, 2); });
  auto client = TcpCommunicator::make_client("127.0.0.1", port, 1, 2);
  srv.join();
  ASSERT_NE(server, nullptr);

  const std::int64_t skew = 5'000'000;  // server pretends to be 5 ms ahead
  server->set_pong_skew_for_test(skew);
  of::obs::OffsetEstimator est;
  for (int i = 0; i < 4; ++i) {
    const auto sample = client->ping_server(2.0);
    ASSERT_TRUE(sample.has_value()) << "ping " << i << " timed out";
    EXPECT_GT(sample->t1_ns, sample->t0_ns);
    est.add(*sample);
  }
  ASSERT_TRUE(est.valid());
  EXPECT_GT(est.rtt_ns(), 0);
  EXPECT_LT(est.rtt_ns(), 1'000'000'000);
  // Same process shares one steady clock, so the estimate must recover
  // −skew up to the loopback RTT.
  EXPECT_NEAR(static_cast<double>(est.offset_ns()), static_cast<double>(-skew), 2.0e6);
}

TEST(TcpClockSync, PingsInterleaveWithGatherUnderTinyTagWindow) {
  // Regression: re-pings ride control tags (−2/−3), so they must never
  // claim — or collide with — a collective tag slot, even when the window
  // is shrunk to 2 and wraps every other collective.
  std::unique_ptr<TcpCommunicator> server;
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::thread srv([&] { server = TcpCommunicator::make_server(port, 2); });
  auto client = TcpCommunicator::make_client("127.0.0.1", port, 1, 2);
  srv.join();
  ASSERT_NE(server, nullptr);
  server->set_collective_tag_window_for_test(2);
  client->set_collective_tag_window_for_test(2);

  std::thread server_side([&] {
    for (int r = 0; r < 8; ++r) {
      const auto frames = server->gather_bytes({}, 0);
      ASSERT_EQ(frames.size(), 2u);
      ASSERT_EQ(frames[1].size(), 2u);
      EXPECT_EQ(frames[1][0], static_cast<std::uint8_t>(r));
      EXPECT_EQ(frames[1][1], 0xAB);
    }
  });
  for (int r = 0; r < 8; ++r) {
    const auto sample = client->ping_server(2.0);
    EXPECT_TRUE(sample.has_value()) << "ping before round " << r << " lost";
    (void)client->gather_bytes(Bytes{static_cast<std::uint8_t>(r), 0xAB}, 0);
  }
  server_side.join();
}

// --- HTTP scrape endpoint ------------------------------------------------------

int connect_loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = inet_addr("127.0.0.1");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = connect_loopback(port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Connection: close terminates the response
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(Scrape, RoutesRenderMetricsFleetAnd404) {
  const auto metrics = of::obs::handle_scrape("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("of_fleet_nodes"), std::string::npos);
  const auto fleet = of::obs::handle_scrape("/fleet");
  EXPECT_EQ(fleet.status, 200);
  EXPECT_NE(fleet.body.find("fleet health"), std::string::npos);
  EXPECT_EQ(of::obs::handle_scrape("/").status, 200);
  EXPECT_EQ(of::obs::handle_scrape("/bogus").status, 404);
  const std::string wire = of::obs::render_http(metrics);
  EXPECT_EQ(wire.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
}

TEST(Scrape, TcpListenerServesPrometheusTextOverRawGet) {
  // Seed the fleet so the scrape carries per-node round metrics.
  Fleet::global().reset(0x77ull);
  TelemetrySummary t = make_summary();
  t.rank = 2;
  t.round = 5;
  Fleet::global().record(t);

  std::unique_ptr<TcpCommunicator> server;
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::thread srv([&] { server = TcpCommunicator::make_server(port, 2); });
  auto client = TcpCommunicator::make_client("127.0.0.1", port, 1, 2);
  srv.join();
  ASSERT_NE(server, nullptr);

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("of_fleet_round{node=\"2\"} 5"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE of_fleet_nodes gauge"), std::string::npos);

  const std::string fleet = http_get(port, "/fleet");
  EXPECT_EQ(fleet.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(fleet.find("node 2:"), std::string::npos);

  const std::string missing = http_get(port, "/bogus");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);

  // The data plane still works after scrape connections came and went.
  std::thread server_side([&] {
    const auto frames = server->gather_bytes({}, 0);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[1], (Bytes{9, 9}));
  });
  (void)client->gather_bytes(Bytes{9, 9}, 0);
  server_side.join();
}

TEST(Scrape, FleetJsonOverRawGetMatchesPrometheusGaugeNames) {
  // Seed one node row and one combiner row so both generated JSON surfaces
  // are populated.
  Fleet::global().reset(0x99ull);
  TelemetrySummary t = make_summary();
  t.rank = 1;
  t.round = 3;
  Fleet::global().record(t);
  Fleet::CombinerHealth ch;
  ch.group = 0;
  ch.round = 3;
  ch.participated = 2;
  ch.expected = 3;
  ch.dropped = 1;
  ch.agg_peak_bytes = 4096;
  Fleet::global().record_combiner(ch);

  std::unique_ptr<TcpCommunicator> server;
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::thread srv([&] { server = TcpCommunicator::make_server(port, 2); });
  auto client = TcpCommunicator::make_client("127.0.0.1", port, 1, 2);
  srv.join();
  ASSERT_NE(server, nullptr);

  const std::string resp = http_get(port, "/fleet.json");
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Type: application/json"), std::string::npos);
  const auto split = resp.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  std::string body = resp.substr(split + 4);
  while (!body.empty() && (body.back() == '\n' || body.back() == '\r')) body.pop_back();
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back(), '}');
  EXPECT_EQ(std::count(body.begin(), body.end(), '{'),
            std::count(body.begin(), body.end(), '}'));

  const std::string prom = http_get(port, "/metrics");

  // Name-for-name: every exported per-node descriptor field appears as an
  // of_fleet_<name> family in the Prometheus scrape AND as a "<name>" key in
  // /fleet.json; same for the per-combiner descriptor. Both surfaces render
  // from the same field lists, so a mismatch means hand-edited drift.
  of::refl::for_each_field<TelemetrySummary>([&](const auto& f) {
    if (f.exported == of::refl::Export::Skip) return;
    const std::string name = f.export_name();
    EXPECT_NE(body.find("\"" + name + "\":"), std::string::npos)
        << name << " missing from /fleet.json body";
    if (f.exported != of::refl::Export::Label)
      EXPECT_NE(prom.find("of_fleet_" + name), std::string::npos)
          << name << " missing from /metrics";
  });
  of::refl::for_each_field<Fleet::CombinerHealth>([&](const auto& f) {
    if (f.exported == of::refl::Export::Skip) return;
    const std::string name = f.export_name();
    EXPECT_NE(body.find("\"" + name + "\":"), std::string::npos)
        << name << " missing from /fleet.json combiners";
    if (f.exported != of::refl::Export::Label)
      EXPECT_NE(prom.find("of_fleet_combiner_" + name), std::string::npos)
          << name << " missing from /metrics combiner families";
  });

  // Spot-check values rode through, including the descriptor-only new field.
  EXPECT_NE(body.find("\"node\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"agg_peak_bytes\":4096"), std::string::npos) << body;

  const std::string csv = http_get(port, "/fleet.csv");
  EXPECT_NE(csv.find("Content-Type: text/csv"), std::string::npos);
  EXPECT_NE(csv.find("peak_rss_kb"), std::string::npos);
}

// --- end-to-end Engine runs ----------------------------------------------------

ConfigNode dist_config(int clients, int rounds) {
  ConfigNode cfg = parse_yaml(R"(
seed: 7
topology:
  _target_: src.omnifed.topology.CentralizedTopology
  inner_comm:
    _target_: src.omnifed.communicator.TorchDistCommunicator
model: mlp_tiny
datamodule:
  preset: toy
  partition: iid
  batch_size: 16
algorithm:
  _target_: src.omnifed.algorithm.FedAvg
  local_epochs: 1
  lr: 0.05
  momentum: 0.9
  weight_decay: 1.0e-4
eval_every: 1
obs:
  enabled: true
  telemetry: true
  clock_sync_rounds: 2
)");
  cfg.set_path("topology.num_clients", ConfigNode::integer(clients));
  cfg.set_path("algorithm.global_rounds", ConfigNode::integer(rounds));
  return cfg;
}

TEST(EngineDist, TcpFleetRunWritesMergedOffsetCorrectedTrace) {
  const std::string trace_path = ::testing::TempDir() + "of_dist_trace.json";
  ConfigNode cfg = dist_config(3, 3);
  cfg.set_path("topology.inner_comm._target_",
               ConfigNode::string("src.omnifed.communicator.GrpcCommunicator"));
  cfg.set_path("topology.inner_comm.port", ConfigNode::integer(of::testutil::ephemeral_port()));
  cfg.set_path("obs.trace_path", ConfigNode::string(trace_path));
  cfg.set_path("obs.split_trace_per_node", ConfigNode::boolean(true));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 3u);

  // Every client reported its last round and a valid clock offset estimate.
  const auto latest = Fleet::global().latest();
  ASSERT_EQ(latest.size(), 3u);
  for (const auto& t : latest) {
    EXPECT_EQ(t.round, 2u);
    EXPECT_GT(t.rtt_ns, 0) << "rank " << t.rank << " never completed a ping";
    EXPECT_GT(t.bytes_sent, 0u);
    EXPECT_GT(t.phases[0].count, 0u) << "train digest missing";
  }
  EXPECT_EQ(Fleet::global().clock_offsets().size(), 3u);

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  // Merged view: one Chrome pid per node, with metadata names.
  for (int node = 0; node < 4; ++node) {
    std::ostringstream meta;
    meta << "\"args\":{\"name\":\"node " << node << "\"}";
    EXPECT_NE(json.find(meta.str()), std::string::npos) << "node " << node;
  }
  // Causal nesting: some client round span carries a cross-node parent edge.
  bool client_round_with_parent = false;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"name\":\"round\"") == std::string::npos) continue;
    if (line.find("\"node\":0") != std::string::npos) continue;
    if (line.find("\"parent\":") != std::string::npos) client_round_with_parent = true;
  }
  EXPECT_TRUE(client_round_with_parent)
      << "no client Round span is linked to a server span";

  // Per-node split files (--trace default naming for multi-node runs).
  for (int node = 0; node < 4; ++node) {
    std::ostringstream per_node;
    per_node << trace_path << ".rank" << node << ".json";
    std::ifstream pin(per_node.str());
    EXPECT_TRUE(pin.good()) << per_node.str() << " missing";
    std::remove(per_node.str().c_str());
  }
  std::remove(trace_path.c_str());
  std::remove((trace_path + ".shared.json").c_str());
}

TEST(EngineDist, FaultRunRecordsDeadlineHealthInFleet) {
  ConfigNode cfg = dist_config(3, 2);
  cfg.set_path("fault", parse_yaml(R"(
enabled: true
min_clients: 1
round_deadline_seconds: 0.3
quorum_timeout_seconds: 10.0
injections:
  - kind: delay
    client: 2
    round: 1
    delay_seconds: 1.0
)"));
  Engine engine(cfg);
  const RunResult r = engine.run();
  ASSERT_EQ(r.rounds.size(), 2u);
  EXPECT_TRUE(r.rounds[1].deadline_hit);
  EXPECT_LT(r.rounds[1].participated, 3u);

  const std::string page = Fleet::global().health_text();
  EXPECT_NE(page.find("deadline_hit yes"), std::string::npos);
  EXPECT_NE(page.find("participated 2/3"), std::string::npos);
}

TEST(EngineDist, ThreadsIdenticalWithTelemetryEnabled) {
  // The telemetry plane must never feed back into training state: the run
  // stays bitwise identical across thread counts with everything on.
  const auto run_with_threads = [](std::int64_t threads) {
    ConfigNode cfg = dist_config(4, 3);
    cfg.set_path("exec.threads", ConfigNode::integer(threads));
    Engine engine(std::move(cfg));
    return engine.run();
  };
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  of::exec::Pool::global().configure(1);  // leave later tests serial

  ASSERT_FALSE(serial.final_model_bytes.empty());
  ASSERT_EQ(serial.final_model_bytes.size(), parallel.final_model_bytes.size());
  EXPECT_TRUE(serial.final_model_bytes == parallel.final_model_bytes)
      << "telemetry perturbed training state";
  EXPECT_EQ(serial.to_metrics_csv(), parallel.to_metrics_csv());
}

}  // namespace
