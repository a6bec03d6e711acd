// of::refl tests (DESIGN.md §13): field-descriptor iteration, generated
// config parsing (defaults / required / ranges / unknown keys / strict
// opt-out), to_node round-trips, TLV wire round-trips with byte goldens,
// mixed-version forward/backward compatibility in both directions (old
// reader skips new fields; new reader defaults missing ones), the
// TelemetrySummary v2 tail + v1 fallback, combiner partial-header framing,
// JSON rendering, and the engine-level strict-config gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "config/yaml.hpp"
#include "core/config_check.hpp"
#include "core/engine.hpp"
#include "core/frame_pool.hpp"
#include "core/payload.hpp"
#include "obs/telemetry.hpp"
#include "refl/config_io.hpp"
#include "refl/json.hpp"
#include "refl/refl.hpp"
#include "refl/tlv.hpp"

namespace refltest {

enum class Color { Red, Green, Blue };

struct Inner {
  int depth = 1;
  std::string label = "leaf";
};

// The "current" schema...
struct V2 {
  bool flag = false;
  std::uint32_t count = 0;
  std::int64_t offset = 0;
  double ratio = 1.0;
  std::string name = "v2";
  Color color = Color::Red;
  std::vector<std::uint32_t> parts;
  Inner inner;
};

// ...and tomorrow's: one extra field with a fresh tag. Everything else
// matches V2 tag-for-tag.
struct V3 {
  bool flag = false;
  std::uint32_t count = 0;
  std::int64_t offset = 0;
  double ratio = 1.0;
  std::string name = "v2";
  Color color = Color::Red;
  std::vector<std::uint32_t> parts;
  Inner inner;
  std::uint64_t extra = 0;
};

}  // namespace refltest

template <>
struct of::refl::EnumNames<refltest::Color> {
  static constexpr std::pair<refltest::Color, const char*> names[] = {
      {refltest::Color::Red, "red"},
      {refltest::Color::Green, "green"},
      {refltest::Color::Blue, "blue"},
  };
};

template <>
struct of::refl::Reflect<refltest::Inner> {
  OF_REFL_FIELDS(field("depth", &refltest::Inner::depth, 1).ge(0),
                 field("label", &refltest::Inner::label, 2))
};

template <>
struct of::refl::Reflect<refltest::V2> {
  OF_REFL_FIELDS(field("flag", &refltest::V2::flag, 1),
                 field("count", &refltest::V2::count, 2).req().ge(0).le(1000),
                 field("offset", &refltest::V2::offset, 3),
                 field("ratio", &refltest::V2::ratio, 4).gt(0).lt(10),
                 field("name", &refltest::V2::name, 5).label(),
                 field("color", &refltest::V2::color, 6),
                 field("parts", &refltest::V2::parts, 7),
                 field("inner", &refltest::V2::inner, 8))
};

template <>
struct of::refl::Reflect<refltest::V3> {
  OF_REFL_FIELDS(field("flag", &refltest::V3::flag, 1),
                 field("count", &refltest::V3::count, 2),
                 field("offset", &refltest::V3::offset, 3),
                 field("ratio", &refltest::V3::ratio, 4),
                 field("name", &refltest::V3::name, 5).label(),
                 field("color", &refltest::V3::color, 6),
                 field("parts", &refltest::V3::parts, 7),
                 field("inner", &refltest::V3::inner, 8),
                 field("extra", &refltest::V3::extra, 9))
};

namespace {

using namespace refltest;
using of::config::ConfigNode;
using of::config::parse_yaml;
using of::obs::TelemetrySummary;

V2 sample_v2() {
  V2 v;
  v.flag = true;
  v.count = 42;
  v.offset = -7;
  v.ratio = 2.5;
  v.name = "alpha";
  v.color = Color::Blue;
  v.parts = {3, 1, 4, 1, 5};
  v.inner.depth = 9;
  v.inner.label = "nested";
  return v;
}

// --- descriptor core -----------------------------------------------------------

TEST(ReflCore, FieldCountNamesAndTags) {
  EXPECT_EQ(of::refl::field_count<V2>(), 8u);
  const auto names = of::refl::field_names<V2>();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "flag");
  EXPECT_EQ(names.back(), "inner");

  // Tags must be unique within a descriptor — they are the wire identity.
  std::vector<int> tags;
  of::refl::for_each_field<V2>([&](const auto& f) { tags.push_back(f.tag); });
  std::sort(tags.begin(), tags.end());
  EXPECT_TRUE(std::adjacent_find(tags.begin(), tags.end()) == tags.end());
}

TEST(ReflCore, EnumNamesRoundTrip) {
  EXPECT_STREQ(of::refl::enum_to_string(Color::Green), "green");
  Color c = Color::Red;
  EXPECT_TRUE(of::refl::enum_from_string("blue", c));
  EXPECT_EQ(c, Color::Blue);
  EXPECT_FALSE(of::refl::enum_from_string("mauve", c));
  EXPECT_EQ(of::refl::enum_choices<Color>(), "red|green|blue");
}

// --- config Reader / Writer ----------------------------------------------------

TEST(ReflConfig, ParsesAllFieldKindsWithDefaults) {
  const auto v = of::refl::from_node<V2>(parse_yaml(R"(
flag: true
count: 42
ratio: 2.5
color: blue
parts: [3, 1, 4]
inner: {depth: 9, label: nested}
)"),
                                         "t");
  EXPECT_TRUE(v.flag);
  EXPECT_EQ(v.count, 42u);
  EXPECT_EQ(v.offset, 0);  // absent key keeps the member default
  EXPECT_DOUBLE_EQ(v.ratio, 2.5);
  EXPECT_EQ(v.name, "v2");
  EXPECT_EQ(v.color, Color::Blue);
  EXPECT_EQ(v.parts, (std::vector<std::uint32_t>{3, 1, 4}));
  EXPECT_EQ(v.inner.depth, 9);
  EXPECT_EQ(v.inner.label, "nested");
}

TEST(ReflConfig, RequiredRangeAndUnknownKeyErrorsCarryPaths) {
  try {
    of::refl::from_node<V2>(parse_yaml("flag: true\n"), "t");
    FAIL() << "missing required key not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("t.count"), std::string::npos) << e.what();
  }
  try {
    of::refl::from_node<V2>(parse_yaml("count: 2000\n"), "t");
    FAIL() << "range violation not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("t.count"), std::string::npos) << e.what();
  }
  try {
    of::refl::from_node<V2>(parse_yaml("count: 1\ninner: {depht: 3}\n"), "t");
    FAIL() << "nested typo not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("t.inner.depht"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(of::refl::from_node<V2>(parse_yaml("count: 1\nratio: 0\n"), "t"),
               std::runtime_error);  // gt(0) is exclusive
  EXPECT_THROW(of::refl::from_node<V2>(parse_yaml("count: 1\ncolor: mauve\n"), "t"),
               std::runtime_error);
}

TEST(ReflConfig, StrictFalseAndExtraKeysAllowUnknowns) {
  const ConfigNode n = parse_yaml("count: 1\nbogus: 1\n");
  EXPECT_THROW(of::refl::from_node<V2>(n, "t"), std::runtime_error);
  EXPECT_NO_THROW(of::refl::from_node<V2>(n, "t", {}, /*strict=*/false));
  EXPECT_NO_THROW(of::refl::from_node<V2>(n, "t", {"bogus"}));
}

TEST(ReflConfig, ToNodeRoundTripsAndMaterializesDefaults) {
  const V2 v = sample_v2();
  const ConfigNode n = of::refl::to_node(v);
  EXPECT_EQ(n.at("color").as_string(), "blue");
  EXPECT_EQ(n.at("offset").as_int(), -7);
  const V2 back = of::refl::from_node<V2>(n, "t");
  EXPECT_EQ(back.count, v.count);
  EXPECT_EQ(back.parts, v.parts);
  EXPECT_EQ(back.inner.label, v.inner.label);

  // Defaults appear explicitly — the --dump-config contract.
  const ConfigNode d = of::refl::to_node(V2{});
  EXPECT_TRUE(d.has("ratio"));
  EXPECT_TRUE(d.has("inner"));
  // And the dump re-parses through the YAML round-trip format.
  const V2 again = of::refl::from_node<V2>(parse_yaml(n.dump()), "t");
  EXPECT_EQ(again.inner.depth, v.inner.depth);
  EXPECT_DOUBLE_EQ(again.ratio, v.ratio);
}

// --- TLV wire ------------------------------------------------------------------

TEST(ReflTlv, RoundTripsEveryFieldKind) {
  const V2 v = sample_v2();
  of::refl::tlv::Bytes buf;
  of::refl::tlv::encode(v, buf);
  V2 got;
  ASSERT_TRUE(of::refl::tlv::decode(got, buf.data(), buf.size()));
  EXPECT_EQ(got.flag, v.flag);
  EXPECT_EQ(got.count, v.count);
  EXPECT_EQ(got.offset, v.offset);
  EXPECT_DOUBLE_EQ(got.ratio, v.ratio);
  EXPECT_EQ(got.name, v.name);
  EXPECT_EQ(got.color, v.color);
  EXPECT_EQ(got.parts, v.parts);
  EXPECT_EQ(got.inner.depth, v.inner.depth);
  EXPECT_EQ(got.inner.label, v.inner.label);
}

TEST(ReflTlv, ByteGoldenIsStable) {
  // The encoding is wire ABI: tag | u32 len | little-endian payload. If this
  // golden changes, every deployed decoder must still accept the old bytes.
  Inner i;
  i.depth = 2;
  i.label = "ab";
  of::refl::tlv::Bytes buf;
  of::refl::tlv::encode(i, buf);
  const std::uint8_t golden[] = {
      0x01, 0x00, 0x08, 0x00, 0x00, 0x00,              // tag 1, len 8
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // depth = 2
      0x02, 0x00, 0x02, 0x00, 0x00, 0x00,              // tag 2, len 2
      'a',  'b',
  };
  ASSERT_EQ(buf.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(buf.data(), golden, sizeof(golden)), 0);
}

TEST(ReflTlv, OldReaderSkipsNewFieldsNewReaderDefaultsMissing) {
  // v3 → v2: the extra field is an unknown tag; the old reader skips it.
  V3 v3;
  v3.count = 7;
  v3.name = "mixed";
  v3.extra = 0xFEEDFACE;
  of::refl::tlv::Bytes from_v3;
  of::refl::tlv::encode(v3, from_v3);
  V2 old_reader;
  ASSERT_TRUE(of::refl::tlv::decode(old_reader, from_v3.data(), from_v3.size()));
  EXPECT_EQ(old_reader.count, 7u);
  EXPECT_EQ(old_reader.name, "mixed");

  // v2 → v3: the missing field keeps its default.
  of::refl::tlv::Bytes from_v2;
  of::refl::tlv::encode(sample_v2(), from_v2);
  V3 new_reader;
  new_reader.extra = 123;
  ASSERT_TRUE(of::refl::tlv::decode(new_reader, from_v2.data(), from_v2.size()));
  EXPECT_EQ(new_reader.count, 42u);
  EXPECT_EQ(new_reader.extra, 123u);  // untouched
}

TEST(ReflTlv, MixedVersionPropertyBothDirections) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int iter = 0; iter < 200; ++iter) {
    V3 v3;
    v3.flag = rng() & 1;
    v3.count = static_cast<std::uint32_t>(rng() % 1000);
    v3.offset = static_cast<std::int64_t>(rng()) >> 3;
    v3.ratio = 0.25 + static_cast<double>(rng() % 1024);
    v3.name = std::string(rng() % 16, 'x');
    v3.color = static_cast<Color>(rng() % 3);
    const std::size_t np = rng() % 8;
    for (std::size_t i = 0; i < np; ++i)
      v3.parts.push_back(static_cast<std::uint32_t>(rng()));
    v3.inner.depth = static_cast<int>(rng() % 100);
    v3.extra = rng();

    of::refl::tlv::Bytes wire;
    of::refl::tlv::encode(v3, wire);

    V2 old_reader;
    ASSERT_TRUE(of::refl::tlv::decode(old_reader, wire.data(), wire.size()));
    EXPECT_EQ(old_reader.count, v3.count);
    EXPECT_EQ(old_reader.offset, v3.offset);
    EXPECT_EQ(old_reader.parts, v3.parts);
    EXPECT_EQ(old_reader.inner.depth, v3.inner.depth);

    // Re-encode through the old schema and read with the new: survivors
    // match, the dropped field falls back to default.
    of::refl::tlv::Bytes rewire;
    of::refl::tlv::encode(old_reader, rewire);
    V3 back;
    ASSERT_TRUE(of::refl::tlv::decode(back, rewire.data(), rewire.size()));
    EXPECT_EQ(back.count, v3.count);
    EXPECT_EQ(back.name, v3.name);
    EXPECT_EQ(back.extra, 0u);
  }
}

TEST(ReflTlv, RejectsTruncatedAndMalformedStreams) {
  of::refl::tlv::Bytes buf;
  of::refl::tlv::encode(sample_v2(), buf);
  for (std::size_t cut = 1; cut <= 5 && cut < buf.size(); ++cut) {
    V2 got;
    EXPECT_FALSE(of::refl::tlv::decode(got, buf.data(), buf.size() - cut))
        << "cut=" << cut;
  }
  // A fixed-width scalar record with the wrong length is malformed, not
  // silently coerced.
  of::refl::tlv::Bytes bad;
  of::refl::tlv::put_u16(bad, 2);  // count: expects 8 payload bytes
  of::refl::tlv::put_u32(bad, 3);
  bad.insert(bad.end(), {1, 2, 3});
  V2 got;
  EXPECT_FALSE(of::refl::tlv::decode(got, bad.data(), bad.size()));
}

// --- JSON Writer ---------------------------------------------------------------

TEST(ReflJson, RendersExportedFieldsByExportName) {
  const std::string js = of::refl::json::to_json(sample_v2());
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  EXPECT_NE(js.find("\"count\":42"), std::string::npos) << js;
  EXPECT_NE(js.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(js.find("\"color\":\"blue\""), std::string::npos);
  EXPECT_NE(js.find("\"parts\":[3,1,4,1,5]"), std::string::npos);
  EXPECT_NE(js.find("\"inner\":{\"depth\":9"), std::string::npos);
}

// --- TelemetrySummary v2 tail --------------------------------------------------

TelemetrySummary sample_summary() {
  TelemetrySummary t;
  t.trace_id = 0xABCDEF01ull;
  t.rank = 4;
  t.round = 12;
  t.clock_offset_ns = -500;
  t.rtt_ns = 80'000;
  t.bytes_sent = 1024;
  t.bytes_received = 2048;
  t.pool_hits = 6;
  t.pool_misses = 1;
  t.peak_rss_kb = 123'456;
  return t;
}

TEST(ReflTelemetry, TlvTailRoundTripsIncludingNewField) {
  const TelemetrySummary t = sample_summary();
  of::AlignedBytes frame(57, 0x11);  // fake payload ahead of the tail
  const std::size_t payload = frame.size();
  t.serialize_tlv_to(frame);
  std::size_t tail = 0;
  const auto got = TelemetrySummary::parse_tail(frame.data(), frame.size(), &tail);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(tail, frame.size() - payload);
  EXPECT_EQ(got->rank, t.rank);
  EXPECT_EQ(got->round, t.round);
  EXPECT_EQ(got->clock_offset_ns, t.clock_offset_ns);
  // peak_rss_kb is the field added to prove the one-edit-per-new-field
  // contract.
  EXPECT_EQ(got->peak_rss_kb, 123'456u);
}

TEST(ReflTelemetry, FutureFieldInTailIsSkippedByCurrentReader) {
  // Build a v2 tail by hand with an extra record a future sender might add:
  // current readers must skip it and still parse everything else.
  const TelemetrySummary t = sample_summary();
  of::AlignedBytes payload;
  of::refl::tlv::encode(t, payload);
  of::refl::tlv::put_u16(payload, 0x7F00);  // unknown future tag
  of::refl::tlv::put_u32(payload, 8);
  of::refl::tlv::put_u64(payload, 0xDEAD'BEEFull);

  of::AlignedBytes frame(9, 0x22);
  const std::size_t body = frame.size();
  frame.insert(frame.end(), payload.begin(), payload.end());
  of::refl::tlv::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  of::refl::tlv::put_u16(frame, 2);      // version
  of::refl::tlv::put_u16(frame, 0);      // reserved
  of::refl::tlv::put_u32(frame, 0x3254464Fu);  // "OFT2"

  std::size_t tail = 0;
  const auto got = TelemetrySummary::parse_tail(frame.data(), frame.size(), &tail);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(tail, frame.size() - body);
  EXPECT_EQ(got->round, t.round);
  EXPECT_EQ(got->peak_rss_kb, t.peak_rss_kb);
}

// --- combiner partial header ---------------------------------------------------

TEST(ReflPartial, V2HeaderRoundTrips) {
  using of::core::FramePool;
  using of::core::StreamingSum;
  using of::tensor::Tensor;

  Tensor t({4});
  for (std::size_t i = 0; i < 4; ++i) t[i] = static_cast<float>(i + 1);
  const std::vector<Tensor> update = {t};

  FramePool pool;
  StreamingSum sum(pool);
  sum.add(of::core::encode_update(update, 1.0, {}, 0, 1));
  sum.add(of::core::encode_update(update, 1.0, {}, 0, 1));
  of::tensor::Bytes partial;
  sum.encode_partial_into(1.0, nullptr, partial);

  // v2 framing: "OFP2" magic, then u32 header_len of TLV header bytes.
  ASSERT_GE(partial.size(), 8u);
  EXPECT_EQ(partial[0], 'O');
  EXPECT_EQ(partial[1], 'F');
  EXPECT_EQ(partial[2], 'P');
  EXPECT_EQ(partial[3], '2');

  StreamingSum downstream(pool);
  downstream.add_partial(partial);
  EXPECT_EQ(downstream.count(), 2u);
  const auto mean = downstream.finish_mean();
  ASSERT_EQ(mean.size(), 1u);
  EXPECT_FLOAT_EQ(mean[0][0], 1.0f);

}

// --- engine strict-config gate -------------------------------------------------

ConfigNode tiny_config() {
  return parse_yaml(R"(
seed: 3
topology:
  _target_: src.omnifed.topology.CentralizedTopology
  num_clients: 2
algorithm:
  _target_: src.omnifed.algorithm.FedAvg
  global_rounds: 1
)");
}

TEST(StrictConfig, TypoedKeysAreRejectedWithPath) {
  ConfigNode cfg = tiny_config();
  cfg.set_path("obs.ring_capcity", ConfigNode::integer(64));  // typo
  try {
    of::core::Engine engine(cfg);
    FAIL() << "typo not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("obs.ring_capcity"), std::string::npos)
        << e.what();
  }

  ConfigNode top = tiny_config();
  top["evaluation_every"] = ConfigNode::integer(1);  // top-level typo
  EXPECT_THROW(of::core::Engine{top}, std::runtime_error);
}

TEST(StrictConfig, OptOutAllowsUnknownKeys) {
  ConfigNode cfg = tiny_config();
  cfg.set_path("obs.ring_capcity", ConfigNode::integer(64));
  cfg.set_path("config.strict", ConfigNode::boolean(false));
  EXPECT_FALSE(of::core::config_strict(cfg));
  EXPECT_NO_THROW(of::core::Engine{cfg});
}

TEST(StrictConfig, EffectiveConfigMaterializesReflectedDefaults) {
  const ConfigNode eff = of::core::effective_config(tiny_config());
  EXPECT_TRUE(eff.at("exec").has("threads"));
  EXPECT_TRUE(eff.at("obs").has("clock_sync_rounds"));
  EXPECT_EQ(eff.at("obs").at("clock_sync_rounds").as_int(), 8);
  EXPECT_TRUE(eff.at("fault").has("reconnect"));
  EXPECT_TRUE(eff.at("fault").at("reconnect").has("max_attempts"));
  // User-set values survive the merge.
  EXPECT_EQ(eff.at("seed").as_int(), 3);
  // And the dump is YAML that re-parses.
  const ConfigNode re = parse_yaml(of::core::dump_effective_config(tiny_config()));
  EXPECT_EQ(re.at("obs").at("clock_sync_rounds").as_int(), 8);
}

TEST(StrictConfig, RetiredTelemetryWireKeyIsRejected) {
  // The TLV tail is the only telemetry layout, so there is nothing to select.
  ConfigNode cfg = tiny_config();
  cfg.set_path("obs.telemetry_wire", ConfigNode::integer(1));
  try {
    of::core::Engine engine(cfg);
    FAIL() << "obs.telemetry_wire was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("obs.telemetry_wire"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos) << e.what();
  }
}

// --- one descriptor, all surfaces ----------------------------------------------

TEST(ReflSurfaces, TelemetryFieldAppearsOnWireJsonPrometheusAndCsv) {
  using of::obs::Fleet;
  Fleet::global().reset(0x5eedull);
  Fleet::global().record(sample_summary());
  const std::string prom = Fleet::global().prometheus_text();
  const std::string json = Fleet::global().json_text();
  const std::string csv = Fleet::global().csv_text();

  // Every exported descriptor field shows up name-for-name on all three
  // rendered surfaces (this is the acceptance check for peak_rss_kb: it was
  // added to the descriptor once and nowhere else).
  of::refl::for_each_field<TelemetrySummary>([&](const auto& f) {
    if (f.exported == of::refl::Export::Skip) return;
    const std::string name = f.export_name();
    EXPECT_NE(json.find("\"" + name + "\":"), std::string::npos)
        << name << " missing from /fleet.json";
    if (f.exported == of::refl::Export::Label) return;
    EXPECT_NE(prom.find("of_fleet_" + name), std::string::npos)
        << name << " missing from Prometheus text";
    EXPECT_NE(csv.find(name), std::string::npos) << name << " missing from CSV";
  });
  EXPECT_NE(prom.find("of_fleet_peak_rss_kb{node=\"4\"} 123456"), std::string::npos)
      << prom;
  EXPECT_NE(json.find("\"peak_rss_kb\":123456"), std::string::npos) << json;
}

TEST(ReflSurfaces, RoundRecordCsvColumnsComeFromDescriptor) {
  of::core::RunResult r;
  of::core::RoundRecord rec;
  rec.round = 1;
  rec.train_loss = 0.5;
  rec.dropped_ranks = {7, 8};
  rec.deadline_hit = true;
  r.rounds.push_back(rec);
  const std::string csv = r.to_csv();
  EXPECT_EQ(csv.rfind("round,seconds,train_loss,accuracy,bytes_up,bytes_down,"
                      "mean_staleness,participated,dropped,deadline_hit,reconnects,"
                      "train_s,encode_s,send_s,recv_s,decode_s,aggregate_s,"
                      "broadcast_s,pool_hit_rate\n",
                      0),
            0u);
  EXPECT_NE(csv.find(",2,1,"), std::string::npos);  // dropped size, deadline 1
  const std::string det = r.to_metrics_csv();
  EXPECT_EQ(det.rfind("round,train_loss,accuracy,bytes_up,bytes_down,participated,"
                      "dropped\n",
                      0),
            0u);
}

}  // namespace
