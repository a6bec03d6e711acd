// Combiner-tier tests (DESIGN.md §10): the streaming partial-sum path that
// lets a hierarchical tree aggregate 10k clients with O(model × combiners)
// coordinator state. Covers the StreamingSum algebra against the reference
// collect-then-mean path, partial-frame composition across tiers, a real
// 2-level TCP tree with deadline-cut stragglers, and the fleet health rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "comm/star.hpp"
#include "comm/tcp.hpp"
#include "config/yaml.hpp"
#include "net_util.hpp"
#include "core/engine.hpp"
#include "core/frame_pool.hpp"
#include "core/payload.hpp"
#include "obs/telemetry.hpp"

namespace {

using of::comm::Communicator;
using of::comm::TcpCommunicator;
using of::core::FramePool;
using of::core::StreamingSum;
using of::core::encode_update;
using of::core::mean_updates;
using of::tensor::Bytes;
using of::tensor::Tensor;

namespace star = of::comm::star;

// Integer-valued payload per client: float sums stay exact, so tree-shaped
// and flat aggregation must agree bitwise, not just approximately.
std::vector<Tensor> client_payload(int id) {
  return {Tensor::full({4}, static_cast<float>(id + 1)),
          Tensor::full({3}, static_cast<float>(2 * id))};
}

constexpr std::size_t kModelBytes = (4 + 3) * sizeof(float);

TEST(StreamingSum, MatchesMeanUpdatesBitwise) {
  FramePool pool;
  std::vector<Bytes> frames;
  StreamingSum sum(pool);
  for (int c = 0; c < 5; ++c) {
    frames.push_back(encode_update(client_payload(c), 1.0, {}, c, 5));
    sum.add(frames.back());
  }
  EXPECT_EQ(sum.count(), 5u);
  // Reference without the library's accumulator: decode each frame, add in
  // rank order in f32, multiply by 1/k.
  std::vector<Tensor> reference;
  for (const auto& f : frames) {
    const auto update = of::core::decode_update(f, nullptr);
    if (reference.empty())
      for (const auto& t : update) reference.push_back(Tensor::zeros(t.shape()));
    for (std::size_t t = 0; t < update.size(); ++t)
      for (std::size_t i = 0; i < update[t].numel(); ++i) reference[t][i] += update[t][i];
  }
  for (auto& t : reference)
    for (std::size_t i = 0; i < t.numel(); ++i) t[i] *= 1.0f / 5.0f;
  const auto streamed = sum.finish_mean();
  const auto meaned = mean_updates(frames, nullptr, nullptr, &pool);
  ASSERT_EQ(streamed.size(), reference.size());
  ASSERT_EQ(meaned.size(), reference.size());
  for (std::size_t t = 0; t < reference.size(); ++t)
    for (std::size_t i = 0; i < reference[t].numel(); ++i) {
      EXPECT_EQ(streamed[t][i], reference[t][i]);
      EXPECT_EQ(meaned[t][i], reference[t][i]);
    }
}

TEST(StreamingSum, SkipFramesDoNotCount) {
  FramePool pool;
  StreamingSum sum(pool);
  sum.add(of::core::encode_skip_update());
  sum.add(encode_update(client_payload(3), 1.0, {}, 0, 1));
  sum.add(of::core::encode_skip_update());
  EXPECT_EQ(sum.count(), 1u);
  const auto mean = sum.finish_mean();
  EXPECT_EQ(mean[0][0], 4.0f);
}

TEST(StreamingSum, PartialFramesComposeAcrossTiers) {
  // Two combiners with unequal group sizes fold their clients locally, emit
  // partials, and a root folds the partials: the result must equal the flat
  // mean over all clients, bitwise.
  FramePool pool;
  std::vector<Bytes> all_frames;
  StreamingSum root(pool);
  int next_id = 0;
  for (const int group_size : {2, 3}) {
    StreamingSum combiner(pool);
    for (int i = 0; i < group_size; ++i, ++next_id) {
      all_frames.push_back(encode_update(client_payload(next_id), 1.0, {}, next_id, 5));
      combiner.add(all_frames.back());
    }
    Bytes partial;
    combiner.encode_partial_into(1.0, nullptr, partial);
    root.add_partial(partial);
  }
  EXPECT_EQ(root.count(), 5u);
  const auto tree = root.finish_mean();
  const auto flat = mean_updates(all_frames, nullptr, nullptr, &pool);
  for (std::size_t t = 0; t < tree.size(); ++t)
    for (std::size_t i = 0; i < tree[t].numel(); ++i)
      EXPECT_EQ(tree[t][i], flat[t][i]);
}

TEST(StreamingSum, EmptyPartialIsASkip) {
  FramePool pool;
  StreamingSum empty(pool);
  Bytes partial;
  empty.encode_partial_into(1.0, nullptr, partial);
  StreamingSum root(pool);
  root.add_partial(partial);  // contributes nothing
  root.add(encode_update(client_payload(7), 1.0, {}, 0, 1));
  EXPECT_EQ(root.count(), 1u);
}

// --- end-to-end: 2-level combiner tree over real TCP -------------------------------
//
// Outer star: root (group 0's combiner) + 2 more combiners. Each combiner
// serves an inner TCP star of 3 trainers. Group 1's last trainer stalls past
// the combiner deadline and is cut; the tree's mean must equal the flat
// survivor-set mean bitwise, while every combiner's aggregation state stays
// O(model) regardless of group size.

struct TreeResult {
  std::vector<Tensor> mean;
  std::vector<int> dropped;
  bool deadline_hit = false;
  std::size_t peak_bytes = 0;
};

TEST(CombinerTree, TcpTreeWithStragglersMatchesFlatStar) {
  constexpr int kGroups = 3;
  constexpr int kTrainersPerGroup = 3;
  const std::uint16_t kInnerPort[kGroups] = {of::testutil::ephemeral_port(),
                                             of::testutil::ephemeral_port(),
                                             of::testutil::ephemeral_port()};
  const std::uint16_t kOuterPort = of::testutil::ephemeral_port();
  const int kStraggler = 1 * kTrainersPerGroup + 2;  // group 1, local rank 3

  star::PartialGatherOptions group_opt;
  group_opt.min_clients = kTrainersPerGroup - 1;
  group_opt.deadline_seconds = 1.5;  // generous: the host may be 1 core
  group_opt.quorum_timeout_seconds = 10.0;
  star::PartialGatherOptions outer_opt;  // combiners are never cut
  outer_opt.min_clients = kGroups - 1;
  outer_opt.deadline_seconds = 30.0;
  outer_opt.quorum_timeout_seconds = 30.0;

  std::vector<TreeResult> results(kGroups);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kGroups * (1 + kTrainersPerGroup));
  std::size_t err_slot = 0;
  // Real trainers hold their connection for the whole round; if a test client
  // destructs right after sending, the hub sees a dead peer at gather start
  // and drops it without looking at the inbox. Keep everyone alive until the
  // root has its mean (round_done), and keep hubs alive until every trainer
  // has finished — the straggler still needs a live hub for its late send.
  std::atomic<bool> round_done{false};
  std::atomic<int> trainers_left{kGroups * kTrainersPerGroup};

  for (int g = 0; g < kGroups; ++g) {
    // Combiner: inner hub + outer member (root when g == 0).
    threads.emplace_back([&, g, slot = err_slot++] {
      try {
        FramePool pool;
        auto inner = TcpCommunicator::make_server(kInnerPort[g], 1 + kTrainersPerGroup);
        std::unique_ptr<TcpCommunicator> outer;
        if (g == 0) outer = TcpCommunicator::make_server(kOuterPort, kGroups);
        else outer = TcpCommunicator::make_client("127.0.0.1", kOuterPort, g, kGroups);

        StreamingSum sum(pool);
        const auto got = star::gather_bytes_streaming(
            *inner, Bytes{}, [&](int, Bytes&& f) { sum.add(f); }, group_opt);
        Bytes partial;
        sum.encode_partial_into(1.0, nullptr, partial);
        results[g].dropped = got.dropped;
        results[g].deadline_hit = got.deadline_hit;
        results[g].peak_bytes = sum.peak_bytes();

        if (g == 0) {
          StreamingSum root(pool);
          root.add_partial(partial);
          (void)star::gather_bytes_streaming(
              *outer, partial, [&](int, Bytes&& f) { root.add_partial(f); },
              outer_opt);
          results[0].mean = root.finish_mean();
          round_done.store(true);
        } else {
          (void)star::gather_bytes_streaming(*outer, partial, [](int, Bytes&&) {},
                                             outer_opt);
        }
        while (trainers_left.load() > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
      } catch (...) {
        errors[slot] = std::current_exception();
      }
    });
    // Trainers.
    for (int t = 0; t < kTrainersPerGroup; ++t) {
      const int id = g * kTrainersPerGroup + t;
      threads.emplace_back([&, g, id, slot = err_slot++] {
        try {
          const int local_rank = 1 + id % kTrainersPerGroup;
          auto c = TcpCommunicator::make_client("127.0.0.1", kInnerPort[g],
                                                local_rank, 1 + kTrainersPerGroup);
          if (id == kStraggler)
            std::this_thread::sleep_for(std::chrono::milliseconds(3500));
          const Bytes frame = encode_update(client_payload(id), 1.0, {}, id,
                                            kGroups * kTrainersPerGroup);
          (void)star::gather_bytes_streaming(*c, frame, [](int, Bytes&&) {},
                                             group_opt);
          while (!round_done.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        } catch (...) {
          errors[slot] = std::current_exception();
        }
        trainers_left.fetch_sub(1);
      });
    }
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);

  // Only group 1 hit its deadline, cutting exactly the straggler.
  EXPECT_FALSE(results[0].deadline_hit);
  EXPECT_TRUE(results[1].deadline_hit);
  EXPECT_FALSE(results[2].deadline_hit);
  ASSERT_EQ(results[1].dropped.size(), 1u);
  EXPECT_TRUE(results[0].dropped.empty());
  EXPECT_TRUE(results[2].dropped.empty());

  // Flat reference: mean over the survivor set.
  FramePool pool;
  std::vector<Bytes> survivors;
  for (int id = 0; id < kGroups * kTrainersPerGroup; ++id)
    if (id != kStraggler)
      survivors.push_back(encode_update(client_payload(id), 1.0, {}, id,
                                        kGroups * kTrainersPerGroup));
  const auto flat = mean_updates(survivors, nullptr, nullptr, &pool);
  ASSERT_EQ(results[0].mean.size(), flat.size());
  for (std::size_t t = 0; t < flat.size(); ++t)
    for (std::size_t i = 0; i < flat[t].numel(); ++i)
      EXPECT_EQ(results[0].mean[t][i], flat[t][i]);

  // The O(model × combiners) bound: each combiner's aggregation state is a
  // couple of model-sized buffers, never clients × model.
  for (int g = 0; g < kGroups; ++g) {
    EXPECT_GT(results[g].peak_bytes, 0u);
    EXPECT_LE(results[g].peak_bytes, 4 * kModelBytes)
        << "combiner " << g << " held per-client state";
  }
}

// --- fleet health rows --------------------------------------------------------------

TEST(FleetCombiners, HealthRowsRenderInBothViews) {
  auto& fleet = of::obs::Fleet::global();
  fleet.reset(0xABCD);
  of::obs::Fleet::CombinerHealth h;
  h.group = 1;
  h.round = 3;
  h.participated = 7;
  h.expected = 8;
  h.dropped = 1;
  h.deadline_hit = true;
  h.agg_peak_bytes = 1234;
  h.seconds = 0.25;
  fleet.record_combiner(h);
  h.group = 2;
  h.participated = 8;
  h.dropped = 0;
  h.deadline_hit = false;
  fleet.record_combiner(h);

  const auto rows = fleet.combiners();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].group, 1);
  EXPECT_EQ(rows[1].group, 2);

  const std::string prom = fleet.prometheus_text();
  EXPECT_NE(prom.find("of_fleet_combiner_participated{group=\"1\"} 7"),
            std::string::npos);
  EXPECT_NE(prom.find("of_fleet_combiner_dropped{group=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("of_fleet_combiner_agg_peak_bytes{group=\"2\"} 1234"),
            std::string::npos);

  const std::string health = fleet.health_text();
  EXPECT_NE(health.find("combiner 1:"), std::string::npos);
  EXPECT_NE(health.find("combiner 2:"), std::string::npos);
  fleet.reset(0);  // leave the singleton clean for other suites
}

TEST(FleetCombiners, PeakBytesCountParkedFrames) {
  // A combiner folds in rank order, so a frame that arrives ahead of a lower
  // rank is parked until that rank comes in; the health row's peak counts
  // those bytes on top of the accumulator. Whatever the arrival order, the
  // peak is at least the accumulator and at most the accumulator, one
  // decode scratch and every member's frame: (members + 2) × model bytes.
  constexpr int kMembers = 4;
  of::config::ConfigNode cfg = of::config::parse_yaml(R"(
seed: 5
topology:
  _target_: HierarchicalTopology
  groups: 2
  inner_comm: {_target_: TorchDistCommunicator}
  outer_comm: {_target_: TorchDistCommunicator}
model: mlp_tiny
datamodule: {preset: toy, partition: iid, batch_size: 16}
algorithm: {_target_: FedAvg, global_rounds: 3, local_epochs: 1, lr: 0.05}
heterogeneity: {slowdowns: [8.0, 1.0, 1.0, 1.0]}
obs: {enabled: true, telemetry: true}
)");
  cfg.set_path("topology.group_size", of::config::ConfigNode::integer(kMembers));
  of::core::Engine engine(cfg);
  const auto result = engine.run();
  const std::size_t model_bytes = result.model_scalars * sizeof(float);
  ASSERT_GT(model_bytes, 0u);
  const auto rows = of::obs::Fleet::global().combiners();
  ASSERT_EQ(rows.size(), 2u);
  std::uint64_t max_peak = 0;
  for (const auto& row : rows) {
    EXPECT_GE(row.agg_peak_bytes, model_bytes) << "combiner " << row.group;
    EXPECT_LE(row.agg_peak_bytes, (kMembers + 2) * model_bytes) << "combiner " << row.group;
    max_peak = std::max(max_peak, row.agg_peak_bytes);
  }
  // Rank 1 trains 8x slower, so its group-mates arrive first and park. The
  // accumulator plus a decode scratch is at most 2 x model bytes; a larger
  // peak shows that the parked frames are counted.
  EXPECT_GT(max_peak, 2 * model_bytes);
  of::obs::Fleet::global().reset(0);  // leave the singleton clean for other suites
}

}  // namespace
