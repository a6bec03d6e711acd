// `of_perfbench probe`: bench-owned timers around the public calls of each
// layer, on one workload's exact shapes (its model, shard, batch size and
// payload plugins). Each probe reports the median seconds per call and the
// mean heap allocations per call; run.py forwards them as per-layer metrics.
#include <algorithm>
#include <functional>
#include <iostream>
#include <memory>
#include <thread>

#include "algorithms/algorithm.hpp"
#include "comm/tcp.hpp"
#include "common.hpp"
#include "compression/quantize.hpp"
#include "core/payload.hpp"
#include "data/loader.hpp"
#include "data/partition.hpp"
#include "exec/pool.hpp"
#include "net_util.hpp"
#include "nn/optimizer.hpp"
#include "nn/zoo.hpp"
#include "privacy/dp.hpp"
#include "serve/buffer.hpp"
#include "simd/simd.hpp"

namespace perfbench {
namespace {

struct Timing {
  double median_s = 0.0;
  double allocs_per_call = 0.0;
};

// Call `fn` once untimed, then repeatedly until `budget_s` has elapsed (at
// least kMinCalls times, at most kMaxCalls). `prep`, when given, runs before
// every call outside the timed window.
Timing time_calls(double budget_s, const std::function<void()>& fn,
                  const std::function<void()>& prep = nullptr) {
  constexpr std::size_t kMinCalls = 5;
  constexpr std::size_t kMaxCalls = 20000;
  if (prep) prep();
  fn();
  std::vector<double> t;
  t.reserve(kMaxCalls);
  std::uint64_t alloc_total = 0;
  const auto start = Clock::now();
  while (t.size() < kMaxCalls && (t.size() < kMinCalls || seconds_since(start) < budget_s)) {
    if (prep) prep();
    const std::uint64_t a0 = allocs();
    const auto t0 = Clock::now();
    fn();
    const double dt = seconds_since(t0);
    alloc_total += allocs() - a0;
    t.push_back(dt);
  }
  std::sort(t.begin(), t.end());
  return {t[t.size() / 2], static_cast<double>(alloc_total) / static_cast<double>(t.size())};
}

// Median round trip of a `bytes`-sized frame between a TCP client and server
// thread over loopback: client send_bytes → server recv_bytes_any → server
// send_bytes → client recv_bytes.
Timing frame_rtt(std::size_t bytes, double budget_s) {
  constexpr int kTag = 7;
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::thread server([&] {
    auto srv = of::comm::TcpCommunicator::make_server(port, 2);
    for (;;) {
      auto [src, frame] = srv->recv_bytes_any(kTag);
      srv->send_bytes(src, kTag, frame);
      if (frame.size() == 1) break;  // the stop frame, echoed back
    }
  });
  auto client = of::comm::TcpCommunicator::make_client("127.0.0.1", port, 1, 2);
  of::tensor::Bytes frame(bytes, 0x5a);
  const Timing t = time_calls(budget_s, [&] {
    client->send_bytes(0, kTag, frame);
    (void)client->recv_bytes(0, kTag);
  });
  client->send_bytes(0, kTag, of::tensor::Bytes(1, 0));
  (void)client->recv_bytes(0, kTag);
  server.join();
  return t;
}

}  // namespace

int probe_main(const Workload& w, std::uint64_t seed, double seconds) {
  const auto exec_cfg = of::exec::ExecConfig{};
  of::exec::Pool::global().configure(1, exec_cfg.grain);
  of::simd::configure(exec_cfg.simd);
  constexpr int kProbes = 12;  // timed probes below, sharing `seconds`
  const double budget = std::max(0.05, seconds / kProbes);

  // The workload's data, trainer 0's shard, model and optimizer, built the
  // way the Engine builds a trainer.
  of::data::DatasetSpec spec = of::data::preset(w.preset);
  if (w.train_per_class > 0) spec.train_per_class = w.train_per_class;
  const auto data = of::data::make_synthetic(spec, seed);
  const auto parts = of::data::make_partition("iid", data.train, kClients, 0.5, seed + 1);
  of::nn::Model model = of::nn::zoo::make_model(w.model, spec.dim, spec.classes, seed);
  of::data::DataLoader loader(data.train, parts[0], kBatchSize, true, seed + 7);
  of::nn::SGD opt(model.parameters(), w.lr, 0.9f, 1e-4f);
  auto algo = of::algorithms::make_algorithm("src.omnifed.algorithm." + w.algorithm);
  of::algorithms::TrainContext ctx;
  ctx.model = &model;
  ctx.optimizer = &opt;
  ctx.loader = &loader;
  ctx.num_clients = kClients;
  of::tensor::Rng rng(seed);
  ctx.rng = &rng;
  algo->on_train_start(ctx);
  algo->on_round_start(ctx);
  // The payload every encode/aggregate probe uses: one round's update from
  // the initial model (the timed calls below keep training it).
  (void)algo->local_train(ctx);
  const std::vector<of::tensor::Tensor> update = algo->client_update(ctx);

  JsonObject m;
  auto put = [&m](const std::string& name, const Timing& t, const std::string& allocs_name) {
    m.num(name, t.median_s).num(allocs_name, t.allocs_per_call);
  };

  const of::data::Batch batch = loader.batch(0);
  put("nn.step_s", time_calls(budget, [&] {
        model.set_training(true);
        model.zero_grad();
        const auto logits = model.forward(batch.x);
        const auto lg = of::nn::softmax_cross_entropy(logits, batch.y);
        model.backward(lg.grad);
        opt.step();
      }),
      "nn.step_allocs");
  put("algorithms.local_train_call_s", time_calls(budget, [&] { (void)algo->local_train(ctx); }),
      "algorithms.local_train_allocs");

  std::vector<float> flat;
  for (const auto& t : update) flat.insert(flat.end(), t.data(), t.data() + t.numel());
  const of::tensor::ConstFloatSpan flat_span(flat.data(), flat.size());

  of::privacy::DifferentialPrivacy dp(
      of::privacy::DpParams{.epsilon = 1000.0, .delta = 1e-5, .clip_norm = 5.0}, seed * 131);
  of::tensor::Bytes protected_out;
  const Timing protect = time_calls(budget, [&] { dp.protect(flat_span, 0, kClients, protected_out); });
  put("privacy.protect_call_s", protect, "privacy.protect_allocs");
  m.num("privacy.protect_gbps",
        static_cast<double>(flat.size() * sizeof(float)) / protect.median_s / 1e9);

  // The workload's own payload plugins: client and aggregator instances.
  std::unique_ptr<of::compression::Compressor> client_codec, agg_codec;
  std::unique_ptr<of::privacy::DifferentialPrivacy> client_dp;
  if (w.qsgd) {
    client_codec = std::make_unique<of::compression::QSGD>(8, seed + 77);
    agg_codec = std::make_unique<of::compression::QSGD>(8, seed + 76);
  }
  if (w.dp)
    client_dp = std::make_unique<of::privacy::DifferentialPrivacy>(
        of::privacy::DpParams{.epsilon = w.dp_epsilon, .delta = 1e-5, .clip_norm = 5.0},
        seed * 131);
  const of::core::PayloadPlugins plugins{client_codec.get(), client_dp.get()};
  of::core::FramePool pool;
  of::tensor::Bytes frame;
  put("core.encode_call_s", time_calls(budget, [&] {
        of::core::encode_update_into(update, 1.0, plugins, 0, kClients, pool, frame);
      }),
      "core.encode_allocs");
  std::vector<of::tensor::Bytes> frames;
  for (int c = 0; c < kClients; ++c) {
    if (client_codec) client_codec->set_stream(0, static_cast<std::uint64_t>(c));
    of::core::encode_update_into(update, 1.0, plugins, c, kClients, pool, frame);
    frames.push_back(frame);
  }
  put("core.mean_updates_call_s", time_calls(budget, [&] {
        (void)of::core::mean_updates(frames, agg_codec.get(), client_dp.get(), &pool);
      }),
      "core.aggregate_allocs");

  const of::tensor::Bytes packed = of::core::pack_tensors(update);
  put("tensor.pack_call_s", time_calls(budget, [&] { (void)of::core::pack_tensors(update); }),
      "tensor.pack_allocs");
  put("tensor.unpack_call_s", time_calls(budget, [&] { (void)of::core::unpack_tensors(packed); }),
      "tensor.unpack_allocs");

  of::compression::QSGD qsgd(8, seed + 77);
  of::compression::Compressed compressed;
  put("compression.compress_call_s", time_calls(budget, [&] { qsgd.compress(flat_span, compressed); }),
      "compression.compress_allocs");
  std::vector<float> restored(flat.size());
  put("compression.decompress_call_s", time_calls(budget, [&] {
        qsgd.decompress(of::compression::CompressedView(compressed),
                        of::tensor::FloatSpan(restored.data(), restored.size()));
      }),
      "compression.decompress_allocs");
  m.num("compression.ratio", compressed.achieved_ratio());

  // Serve buffer: the workload's uplink frame (no privacy — the buffer folds
  // plain or compressed frames only), folded at staleness 1, drained every
  // buffer_size = 2 offers.
  const of::core::PayloadPlugins serve_plugins{client_codec.get(), nullptr};
  of::tensor::Bytes serve_frame;
  of::core::encode_update_into(update, 1.0, serve_plugins, 0, kClients, pool, serve_frame);
  of::serve::StalenessBuffer buffer(pool, agg_codec.get(), 2, 4, 0.6);
  put("serve.offer_call_s",
      time_calls(
          budget, [&] { (void)buffer.offer(serve_frame, 1); },
          [&] {
            if (buffer.ready()) (void)buffer.drain();
          }),
      "serve.offer_allocs");
  put("serve.drain_call_s",
      time_calls(
          budget, [&] { (void)buffer.drain(); },
          [&] {
            while (!buffer.ready()) (void)buffer.offer(serve_frame, 1);
          }),
      "serve.drain_allocs");

  put("comm.frame_rtt_s", frame_rtt(packed.size(), budget), "comm.frame_rtt_allocs");

  JsonObject o;
  o.str("kind", "probe")
      .str("workload", w.name)
      .integer("seed", static_cast<std::int64_t>(seed))
      .integer("model_scalars", static_cast<std::int64_t>(flat.size()))
      .raw("metrics", m.done());
  std::cout << o.done() << std::endl;
  return 0;
}

}  // namespace perfbench
