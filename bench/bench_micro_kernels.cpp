// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// paper's experiments: tensor ops, collectives, compressor kernels, and
// crypto primitives. These are ablation-style measurements backing the
// design choices DESIGN.md calls out (ring all-reduce vs star, packed
// Paillier encoding, sampled DGC thresholds vs exact TopK).
#include <benchmark/benchmark.h>

#include <thread>

#include "comm/inproc.hpp"
#include "compression/powersgd.hpp"
#include "compression/quantize.hpp"
#include "compression/sparsify.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/zoo.hpp"
#include "privacy/paillier.hpp"
#include "privacy/secure_agg.hpp"
#include "privacy/sha256.hpp"
#include "simd/simd.hpp"

namespace {

using of::tensor::Rng;
using of::tensor::Tensor;

void BM_TensorAxpy(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::randn({static_cast<std::size_t>(state.range(0))}, rng);
  const Tensor b = Tensor::randn(a.shape(), rng);
  for (auto _ : state) {
    a.add_scaled_(b, 0.5f);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_TensorAxpy)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.matmul(b).data());
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(128);

// One local-training step (forward, loss, backward) at batch 32 on the
// benchmark workloads' models: resnet18_mini on cifar10_like (64 -> 10) and
// vgg11_mini on cifar100_like (64 -> 100).
void BM_ModelForwardBackward(benchmark::State& state, const char* model_name,
                             std::size_t classes) {
  auto model = of::nn::zoo::make_model(model_name, 64, classes, 1);
  Rng rng(3);
  const Tensor x = Tensor::randn({32, 64}, rng);
  const std::vector<std::size_t> y(32, 1);
  for (auto _ : state) {
    model.zero_grad();
    const Tensor& logits = model.forward(x);
    const auto lg = of::nn::softmax_cross_entropy(logits, y);
    model.backward(lg.grad);
    benchmark::DoNotOptimize(lg.loss);
  }
}
BENCHMARK_CAPTURE(BM_ModelForwardBackward, resnet18_mini, "resnet18_mini", 10);
BENCHMARK_CAPTURE(BM_ModelForwardBackward, vgg11_mini, "vgg11_mini", 100);

// The Linear layers of those models, (batch, in, out): the forward product
// alone, then a full forward + backward (x·W + b, xᵀ·dy, dy·Wᵀ). Rows with
// batch 1 and 2 are the ragged last batches of `train_per_class: 1` shards.
void LinearShapes(benchmark::internal::Benchmark* b) {
  for (const auto& s : std::vector<std::vector<std::int64_t>>{
           {32, 64, 80}, {32, 80, 80}, {32, 80, 10}, {32, 64, 256}, {32, 256, 256},
           {32, 256, 128}, {32, 128, 100}, {1, 256, 256}, {2, 256, 256}})
    b->Args(s);
}

void BM_LinearMatmul(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(7);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.matmul(b).data());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * m * n * k));
}
BENCHMARK(BM_LinearMatmul)->Apply(LinearShapes);

void BM_LinearStep(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(8);
  of::nn::Linear layer(k, n, rng);
  const Tensor x = Tensor::randn({m, k}, rng);
  const Tensor dy = Tensor::randn({m, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(x).data());
    benchmark::DoNotOptimize(layer.backward(dy).data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(6 * m * n * k));
}
BENCHMARK(BM_LinearStep)->Apply(LinearShapes);

void BM_RingAllreduce(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const auto numel = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    of::comm::InProcGroup group(world);
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        Tensor t = Tensor::full({numel}, static_cast<float>(r));
        group.comm(r).allreduce(t, of::comm::ReduceOp::Sum);
        benchmark::DoNotOptimize(t.data());
      });
    }
    for (auto& t : threads) t.join();
  }
  state.SetBytesProcessed(state.iterations() * numel * 4 * world);
}
BENCHMARK(BM_RingAllreduce)->Args({4, 1 << 14})->Args({8, 1 << 14})->Args({8, 1 << 18});

void BM_CompressorKernel(benchmark::State& state, const char* which) {
  Rng rng(4);
  const Tensor t = Tensor::randn({100000}, rng);
  std::unique_ptr<of::compression::Compressor> codec;
  using namespace of::compression;
  if (std::string(which) == "topk") codec = std::make_unique<TopK>(100.0, true);
  else if (std::string(which) == "dgc") codec = std::make_unique<DGC>(100.0, true, 1);
  else if (std::string(which) == "qsgd") codec = std::make_unique<QSGD>(8, 1);
  else codec = std::make_unique<PowerSGD>(32, 1);
  for (auto _ : state) {
    auto c = codec->compress(t);
    benchmark::DoNotOptimize(codec->decompress(c).data());
  }
}
BENCHMARK_CAPTURE(BM_CompressorKernel, topk, "topk");
BENCHMARK_CAPTURE(BM_CompressorKernel, dgc_sampled, "dgc");
BENCHMARK_CAPTURE(BM_CompressorKernel, qsgd8, "qsgd");
BENCHMARK_CAPTURE(BM_CompressorKernel, powersgd32, "powersgd");

// Per-direction QSGD rows: quantize and dequantize measured separately, in
// both simd tables (off = scalar reference, auto = AVX2 when available),
// with bytes/s over the float input so the SIMD speedup reads directly off
// the report (EXPERIMENTS.md "SIMD kernel speedups" table).
void BM_QsgdQuantize(benchmark::State& state, int bits, of::simd::Mode level) {
  of::simd::configure(level);
  Rng rng(5);
  const Tensor t = Tensor::randn({static_cast<std::size_t>(state.range(0))}, rng);
  of::compression::QSGD codec(bits, /*seed=*/1);
  for (auto _ : state) {
    auto c = codec.compress(t);
    benchmark::DoNotOptimize(c.payload.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 4);
  of::simd::configure(of::simd::Mode::Auto);
}

void BM_QsgdDequantize(benchmark::State& state, int bits, of::simd::Mode level) {
  of::simd::configure(level);
  Rng rng(6);
  const Tensor t = Tensor::randn({static_cast<std::size_t>(state.range(0))}, rng);
  of::compression::QSGD codec(bits, /*seed=*/1);
  const auto c = codec.compress(t);
  for (auto _ : state) benchmark::DoNotOptimize(codec.decompress(c).data());
  state.SetBytesProcessed(state.iterations() * state.range(0) * 4);
  of::simd::configure(of::simd::Mode::Auto);
}

#define OF_QSGD_BENCH(fn, tag, bits, level, level_name)               \
  BENCHMARK_CAPTURE(fn, tag##_##level, bits, of::simd::Mode::level)   \
      ->Name(#fn "/" #tag "/" level_name)                             \
      ->Arg(1 << 16)                                                  \
      ->Arg(1 << 20)

OF_QSGD_BENCH(BM_QsgdQuantize, q8, 8, Off, "scalar");
OF_QSGD_BENCH(BM_QsgdQuantize, q8, 8, Auto, "simd");
OF_QSGD_BENCH(BM_QsgdQuantize, q16, 16, Off, "scalar");
OF_QSGD_BENCH(BM_QsgdQuantize, q16, 16, Auto, "simd");
OF_QSGD_BENCH(BM_QsgdDequantize, q8, 8, Off, "scalar");
OF_QSGD_BENCH(BM_QsgdDequantize, q8, 8, Auto, "simd");
OF_QSGD_BENCH(BM_QsgdDequantize, q16, 16, Off, "scalar");
OF_QSGD_BENCH(BM_QsgdDequantize, q16, 16, Auto, "simd");

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state)
    benchmark::DoNotOptimize(of::privacy::Sha256::hash(data.data(), data.size()));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 16);

void BM_PaillierEncrypt(benchmark::State& state) {
  Rng rng(5);
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto scheme = of::privacy::Paillier::keygen(bits, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(scheme.encrypt(of::privacy::BigUInt(123456), rng));
}
BENCHMARK(BM_PaillierEncrypt)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_PaillierVectorEncrypt(benchmark::State& state) {
  Rng rng(6);
  of::privacy::PaillierVector vec(256, 16, rng);
  const Tensor t = Tensor::randn({static_cast<std::size_t>(state.range(0))}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(vec.encrypt(t, rng).size());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PaillierVectorEncrypt)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_SecureAggProtect(benchmark::State& state) {
  of::privacy::SecureAggregation sa("bench", 8);
  Rng rng(7);
  const Tensor t = Tensor::randn({static_cast<std::size_t>(state.range(0))}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(sa.protect(t, 0, 8).size());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SecureAggProtect)->Arg(1 << 12)->Arg(1 << 16)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
