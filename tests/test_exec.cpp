// of::exec pool tests: chunk coverage, the determinism invariant (bitwise
// identical results for threads=1 and threads=N), exception propagation,
// nested regions, and concurrent callers (the TSan presets run this file).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "config/yaml.hpp"
#include "exec/pool.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

using of::exec::ExecConfig;
using of::exec::Pool;
using of::tensor::Rng;
using of::tensor::Tensor;

// Every test leaves the global pool serial so test order cannot matter.
struct PoolGuard {
  ~PoolGuard() { Pool::global().configure(1); }
};

std::vector<float> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian(0.0, 1.0));
  return v;
}

TEST(ExecConfig, FromConfigParsesThreadsAndGrain) {
  const auto node = of::config::parse_yaml("threads: 3\ngrain: 128\n");
  const auto cfg = ExecConfig::from_config(node);
  EXPECT_EQ(cfg.threads, 3u);
  EXPECT_EQ(cfg.grain, 128u);
}

TEST(ExecConfig, DefaultsAreSerial) {
  const auto cfg = ExecConfig::from_config(of::config::ConfigNode::map());
  EXPECT_EQ(cfg.threads, 1u);
  EXPECT_EQ(cfg.grain, 4096u);
}

TEST(ExecPool, RunChunksCoversRangeExactlyOnce) {
  PoolGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Pool::global().configure(threads);
    const std::size_t n = 10'001;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    Pool::global().run_chunks(n, 97, [&](std::size_t, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with threads=" << threads;
  }
}

TEST(ExecPool, ChunkIndicesMatchFixedDecomposition) {
  PoolGuard guard;
  Pool::global().configure(4);
  const std::size_t n = 1000, grain = 128;
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
  Pool::global().run_chunks(n, grain, [&](std::size_t c, std::size_t b, std::size_t e) {
    ranges[c] = {b, e};
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(ranges[c].first, c * grain);
    EXPECT_EQ(ranges[c].second, std::min(n, (c + 1) * grain));
  }
}

TEST(ExecPool, EmptyRangeAndOversizedGrain) {
  PoolGuard guard;
  Pool::global().configure(4);
  int calls = 0;
  Pool::global().run_chunks(0, 16, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  Pool::global().run_chunks(5, 1'000'000, [&](std::size_t c, std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(c, 0u);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ExecPool, ReduceBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const auto values = random_values(1 << 18, 0xC0FFEE);
  const auto partial = [&](std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += static_cast<double>(values[i]);
    return acc;
  };
  const auto combine = [](double a, double b) { return a + b; };

  Pool::global().configure(1);
  const float serial = static_cast<float>(Pool::global().parallel_reduce(
      values.size(), 4096, 0.0, partial, combine));
  Pool::global().configure(4);
  const float parallel = static_cast<float>(Pool::global().parallel_reduce(
      values.size(), 4096, 0.0, partial, combine));

  std::uint32_t sbits = 0, pbits = 0;
  std::memcpy(&sbits, &serial, sizeof(sbits));
  std::memcpy(&pbits, &parallel, sizeof(pbits));
  EXPECT_EQ(sbits, pbits);
}

TEST(ExecPool, TensorKernelsBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(42);
  const Tensor a = Tensor::randn({64, 512}, rng);
  const Tensor b = Tensor::randn({512, 96}, rng);
  const Tensor c = Tensor::randn({64, 96}, rng);
  const Tensor d = Tensor::randn({96, 512}, rng);
  const Tensor big = Tensor::randn({1 << 16}, rng);

  Pool::global().configure(1);
  const Tensor mm1 = a.matmul(b);
  const Tensor tn1 = a.matmul_tn(c);
  const Tensor nt1 = a.matmul_nt(d);
  const float s1 = big.sum();
  const float n1 = big.l2_norm_squared();
  const float d1 = big.dot(big);

  Pool::global().configure(4);
  const Tensor mm4 = a.matmul(b);
  const Tensor tn4 = a.matmul_tn(c);
  const Tensor nt4 = a.matmul_nt(d);
  const float s4 = big.sum();
  const float n4 = big.l2_norm_squared();
  const float d4 = big.dot(big);

  ASSERT_EQ(mm1.numel(), mm4.numel());
  EXPECT_EQ(std::memcmp(mm1.data(), mm4.data(), mm1.numel() * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(tn1.data(), tn4.data(), tn1.numel() * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(nt1.data(), nt4.data(), nt1.numel() * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&s1, &s4, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&n1, &n4, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&d1, &d4, sizeof(float)), 0);
}

TEST(ExecPool, ExceptionPropagatesAndPoolSurvives) {
  PoolGuard guard;
  Pool::global().configure(4);
  EXPECT_THROW(
      Pool::global().run_chunks(1000, 10,
                                [&](std::size_t c, std::size_t, std::size_t) {
                                  if (c == 3) throw std::runtime_error("chunk 3 failed");
                                }),
      std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<std::size_t> covered{0};
  Pool::global().parallel_for(128, 8, [&](std::size_t b, std::size_t e) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 128u);
}

TEST(ExecPool, NestedRegionsRunInline) {
  PoolGuard guard;
  Pool::global().configure(4);
  std::atomic<std::size_t> inner_total{0};
  Pool::global().parallel_for(8, 1, [&](std::size_t b, std::size_t e) {
    EXPECT_TRUE(Pool::in_parallel_region());
    for (std::size_t i = b; i < e; ++i) {
      // Must not deadlock and must still cover its range.
      Pool::global().parallel_for(100, 10, [&](std::size_t ib, std::size_t ie) {
        inner_total.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 800u);
  EXPECT_FALSE(Pool::in_parallel_region());
}

TEST(ExecPool, ConcurrentCallersShareThePool) {
  PoolGuard guard;
  Pool::global().configure(4);
  // Several node threads submitting regions at once — the shape the Engine
  // produces, and the scenario the TSan preset checks for races.
  constexpr int kCallers = 4;
  std::vector<std::vector<float>> results(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([t, &results] {
      const auto values = random_values(1 << 15, 77 + static_cast<std::uint64_t>(t));
      results[static_cast<std::size_t>(t)].assign(values.size(), 0.0f);
      auto& out = results[static_cast<std::size_t>(t)];
      for (int rep = 0; rep < 10; ++rep) {
        Pool::global().parallel_for(values.size(), 512, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) out[i] = values[i] * 2.0f;
        });
      }
    });
  }
  for (auto& c : callers) c.join();
  for (int t = 0; t < kCallers; ++t) {
    const auto values = random_values(1 << 15, 77 + static_cast<std::uint64_t>(t));
    for (std::size_t i = 0; i < values.size(); ++i)
      ASSERT_EQ(results[static_cast<std::size_t>(t)][i], values[i] * 2.0f);
  }
}

TEST(ExecPool, ConfigureZeroMeansHardwareConcurrency) {
  PoolGuard guard;
  Pool::global().configure(0);
  EXPECT_GE(Pool::global().threads(), 1u);
}

}  // namespace
