// Ablation: ring all-reduce (MPI-style) vs star gather+broadcast
// (gRPC-style) for model aggregation — the design trade-off behind the
// paper's mixed-protocol argument (§3.4.5). Reports per-aggregation wire
// volume at the bottleneck node and modeled time on a 1 Gb/s link, for
// growing cohort sizes.
//
// Expected shape: the star's server volume grows linearly with the cohort
// (2·(P−1)·model bytes through one NIC) while the ring moves a constant
// 2·model bytes per node — which is exactly why the paper aggregates
// intra-site over MPI and reserves the star for the sparse cross-site tier.
#include <cstdio>
#include <thread>

#include "comm/inproc.hpp"
#include "comm/modeled.hpp"

namespace {

using of::comm::Communicator;
using of::comm::InProcGroup;
using of::comm::ReduceOp;
using of::tensor::Bytes;
using of::tensor::Tensor;

struct Result {
  std::uint64_t max_node_bytes = 0;  // busiest node's sent+received bytes
  std::uint64_t total_bytes = 0;
};

Result run_ring(int world, std::size_t numel) {
  InProcGroup group(world);
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      Tensor t = Tensor::full({numel}, static_cast<float>(r));
      group.comm(r).allreduce(t, ReduceOp::Mean);
    });
  }
  for (auto& t : threads) t.join();
  Result out;
  for (int r = 0; r < world; ++r) {
    const auto& s = group.comm(r).stats();
    out.max_node_bytes = std::max(out.max_node_bytes, s.bytes_sent + s.bytes_received);
    out.total_bytes += s.bytes_sent;
  }
  return out;
}

Result run_star(int world, std::size_t numel) {
  InProcGroup group(world);
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& c = group.comm(r);
      Tensor t = Tensor::full({numel}, static_cast<float>(r));
      // Star semantics, as the engine's hub runs them: everyone ships to
      // rank 0, rank 0 averages and broadcasts the mean back.
      const auto frames = c.gather_bytes(of::tensor::serialize_tensor(t), 0);
      Bytes mean;
      if (r == 0) {
        for (int p = 1; p < world; ++p)
          t.add_(of::tensor::deserialize_tensor(frames[static_cast<std::size_t>(p)]));
        t.scale_(1.0f / static_cast<float>(world));
        mean = of::tensor::serialize_tensor(t);
      }
      c.broadcast_bytes(mean, 0);
    });
  }
  for (auto& t : threads) t.join();
  Result out;
  for (int r = 0; r < world; ++r) {
    const auto& s = group.comm(r).stats();
    out.max_node_bytes = std::max(out.max_node_bytes, s.bytes_sent + s.bytes_received);
    out.total_bytes += s.bytes_sent;
  }
  return out;
}

}  // namespace

int main() {
  const std::size_t numel = 1 << 18;  // ~1 MB update (262k floats)
  const double gbps = 1e9 / 8.0;
  std::printf("\n=== Ablation: ring all-reduce vs star aggregation (1 MB update) ===\n");
  std::printf("%-8s | %-26s | %-26s\n", "", "ring (MPI-style)", "star (gRPC-style)");
  std::printf("%-8s | %12s | %11s | %12s | %11s\n", "world", "busiest KB", "t @1Gbps",
              "busiest KB", "t @1Gbps");
  std::printf("--------------------------------------------------------------------------\n");
  for (int world : {2, 4, 8, 16}) {
    const Result ring = run_ring(world, numel);
    const Result star = run_star(world, numel);
    std::printf("%-8d | %12.0f | %9.1fms | %12.0f | %9.1fms\n", world,
                ring.max_node_bytes / 1024.0,
                static_cast<double>(ring.max_node_bytes) / gbps * 1e3,
                star.max_node_bytes / 1024.0,
                static_cast<double>(star.max_node_bytes) / gbps * 1e3);
  }
  std::printf("\nring: busiest-node traffic stays ~constant; star: grows with the cohort.\n");
  return 0;
}
