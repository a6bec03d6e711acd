#include "comm/communicator.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"

namespace of::comm {
namespace {

class ScopedTimer {
 public:
  explicit ScopedTimer(double& acc) : acc_(acc), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

 private:
  double& acc_;
  std::chrono::steady_clock::time_point t0_;
};

// Ring slices travel as serialized tensors, so the per-step wire bytes are
// the textbook chunk plus one shape header (DESIGN.md §1, Fig. 7).
void send_slice(Communicator& c, int dst, int tag, const Tensor& t) {
  c.send_bytes(dst, tag, tensor::serialize_tensor(t));
}

Tensor recv_slice(Communicator& c, int src, int tag) {
  return tensor::deserialize_tensor(c.recv_bytes(src, tag));
}

void check_star_root(const Communicator& c, int root) {
  OF_CHECK_MSG(!c.star_only() || root == 0, "star collectives require root == 0 (the hub)");
}

}  // namespace

// --- ring all-reduce -------------------------------------------------------------
// Reduce-scatter then all-gather; 2(P-1) steps, each moving ~numel/P
// elements — the bandwidth-optimal algorithm (Horovod/NCCL style) the paper
// cites for fast intra-site aggregation.
void Communicator::allreduce(Tensor& t, ReduceOp op) {
  OF_CHECK_MSG(!star_only(), "ring allreduce needs all-to-all links; "
                                 << name() << " is a client/server star");
  const int P = world_size();
  if (P == 1) return;  // the sum and the mean of one contribution are itself
  double elapsed = 0.0;
  {
    ScopedTimer timer(elapsed);
    const int tag = next_collective_tag();
    const int r = rank();
    const std::size_t n = t.numel();
    // Chunk boundaries: chunk c covers [bound[c], bound[c+1]).
    std::vector<std::size_t> bound(static_cast<std::size_t>(P) + 1);
    for (int c = 0; c <= P; ++c)
      bound[static_cast<std::size_t>(c)] = n * static_cast<std::size_t>(c) / static_cast<std::size_t>(P);
    const int right = (r + 1) % P;
    const int left = (r - 1 + P) % P;

    auto slice_of = [&](const Tensor& src, int c) {
      const std::size_t b = bound[static_cast<std::size_t>(c)], e = bound[static_cast<std::size_t>(c) + 1];
      Tensor s({e - b});
      std::copy_n(src.data() + b, e - b, s.data());
      return s;
    };

    // Phase 1: reduce-scatter. After P-1 steps, rank r holds the fully
    // reduced chunk (r+1) mod P.
    for (int step = 0; step < P - 1; ++step) {
      const int send_chunk = ((r - step) % P + P) % P;
      const int recv_chunk = ((r - step - 1) % P + P) % P;
      send_slice(*this, right, tag, slice_of(t, send_chunk));
      Tensor incoming = recv_slice(*this, left, tag);
      const std::size_t b = bound[static_cast<std::size_t>(recv_chunk)];
      const std::size_t len = incoming.numel();
      OF_CHECK(len == bound[static_cast<std::size_t>(recv_chunk) + 1] - b);
      for (std::size_t i = 0; i < len; ++i) t[b + i] += incoming[i];
    }
    // Phase 2: all-gather the reduced chunks around the ring.
    for (int step = 0; step < P - 1; ++step) {
      const int send_chunk = ((r + 1 - step) % P + P) % P;
      const int recv_chunk = ((r - step) % P + P) % P;
      send_slice(*this, right, tag + 1, slice_of(t, send_chunk));
      Tensor incoming = recv_slice(*this, left, tag + 1);
      const std::size_t b = bound[static_cast<std::size_t>(recv_chunk)];
      OF_CHECK(incoming.numel() == bound[static_cast<std::size_t>(recv_chunk) + 1] - b);
      std::copy_n(incoming.data(), incoming.numel(), t.data() + b);
    }
    if (op == ReduceOp::Mean) t.scale_(1.0f / static_cast<float>(P));
  }
  account_time(elapsed);
}

std::vector<Bytes> Communicator::gather_bytes(const Bytes& b, int root) {
  check_star_root(*this, root);
  const int P = world_size();
  std::vector<Bytes> out;
  const int tag = next_collective_tag();
  if (rank() == root) {
    out.resize(static_cast<std::size_t>(P));
    out[static_cast<std::size_t>(root)] = b;
    for (int p = 0; p < P; ++p)
      if (p != root) out[static_cast<std::size_t>(p)] = recv_bytes(p, tag);
  } else {
    send_bytes(root, tag, b);
  }
  return out;
}

void Communicator::broadcast_bytes(Bytes& b, int root) {
  check_star_root(*this, root);
  const int P = world_size();
  const int tag = next_collective_tag();
  if (rank() == root) {
    for (int p = 0; p < P; ++p)
      if (p != root) send_bytes(p, tag, b);
  } else {
    b = recv_bytes(root, tag);
  }
}

std::vector<Bytes> Communicator::allgather_bytes(const Bytes& b) {
  // Gather-to-root then re-broadcast a packed frame list. Not the
  // bandwidth-optimal ring variant, but variable-length frames make the
  // ring chunking awkward and these frames are already compressed.
  std::vector<Bytes> all = gather_bytes(b, 0);
  Bytes packed;
  if (rank() == 0) {
    tensor::append_pod<std::uint32_t>(packed, static_cast<std::uint32_t>(all.size()));
    for (const auto& f : all) {
      tensor::append_pod<std::uint64_t>(packed, f.size());
      packed.insert(packed.end(), f.begin(), f.end());
    }
  }
  broadcast_bytes(packed, 0);
  if (rank() != 0) {
    all.clear();
    std::size_t off = 0;
    const auto count = tensor::read_pod<std::uint32_t>(packed, off);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto len = tensor::read_pod<std::uint64_t>(packed, off);
      // `len` is peer-supplied: compare against what is left, never
      // `off + len`, which a huge length wraps past the check.
      OF_CHECK_MSG(len <= packed.size() - off, "allgather_bytes frame truncated");
      all.emplace_back(packed.begin() + static_cast<std::ptrdiff_t>(off),
                       packed.begin() + static_cast<std::ptrdiff_t>(off + len));
      off += len;
    }
  }
  return all;
}

}  // namespace of::comm
