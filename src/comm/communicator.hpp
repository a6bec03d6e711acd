// Communicator — OmniFed's unified communication API (paper §3.3).
//
// One abstract interface: backends (shared-memory "MPI", TCP "gRPC", AMQP
// queues, modeled WAN links) implement point-to-point send/recv, and the
// base class builds the only collectives the engine uses on top of them:
// the ring all-reduce of intra-site aggregation, and the byte gather,
// broadcast and all-gather of client/server rounds and the sparse-codec
// exchange. No backend overrides a collective; a star backend (TCP) only
// restricts them to what its links allow (root 0, no ring).
//
// All ranks of a group must call collectives in the same order — the same
// contract as MPI. Per-communicator byte/time accounting feeds the paper's
// communication-overhead figures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace of::comm {

using tensor::Bytes;
using tensor::ConstByteSpan;
using tensor::Tensor;

enum class ReduceOp { Sum, Mean };

struct CommStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  double seconds_in_comm = 0.0;   // wall time blocked in comm calls
  double modeled_seconds = 0.0;   // synthetic network-model delay (ModeledLink)
  std::uint64_t reconnects = 0;      // successful link re-establishments (TCP)
  std::uint64_t frames_dropped = 0;  // frames lost to a dead link (TCP)

  CommStats& operator+=(const CommStats& o) {
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    messages_sent += o.messages_sent;
    messages_received += o.messages_received;
    seconds_in_comm += o.seconds_in_comm;
    modeled_seconds += o.modeled_seconds;
    reconnects += o.reconnects;
    frames_dropped += o.frames_dropped;
    return *this;
  }
};

class Communicator {
 public:
  Communicator() = default;
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int world_size() const = 0;
  virtual std::string name() const = 0;
  // True when point-to-point links exist only between rank 0 and the other
  // ranks (client/server star). The byte collectives then require root 0,
  // and the ring all-reduce is refused.
  virtual bool star_only() const { return false; }
  // Public tag allocation for external collective helpers.
  int claim_collective_tag() noexcept { return next_collective_tag(); }

  // --- point-to-point -------------------------------------------------------
  // Tags namespace the message streams; user code should use tags in
  // [0, 2^20), higher tags are reserved for collective internals.
  // Span-primary: backends read the payload during the call and never keep
  // the view (TCP copies into its outbox only while a link is down), so
  // callers can send straight out of a pooled frame buffer.
  virtual void send_bytes(int dst, int tag, ConstByteSpan payload) = 0;
  virtual Bytes recv_bytes(int src, int tag) = 0;

  // Owning-buffer convenience; forwards to the span overload.
  void send_bytes(int dst, int tag, const Bytes& payload) {
    send_bytes(dst, tag, ConstByteSpan(payload));
  }

  // Any-source receive: next message carrying `tag` from whichever peer
  // delivered first. The backbone of asynchronous aggregation (FedAsync):
  // the server consumes updates in completion order instead of rank order.
  // Backends without a natural any-source queue may not support it.
  virtual std::pair<int, Bytes> recv_bytes_any(int tag) {
    (void)tag;
    OF_CHECK_MSG(false, name() << " does not support any-source receive");
  }

  // Bounded-wait any-source receive: like recv_bytes_any, but returns
  // std::nullopt when `timeout_seconds` elapses instead of throwing. The
  // building block of deadline-based partial aggregation (star.hpp).
  virtual std::optional<std::pair<int, Bytes>> try_recv_bytes_any(int tag,
                                                                  double timeout_seconds) {
    (void)tag;
    (void)timeout_seconds;
    OF_CHECK_MSG(false, name() << " does not support bounded any-source receive");
  }

  // Liveness of the link to `rank`, when the backend can observe it (TCP
  // marks a peer down on EOF/write failure). Backends with no liveness
  // signal report every peer alive; callers must then rely on deadlines.
  virtual bool peer_alive(int rank) const {
    (void)rank;
    return true;
  }

  // --- collectives -----------------------------------------------------------
  // Ring all-reduce (reduce-scatter + all-gather) over the group; needs
  // all-to-all links, so a star backend rejects it.
  void allreduce(Tensor& t, ReduceOp op);

  // Variable-length byte gather (compressed payloads are not fixed-size):
  // the root returns every rank's frame in rank order, others an empty set.
  std::vector<Bytes> gather_bytes(const Bytes& b, int root);
  void broadcast_bytes(Bytes& b, int root);
  // All-gather of variable-length frames (sparse-codec exchange path).
  std::vector<Bytes> allgather_bytes(const Bytes& b);

  // Virtual so backends with thread-updated counters (TCP reconnects) can
  // merge them into the snapshot without racing the owner thread.
  virtual CommStats stats() const { return stats_; }
  void reset_stats() noexcept { stats_ = CommStats{}; }

 protected:
  // Subclasses route every wire crossing through these for accounting.
  void account_send(std::size_t bytes) noexcept {
    stats_.bytes_sent += bytes;
    ++stats_.messages_sent;
  }
  void account_recv(std::size_t bytes) noexcept {
    stats_.bytes_received += bytes;
    ++stats_.messages_received;
  }
  void account_time(double seconds) noexcept { stats_.seconds_in_comm += seconds; }
  void account_modeled(double seconds) noexcept { stats_.modeled_seconds += seconds; }

  // Fresh tag block for one collective invocation. All ranks call
  // collectives in the same order, so sequence numbers line up.
  //
  // The slot alone aliases once the sequence wraps the window: collective
  // N and N+window would share a tag, so a frame a slow peer left behind
  // from an old collective could satisfy a new collective's recv. The
  // epoch byte (bits 21..28) disambiguates adjacent wraps — a stale frame
  // from the previous pass through the window carries a different tag and
  // is never matched. (Aliasing returns after 256 full windows; with the
  // default 2^16 window that is ~16M collectives in flight, far beyond any
  // plausible backlog.)
  int next_collective_tag() noexcept {
    const std::uint32_t seq = collective_seq_++;
    const std::uint32_t slot = seq % collective_tag_window_;
    const std::uint32_t epoch = (seq / collective_tag_window_) % 256;
    return kCollectiveTagBase + 16 * static_cast<int>(slot) +
           (static_cast<int>(epoch) << 21);
  }

  static constexpr int kCollectiveTagBase = 1 << 20;
  static constexpr std::uint32_t kCollectiveSeqWindow = 1 << 16;

  CommStats stats_;

 public:
  // Shrink the slot window so a test can exercise the wrap path without
  // issuing 2^16 collectives. Production code never calls this.
  void set_collective_tag_window_for_test(std::uint32_t window) noexcept {
    collective_tag_window_ = window == 0 ? 1 : window;
  }

 private:
  std::uint32_t collective_seq_ = 0;
  std::uint32_t collective_tag_window_ = kCollectiveSeqWindow;
};

}  // namespace of::comm
