// TcpCommunicator — the GrpcCommunicator stand-in (paper §3.3).
//
// A real TCP client/server star: rank 0 is the server (aggregator-side),
// ranks 1..P-1 connect as clients. Frames are length-prefixed binary (our
// protocol-buffers stand-in), v2 with the trace context in the header
// (DESIGN.md §9):
//
//   u32 magic | i32 src | i32 tag | u32 round | u64 len
//                                 | u64 trace_id | u64 span_id | payload[len]
//
// Control tags live below the user/collective ranges: hello = −1,
// clock-sync ping = −2 / pong = −3 (a ping is answered by the thread that
// read it, on the server its event loop, never touching the collective tag
// window). A plain-text "GET " where a frame header would be is served as a
// read-only HTTP scrape of the obs registry/fleet (obs/scrape.hpp) and the
// connection closed; the response is written off the accept path under a
// deadline, so a stalled scraper cannot wedge admission of real ranks.
//
// Server side (rank 0): one epoll event loop (event_loop.hpp) owns the
// listen socket and every accepted connection. Accepted sockets are
// nonblocking; a per-connection state machine reassembles v2 frames
// (sniff → hello → header → payload), so thousands of clients multiplex in
// one thread instead of one blocking reader thread each (DESIGN.md §10).
// Clients keep a single blocking reader thread for their one server link.
// Both ends pass every header through one check (magic, frame cap) and
// hand every complete frame to one deliver(), which answers pings and
// posts everything else to the inbox.
//
// Point-to-point is only defined along star edges (server↔client), so
// star_only() restricts the base byte collectives to root 0 and refuses
// the ring all-reduce: gather = clients send to the server, broadcast =
// server sends to each client. This reproduces gRPC-based FL's O(P · model)
// server bottleneck that the paper contrasts with ring all-reduce.
//
// Fault tolerance (optional, per-communicator): a broken link marks the
// peer down instead of killing the run. Clients reconnect with capped
// exponential backoff; the server keeps accepting so a rejoining client is
// re-admitted mid-run. Frames sent while a link is down are queued (bounded)
// and replayed on reconnect; overflow is dropped and counted. Liveness is
// observable through peer_alive(), reconnects/frames_dropped through
// stats() — the raw material of deadline-based partial aggregation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "obs/clocksync.hpp"
#include "obs/context.hpp"

namespace of::comm {

class EventLoop;

struct TcpFaultTolerance {
  bool enabled = false;
  int max_reconnect_attempts = 8;
  double backoff_seconds = 0.05;      // first retry delay
  double backoff_max_seconds = 2.0;   // exponential backoff cap
  // Initial-connect budget (make_client): retries with jittered exponential
  // backoff until this deadline, then fails with a clean error instead of
  // spinning forever against a coordinator that never bound.
  double connect_timeout_seconds = 30.0;
  // Seed for the connect-backoff jitter chain. 0 = derive from (rank, port),
  // which decorrelates a connect burst but differs run to run; the Engine
  // sets a splitmix64-derived per-node seed so retry schedules reproduce
  // with the run seed.
  std::uint64_t connect_backoff_seed = 0;
};

// The initial-connect retry pacing: jittered exponential backoff, delay ×2
// per attempt, jitter in [0.5, 1.5), both capped at 0.5 s. Pure in `seed` —
// two chains with the same seed produce the identical schedule, which is
// what makes a run's connect storm reproducible (tests/test_comm.cpp).
class ConnectBackoff {
 public:
  explicit ConnectBackoff(std::uint64_t seed) : state_(seed) {}
  // Delay before the next connect attempt, seconds.
  double next();

 private:
  std::uint64_t state_;
  double delay_ = 0.02;
};

// The first `attempts` delays of the chain, for schedule-level assertions.
std::vector<double> connect_backoff_schedule(std::uint64_t seed, int attempts);

class TcpCommunicator final : public Communicator {
 public:
  using FaultTolerance = TcpFaultTolerance;

  // Bind + listen on `port` (0 = ephemeral), accept `world_size`-1 clients.
  // Blocks until the group is fully connected.
  static std::unique_ptr<TcpCommunicator> make_server(std::uint16_t port, int world_size,
                                                      FaultTolerance ft = {});
  // Connect to the server; `rank` in [1, world_size).
  static std::unique_ptr<TcpCommunicator> make_client(const std::string& host,
                                                      std::uint16_t port, int rank,
                                                      int world_size, FaultTolerance ft = {});

  ~TcpCommunicator() override;

  int rank() const override { return rank_; }
  int world_size() const override { return world_size_; }
  std::string name() const override { return "TcpCommunicator"; }
  bool star_only() const override { return true; }
  std::uint16_t port() const noexcept { return port_; }

  void send_bytes(int dst, int tag, ConstByteSpan payload) override;
  using Communicator::send_bytes;
  Bytes recv_bytes(int src, int tag) override;
  std::pair<int, Bytes> recv_bytes_any(int tag) override;
  std::optional<std::pair<int, Bytes>> try_recv_bytes_any(int tag,
                                                          double timeout_seconds) override;
  bool peer_alive(int rank) const override;
  CommStats stats() const override;

  void set_recv_timeout(double seconds) noexcept { timeout_seconds_ = seconds; }
  std::uint64_t reconnect_count() const noexcept { return reconnects_.load(); }

  // Fault-injection hook: tear down the live socket to `peer_rank` (clients:
  // 0, the server link). Both sides observe the loss; with fault tolerance
  // on, the client reconnects with backoff and queued frames are replayed.
  void inject_disconnect(int peer_rank = 0);

  // Server only: observe the event loop's connection lifecycle. Fired on
  // the loop thread with (client rank, up) at every admission and drop —
  // the transport-level liveness feed of the serving tier's population
  // registry (src/serve/registry.hpp). Pass nullptr to detach; callers must
  // detach before destroying whatever the callback captures.
  void set_peer_lifecycle(std::function<void(int, bool)> cb);

  // Clock-sync ping (clients only): send a ping to the server, wait for the
  // pong, and return the (t0, server, t1) sample for the offset estimator.
  // Pings ride control tag −2/−3 — they never claim a collective tag, so a
  // re-ping can interleave freely with an in-flight gather even under a
  // shrunken tag window. Returns nullopt if the link is down or the pong
  // doesn't arrive within the timeout.
  std::optional<obs::ClockSample> ping_server(double timeout_seconds = 1.0);

  // Test hook: skew the server's pong timestamps by `ns` so offset recovery
  // can be exercised within one process (which shares one steady clock).
  void set_pong_skew_for_test(std::int64_t ns) noexcept {
    pong_skew_ns_.store(ns, std::memory_order_relaxed);
  }

 private:
  // A queued-or-delivered frame: payload plus the sender's trace context
  // (captured at send time so a replay after reconnect keeps its origin).
  struct Frame {
    int tag = 0;
    Bytes payload;
    obs::TraceContext ctx;
  };

  // One star edge. `mu` guards fd/up/outbox and serializes frame writes so
  // concurrent senders cannot interleave.
  struct Peer {
    int fd = -1;
    bool up = false;
    std::mutex mu;
    std::deque<Frame> outbox;  // frames queued while down
  };

  // An inbox entry: the received payload and the frame header's context,
  // adopted by the thread that takes the frame.
  struct Inbound {
    Bytes payload;
    obs::TraceContext ctx;
  };

  TcpCommunicator(int rank, int world_size, FaultTolerance ft);

  void start_reader(int peer_rank, int fd);
  void reader_main(int peer_rank, int fd);
  // Pull frames off `fd` and deliver them until the link breaks.
  void read_frames(int peer_rank, int fd);
  // Client-side reconnect loop (capped exponential backoff). Returns the new
  // fd, or -1 when attempts are exhausted or shutdown began.
  int client_reconnect();
  // Sleep in small slices so shutdown stays responsive; false if shutting down.
  bool interruptible_sleep(double seconds);

  // --- event-driven server side (rank 0) — all run on the loop thread ---------
  // Drain the nonblocking listen socket: accept, register the connection
  // state machine, arm its hello-admission deadline.
  void server_on_accept();
  // Readiness callback for one accepted connection: advance its read (or
  // HTTP write) state machine as far as the socket allows.
  void server_on_conn(int fd, std::uint32_t events);
  // Per-connection deadline: hello never arrived / scrape stalled. Drops
  // the connection quietly (a silent connector is not a member).
  void server_on_deadline(int fd);
  // Admit a connection that delivered a valid hello as peer `src`.
  void server_admit(int fd, int src);
  // Tear down one connection. `err` non-empty aborts setup during group
  // formation (a misbehaving member), and is ignored mid-run.
  void server_drop_conn(int fd, const std::string& err);

  // Deliver one complete frame from `peer_rank`, on either end: answer a
  // ping inline, post everything else to the inbox. False on a malformed
  // control frame; the caller then drops the link.
  bool deliver(int peer_rank, int tag, Inbound&& frame);

  Peer& peer(int rank);
  const Peer& peer(int rank) const;
  bool write_frame_locked(Peer& p, int tag, ConstByteSpan payload,
                          const obs::TraceContext& ctx);
  void queue_frame_locked(Peer& p, int tag, ConstByteSpan payload,
                          const obs::TraceContext& ctx);
  void flush_outbox_locked(Peer& p);
  void retire_fd(int fd);
  // Pop the oldest frame from (src, tag), waiting up to the receive timeout.
  // Without fault tolerance a dead link stays dead, so once nothing is
  // queued and the link to `src` is down it throws at once.
  Bytes take(int src, int tag);
  // A link went down without fault tolerance: wake every take() so waiters
  // on that peer fail now instead of at their timeout.
  void wake_receivers();

  int rank_;
  int world_size_;
  FaultTolerance ft_;
  std::uint16_t port_ = 0;
  std::string host_;  // clients: server address, for reconnects
  int listen_fd_ = -1;

  // peer rank → link state (server: one per client; client: {0 → server}).
  // The map is populated before any thread starts and never resized after,
  // so lookups are lock-free; per-peer state is guarded by Peer::mu.
  std::map<int, std::unique_ptr<Peer>> peers_;

  std::mutex setup_mu_;  // guards the three fields below + retired_fds_
  std::condition_variable setup_cv_;
  int connected_ = 0;
  bool initial_done_ = false;
  std::string setup_error_;
  std::vector<int> retired_fds_;  // fds replaced by a rejoin; closed at teardown

  // Server: the epoll reactor and its per-connection read-state machines
  // (defined in tcp.cpp; loop-thread-owned).
  struct ServerState;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ServerState> srv_;

  std::mutex lifecycle_mu_;
  std::function<void(int, bool)> lifecycle_;  // server: admission/drop observer
  void notify_lifecycle(int peer_rank, bool up);

  std::mutex readers_mu_;
  std::vector<std::thread> readers_;
  std::atomic<bool> shutting_down_{false};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::int64_t> pong_skew_ns_{0};
  std::atomic<std::uint64_t> ping_token_{0};

  std::mutex inbox_mu_;
  std::condition_variable inbox_cv_;
  std::map<std::pair<int, int>, std::queue<Inbound>> inbox_;
  double timeout_seconds_ = 60.0;
};

}  // namespace of::comm
