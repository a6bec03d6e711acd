#include "comm/tcp.hpp"

#include "comm/event_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "obs/registry.hpp"
#include "obs/scrape.hpp"
#include "obs/trace.hpp"

namespace of::comm {
namespace {

// Global mirrors of the per-instance telemetry atomics. The members keep
// their per-communicator semantics (CommStats reports one link's counts);
// the registry gives the uniform process-wide surface exporters read.
obs::Counter& tcp_reconnects() {
  static obs::Counter& c = obs::Registry::global().counter("tcp.reconnects");
  return c;
}
obs::Counter& tcp_frames_dropped() {
  static obs::Counter& c = obs::Registry::global().counter("tcp.frames_dropped");
  return c;
}
obs::Histogram& tcp_frame_recv_bytes() {
  static obs::Histogram& h = obs::Registry::global().histogram("tcp.recv_frame_bytes");
  return h;
}

constexpr std::uint32_t kMagic = 0x0F5EED02u;  // v2: header carries trace context
constexpr int kHelloTag = -1;
// Clock-sync control frames (DESIGN.md §9): a client ping carries an 8-byte
// echo token; the server's reader answers immediately with pong = token +
// its own timestamp. Negative tags sit below the user range [0, 2^20) and
// the collective range, so pings can never alias a collective slot.
constexpr int kPingTag = -2;
constexpr int kPongTag = -3;
// Upper bound on a single frame payload. Anything larger is a corrupt or
// hostile header — reject it before allocating.
constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;  // 1 GiB
// Frames queued per downed link before the oldest is dropped.
constexpr std::size_t kMaxOutboxFrames = 128;
// A connecting socket must deliver its hello within this budget, or its
// connection state is dropped (a silent connector must not hold
// per-connection state forever — it was never a member).
constexpr double kHelloTimeoutSeconds = 10.0;
// Budget for one HTTP scrape, receive and send combined. Served off the
// event loop, so a stalled scraper costs one fd for this long — it never
// wedges admission of real ranks.
constexpr double kScrapeDeadlineSeconds = 2.0;
// A send that makes no progress for this long means the peer stopped
// draining; treat the link as broken (accepted sockets are nonblocking, so
// backpressure surfaces as EAGAIN instead of blocking in the kernel).
constexpr double kWriteStallSeconds = 60.0;
// Scrape requests larger than this are garbage, not HTTP.
constexpr std::size_t kMaxHttpRequestBytes = 8192;

// Wire header v2 — 40 bytes, naturally aligned, no padding. Mirrored by
// tests/test_comm.cpp; keep the two in lockstep.
struct FrameHeader {
  std::uint32_t magic;
  std::int32_t src;
  std::int32_t tag;
  std::uint32_t round;
  std::uint64_t len;
  std::uint64_t trace_id;
  std::uint64_t span_id;
};
static_assert(sizeof(FrameHeader) == 40, "frame header must stay packed");

// The one check every received header passes, on both ends: a wrong magic
// or a length past the frame cap is a corrupt or hostile peer, rejected
// before any payload is allocated.
bool header_ok(const FrameHeader& h) {
  return h.magic == kMagic && h.len <= kMaxFrameBytes;
}

obs::TraceContext context_of(const FrameHeader& h) {
  return obs::TraceContext{h.trace_id, h.span_id, h.round};
}

bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0 && errno == EINTR) continue;  // interrupted, not broken
    if (r <= 0) return false;               // EOF or error — connection closing
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_exact(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a closed peer must surface as EPIPE, not kill the process.
    const ssize_t w = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in resolve(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  OF_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
               "bad server address '" << host << "'");
  return addr;
}

// One fresh socket per attempt: a fd whose connect() failed is in an
// unspecified state and must not be reused.
int connect_once(const sockaddr_in& addr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

void put_le64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Render the response for one scrape request (the path ends at the first
// space or CR). The sniffed "GET " prefix is part of `req`.
std::string render_scrape_response(const std::string& req) {
  std::string rest = req.substr(4);
  std::size_t end = rest.find(' ');
  if (end == std::string::npos) end = rest.find('\r');
  const std::string path = end == std::string::npos ? rest : rest.substr(0, end);
  return obs::render_http(obs::handle_scrape(path));
}

// splitmix64 step — jitter for the connect backoff, no global RNG state.
std::uint64_t mix64(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

double ConnectBackoff::next() {
  // Jitter in [0.5, 1.5) × delay so a 10k-client burst doesn't retry in
  // lockstep; delay doubles per attempt, both capped at 0.5 s.
  const double jitter = 0.5 + static_cast<double>(mix64(state_) % 1024) / 1024.0;
  const double d = std::min(delay_ * jitter, 0.5);
  delay_ = std::min(delay_ * 2.0, 0.5);
  return d;
}

std::vector<double> connect_backoff_schedule(std::uint64_t seed, int attempts) {
  ConnectBackoff b(seed);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(attempts));
  for (int i = 0; i < attempts; ++i) out.push_back(b.next());
  return out;
}

// Server-side connection state machines. The whole struct is owned by the
// event-loop thread: every mutation happens inside a loop callback, so no
// lock guards it. An fd appears in `conns` from accept until drop — entry
// presence is fd ownership.
struct TcpCommunicator::ServerState {
  enum class Stage { kSniff, kHello, kHeader, kPayload, kHttpRead, kHttpWrite };
  struct Conn {
    Stage stage = Stage::kSniff;
    int peer = -1;        // admitted rank; -1 until the hello is validated
    std::size_t got = 0;  // bytes of the current unit (sniff/header/payload) read
    std::uint8_t head[sizeof(FrameHeader)];
    FrameHeader h{};  // current frame header, once reassembled
    Bytes payload;
    std::string http_req;   // scrape request, accumulated until CRLFCRLF
    std::string http_resp;  // scrape response, drained under EPOLLOUT
    std::size_t http_sent = 0;
  };
  std::map<int, std::unique_ptr<Conn>> conns;  // fd → state machine
  std::map<int, int> fd_of_peer;               // admitted rank → live fd
};

TcpCommunicator::TcpCommunicator(int rank, int world_size, FaultTolerance ft)
    : rank_(rank), world_size_(world_size), ft_(ft) {
  if (rank == 0) {
    for (int p = 1; p < world_size; ++p) peers_[p] = std::make_unique<Peer>();
  } else {
    peers_[0] = std::make_unique<Peer>();
  }
}

TcpCommunicator::Peer& TcpCommunicator::peer(int rank) {
  auto it = peers_.find(rank);
  OF_CHECK_MSG(it != peers_.end(),
               "no TCP link from rank " << rank_ << " to rank " << rank
                                        << " (star topology: clients only talk to the server)");
  return *it->second;
}

const TcpCommunicator::Peer& TcpCommunicator::peer(int rank) const {
  return const_cast<TcpCommunicator*>(this)->peer(rank);
}

std::unique_ptr<TcpCommunicator> TcpCommunicator::make_server(std::uint16_t port,
                                                              int world_size,
                                                              FaultTolerance ft) {
  OF_CHECK_MSG(world_size >= 1, "world size must be >= 1");
  auto comm = std::unique_ptr<TcpCommunicator>(new TcpCommunicator(0, world_size, ft));

  comm->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  OF_CHECK_MSG(comm->listen_fd_ >= 0, "socket() failed");
  int one = 1;
  ::setsockopt(comm->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  OF_CHECK_MSG(::bind(comm->listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
               "bind() failed on port " << port << " (errno=" << errno << ")");
  // Full kernel backlog: at 10k-client scale every rank connects in one burst
  // at round start, and a backlog capped at world_size drops SYNs.
  OF_CHECK_MSG(::listen(comm->listen_fd_, SOMAXCONN) == 0, "listen() failed");

  socklen_t alen = sizeof(addr);
  OF_CHECK(::getsockname(comm->listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen) == 0);
  comm->port_ = ntohs(addr.sin_port);

  // One event loop serves the initial connects, any mid-run rejoins, and
  // HTTP scrapes; construction blocks until the group is complete.
  set_nonblocking(comm->listen_fd_);
  comm->srv_ = std::make_unique<ServerState>();
  comm->loop_ = std::make_unique<EventLoop>();
  comm->loop_->add_fd(comm->listen_fd_, EPOLLIN,
                      [c = comm.get()](std::uint32_t) { c->server_on_accept(); });
  comm->loop_->start();
  {
    std::unique_lock<std::mutex> lock(comm->setup_mu_);
    const bool ok = comm->setup_cv_.wait_for(lock, std::chrono::seconds(120), [&] {
      return comm->connected_ == world_size - 1 || !comm->setup_error_.empty();
    });
    const std::string err = comm->setup_error_;
    comm->initial_done_ = true;
    lock.unlock();
    OF_CHECK_MSG(err.empty(), err);
    OF_CHECK_MSG(ok, "TCP server timed out waiting for " << world_size - 1 << " clients");
  }
  return comm;
}

std::unique_ptr<TcpCommunicator> TcpCommunicator::make_client(const std::string& host,
                                                              std::uint16_t port, int rank,
                                                              int world_size,
                                                              FaultTolerance ft) {
  OF_CHECK_MSG(rank >= 1 && rank < world_size, "client rank must be in [1, world)");
  auto comm = std::unique_ptr<TcpCommunicator>(new TcpCommunicator(rank, world_size, ft));
  comm->host_ = host;
  comm->port_ = port;
  const sockaddr_in addr = resolve(host, port);
  // Retry with jittered exponential backoff: the server may still be binding,
  // but a coordinator that never binds must surface as a clean error within
  // the connect budget, not an infinite 20 ms spin.
  const double budget =
      ft.connect_timeout_seconds > 0 ? ft.connect_timeout_seconds : 30.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(budget);
  ConnectBackoff backoff(ft.connect_backoff_seed != 0
                             ? ft.connect_backoff_seed
                             : (static_cast<std::uint64_t>(rank) << 32) ^
                                   static_cast<std::uint64_t>(port));
  int attempts = 0;
  int fd = -1;
  for (;;) {
    ++attempts;
    fd = connect_once(addr);
    if (fd >= 0) break;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const double remain = std::chrono::duration<double>(deadline - now).count();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(backoff.next(), remain)));
  }
  OF_CHECK_MSG(fd >= 0, "connect() to " << host << ':' << port << " failed after "
                            << attempts << " attempts over " << budget
                            << "s — is the coordinator up?");
  // Hello frame announces our rank.
  FrameHeader h{kMagic, rank, kHelloTag, 0, 0, 0, 0};
  if (!write_exact(fd, &h, sizeof(h))) {
    ::close(fd);
    OF_CHECK_MSG(false, "client hello write to " << host << ':' << port << " failed");
  }
  Peer& p = comm->peer(0);
  p.fd = fd;
  p.up = true;
  comm->start_reader(0, fd);
  return comm;
}

TcpCommunicator::~TcpCommunicator() {
  shutting_down_.store(true);
  // Stop the server loop first: once it is joined, no callback can race the
  // teardown below, and srv_ is safe to walk from this thread.
  if (loop_) loop_->stop();
  for (auto& [r, p] : peers_) {
    std::lock_guard<std::mutex> lock(p->mu);
    if (p->fd >= 0) ::shutdown(p->fd, SHUT_RDWR);
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (auto& t : readers_)
    if (t.joinable()) t.join();
  for (auto& [r, p] : peers_)
    if (p->fd >= 0) ::close(p->fd);
  for (int fd : retired_fds_) ::close(fd);
  if (srv_) {
    // Admitted fds were closed through peers_ above; what's left is
    // pre-admission and scrape connections.
    for (auto& [fd, c] : srv_->conns)
      if (c->peer < 0) ::close(fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpCommunicator::set_peer_lifecycle(std::function<void(int, bool)> cb) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  lifecycle_ = std::move(cb);
}

void TcpCommunicator::notify_lifecycle(int peer_rank, bool up) {
  // Run the observer under the lock: once set_peer_lifecycle(nullptr)
  // returns, no call is still running against state its owner destroys next.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (lifecycle_) lifecycle_(peer_rank, up);
}

void TcpCommunicator::retire_fd(int fd) {
  // Keep the descriptor open (a reader may still be blocked on it) but dead;
  // actually closed at teardown so the number can't be reused mid-run.
  ::shutdown(fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(setup_mu_);
  retired_fds_.push_back(fd);
}

// --- event-driven server side — every method below runs on the loop thread ----

void TcpCommunicator::server_on_accept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (backlog drained) or listen socket shut down
    }
    if (shutting_down_.load()) {
      ::close(fd);
      return;
    }
    set_nodelay(fd);
    srv_->conns[fd] = std::make_unique<ServerState::Conn>();
    // Hello-admission budget: a silent connector must not hold per-connection
    // state forever. Fires unless the conn is admitted (or sniffs as HTTP,
    // which re-arms the tighter scrape deadline) first.
    loop_->arm_deadline(fd, kHelloTimeoutSeconds,
                        [this, fd] { server_on_deadline(fd); });
    loop_->add_fd(fd, EPOLLIN,
                  [this, fd](std::uint32_t ev) { server_on_conn(fd, ev); });
  }
}

void TcpCommunicator::server_on_deadline(int fd) {
  // Hello never arrived, or a scrape stalled. Either way the connection was
  // never (or is no longer) useful — drop it quietly; a real member that lost
  // the race simply reconnects.
  server_drop_conn(fd, std::string());
}

void TcpCommunicator::server_drop_conn(int fd, const std::string& err) {
  auto it = srv_->conns.find(fd);
  if (it == srv_->conns.end()) return;
  const int peer_rank = it->second->peer;
  loop_->remove_fd(fd);
  srv_->conns.erase(it);
  if (peer_rank >= 0) {
    srv_->fd_of_peer.erase(peer_rank);
    // Wake any sender stalled in poll(POLLOUT) on this socket before taking
    // the peer lock it holds.
    ::shutdown(fd, SHUT_RDWR);
    Peer& p = peer(peer_rank);
    {
      std::lock_guard<std::mutex> lock(p.mu);
      if (p.fd == fd) {
        p.up = false;
        p.fd = -1;  // closed below; a rejoin installs a fresh fd
      }
    }
    if (!ft_.enabled) wake_receivers();
    notify_lifecycle(peer_rank, false);
  }
  ::close(fd);
  if (!err.empty()) {
    // During group formation a malformed hello aborts construction (the
    // connecting side is part of this run and is misbehaving). Mid-run
    // garbage was already dropped above.
    std::lock_guard<std::mutex> lock(setup_mu_);
    if (!initial_done_ && setup_error_.empty()) {
      setup_error_ = err;
      setup_cv_.notify_all();
    }
  }
}

void TcpCommunicator::server_admit(int fd, int src) {
  loop_->cancel_deadline(fd);
  bool initial = false;
  {
    std::lock_guard<std::mutex> lock(setup_mu_);
    initial = !initial_done_;
  }
  Peer& p = peer(src);
  if (initial) {
    bool duplicate = false;
    {
      std::lock_guard<std::mutex> lock(p.mu);
      duplicate = p.up;
    }
    if (duplicate) {
      server_drop_conn(fd, "duplicate client rank " + std::to_string(src));
      return;
    }
  }
  // A rejoin replaces the old link. Shut the old socket down before taking
  // the peer lock so a sender stalled on it wakes up and releases the lock.
  const auto old_it = srv_->fd_of_peer.find(src);
  const int old_fd = old_it == srv_->fd_of_peer.end() ? -1 : old_it->second;
  if (old_fd >= 0) {
    ::shutdown(old_fd, SHUT_RDWR);
    loop_->remove_fd(old_fd);
    srv_->conns.erase(old_fd);
  }
  srv_->conns[fd]->peer = src;
  srv_->fd_of_peer[src] = fd;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    p.fd = fd;
    p.up = true;
    if (!initial) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      tcp_reconnects().inc();
      obs::instant(obs::Name::TcpReconnect, rank_, 0,
                   static_cast<std::uint64_t>(src));
    }
    flush_outbox_locked(p);
  }
  if (old_fd >= 0) ::close(old_fd);  // no sender can hold it once p.fd moved on
  notify_lifecycle(src, true);
  if (initial) {
    std::lock_guard<std::mutex> lock(setup_mu_);
    ++connected_;
    setup_cv_.notify_all();
  }
}

bool TcpCommunicator::deliver(int peer_rank, int tag, Inbound&& frame) {
  if (tag == kPingTag) {
    // Clock-sync ping: answer from the reading thread so the sample never
    // waits behind application recvs. Payload: echo token + our clock
    // (trace timebase), plus the injectable test skew.
    if (frame.payload.size() != 8) return false;  // malformed control frame
    Bytes pong;
    pong.reserve(16);
    put_le64(pong, get_le64(frame.payload.data()));
    const std::int64_t server_ns =
        static_cast<std::int64_t>(obs::TraceRecorder::global().now_ns()) +
        pong_skew_ns_.load(std::memory_order_relaxed);
    put_le64(pong, static_cast<std::uint64_t>(server_ns));
    Peer& p = peer(peer_rank);
    std::lock_guard<std::mutex> lock(p.mu);
    if (p.up && p.fd >= 0)
      (void)write_frame_locked(p, kPongTag, ConstByteSpan(pong), {});
    return true;
  }
  tcp_frame_recv_bytes().observe(frame.payload.size());
  obs::instant(obs::Name::TcpRecv, rank_, 0, frame.payload.size());
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_[{peer_rank, tag}].push(std::move(frame));
  }
  inbox_cv_.notify_all();
  return true;
}

void TcpCommunicator::server_on_conn(int fd, std::uint32_t events) {
  (void)events;  // level-triggered: state decides what to attempt, not the mask
  auto it = srv_->conns.find(fd);
  if (it == srv_->conns.end()) return;
  ServerState::Conn* c = it->second.get();
  using Stage = ServerState::Stage;

  if (c->stage == Stage::kHttpWrite) {
    while (c->http_sent < c->http_resp.size()) {
      const ssize_t w = ::send(fd, c->http_resp.data() + c->http_sent,
                               c->http_resp.size() - c->http_sent, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (w <= 0) {
        server_drop_conn(fd, std::string());
        return;
      }
      c->http_sent += static_cast<std::size_t>(w);
    }
    server_drop_conn(fd, std::string());  // response complete; scrapes are one-shot
    return;
  }

  for (;;) {
    // One read per iteration; the stage decides the destination buffer.
    std::uint8_t* dst = nullptr;
    std::size_t want = 0;
    char http_buf[512];
    switch (c->stage) {
      case Stage::kSniff:
        dst = c->head;
        want = 4;
        break;
      case Stage::kHello:
      case Stage::kHeader:
        dst = c->head;
        want = sizeof(FrameHeader);
        break;
      case Stage::kPayload:
        dst = c->payload.data();
        want = c->payload.size();
        break;
      case Stage::kHttpRead:
        dst = reinterpret_cast<std::uint8_t*>(http_buf);
        want = c->got + sizeof(http_buf);  // unbounded unit; got tracks nothing
        break;
      case Stage::kHttpWrite:
        return;  // handled above
    }
    const std::size_t room = c->stage == Stage::kHttpRead ? sizeof(http_buf)
                                                          : want - c->got;
    const ssize_t r = ::read(fd, c->stage == Stage::kHttpRead ? dst : dst + c->got,
                             room);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (r <= 0) {
      // EOF or error. Pre-admission this is a vanished connector (dropped
      // quietly — it was never a member); post-admission it is a broken
      // link, surfaced through peer_alive()/fault tolerance.
      server_drop_conn(fd, std::string());
      return;
    }

    if (c->stage == Stage::kHttpRead) {
      c->http_req.append(http_buf, static_cast<std::size_t>(r));
      if (c->http_req.size() > kMaxHttpRequestBytes) {
        server_drop_conn(fd, std::string());  // garbage, not HTTP
        return;
      }
      if (c->http_req.find("\r\n\r\n") == std::string::npos) continue;
      c->http_resp = render_scrape_response(c->http_req);
      c->http_sent = 0;
      c->stage = Stage::kHttpWrite;
      // Level-triggered EPOLLOUT fires immediately on a writable socket, so
      // the response goes out on the next loop pass.
      loop_->modify_fd(fd, EPOLLOUT);
      return;
    }

    c->got += static_cast<std::size_t>(r);
    if (c->got < want) continue;

    switch (c->stage) {
      case Stage::kSniff:
        if (std::memcmp(c->head, "GET ", 4) == 0) {
          // HTTP scrape, never a peer: tighter deadline covers recv + send.
          c->stage = Stage::kHttpRead;
          c->http_req.assign(reinterpret_cast<char*>(c->head), 4);
          loop_->arm_deadline(fd, kScrapeDeadlineSeconds,
                              [this, fd] { server_on_deadline(fd); });
        } else {
          c->stage = Stage::kHello;  // head already holds the first 4 bytes
        }
        break;
      case Stage::kHello: {
        FrameHeader h;
        std::memcpy(&h, c->head, sizeof(h));
        std::string err;
        if (!header_ok(h) || h.tag != kHelloTag || h.len != 0)
          err = "malformed client hello";
        else if (h.src < 1 || h.src >= world_size_)
          err = "client announced invalid rank " + std::to_string(h.src);
        if (!err.empty()) {
          server_drop_conn(fd, err);
          return;
        }
        server_admit(fd, h.src);
        if (srv_->conns.find(fd) == srv_->conns.end()) return;  // admit refused
        c->stage = Stage::kHeader;
        c->got = 0;
        break;
      }
      case Stage::kHeader:
        std::memcpy(&c->h, c->head, sizeof(c->h));
        if (!header_ok(c->h)) {
          server_drop_conn(fd, std::string());  // protocol violation → drop link
          return;
        }
        c->got = 0;
        c->payload.resize(c->h.len);
        if (c->h.len > 0) {
          c->stage = Stage::kPayload;
          break;
        }
        [[fallthrough]];  // an empty frame is complete with its header
      case Stage::kPayload:
        c->stage = Stage::kHeader;
        c->got = 0;
        if (!deliver(c->peer, c->h.tag,
                     Inbound{std::exchange(c->payload, Bytes{}), context_of(c->h)})) {
          server_drop_conn(fd, std::string());
          return;
        }
        break;
      case Stage::kHttpRead:
      case Stage::kHttpWrite:
        break;  // unreachable
    }
  }
}

void TcpCommunicator::start_reader(int peer_rank, int fd) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  readers_.emplace_back([this, peer_rank, fd] { reader_main(peer_rank, fd); });
}

void TcpCommunicator::reader_main(int peer_rank, int fd) {
  for (;;) {
    read_frames(peer_rank, fd);  // returns when the link breaks
    if (shutting_down_.load()) return;
    Peer& p = peer(peer_rank);
    {
      std::lock_guard<std::mutex> lock(p.mu);
      if (p.fd != fd) return;  // a rejoin already replaced this link; new reader owns it
      p.up = false;
    }
    // Only clients run readers (the server multiplexes on its event loop);
    // without fault tolerance a dead link stays dead.
    if (!ft_.enabled) wake_receivers();
    if (rank_ == 0 || !ft_.enabled) return;
    const int nfd = client_reconnect();
    if (nfd < 0) return;  // gave up (or shutdown)
    fd = nfd;
  }
}

void TcpCommunicator::read_frames(int peer_rank, int fd) {
  for (;;) {
    // Returning drops the link: the peer closed, or sent a frame that
    // violates the protocol.
    FrameHeader h{};
    if (!read_exact(fd, &h, sizeof(h)) || !header_ok(h)) return;
    Bytes payload(h.len);
    if (h.len > 0 && !read_exact(fd, payload.data(), payload.size())) return;
    if (!deliver(peer_rank, h.tag, Inbound{std::move(payload), context_of(h)})) return;
  }
}

bool TcpCommunicator::interruptible_sleep(double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (shutting_down_.load()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return !shutting_down_.load();
}

int TcpCommunicator::client_reconnect() {
  const sockaddr_in addr = resolve(host_, port_);
  Peer& p = peer(0);
  double backoff = ft_.backoff_seconds;
  for (int attempt = 0; attempt < ft_.max_reconnect_attempts; ++attempt) {
    {
      obs::ScopedSpan backoff_span(obs::Name::TcpBackoff, rank_, 0,
                                   static_cast<std::uint64_t>(attempt));
      if (!interruptible_sleep(backoff)) return -1;
    }
    backoff = std::min(backoff * 2.0, ft_.backoff_max_seconds);
    const int fd = connect_once(addr);
    if (fd < 0) continue;
    FrameHeader h{kMagic, rank_, kHelloTag, 0, 0, 0, 0};
    if (!write_exact(fd, &h, sizeof(h))) {
      ::close(fd);
      continue;
    }
    std::lock_guard<std::mutex> lock(p.mu);
    if (shutting_down_.load()) {
      ::close(fd);
      return -1;
    }
    if (p.fd >= 0) retire_fd(p.fd);
    p.fd = fd;
    p.up = true;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    tcp_reconnects().inc();
    obs::instant(obs::Name::TcpReconnect, rank_, 0, 0);
    flush_outbox_locked(p);
    return fd;
  }
  return -1;
}

bool TcpCommunicator::write_frame_locked(Peer& p, int tag, ConstByteSpan payload,
                                         const obs::TraceContext& ctx) {
  FrameHeader h{kMagic, rank_, tag, ctx.round, payload.size(), ctx.trace_id, ctx.span_id};
  // One frame = header + payload under the peer lock so concurrent senders
  // cannot interleave. Scatter I/O sends both pieces in one syscall without
  // building a combined buffer; sendmsg rather than writev so MSG_NOSIGNAL
  // applies (a closed peer must surface as EPIPE, not kill the process).
  // The loop advances the iovec across partial writes, which may stop
  // anywhere, including mid-header.
  iovec iov[2];
  iov[0].iov_base = &h;
  iov[0].iov_len = sizeof(h);
  iov[1].iov_base = const_cast<std::uint8_t*>(payload.data());
  iov[1].iov_len = payload.size();
  const int iov_cnt = payload.empty() ? 1 : 2;
  int idx = 0;
  while (idx < iov_cnt) {
    msghdr msg{};
    msg.msg_iov = &iov[idx];
    msg.msg_iovlen = static_cast<std::size_t>(iov_cnt - idx);
    const ssize_t n = ::sendmsg(p.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Server-side sockets are nonblocking, so backpressure surfaces here
        // instead of blocking in the kernel. Wait for drain under a stall
        // budget: a peer that stopped reading breaks the link rather than
        // wedging the sender (and whoever waits on the peer lock) forever.
        pollfd pf{p.fd, POLLOUT, 0};
        const int pr = ::poll(&pf, 1, static_cast<int>(kWriteStallSeconds * 1000));
        if (pr > 0) continue;
        return false;  // stall budget exhausted, or the socket died
      }
      return false;
    }
    std::size_t left = static_cast<std::size_t>(n);
    while (idx < iov_cnt && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < iov_cnt && left > 0) {
      iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
  }
  return true;
}

void TcpCommunicator::queue_frame_locked(Peer& p, int tag, ConstByteSpan payload,
                                         const obs::TraceContext& ctx) {
  if (p.outbox.size() >= kMaxOutboxFrames) {
    p.outbox.pop_front();  // oldest frame is the stalest — sacrifice it
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    tcp_frames_dropped().inc();
  }
  // The outbox outlives the caller's view, so this is the one place the
  // span is copied into an owned buffer.
  p.outbox.push_back(Frame{tag, Bytes(payload.begin(), payload.end()), ctx});
}

void TcpCommunicator::flush_outbox_locked(Peer& p) {
  while (!p.outbox.empty()) {
    Frame& f = p.outbox.front();
    if (!write_frame_locked(p, f.tag, f.payload, f.ctx)) {
      p.up = false;  // link died again mid-flush; keep the rest queued
      return;
    }
    p.outbox.pop_front();
  }
}

void TcpCommunicator::send_bytes(int dst, int tag, ConstByteSpan payload) {
  obs::ScopedSpan span(obs::Name::TcpSend, rank_, 0, payload.size());
  // Capture the sender's context outside the peer lock; one relaxed load
  // when tracing is off.
  const obs::TraceContext ctx = obs::current_context();
  Peer& p = peer(dst);
  std::lock_guard<std::mutex> lock(p.mu);
  if (!p.up) {
    OF_CHECK_MSG(ft_.enabled, "TCP link from rank " << rank_ << " to rank " << dst
                                                    << " is down");
    queue_frame_locked(p, tag, payload, ctx);
    account_send(payload.size());
    return;
  }
  if (!write_frame_locked(p, tag, payload, ctx)) {
    // The stream broke mid-frame; the receiver resyncs from scratch on the
    // next connection, so replaying the whole frame is safe.
    p.up = false;
    OF_CHECK_MSG(ft_.enabled, "TCP write to rank " << dst << " failed (errno=" << errno
                                                   << ")");
    queue_frame_locked(p, tag, payload, ctx);
  }
  account_send(payload.size());
}

std::optional<obs::ClockSample> TcpCommunicator::ping_server(double timeout_seconds) {
  OF_CHECK_MSG(rank_ != 0, "ping_server is a client-side operation");
  // Distinct token per ping so a pong that outlived a timed-out earlier
  // ping can't be mistaken for this one's answer.
  const std::uint64_t token =
      (static_cast<std::uint64_t>(rank_) << 48) ^
      ping_token_.fetch_add(1, std::memory_order_relaxed);
  Bytes ping;
  ping.reserve(8);
  put_le64(ping, token);
  Peer& p = peer(0);
  const std::int64_t t0 =
      static_cast<std::int64_t>(obs::TraceRecorder::global().now_ns());
  {
    std::lock_guard<std::mutex> lock(p.mu);
    if (!p.up || p.fd < 0) return std::nullopt;
    if (!write_frame_locked(p, kPingTag, ConstByteSpan(ping), {})) return std::nullopt;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  const auto key = std::make_pair(0, kPongTag);
  std::unique_lock<std::mutex> lock(inbox_mu_);
  for (;;) {
    const bool ok = inbox_cv_.wait_until(lock, deadline, [&] {
      auto it = inbox_.find(key);
      return it != inbox_.end() && !it->second.empty();
    });
    if (!ok) return std::nullopt;
    auto it = inbox_.find(key);
    Inbound in = std::move(it->second.front());
    it->second.pop();
    if (it->second.empty()) inbox_.erase(it);
    if (in.payload.size() != 16 || get_le64(in.payload.data()) != token)
      continue;  // stale or malformed pong: discard, keep waiting
    obs::ClockSample s;
    s.t0_ns = t0;
    s.server_ns = static_cast<std::int64_t>(get_le64(in.payload.data() + 8));
    s.t1_ns = static_cast<std::int64_t>(obs::TraceRecorder::global().now_ns());
    return s;
  }
}

void TcpCommunicator::inject_disconnect(int peer_rank) {
  Peer& p = peer(peer_rank);
  std::lock_guard<std::mutex> lock(p.mu);
  if (p.fd >= 0) ::shutdown(p.fd, SHUT_RDWR);
}

bool TcpCommunicator::peer_alive(int rank) const {
  if (rank == rank_) return true;
  auto it = peers_.find(rank);
  if (it == peers_.end()) return false;
  std::lock_guard<std::mutex> lock(it->second->mu);
  return it->second->up;
}

CommStats TcpCommunicator::stats() const {
  CommStats s = stats_;
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.frames_dropped = frames_dropped_.load(std::memory_order_relaxed);
  return s;
}

void TcpCommunicator::wake_receivers() {
  // Notify under the inbox lock: a take() that read the link as up is then
  // already waiting, so the wakeup cannot fall between its check and its wait.
  std::lock_guard<std::mutex> lock(inbox_mu_);
  inbox_cv_.notify_all();
}

Bytes TcpCommunicator::take(int src, int tag) {
  std::unique_lock<std::mutex> lock(inbox_mu_);
  const auto key = std::make_pair(src, tag);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds_));
  const auto queued = [&] {
    auto it = inbox_.find(key);
    return it != inbox_.end() && !it->second.empty();
  };
  // Lock order inbox_mu_ → Peer::mu; no path takes them the other way.
  const bool ok = inbox_cv_.wait_until(lock, deadline, [&] {
    return queued() || (!ft_.enabled && !peer_alive(src));
  });
  OF_CHECK_MSG(ok, "TCP recv timeout waiting for (src=" << src << ", tag=" << tag << ')');
  // A frame delivered before the link died is still returned first.
  OF_CHECK_MSG(queued(), "TCP link from rank " << rank_ << " to rank " << src
                                               << " is down (recv tag=" << tag << ')');
  auto it = inbox_.find(key);
  Inbound in = std::move(it->second.front());
  it->second.pop();
  if (it->second.empty()) inbox_.erase(it);
  obs::adopt_remote_context(in.ctx);
  return std::move(in.payload);
}

Bytes TcpCommunicator::recv_bytes(int src, int tag) {
  Bytes b = take(src, tag);
  account_recv(b.size());
  return b;
}

std::optional<std::pair<int, Bytes>> TcpCommunicator::try_recv_bytes_any(
    int tag, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(inbox_mu_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  auto find_match = [&]() -> decltype(inbox_)::iterator {
    for (auto it = inbox_.begin(); it != inbox_.end(); ++it)
      if (it->first.second == tag && !it->second.empty()) return it;
    return inbox_.end();
  };
  decltype(inbox_)::iterator hit = inbox_.end();
  const bool ok = inbox_cv_.wait_until(lock, deadline, [&] {
    hit = find_match();
    return hit != inbox_.end();
  });
  if (!ok) return std::nullopt;
  const int src = hit->first.first;
  Inbound in = std::move(hit->second.front());
  hit->second.pop();
  if (hit->second.empty()) inbox_.erase(hit);
  obs::adopt_remote_context(in.ctx);
  account_recv(in.payload.size());
  return std::make_pair(src, std::move(in.payload));
}

std::pair<int, Bytes> TcpCommunicator::recv_bytes_any(int tag) {
  auto got = try_recv_bytes_any(tag, timeout_seconds_);
  OF_CHECK_MSG(got.has_value(), "TCP recv-any timeout waiting for tag " << tag);
  return std::move(*got);
}

}  // namespace of::comm
