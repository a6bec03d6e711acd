#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <set>
#include <thread>

#include "comm/amqp.hpp"
#include "comm/inproc.hpp"
#include "comm/modeled.hpp"
#include "comm/tcp.hpp"
#include "net_util.hpp"

namespace {

using of::comm::Communicator;
using of::comm::InProcGroup;
using of::comm::ReduceOp;
using of::comm::TcpCommunicator;
using of::tensor::Bytes;
using of::tensor::Rng;
using of::tensor::Tensor;

// Run `fn(rank, comm)` on one thread per rank of an in-proc group.
void run_group(int world, const std::function<void(int, Communicator&)>& fn) {
  InProcGroup group(world);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r, group.comm(r));
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

TEST(InProc, PointToPoint) {
  run_group(2, [](int rank, Communicator& c) {
    if (rank == 0) {
      c.send_bytes(1, 5, Bytes{1, 2, 3});
      const Bytes back = c.recv_bytes(1, 6);
      EXPECT_EQ(back, (Bytes{9}));
    } else {
      EXPECT_EQ(c.recv_bytes(0, 5), (Bytes{1, 2, 3}));
      c.send_bytes(0, 6, Bytes{9});
    }
  });
}

TEST(InProc, TagsKeepStreamsSeparate) {
  run_group(2, [](int rank, Communicator& c) {
    if (rank == 0) {
      c.send_bytes(1, 1, Bytes{1});
      c.send_bytes(1, 2, Bytes{2});
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(c.recv_bytes(0, 2), (Bytes{2}));
      EXPECT_EQ(c.recv_bytes(0, 1), (Bytes{1}));
    }
  });
}

TEST(InProc, FifoWithinTag) {
  run_group(2, [](int rank, Communicator& c) {
    if (rank == 0) {
      for (std::uint8_t i = 0; i < 10; ++i) c.send_bytes(1, 3, Bytes{i});
    } else {
      for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(c.recv_bytes(0, 3), Bytes{i});
    }
  });
}

TEST(InProc, SelfSendThrows) {
  InProcGroup group(2);
  EXPECT_THROW(group.comm(0).send_bytes(0, 1, Bytes{}), std::runtime_error);
  EXPECT_THROW(group.comm(0).send_bytes(7, 1, Bytes{}), std::runtime_error);
}

TEST(InProc, RecvTimeoutGivesReadableError) {
  InProcGroup group(2);
  group.comm(0).set_recv_timeout(0.05);
  try {
    (void)group.comm(0).recv_bytes(1, 42);
    FAIL() << "expected timeout";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("timeout"), std::string::npos);
  }
}

class CollectiveWorldSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveWorldSweep, GatherBytesCollectsInRankOrder) {
  const int world = GetParam();
  run_group(world, [&](int rank, Communicator& c) {
    // Variable-length frames: rank p sends p + 1 bytes of value p.
    const Bytes mine(static_cast<std::size_t>(rank + 1), static_cast<std::uint8_t>(rank));
    const auto all = c.gather_bytes(mine, 0);
    if (rank != 0) {
      EXPECT_TRUE(all.empty());
      return;
    }
    ASSERT_EQ(all.size(), static_cast<std::size_t>(world));
    for (int p = 0; p < world; ++p)
      EXPECT_EQ(all[static_cast<std::size_t>(p)],
                Bytes(static_cast<std::size_t>(p + 1), static_cast<std::uint8_t>(p)));
  });
}

TEST_P(CollectiveWorldSweep, BroadcastBytesFromRoot) {
  const int world = GetParam();
  run_group(world, [&](int rank, Communicator& c) {
    Bytes b = rank == 0 ? Bytes{4, 5, 6, 7} : Bytes{};
    c.broadcast_bytes(b, 0);
    EXPECT_EQ(b, (Bytes{4, 5, 6, 7})) << "rank " << rank;
    // An empty frame is a valid broadcast, too.
    Bytes empty = rank == 0 ? Bytes{} : Bytes{1};
    c.broadcast_bytes(empty, 0);
    EXPECT_TRUE(empty.empty()) << "rank " << rank;
  });
}

TEST_P(CollectiveWorldSweep, AllreduceSumMatchesSequential) {
  const int world = GetParam();
  // Deliberately awkward length (not divisible by world) to exercise ring
  // chunk boundaries.
  const std::size_t n = 13;
  std::vector<Tensor> inputs;
  Rng rng(static_cast<std::uint64_t>(world));
  Tensor expected({n});
  for (int r = 0; r < world; ++r) {
    inputs.push_back(Tensor::randn({n}, rng));
    expected.add_(inputs.back());
  }
  run_group(world, [&](int rank, Communicator& c) {
    Tensor t = inputs[static_cast<std::size_t>(rank)];
    c.allreduce(t, ReduceOp::Sum);
    EXPECT_TRUE(t.allclose(expected, 1e-4f, 1e-4f)) << "rank " << rank;
  });
}

TEST_P(CollectiveWorldSweep, AllreduceMean) {
  const int world = GetParam();
  run_group(world, [&](int rank, Communicator& c) {
    Tensor t = Tensor::full({7}, static_cast<float>(rank));
    c.allreduce(t, ReduceOp::Mean);
    const float expect = static_cast<float>(world - 1) / 2.0f;
    for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(t[i], expect, 1e-5f);
  });
}

TEST_P(CollectiveWorldSweep, AllgatherBytesVariableLength) {
  const int world = GetParam();
  run_group(world, [&](int rank, Communicator& c) {
    Bytes mine(static_cast<std::size_t>(rank + 1), static_cast<std::uint8_t>(rank));
    const auto all = c.allgather_bytes(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(world));
    for (int p = 0; p < world; ++p) {
      EXPECT_EQ(all[static_cast<std::size_t>(p)].size(), static_cast<std::size_t>(p + 1));
      if (p + 1 > 0) EXPECT_EQ(all[static_cast<std::size_t>(p)][0], p);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Worlds, CollectiveWorldSweep, ::testing::Range(1, 9));

TEST(InProc, AllreduceShorterThanWorld) {
  // numel < world leaves some ring chunks empty; result must still be exact.
  run_group(6, [&](int rank, Communicator& c) {
    Tensor t = Tensor::full({2}, static_cast<float>(rank));
    c.allreduce(t, ReduceOp::Sum);
    EXPECT_FLOAT_EQ(t[0], 15.0f);
  });
}

TEST(InProc, AllgatherBytesRejectsWrappingFrameLength) {
  // A packed frame list whose u64 length makes `off + len` wrap must be
  // refused, not sliced with a reversed iterator range. Rank 0 plays the
  // allgather root by hand: it takes rank 1's frame on the gather tag, then
  // sends the hostile list on the broadcast tag.
  run_group(2, [](int rank, Communicator& c) {
    if (rank == 1) {
      EXPECT_THROW((void)c.allgather_bytes(Bytes{1, 2, 3}), std::runtime_error);
      return;
    }
    const int gather_tag = c.claim_collective_tag();
    const int broadcast_tag = c.claim_collective_tag();
    EXPECT_EQ(c.recv_bytes(1, gather_tag), (Bytes{1, 2, 3}));
    Bytes packed;
    of::tensor::append_pod<std::uint32_t>(packed, 1);
    of::tensor::append_pod<std::uint64_t>(packed, ~std::uint64_t{0} - 3);  // 2^64 - 4
    packed.insert(packed.end(), 8, 0xEE);
    c.send_bytes(1, broadcast_tag, packed);
  });
}

TEST(InProc, StatsCountBytes) {
  run_group(2, [](int rank, Communicator& c) {
    if (rank == 0) c.send_bytes(1, 1, Bytes{1, 2, 3, 4});
    else (void)c.recv_bytes(0, 1);
    if (rank == 0) {
      EXPECT_EQ(c.stats().bytes_sent, 4u);
      EXPECT_EQ(c.stats().messages_sent, 1u);
    } else {
      EXPECT_EQ(c.stats().bytes_received, 4u);
    }
  });
}

// --- TCP ---------------------------------------------------------------------------

void run_tcp(int world, std::uint16_t port,
             const std::function<void(int, Communicator&)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        std::unique_ptr<TcpCommunicator> c;
        if (r == 0) c = TcpCommunicator::make_server(port, world);
        else c = TcpCommunicator::make_client("127.0.0.1", port, r, world);
        fn(r, *c);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

TEST(Tcp, PointToPointBothWays) {
  run_tcp(3, of::testutil::ephemeral_port(), [](int rank, Communicator& c) {
    if (rank == 0) {
      for (int p = 1; p < 3; ++p)
        c.send_bytes(p, 1, Bytes{static_cast<std::uint8_t>(p)});
      EXPECT_EQ(c.recv_bytes(1, 2), (Bytes{11}));
      EXPECT_EQ(c.recv_bytes(2, 2), (Bytes{22}));
    } else {
      EXPECT_EQ(c.recv_bytes(0, 1), Bytes{static_cast<std::uint8_t>(rank)});
      c.send_bytes(0, 2, Bytes{static_cast<std::uint8_t>(rank * 11)});
    }
  });
}

// Every rank reports in to the hub, and the hub releases them all.
void star_barrier(Communicator& c) {
  (void)c.gather_bytes(Bytes{}, 0);
  Bytes release;
  c.broadcast_bytes(release, 0);
}

TEST(Tcp, ClientToClientThrows) {
  run_tcp(3, of::testutil::ephemeral_port(), [](int rank, Communicator& c) {
    if (rank == 1) {
      EXPECT_THROW(c.send_bytes(2, 1, Bytes{1}), std::runtime_error);
    }
    star_barrier(c);
  });
}

// Expect `fn` to throw a runtime_error whose message contains `what`.
template <typename Fn>
void expect_throw_with(Fn&& fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "expected an error containing: " << what;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(Tcp, StarCollectives) {
  run_tcp(4, of::testutil::ephemeral_port(), [](int rank, Communicator& c) {
    ASSERT_TRUE(c.star_only());
    // gather: the hub gets every frame in rank order
    const auto all = c.gather_bytes(Bytes(static_cast<std::size_t>(rank), 0x5A), 0);
    if (rank == 0) {
      ASSERT_EQ(all.size(), 4u);
      for (std::size_t p = 0; p < 4; ++p) EXPECT_EQ(all[p], Bytes(p, 0x5A));
    } else {
      EXPECT_TRUE(all.empty());
    }
    // broadcast from the hub
    Bytes b = rank == 0 ? Bytes{3, 5} : Bytes{};
    c.broadcast_bytes(b, 0);
    EXPECT_EQ(b, (Bytes{3, 5}));
    // all-gather of variable-length frames
    const auto every = c.allgather_bytes(Bytes{static_cast<std::uint8_t>(rank * 10)});
    ASSERT_EQ(every.size(), 4u);
    EXPECT_EQ(every[3], (Bytes{30}));
    // A star has no client↔client links: a non-hub root and the ring are
    // refused on every rank, before a tag is claimed, so the group stays
    // in step for the collectives after.
    expect_throw_with([&] { (void)c.gather_bytes(Bytes{1}, 1); },
                      "star collectives require root == 0");
    Bytes nb{1};
    expect_throw_with([&] { c.broadcast_bytes(nb, 2); },
                      "star collectives require root == 0");
    Tensor t = Tensor::full({3}, 1.0f);
    expect_throw_with([&] { c.allreduce(t, ReduceOp::Sum); },
                      "ring allreduce needs all-to-all links");
    star_barrier(c);
  });
}

TEST(Tcp, EphemeralPortDiscovery) {
  // Port 0 → the OS picks; server reports the actual port.
  auto probe = std::thread([] {
    auto server = TcpCommunicator::make_server(0, 1);
    EXPECT_GT(server->port(), 0);
  });
  probe.join();
}

TEST(Tcp, LargePayloadRoundtrip) {
  run_tcp(2, of::testutil::ephemeral_port(), [](int rank, Communicator& c) {
    Rng rng(1);
    if (rank == 0) {
      const Bytes big = of::tensor::serialize_tensor(Tensor::randn({100000}, rng));
      c.send_bytes(1, 1, big);
      EXPECT_EQ(c.recv_bytes(1, 2), big);
    } else {
      c.send_bytes(0, 2, c.recv_bytes(0, 1));
    }
  });
}

// --- TCP hardening (malformed frames, timeouts, fault tolerance) --------------------

// Mirror of the transport's v2 wire header (u32 magic | i32 src | i32 tag |
// u32 round | u64 len | u64 trace_id | u64 span_id, natural alignment) for
// crafting raw frames against the server. Keep in lockstep with
// src/comm/tcp.cpp FrameHeader.
struct WireHeader {
  std::uint32_t magic = 0;
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint32_t round = 0;
  std::uint64_t len = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};
static_assert(sizeof(WireHeader) == 40, "must match the transport header");
constexpr std::uint32_t kWireMagic = 0x0F5EED02u;
constexpr int kWireHelloTag = -1;

int connect_raw(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (int attempt = 0; attempt < 250; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;
    if (fd >= 0) ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1;
}

void send_raw(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return;
    sent += static_cast<std::size_t>(w);
  }
}

// Like run_tcp, but with fault tolerance knobs and the concrete communicator
// type (inject_disconnect / reconnect_count are TCP-specific).
void run_tcp_ft(int world, std::uint16_t port, TcpCommunicator::FaultTolerance ft,
                const std::function<void(int, TcpCommunicator&)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        std::unique_ptr<TcpCommunicator> c;
        if (r == 0) c = TcpCommunicator::make_server(port, world, ft);
        else c = TcpCommunicator::make_client("127.0.0.1", port, r, world, ft);
        fn(r, *c);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

TEST(TcpHardening, MalformedHelloAbortsSetup) {
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::thread intruder([port] {
    const int fd = connect_raw(port);
    ASSERT_GE(fd, 0);
    WireHeader h{0xBADF00Du, 1, kWireHelloTag, 0};
    send_raw(fd, &h, sizeof(h));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::close(fd);
  });
  EXPECT_THROW((void)TcpCommunicator::make_server(port, 2), std::runtime_error);
  intruder.join();
}

TEST(TcpHardening, OutOfRangeRankHelloAbortsSetup) {
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::thread intruder([port] {
    const int fd = connect_raw(port);
    ASSERT_GE(fd, 0);
    WireHeader h{kWireMagic, 7, kWireHelloTag, 0, 0, 0, 0};  // world is 2: ranks 1..1
    send_raw(fd, &h, sizeof(h));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::close(fd);
  });
  EXPECT_THROW((void)TcpCommunicator::make_server(port, 2), std::runtime_error);
  intruder.join();
}

TEST(TcpHardening, OversizedFrameDropsLink) {
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::unique_ptr<TcpCommunicator> server;
  std::thread srv([&] { server = TcpCommunicator::make_server(port, 2); });
  const int fd = connect_raw(port);
  ASSERT_GE(fd, 0);
  WireHeader hello{kWireMagic, 1, kWireHelloTag, 0, 0, 0, 0};
  send_raw(fd, &hello, sizeof(hello));
  srv.join();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->peer_alive(1));
  // A length field past the 1 GiB frame cap must sever the link before any
  // allocation happens, not feed a giant Bytes buffer.
  WireHeader bomb{kWireMagic, 1, 7, 0, (1ull << 30) + 1, 0, 0};
  send_raw(fd, &bomb, sizeof(bomb));
  for (int i = 0; i < 500 && server->peer_alive(1); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(server->peer_alive(1));
  ::close(fd);
}

// A raw listener standing in for the server: connects a rank-1 client of a
// world of 2 to it and reads the client's hello.
void connect_raw_server(int& lfd, int& fd, std::unique_ptr<TcpCommunicator>& client) {
  lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);

  client = TcpCommunicator::make_client("127.0.0.1", ntohs(addr.sin_port), 1, 2);
  fd = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(fd, 0);
  WireHeader hello{};
  ASSERT_EQ(::recv(fd, &hello, sizeof(hello), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(hello)));
  EXPECT_EQ(hello.magic, kWireMagic);
  EXPECT_EQ(hello.tag, kWireHelloTag);
  ASSERT_TRUE(client->peer_alive(0));
}

TEST(TcpHardening, HostileServerFrameDropsClientLink) {
  // The client's reader passes headers through the same check as the
  // server: a bad magic or a length past the 1 GiB cap severs the link
  // before any payload is allocated or delivered. A raw listener stands in
  // for the server.
  const WireHeader bad_magic{0xBADF00Du, 0, 7, 0, 4, 0, 0};
  const WireHeader oversized{kWireMagic, 0, 7, 0, (1ull << 30) + 1, 0, 0};
  for (const WireHeader& hostile : {bad_magic, oversized}) {
    int lfd = -1, fd = -1;
    std::unique_ptr<TcpCommunicator> client;
    ASSERT_NO_FATAL_FAILURE(connect_raw_server(lfd, fd, client));

    // A receive already waiting on the frame's tag must not get it, and
    // without fault tolerance it fails as soon as the link drops, not at
    // the (default 60 s) receive timeout.
    std::thread waiter([&] {
      const auto t0 = std::chrono::steady_clock::now();
      expect_throw_with([&] { (void)client->recv_bytes(0, 7); }, "is down");
      EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
    });
    send_raw(fd, &hostile, sizeof(hostile));
    if (hostile.len == 4) send_raw(fd, "abcd", 4);  // a complete frame but for the magic
    for (int i = 0; i < 500 && client->peer_alive(0); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(client->peer_alive(0));
    waiter.join();
    client.reset();
    ::close(fd);
    ::close(lfd);
  }
}

TEST(TcpHardening, FrameDeliveredBeforeEofComesFirst) {
  // Without fault tolerance the server closing its end makes the next
  // receive fail at once, but only after every frame it sent before the EOF
  // was handed out.
  int lfd = -1, fd = -1;
  std::unique_ptr<TcpCommunicator> client;
  ASSERT_NO_FATAL_FAILURE(connect_raw_server(lfd, fd, client));
  const WireHeader h{kWireMagic, 0, 7, 0, 4, 0, 0};
  send_raw(fd, &h, sizeof(h));
  send_raw(fd, "abcd", 4);
  ::close(fd);
  for (int i = 0; i < 500 && client->peer_alive(0); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_FALSE(client->peer_alive(0));
  EXPECT_EQ(client->recv_bytes(0, 7), (Bytes{'a', 'b', 'c', 'd'}));
  const auto t0 = std::chrono::steady_clock::now();
  expect_throw_with([&] { (void)client->recv_bytes(0, 7); }, "is down");
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  client.reset();
  ::close(lfd);
}

TEST(TcpHardening, RecvTimeoutMentionsTimeout) {
  run_tcp_ft(2, of::testutil::ephemeral_port(), {}, [](int rank, TcpCommunicator& c) {
    if (rank == 0) {
      c.set_recv_timeout(0.05);
      try {
        (void)c.recv_bytes(1, 99);
        FAIL() << "expected timeout";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("timeout"), std::string::npos);
      }
      c.send_bytes(1, 1, Bytes{1});  // release the silent client
    } else {
      EXPECT_EQ(c.recv_bytes(0, 1), (Bytes{1}));
    }
  });
}

TEST(TcpHardening, ReconnectAfterDropReplaysQueuedFrames) {
  TcpCommunicator::FaultTolerance ft;
  ft.enabled = true;
  ft.max_reconnect_attempts = 50;
  ft.backoff_seconds = 0.01;
  ft.backoff_max_seconds = 0.1;
  run_tcp_ft(2, of::testutil::ephemeral_port(), ft, [](int rank, TcpCommunicator& c) {
    if (rank == 0) {
      EXPECT_EQ(c.recv_bytes(1, 1), (Bytes{1}));
      c.send_bytes(1, 2, Bytes{2});               // ack: frame 1 arrived
      EXPECT_EQ(c.recv_bytes(1, 3), (Bytes{3}));  // replayed over the new link
      c.send_bytes(1, 4, Bytes{4});               // new link works downstream too
      EXPECT_GE(c.stats().reconnects, 1u);        // the rejoin was counted
    } else {
      c.send_bytes(0, 1, Bytes{1});
      EXPECT_EQ(c.recv_bytes(0, 2), (Bytes{2}));
      c.inject_disconnect(0);                     // sever the live link
      c.send_bytes(0, 3, Bytes{3});               // queued while down
      EXPECT_EQ(c.recv_bytes(0, 4), (Bytes{4}));
      EXPECT_GE(c.reconnect_count(), 1u);
    }
  });
}

TEST(TcpHardening, DownLinkWithoutFaultToleranceThrows) {
  run_tcp_ft(2, of::testutil::ephemeral_port(), {}, [](int rank, TcpCommunicator& c) {
    if (rank == 0) {
      EXPECT_EQ(c.recv_bytes(1, 1), (Bytes{9}));
    } else {
      c.send_bytes(0, 1, Bytes{9});
      c.inject_disconnect(0);
      for (int i = 0; i < 500 && c.peer_alive(0); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      EXPECT_FALSE(c.peer_alive(0));
      EXPECT_THROW(c.send_bytes(0, 2, Bytes{1}), std::runtime_error);
    }
  });
}

// --- Accept-path regressions (event-loop server, ports 474xx) -----------------------

TEST(TcpAcceptPath, ListenBacklogSurvivesConnectBurst) {
  // A mass-connect burst larger than the old `backlog = world_size` must not
  // shed SYNs: every handshake has to complete promptly even before the
  // accept loop gets scheduled. With backlog 2 the kernel drops the overflow
  // and those connects stall on the ~1 s SYN retransmit, blowing the budget.
  constexpr int kBurst = 128;
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::unique_ptr<TcpCommunicator> server;
  std::thread srv([&] { server = TcpCommunicator::make_server(port, 2); });

  // Wait until the listener is up, keeping this fd to hello later.
  const int hello_fd = connect_raw(port);
  ASSERT_GE(hello_fd, 0);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::vector<int> fds;
  for (int i = 0; i < kBurst; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ASSERT_TRUE(rc == 0 || errno == EINPROGRESS);
    fds.push_back(fd);
  }
  // Every connect must finish the three-way handshake within the budget —
  // well under the kernel's 1 s SYN retransmission timer.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(800);
  int connected = 0;
  for (const int fd : fds) {
    pollfd pf{fd, POLLOUT, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now()).count();
    if (::poll(&pf, 1, static_cast<int>(std::max<long long>(left, 0))) == 1) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err == 0) ++connected;
    }
  }
  EXPECT_EQ(connected, kBurst);

  // Complete formation so make_server returns; burst fds close quietly.
  WireHeader hello{kWireMagic, 1, kWireHelloTag, 0, 0, 0, 0};
  send_raw(hello_fd, &hello, sizeof(hello));
  srv.join();
  ASSERT_NE(server, nullptr);
  for (const int fd : fds) ::close(fd);
  ::close(hello_fd);
}

TEST(TcpAcceptPath, SlowScraperDoesNotWedgeAdmission) {
  // A scraper that sends "GET " and then stalls must not block client
  // admission: HTTP conns are served off the event loop under their own
  // deadline. The old inline-on-accept path sat in a 10 s recv timeout
  // before accepting the next connection.
  const std::uint16_t port = of::testutil::ephemeral_port();
  std::unique_ptr<TcpCommunicator> server;
  std::thread srv([&] { server = TcpCommunicator::make_server(port, 2); });

  const int scraper = connect_raw(port);
  ASSERT_GE(scraper, 0);
  send_raw(scraper, "GET ", 4);  // sniffable as HTTP, then silence

  // Give the server time to take the scraper before the real client shows up.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  auto client = TcpCommunicator::make_client("127.0.0.1", port, 1, 2);
  srv.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->peer_alive(1));
  EXPECT_LT(secs, 5.0) << "stalled scraper wedged admission";
  ::close(scraper);
}

TEST(TcpAcceptPath, ConnectTimeoutSurfacesCleanError) {
  // No server on this port: the connect retry loop must give up at the
  // configured budget with an actionable error, not spin forever at 20 ms.
  TcpCommunicator::FaultTolerance ft;
  ft.connect_timeout_seconds = 0.3;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)TcpCommunicator::make_client("127.0.0.1", of::testutil::ephemeral_port(), 1, 2, ft);
    FAIL() << "expected connect failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("connect()"), std::string::npos) << what;
    EXPECT_NE(what.find("coordinator"), std::string::npos) << what;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(secs, 2.0) << "retry loop overran its budget";
}

// --- AMQP (pub/sub middleware) -------------------------------------------------------

void run_amqp(int world, const std::function<void(int, Communicator&)>& fn) {
  of::comm::AmqpGroup group(world);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r, group.comm(r));
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

TEST(Amqp, PublishSubscribeP2P) {
  run_amqp(2, [](int rank, Communicator& c) {
    if (rank == 0) {
      c.send_bytes(1, 3, Bytes{7, 8});
      EXPECT_EQ(c.recv_bytes(1, 4), (Bytes{9}));
    } else {
      EXPECT_EQ(c.recv_bytes(0, 3), (Bytes{7, 8}));
      c.send_bytes(0, 4, Bytes{9});
    }
  });
}

TEST(Amqp, DemultiplexesTagsAndSources) {
  run_amqp(3, [](int rank, Communicator& c) {
    if (rank == 0) {
      // Wait for tag 2 first even though tag 1 frames arrive interleaved.
      EXPECT_EQ(c.recv_bytes(2, 2), (Bytes{22}));
      EXPECT_EQ(c.recv_bytes(1, 1), (Bytes{11}));
      EXPECT_EQ(c.recv_bytes(1, 2), (Bytes{12}));
    } else if (rank == 1) {
      c.send_bytes(0, 1, Bytes{11});
      c.send_bytes(0, 2, Bytes{12});
    } else {
      c.send_bytes(0, 2, Bytes{22});
    }
  });
}

TEST(Amqp, CollectivesWorkOverQueues) {
  run_amqp(4, [](int rank, Communicator& c) {
    Tensor t = Tensor::full({9}, static_cast<float>(rank + 1));
    c.allreduce(t, ReduceOp::Sum);
    EXPECT_FLOAT_EQ(t[0], 10.0f);
    // Queues are any-to-any, so a byte broadcast may root anywhere.
    Bytes b = rank == 2 ? Bytes{5, 5, 5} : Bytes{};
    c.broadcast_bytes(b, 2);
    EXPECT_EQ(b, (Bytes{5, 5, 5}));
    const auto all = c.allgather_bytes(Bytes{static_cast<std::uint8_t>(rank)});
    ASSERT_EQ(all.size(), 4u);
    for (std::size_t p = 0; p < 4; ++p) EXPECT_EQ(all[p], Bytes{static_cast<std::uint8_t>(p)});
  });
}

TEST(Amqp, QueueBackedFifoPerSender) {
  run_amqp(2, [](int rank, Communicator& c) {
    if (rank == 0) {
      for (std::uint8_t i = 0; i < 16; ++i) c.send_bytes(1, 9, Bytes{i});
    } else {
      for (std::uint8_t i = 0; i < 16; ++i) EXPECT_EQ(c.recv_bytes(0, 9), Bytes{i});
    }
  });
}

TEST(Amqp, RecvTimeoutThrows) {
  of::comm::AmqpGroup group(2);
  group.comm(0).set_recv_timeout(0.05);
  EXPECT_THROW((void)group.comm(0).recv_bytes(1, 1), std::runtime_error);
}

// --- any-source receive ---------------------------------------------------------------

TEST(RecvAny, InProcDeliversFromWhoeverIsFirst) {
  run_group(4, [](int rank, Communicator& c) {
    if (rank == 0) {
      std::set<int> seen;
      for (int i = 0; i < 3; ++i) {
        auto [src, b] = c.recv_bytes_any(7);
        EXPECT_EQ(b, Bytes{static_cast<std::uint8_t>(src)});
        seen.insert(src);
      }
      EXPECT_EQ(seen.size(), 3u);
    } else {
      c.send_bytes(0, 7, Bytes{static_cast<std::uint8_t>(rank)});
    }
  });
}

TEST(RecvAny, FiltersByTag) {
  run_group(2, [](int rank, Communicator& c) {
    if (rank == 0) {
      auto [src, b] = c.recv_bytes_any(2);
      EXPECT_EQ(b, Bytes{22});
      EXPECT_EQ(src, 1);
      EXPECT_EQ(c.recv_bytes(1, 1), Bytes{11});
    } else {
      c.send_bytes(0, 1, Bytes{11});
      c.send_bytes(0, 2, Bytes{22});
    }
  });
}

TEST(RecvAny, AmqpQueueOrder) {
  run_amqp(3, [](int rank, Communicator& c) {
    if (rank == 0) {
      for (int i = 0; i < 2; ++i) (void)c.recv_bytes_any(5);
    } else {
      c.send_bytes(0, 5, Bytes{1});
    }
  });
}

TEST(RecvAny, TcpServerSide) {
  run_tcp(3, of::testutil::ephemeral_port(), [](int rank, Communicator& c) {
    if (rank == 0) {
      std::set<int> seen;
      for (int i = 0; i < 2; ++i) {
        auto [src, b] = c.recv_bytes_any(9);
        seen.insert(src);
      }
      EXPECT_EQ(seen.size(), 2u);
    } else {
      c.send_bytes(0, 9, Bytes{static_cast<std::uint8_t>(rank)});
    }
  });
}

TEST(RecvAny, TimesOut) {
  InProcGroup group(2);
  group.comm(0).set_recv_timeout(0.05);
  EXPECT_THROW((void)group.comm(0).recv_bytes_any(1), std::runtime_error);
}

// --- modeled links -----------------------------------------------------------------

TEST(ModeledLink, VirtualModeAccountsDelayWithoutSleeping) {
  run_group(2, [](int rank, Communicator& base) {
    of::comm::LinkModel model{0.010, 1000.0};  // 10 ms + 1 KB/s
    of::comm::ModeledLinkCommunicator c(base, model, of::comm::DelayMode::Virtual);
    const auto t0 = std::chrono::steady_clock::now();
    if (rank == 0) c.send_bytes(1, 1, Bytes(500, 0));
    else (void)c.recv_bytes(0, 1);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (rank == 0) {
      // 10 ms latency + 500 B / 1000 B/s = 0.51 s modeled, ~0 s wall.
      EXPECT_NEAR(c.modeled_delay_seconds(), 0.51, 1e-6);
      EXPECT_LT(wall, 0.2);
    }
  });
}

TEST(ModeledLink, SleepModeActuallyDelays) {
  run_group(2, [](int rank, Communicator& base) {
    of::comm::LinkModel model{0.030, 0.0};
    of::comm::ModeledLinkCommunicator c(base, model, of::comm::DelayMode::Sleep);
    const auto t0 = std::chrono::steady_clock::now();
    if (rank == 0) c.send_bytes(1, 1, Bytes{1});
    else (void)c.recv_bytes(0, 1);
    if (rank == 0) {
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      EXPECT_GE(wall, 0.025);
    }
  });
}

TEST(ModeledLink, CollectivesStillCorrect) {
  run_group(3, [](int rank, Communicator& base) {
    of::comm::ModeledLinkCommunicator c(base, of::comm::LinkModel::lan(),
                                        of::comm::DelayMode::Virtual);
    Tensor t = Tensor::full({5}, static_cast<float>(rank + 1));
    c.allreduce(t, ReduceOp::Sum);
    EXPECT_FLOAT_EQ(t[0], 6.0f);
  });
}

TEST(ModeledLink, TransferTimeFormula) {
  of::comm::LinkModel wan = of::comm::LinkModel::wan();
  // 20 ms + bytes / (100 Mb/s).
  EXPECT_NEAR(wan.transfer_seconds(0), 0.020, 1e-9);
  EXPECT_NEAR(wan.transfer_seconds(12'500'000), 0.020 + 1.0, 1e-6);
  EXPECT_GT(wan.transfer_seconds(1000), of::comm::LinkModel::lan().transfer_seconds(1000));
}

// --- collective tag-window aliasing (regression) ------------------------------
//
// The collective tag used to be base + 16·(seq % window): once the sequence
// wrapped the window, collective N and N+window shared a tag, so a frame a
// slow peer left queued from an old collective could satisfy a new
// collective's recv. The epoch byte folded into the tag disambiguates
// adjacent wraps. The test shrinks the window to 2 so the wrap happens on
// the third claim.

TEST(CollectiveTags, EpochByteDisambiguatesWindowWrap) {
  InProcGroup group(2);
  auto& c0 = group.comm(0);
  auto& c1 = group.comm(1);
  c0.set_collective_tag_window_for_test(2);
  c1.set_collective_tag_window_for_test(2);

  // Both ranks claim tags in the same order — the collectives contract.
  const int t0_r0 = c0.claim_collective_tag();
  const int t0_r1 = c1.claim_collective_tag();
  ASSERT_EQ(t0_r0, t0_r1);
  // A stale frame from the seq-0 collective is left sitting in the queue
  // (e.g. a peer that fell behind and still pushed its contribution).
  c1.send_bytes(0, t0_r1, Bytes{0xAA});

  (void)c0.claim_collective_tag();  // seq 1
  (void)c1.claim_collective_tag();
  const int t2_r0 = c0.claim_collective_tag();  // seq 2: slot wraps to 0
  const int t2_r1 = c1.claim_collective_tag();
  ASSERT_EQ(t2_r0, t2_r1);

  // The wrapped tag must not alias the seq-0 tag — that is the bug.
  EXPECT_NE(t2_r0, t0_r0);

  // The seq-2 collective's recv gets the fresh frame, not the stale one.
  c1.send_bytes(0, t2_r1, Bytes{0xBB});
  EXPECT_EQ(c0.recv_bytes(1, t2_r0), (Bytes{0xBB}));
  // The stale frame is still addressable under its own (old-epoch) tag.
  EXPECT_EQ(c0.recv_bytes(1, t0_r0), (Bytes{0xAA}));
}

TEST(ConnectBackoffTest, IdenticalSeedsReplayTheIdenticalSchedule) {
  // The connect-retry chain is pure in its seed: a rerun with the same run
  // seed paces its connect storm identically, which is what makes transport
  // flakes reproducible. Different seeds must decorrelate (that is the
  // whole point of jitter).
  const auto a = of::comm::connect_backoff_schedule(0xDEC0DEULL, 12);
  const auto b = of::comm::connect_backoff_schedule(0xDEC0DEULL, 12);
  const auto c = of::comm::connect_backoff_schedule(0xDEC0DFULL, 12);
  ASSERT_EQ(a.size(), 12u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);

  // The schedule is exponential-with-jitter under a hard cap: every delay
  // sits in [0.5, 1.5)× the nominal doubling delay, itself capped at 0.5 s.
  double nominal = 0.02;
  for (const double d : a) {
    EXPECT_GE(d, 0.5 * nominal);
    EXPECT_LT(d, 1.5 * nominal);
    nominal = std::min(nominal * 2.0, 0.5);
  }
  // Late attempts must have saturated at the cap's jitter band.
  EXPECT_GE(a.back(), 0.25);
  EXPECT_LT(a.back(), 0.75);

  // The incremental ConnectBackoff object is the same chain.
  of::comm::ConnectBackoff cb(0xDEC0DEULL);
  for (const double d : a) EXPECT_DOUBLE_EQ(cb.next(), d);
}

TEST(CollectiveTags, TagsStayInReservedNamespace) {
  InProcGroup group(1);
  auto& c = group.comm(0);
  c.set_collective_tag_window_for_test(4);
  // Cover several epochs: tags must stay at or above the collective base so
  // they can never collide with user tags in [0, 2^20).
  for (int i = 0; i < 4 * 300; ++i)
    EXPECT_GE(c.claim_collective_tag(), 1 << 20);
}

}  // namespace
