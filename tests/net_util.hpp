// Shared test helper: ask the kernel for a free loopback TCP port instead
// of hardcoding one. Hardcoded constants collide whenever ctest runs suites
// in parallel (two TUs binding the same 474xx port race to EADDRINUSE);
// bind-to-zero hands out a port nothing currently holds, and the kernel's
// ephemeral allocator walks forward, so the window between close() here and
// the test's own bind() is not re-issued in practice.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>

namespace of::testutil {

inline std::uint16_t ephemeral_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
      port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

// A base port with `count` consecutive free ports starting at it, for
// configs that derive per-group ports as base+group (HierarchicalTopology's
// inner tier). Every port of the block is vetted, holding all `count`
// sockets bound before releasing any: base+1 can already be held by a
// parallel suite, which shows up as a timeout, not a bind error. Bases are
// drawn below Linux's default ephemeral range (32768-60999): bind-to-zero
// hands out odd ephemeral ports and connect() takes even ones, and under a
// parallel ctest nearly every even ephemeral port sits in TIME_WAIT, so an
// ephemeral base+1 is almost never free.
inline std::uint16_t free_port_block(int count) {
  std::uint64_t state = static_cast<std::uint64_t>(::getpid()) ^
                        static_cast<std::uint64_t>(
                            std::chrono::steady_clock::now().time_since_epoch().count());
  for (int attempt = 0; attempt < 256; ++attempt) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto base = static_cast<std::uint16_t>(10000 + (state >> 33) % 20000);
    int fds[16];
    int held = 0;
    for (; held < count && held < 16; ++held) {
      fds[held] = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fds[held] < 0) break;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(base + held));
      if (::bind(fds[held], reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        ::close(fds[held]);
        break;
      }
    }
    for (int i = 0; i < held; ++i) ::close(fds[i]);
    if (held == count) return base;
  }
  return 0;
}

}  // namespace of::testutil
