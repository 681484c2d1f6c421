#include "reference.h"

#include <arpa/inet.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>

#include "bench.h"

namespace loopbench {
namespace {

constexpr size_t kPayload = 1024;
constexpr char kQuit = 'q';  // a 1-byte datagram stops the echo thread

// FNV-1a over the payload: user-space work per message, like a decode.
uint64_t Checksum(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * 1099511628211ULL;
  }
  return h;
}

// A loopback UDP socket on an ephemeral port, with a 1 s receive timeout so
// a lost datagram fails the measurement instead of hanging it.
int BindLoopback(sockaddr_in* addr) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return -1;
  }
  timeval timeout{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(*addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(addr), sizeof(*addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Reference::Reference() {
  ping_fd_ = BindLoopback(&ping_addr_);
  echo_fd_ = BindLoopback(&echo_addr_);
  if (ping_fd_ < 0 || echo_fd_ < 0) {
    return;
  }
  // The echo thread waits without a timeout: it idles while the workload
  // runs and leaves when the destructor sends kQuit.
  timeval none{0, 0};
  ::setsockopt(echo_fd_, SOL_SOCKET, SO_RCVTIMEO, &none, sizeof(none));
  echo_ = std::thread([this]() { Echo(); });
  ok_ = true;
}

Reference::~Reference() {
  if (echo_.joinable()) {
    char quit = kQuit;
    ::sendto(ping_fd_, &quit, 1, 0, reinterpret_cast<sockaddr*>(&echo_addr_),
             sizeof(echo_addr_));
    echo_.join();
  }
  if (ping_fd_ >= 0) {
    ::close(ping_fd_);
  }
  if (echo_fd_ >= 0) {
    ::close(echo_fd_);
  }
}

void Reference::Echo() {
  uint8_t buf[kPayload];
  for (;;) {
    ssize_t n = ::recv(echo_fd_, buf, sizeof(buf), 0);
    if (n == 1 && buf[0] == kQuit) {
      return;
    }
    if (n != static_cast<ssize_t>(kPayload)) {
      continue;
    }
    uint64_t sum = Checksum(buf + 16, kPayload - 16);
    std::memcpy(buf + 8, &sum, sizeof(sum));
    ::sendto(echo_fd_, buf, kPayload, 0,
             reinterpret_cast<sockaddr*>(&ping_addr_), sizeof(ping_addr_));
  }
}

double Reference::Measure(int round_trips) {
  uint8_t out[kPayload];
  uint8_t in[kPayload];
  for (size_t i = 0; i < kPayload; ++i) {
    out[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const uint64_t start = NowNs();
  for (int k = 0; k < round_trips; ++k) {
    uint64_t seq = static_cast<uint64_t>(k);
    std::memcpy(out, &seq, sizeof(seq));
    out[16 + k % (kPayload - 16)] ^= 0x5a;
    if (::sendto(ping_fd_, out, kPayload, 0,
                 reinterpret_cast<sockaddr*>(&echo_addr_),
                 sizeof(echo_addr_)) != static_cast<ssize_t>(kPayload) ||
        ::recv(ping_fd_, in, sizeof(in), 0) !=
            static_cast<ssize_t>(kPayload)) {
      return 0;
    }
    uint64_t sum = 0;
    std::memcpy(&sum, in + 8, sizeof(sum));
    if (std::memcmp(in, out, sizeof(seq)) != 0 ||
        sum != Checksum(out + 16, kPayload - 16)) {
      return 0;
    }
  }
  return static_cast<double>(NowNs() - start) / round_trips;
}

}  // namespace loopbench
