// Host-speed reference.
//
// The shared hosts this benchmark runs on change speed by 20-40% over
// minutes as other tenants come and go, and every timed figure of a run
// moves with them. The reference is a fixed piece of work of the same kind
// the runtime does -- a 1 KiB datagram sent over loopback UDP to a second
// thread, checksummed there and echoed back -- that uses none of the lease
// code. Timing it between stretches of the workload tells how fast the host
// is at that moment, so the workload's times can be scaled to a nominal host
// (kNominalRoundTripNs): a change to the program moves the scaled figures, a
// change of host speed moves the program and the reference alike and cancels.
#ifndef LOOPBENCH_REFERENCE_H_
#define LOOPBENCH_REFERENCE_H_

#include <netinet/in.h>

#include <thread>

namespace loopbench {

// The reference round trip of the nominal host every scaled time is given
// for (about this host's round trip when it is quiet).
inline constexpr double kNominalRoundTripNs = 10000;

class Reference {
 public:
  // Binds two loopback sockets and starts the echo thread; on failure ok()
  // is false.
  Reference();
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  bool ok() const { return ok_; }
  // Mean round trip, in ns, over `round_trips` exchanges; 0 on a socket
  // error or a wrong echo.
  double Measure(int round_trips);

 private:
  void Echo();

  bool ok_ = false;
  int ping_fd_ = -1;
  int echo_fd_ = -1;
  sockaddr_in ping_addr_{};
  sockaddr_in echo_addr_{};
  std::thread echo_;
};

}  // namespace loopbench

#endif  // LOOPBENCH_REFERENCE_H_
