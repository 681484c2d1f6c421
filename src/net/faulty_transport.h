// FaultInjectingTransport: a backend-agnostic fault-injection decorator.
//
// Wraps any Transport -- the simulated SimTransport or the real-time
// UdpTransport -- and applies loss, duplication, delay jitter and pairwise
// blocking (partition) to outgoing traffic, so both backends share one fault
// plane with identical semantics. Delayed and duplicated sends are re-issued
// through the owning node's TimerHost (the EventLoop in the runtime, a
// SimTimerHost in simulation), which keeps every re-send on the protocol
// thread.
//
// All randomness comes from a private deterministic Rng seeded via
// TransportFaults::seed: the sequence of fault decisions is a pure function
// of the sequence of sends, independent of wall-clock timing. The
// deterministic `drop_every_nth` counter mode replaces the old
// UdpTransport::set_drop_every_nth test hook (now removed).
//
// Thread safety: Send/Multicast and every setter may be called from any
// thread (the decorator takes an internal mutex); the inner transport must
// itself tolerate the caller's threading. Destroy the decorator only after
// the TimerHost can no longer fire callbacks (after EventLoop::Stop, or
// with the simulator quiescent); the destructor cancels timers it still
// knows about as a belt-and-braces measure.
#ifndef SRC_NET_FAULTY_TRANSPORT_H_
#define SRC_NET_FAULTY_TRANSPORT_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/clock/timer_host.h"
#include "src/common/time.h"
#include "src/net/transport.h"
#include "src/sim/rng.h"

namespace leases {

struct TransportFaults {
  // Independent probability that a (message, destination) send is dropped.
  double loss_prob = 0.0;
  // Probability that a surviving send is issued twice; the duplicate is
  // re-sent after jitter drawn uniformly from (0, dup_delay_max].
  double dup_prob = 0.0;
  Duration dup_delay_max = Duration::Millis(5);
  // Probability that a surviving send is held back by jitter drawn from
  // (0, delay_max], letting later sends overtake it (reordering).
  double delay_prob = 0.0;
  Duration delay_max = Duration::Millis(5);
  // Seeds the decorator's private RNG; same seed -> same decision sequence.
  uint64_t seed = 1;
};

class FaultInjectingTransport : public Transport {
 public:
  // `timers` may be null only if dup/delay faults are never enabled.
  FaultInjectingTransport(Transport* inner, TimerHost* timers);
  ~FaultInjectingTransport() override;

  FaultInjectingTransport(const FaultInjectingTransport&) = delete;
  FaultInjectingTransport& operator=(const FaultInjectingTransport&) = delete;

  // Replaces the fault configuration and reseeds the RNG.
  void SetFaults(const TransportFaults& faults);

  // Deterministic counter mode: every nth send to a given destination is
  // dropped (0 disables). Applied before the probabilistic faults.
  void set_drop_every_nth(uint32_t n);

  // Send-side partition: while blocked, sends to `peer` vanish. Blocking on
  // both endpoints' decorators makes the partition symmetric.
  void SetPeerBlocked(NodeId peer, bool blocked);

  struct FaultStats {
    uint64_t dropped_loss = 0;
    uint64_t dropped_nth = 0;
    uint64_t dropped_blocked = 0;
    uint64_t duplicated = 0;
    uint64_t delayed = 0;
  };
  FaultStats fault_stats() const;

  Transport& inner() { return *inner_; }

  // --- Transport ---
  NodeId local_node() const override { return inner_->local_node(); }
  void Send(NodeId dst, MessageClass cls, Packet packet) override;
  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 Packet packet) override;

 private:
  // Per-destination fault decision, drawn under mu_.
  struct Verdict {
    bool drop = false;
    Duration delay = Duration::Zero();  // zero = send immediately
    bool duplicate = false;
    Duration dup_delay = Duration::Zero();
  };
  Verdict Decide(NodeId dst);
  bool PassthroughLocked() const;

  // Issues one (possibly delayed) copy of the message through `inner_`.
  void Dispatch(NodeId dst, MessageClass cls, const Packet& packet,
                Duration delay);
  void SendFiltered(NodeId dst, MessageClass cls, const Packet& packet);

  void TrackTimer(TimerId id);
  void ForgetTimer(TimerId id);

  Transport* inner_;
  TimerHost* timers_;

  mutable std::mutex mu_;
  TransportFaults faults_;
  Rng rng_;
  uint32_t drop_every_nth_ = 0;
  std::unordered_map<NodeId, uint32_t> nth_counters_;
  std::set<NodeId> blocked_;
  FaultStats stats_;
  std::set<TimerId> live_timers_;
};

}  // namespace leases

#endif  // SRC_NET_FAULTY_TRANSPORT_H_
