#include "src/net/faulty_transport.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/check.h"

namespace leases {

FaultInjectingTransport::FaultInjectingTransport(Transport* inner,
                                                 TimerHost* timers)
    : inner_(inner), timers_(timers), rng_(TransportFaults{}.seed) {
  LEASES_CHECK(inner_ != nullptr);
}

FaultInjectingTransport::~FaultInjectingTransport() {
  std::set<TimerId> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.swap(live_timers_);
  }
  for (TimerId id : pending) {
    timers_->CancelTimer(id);
  }
}

void FaultInjectingTransport::SetFaults(const TransportFaults& faults) {
  LEASES_CHECK(faults.loss_prob >= 0.0 && faults.loss_prob <= 1.0);
  LEASES_CHECK(faults.dup_prob >= 0.0 && faults.dup_prob <= 1.0);
  LEASES_CHECK(faults.delay_prob >= 0.0 && faults.delay_prob <= 1.0);
  LEASES_CHECK(faults.dup_delay_max >= Duration::Zero());
  LEASES_CHECK(faults.delay_max >= Duration::Zero());
  LEASES_CHECK(timers_ != nullptr ||
               (faults.dup_prob == 0.0 && faults.delay_prob == 0.0));
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = faults;
  rng_ = Rng(faults.seed);
}

void FaultInjectingTransport::set_drop_every_nth(uint32_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_every_nth_ = n;
  nth_counters_.clear();
}

void FaultInjectingTransport::SetPeerBlocked(NodeId peer, bool blocked) {
  std::lock_guard<std::mutex> lock(mu_);
  if (blocked) {
    blocked_.insert(peer);
  } else {
    blocked_.erase(peer);
  }
}

FaultInjectingTransport::FaultStats FaultInjectingTransport::fault_stats()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool FaultInjectingTransport::PassthroughLocked() const {
  return faults_.loss_prob == 0.0 && faults_.dup_prob == 0.0 &&
         faults_.delay_prob == 0.0 && drop_every_nth_ == 0 &&
         blocked_.empty();
}

namespace {

Duration DrawJitter(Rng& rng, Duration max) {
  uint64_t bound =
      static_cast<uint64_t>(std::max<int64_t>(int64_t{1}, max.ToMicros()));
  return Duration::Micros(1 + static_cast<int64_t>(rng.NextBounded(bound)));
}

}  // namespace

FaultInjectingTransport::Verdict FaultInjectingTransport::Decide(NodeId dst) {
  std::lock_guard<std::mutex> lock(mu_);
  Verdict v;
  if (blocked_.count(dst) > 0) {
    stats_.dropped_blocked++;
    v.drop = true;
    return v;
  }
  if (drop_every_nth_ > 0 && ++nth_counters_[dst] % drop_every_nth_ == 0) {
    stats_.dropped_nth++;
    v.drop = true;
    return v;
  }
  if (faults_.loss_prob > 0 && rng_.NextBernoulli(faults_.loss_prob)) {
    stats_.dropped_loss++;
    v.drop = true;
    return v;
  }
  if (faults_.delay_prob > 0 && rng_.NextBernoulli(faults_.delay_prob)) {
    v.delay = DrawJitter(rng_, faults_.delay_max);
    stats_.delayed++;
  }
  if (faults_.dup_prob > 0 && rng_.NextBernoulli(faults_.dup_prob)) {
    v.duplicate = true;
    v.dup_delay = DrawJitter(rng_, faults_.dup_delay_max);
    stats_.duplicated++;
  }
  return v;
}

void FaultInjectingTransport::TrackTimer(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  live_timers_.insert(id);
}

void FaultInjectingTransport::ForgetTimer(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  live_timers_.erase(id);
}

void FaultInjectingTransport::Dispatch(NodeId dst, MessageClass cls,
                                       const Packet& packet, Duration delay) {
  if (delay == Duration::Zero()) {
    inner_->Send(dst, cls, Packet(packet));
    return;
  }
  // The callback captures the packet by value; the timer id is recorded so
  // the destructor can cancel stragglers. The id is only known after
  // ScheduleAfter returns, and the callback may fire first, so it reads its
  // id through a shared cell: a ForgetTimer of the zero id (not yet
  // assigned) is a no-op erase, and a TrackTimer of an already-fired id is
  // later cancelled harmlessly (CancelTimer returns false).
  auto cell = std::make_shared<TimerId>();
  TimerId id = timers_->ScheduleAfter(
      delay, [this, dst, cls, packet, cell]() mutable {
        ForgetTimer(*cell);
        inner_->Send(dst, cls, std::move(packet));
      });
  *cell = id;
  TrackTimer(id);
}

void FaultInjectingTransport::SendFiltered(NodeId dst, MessageClass cls,
                                           const Packet& packet) {
  Verdict v = Decide(dst);
  if (v.drop) {
    return;
  }
  Dispatch(dst, cls, packet, v.delay);
  if (v.duplicate) {
    Dispatch(dst, cls, packet, v.dup_delay);
  }
}

void FaultInjectingTransport::Send(NodeId dst, MessageClass cls,
                                   Packet packet) {
  bool passthrough;
  {
    std::lock_guard<std::mutex> lock(mu_);
    passthrough = PassthroughLocked();
  }
  if (passthrough) {
    inner_->Send(dst, cls, std::move(packet));
    return;
  }
  SendFiltered(dst, cls, packet);
}

void FaultInjectingTransport::Multicast(std::span<const NodeId> dst,
                                        MessageClass cls, Packet packet) {
  bool passthrough;
  {
    std::lock_guard<std::mutex> lock(mu_);
    passthrough = PassthroughLocked();
  }
  if (passthrough) {
    inner_->Multicast(dst, cls, std::move(packet));
    return;
  }
  // Per-destination decisions require decomposing the multicast; the inner
  // UdpTransport queues one record per destination anyway, so the wire
  // behaviour is unchanged.
  for (NodeId d : dst) {
    SendFiltered(d, cls, packet);
  }
}

}  // namespace leases
