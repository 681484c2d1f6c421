// ShardLoop: one run-to-completion worker shard of the sharded runtime
// server.
//
// Each shard owns a thread, an SPSC inbound queue fed by the UDP
// transport's event loop, and a private timer queue (it implements
// TimerHost for its LeaseServer). All shard state -- the LeaseServer, its FileStore partition,
// its timers, its outbound batcher -- is touched only from the shard thread
// once Start() has run, so the grant/extend/relinquish hot path takes no
// locks at all. The only synchronization is the SPSC ring (two atomics) and
// a parked-thread condvar used when the shard has nothing to do.
//
// Lifecycle: construct the loop, construct the shard's protocol objects
// against it (constructor-scheduled timers land in the still-unstarted timer
// queue -- single-threaded, safe), then Start(). Stop() drains nothing: like
// a crash, in-flight datagrams are simply lost, which the protocol tolerates
// by design.
#ifndef SRC_RUNTIME_SHARD_LOOP_H_
#define SRC_RUNTIME_SHARD_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "src/clock/timer_host.h"
#include "src/common/ids.h"
#include "src/proto/messages.h"
#include "src/net/transport.h"
#include "src/runtime/spsc_queue.h"

namespace leases {

// One routed inbound datagram.
struct ShardInbound {
  NodeId from;
  MessageClass cls = MessageClass::kData;
  Packet packet;
};

class ShardLoop : public TimerHost {
 public:
  explicit ShardLoop(size_t queue_capacity = 4096);
  ~ShardLoop() override;

  ShardLoop(const ShardLoop&) = delete;
  ShardLoop& operator=(const ShardLoop&) = delete;

  // `process` runs on the shard thread for every inbound message;
  // `idle` runs after each drain/timer burst (the outbound batch flush).
  void Start(std::function<void(const ShardInbound&)> process,
             std::function<void()> idle);
  void Stop();

  // Producer side (the UDP transport's loop work). False = ring full,
  // message dropped; the caller counts it.
  bool Enqueue(ShardInbound&& msg);

  // Control plane: runs `fn` on the shard thread between messages. Rare
  // path (stats snapshots, test hooks); goes through a small locked queue,
  // not the SPSC ring.
  void Post(std::function<void()> fn);
  // Post + wait. Must not be called from the shard thread.
  void RunSync(std::function<void()> fn);

  // TimerHost. Only callable from the shard thread once started (the
  // protocol objects it hosts live there), or from the owning thread before
  // Start().
  TimerId ScheduleAfter(Duration delay, std::function<void()> fn) override;
  bool CancelTimer(TimerId id) override;

  uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }

 private:
  using SteadyPoint = std::chrono::steady_clock::time_point;

  void Run();
  // Runs every timer whose deadline has passed; returns the next deadline
  // (or SteadyPoint::max() when none are pending).
  SteadyPoint RunDueTimers();

  SpscQueue<ShardInbound> inbound_;

  // Shard-thread-owned (no lock): the timer queue.
  std::multimap<SteadyPoint, std::pair<TimerId, std::function<void()>>>
      timers_;
  std::unordered_set<TimerId> live_timers_;
  IdGenerator<TimerId> timer_ids_;
  // Relaxed: a monotone progress counter read by monitors/benches while the
  // shard runs; no ordering is implied for the state behind it.
  std::atomic<uint64_t> processed_{0};

  std::function<void(const ShardInbound&)> process_;
  std::function<void()> idle_;

  // Parking: the shard thread sleeps on cv_ when both queues are empty and
  // no timer is due; producers notify only when they observed it parked.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> control_;
  bool parked_ = false;
  bool stopping_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace leases

#endif  // SRC_RUNTIME_SHARD_LOOP_H_
