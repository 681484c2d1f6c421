#include "src/runtime/shard_loop.h"

#include <chrono>
#include <memory>

#include "src/common/check.h"

namespace leases {

ShardLoop::ShardLoop(size_t queue_capacity) : inbound_(queue_capacity) {}

ShardLoop::~ShardLoop() { Stop(); }

void ShardLoop::Start(std::function<void(const ShardInbound&)> process,
                      std::function<void()> idle) {
  LEASES_CHECK(!started_);
  process_ = std::move(process);
  idle_ = std::move(idle);
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this]() { Run(); });
}

void ShardLoop::Stop() {
  if (!started_) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  started_ = false;
}

bool ShardLoop::Enqueue(ShardInbound&& msg) {
  if (!inbound_.TryPush(std::move(msg))) {
    return false;
  }
  // Wake the shard only if it is parked; the common case (shard busy
  // draining) takes just the mutex-free TryPush above plus this lock-light
  // check. Taking mu_ here pairs with the parked_ write under mu_ in Run(),
  // so a wakeup cannot be lost between the empty-check and the wait.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!parked_) {
      return true;
    }
  }
  cv_.notify_one();
  return true;
}

void ShardLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    control_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ShardLoop::RunSync(std::function<void()> fn) {
  LEASES_CHECK(std::this_thread::get_id() != thread_.get_id());
  // The rendezvous is co-owned by the task: the waiter can return (and
  // unwind its stack) the instant the predicate flips, which may be while
  // the shard thread is still inside notify_one -- stack-local state here
  // would be a use-after-scope on the waiter's frame.
  struct DoneState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto state = std::make_shared<DoneState>();
  Post([state, fn = std::move(fn)]() {
    fn();
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->done = true;
    }
    state->cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state]() { return state->done; });
}

TimerId ShardLoop::ScheduleAfter(Duration delay, std::function<void()> fn) {
  SteadyPoint when = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(delay.ToMicros());
  return timers_.Add(when, std::move(fn));
}

bool ShardLoop::CancelTimer(TimerId id) {
  // Destroyed after the queue is done: destroying it may cancel others.
  std::function<void()> fn;
  return timers_.Cancel(id, &fn);
}

ShardLoop::SteadyPoint ShardLoop::RunDueTimers() {
  // One snapshot, as in EventLoop: a timer that re-arms itself with a zero
  // delay runs once per pass rather than forever.
  const SteadyPoint now = std::chrono::steady_clock::now();
  for (;;) {
    std::function<void()> fn;
    if (!timers_.PopDue(now, &fn)) {
      return timers_.NextDeadline();
    }
    fn();
  }
}

void ShardLoop::Run() {
  // Drain bound per burst: after this many inbound messages the loop runs
  // timers and the idle hook (outbound flush) before continuing, so a
  // flooded shard still fires expiries and actually puts replies on the
  // wire.
  constexpr int kBurst = 64;
  for (;;) {
    // Control tasks first (rare).
    for (;;) {
      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (control_.empty()) {
          break;
        }
        task = std::move(control_.front());
        control_.pop_front();
      }
      task();
    }

    int drained = 0;
    ShardInbound msg;
    while (drained < kBurst && inbound_.TryPop(&msg)) {
      process_(msg);
      processed_.fetch_add(1, std::memory_order_relaxed);
      ++drained;
    }
    SteadyPoint next_timer = RunDueTimers();
    if (idle_) {
      idle_();  // flush the outbound batch
    }
    if (drained == kBurst) {
      continue;  // more inbound likely waiting; do not park
    }

    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    if (!control_.empty() || !inbound_.Empty()) {
      continue;
    }
    parked_ = true;
    if (next_timer == SteadyPoint::max()) {
      cv_.wait(lock, [this]() {
        return stopping_ || !control_.empty() || !inbound_.Empty();
      });
    } else {
      cv_.wait_until(lock, next_timer, [this]() {
        return stopping_ || !control_.empty() || !inbound_.Empty();
      });
    }
    parked_ = false;
    if (stopping_) {
      return;
    }
  }
}

}  // namespace leases
