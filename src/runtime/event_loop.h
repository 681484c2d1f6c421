// Event loop with timers and fd watches for the real-time runtime.
//
// Each runtime node (server or client) owns one EventLoop. Its protocol
// objects run only as *loop work*: posted tasks, due timers, fd callbacks,
// TryRunHere calls and the fd callbacks a leading caller runs (Lead). Loop
// work runs under the loop's execution lock, so at most one piece runs at a
// time -- the same serialized execution model the simulator provides. The
// contract is mutual exclusion, not thread identity. Three kinds of thread
// run loop work:
//
//  - the loop thread, which holds the lock except while it sleeps in
//    epoll_wait on an eventfd (Post wake-ups), a timerfd armed at the
//    earliest timer deadline (µs-precise, unlike an epoll_wait millisecond
//    timeout) and every watched fd;
//  - an idle-loop caller (TryRunHere), which runs one call on its own
//    thread, saving the caller->loop thread switch;
//  - a leading caller (Lead), which waits for its own result by sleeping on
//    the watched fds in a second epoll set and running their callbacks
//    itself, saving the loop->caller thread switch. Every watched fd sits in
//    both sets with EPOLLEXCLUSIVE, leader set first, so a readiness wake
//    goes to the leader when one sleeps and to the loop thread otherwise.
//    Timers and posted tasks stay with the loop thread.
//
// The loop implements TimerHost, so LeaseServer / CacheClient code is
// oblivious to which world it is in. When a unit of loop work ends, the
// loop runs its work-end hooks, which is where a UDP transport puts the
// unit's coalesced datagrams on the wire, and wakes a sleeping leader so it
// re-checks whether its wait is over.
#ifndef SRC_RUNTIME_EVENT_LOOP_H_
#define SRC_RUNTIME_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/clock/timer_host.h"
#include "src/common/ids.h"
#include "src/runtime/timer_queue.h"

struct epoll_event;

namespace leases {

class EventLoop : public TimerHost {
 public:
  EventLoop();
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  using SteadyPoint = std::chrono::steady_clock::time_point;

  // Enqueues a task to run as loop work on the loop thread. Thread-safe. A
  // stopping loop drops (destroys) the task unrun.
  void Post(std::function<void()> task);

  // Runs `task` on the loop thread and waits for it to finish. Fails a
  // LEASES_CHECK when called from inside this loop's work (on the loop
  // thread or within TryRunHere), where it would wait on itself, and when
  // the loop stops before running it, where it would wait forever.
  void RunSync(std::function<void()> task);

  // Runs `fn` as loop work on the calling thread when the loop is idle: no
  // task is queued, no loop work is running and the loop thread is not
  // waiting to run any. Returns false without running `fn` otherwise, and
  // when called from inside any loop's work; the caller then Posts, which
  // keeps posted tasks in FIFO order. Like any unit of loop work, the call
  // ends by running the work-end hooks.
  template <typename Fn>
  bool TryRunHere(Fn&& fn) {
    if (!TryEnter()) {
      return false;
    }
    fn();
    Leave();
    return true;
  }

  // Leads the loop from the calling thread until `done()` returns true,
  // `deadline` passes or the loop stops: the caller sleeps on the watched
  // fds and runs their callbacks as loop work on its own thread, so the
  // reply it waits for wakes it rather than the loop thread. `done` is
  // called as loop work; any unit of the loop thread's work that ends while
  // the leader sleeps wakes it to call `done` again. Returns false at once,
  // leading nothing, when TryRunHere would refuse or another caller already
  // leads; the caller then waits some other way. Stop wakes a sleeping
  // leader and returns only after it has left.
  bool Lead(SteadyPoint deadline, const std::function<bool()>& done);

  // Calls `on_readable` as loop work whenever `fd` is readable (level-
  // triggered), on the loop thread or on a leading caller. Thread-safe.
  void Watch(int fd, std::function<void()> on_readable);
  // Stops watching `fd`. On return no callback for it is running or will
  // run. Thread-safe, including from inside loop work (even `fd`'s own
  // callback).
  void Unwatch(int fd);

  // Registers `fn` to run as loop work at the end of every unit of loop
  // work: the fd callbacks of one epoll_wait (the loop thread's or a
  // leader's), one run of posted tasks, one run of due timers, and a
  // TryRunHere call. A UDP transport flushes the datagrams the unit queued
  // from here. Returns the key RemoveWorkEndHook takes. Thread-safe.
  uint64_t AddWorkEndHook(std::function<void()> fn);
  // On return the hook is not running and will not run. Thread-safe,
  // including from inside loop work (but not from the hook itself).
  void RemoveWorkEndHook(uint64_t key);

  // TimerHost (thread-safe). A cancelled timer's closure is destroyed
  // before CancelTimer returns.
  TimerId ScheduleAfter(Duration delay, std::function<void()> fn) override;
  bool CancelTimer(TimerId id) override;

  bool InLoopThread() const {
    return std::this_thread::get_id() == thread_.get_id();
  }
  // Whether the calling thread is running this loop's work: on the loop
  // thread, inside a TryRunHere call or as an awake leader.
  bool InLoopWork() const;

  // Stops the loop, waits for a leading caller to leave and joins the
  // thread; pending tasks are dropped.
  void Stop();

 private:
  struct WatchEntry {
    int fd;
    std::function<void()> fn;
  };

  void Run();
  // Runs the tasks queued so far.
  void RunTasks();
  void RunDueTimers();
  void RunWorkEndHooks();
  // Under mu_: decides how long to sleep (0: work is ready; -1: until an
  // fd, a Post or the timerfd), arming the timerfd for the next deadline.
  int PrepareSleepLocked();
  void ArmTimerLocked(SteadyPoint when);
  void Dispatch(uint64_t key);
  // Dispatches the `n` events one epoll_wait returned, then ends the unit.
  void DispatchAll(const ::epoll_event* events, int n);
  void Wake();

  bool TryEnter();
  void Leave();
  // Takes the execution lock unless this thread already runs this loop's
  // work; returns whether it did.
  bool LockForWork();

  const int epoll_fd_;  // the loop thread's set
  const int wake_fd_;
  const int timer_fd_;
  // The leader's set: every watched fd, plus lead_wake_fd_.
  const int lead_epoll_fd_;
  const int lead_wake_fd_;

  // Held by whoever runs loop work.
  std::mutex exec_mu_;
  // Set while the loop thread waits for exec_mu_ with events in hand;
  // TryRunHere yields to it.
  std::atomic<bool> loop_waiting_{false};

  // Guards the task queue and the timers.
  std::mutex mu_;
  std::vector<std::function<void()>> tasks_;
  std::vector<std::function<void()>> running_;  // loop thread only
  std::atomic<size_t> queued_{0};  // tasks_.size(), readable without mu_
  TimerQueue timers_;
  // The loop thread is (about to be) asleep in epoll_wait with no timeout:
  // a Post must write wake_fd_, and an earlier timer must re-arm the
  // timerfd. Cleared by the first Post and by the loop when it wakes.
  bool sleeping_ = false;
  SteadyPoint armed_ = SteadyPoint::max();  // timerfd deadline
  std::atomic<bool> stopping_{false};  // written under mu_
  // A caller leads (Lead); Stop waits on lead_left_ for it to leave.
  // Guarded by mu_.
  bool leading_ = false;
  std::condition_variable lead_left_;
  // The leader is (about to be) asleep in epoll_wait: the next unit of
  // loop work to end writes lead_wake_fd_. Guarded by exec_mu_.
  bool leader_asleep_ = false;

  // Watched fds by key (the epoll data; keys are never reused, so an event
  // still in flight for an unwatched fd finds nothing). Guarded by
  // exec_mu_.
  std::unordered_map<uint64_t, std::shared_ptr<WatchEntry>> watches_;
  uint64_t next_watch_key_ = 3;  // 0-2: wake_fd_, timer_fd_, lead_wake_fd_
  // Work-end hooks by key (keys drawn from next_watch_key_). Guarded by
  // exec_mu_.
  std::vector<std::pair<uint64_t, std::function<void()>>> work_end_hooks_;

  std::thread thread_;
};

}  // namespace leases

#endif  // SRC_RUNTIME_EVENT_LOOP_H_
