// Event loop with timers and fd watches for the real-time runtime.
//
// Each runtime node (server or client) owns one EventLoop. Its protocol
// objects run only as *loop work*: posted tasks, due timers, fd callbacks
// and TryRunHere calls. Loop work runs under the loop's execution lock, so
// at most one piece runs at a time -- the same serialized execution model
// the simulator provides. The contract is mutual exclusion, not thread
// identity: the loop thread holds the lock except while it sleeps in
// epoll_wait, and while the loop is idle a caller may take the lock and run
// work on its own thread (TryRunHere), saving the caller->loop thread
// switch. The loop implements TimerHost, so LeaseServer / CacheClient code
// is oblivious to which world it is in.
//
// The loop thread sleeps in epoll_wait on an eventfd (Post wake-ups), a
// timerfd armed at the earliest timer deadline (µs-precise, unlike an
// epoll_wait millisecond timeout) and every watched fd.
#ifndef SRC_RUNTIME_EVENT_LOOP_H_
#define SRC_RUNTIME_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/clock/timer_host.h"
#include "src/common/ids.h"

namespace leases {

class EventLoop : public TimerHost {
 public:
  EventLoop();
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Enqueues a task to run as loop work on the loop thread. Thread-safe.
  void Post(std::function<void()> task);

  // Runs `task` on the loop thread and waits for it to finish. Fails a
  // LEASES_CHECK when called from inside this loop's work (on the loop
  // thread or within TryRunHere), where it would wait on itself.
  void RunSync(std::function<void()> task);

  // Runs `fn` as loop work on the calling thread when the loop is idle: no
  // task is queued, no loop work is running and the loop thread is not
  // waiting to run any. Returns false without running `fn` otherwise, and
  // when called from inside any loop's work; the caller then Posts, which
  // keeps posted tasks in FIFO order.
  template <typename Fn>
  bool TryRunHere(Fn&& fn) {
    if (!TryEnter()) {
      return false;
    }
    fn();
    Leave();
    return true;
  }

  // Calls `on_readable` as loop work whenever `fd` is readable (level-
  // triggered). Thread-safe.
  void Watch(int fd, std::function<void()> on_readable);
  // Stops watching `fd`. On return no callback for it is running or will
  // run. Thread-safe, including from inside loop work (even `fd`'s own
  // callback).
  void Unwatch(int fd);

  // TimerHost (thread-safe).
  TimerId ScheduleAfter(Duration delay, std::function<void()> fn) override;
  bool CancelTimer(TimerId id) override;

  bool InLoopThread() const {
    return std::this_thread::get_id() == thread_.get_id();
  }

  // Stops the loop and joins the thread; pending tasks are dropped.
  void Stop();

 private:
  using SteadyPoint = std::chrono::steady_clock::time_point;

  struct Timer {
    TimerId id;
    std::function<void()> fn;
  };
  struct WatchEntry {
    int fd;
    std::function<void()> fn;
  };

  void Run();
  // Runs the tasks queued so far.
  void RunTasks();
  void RunDueTimers();
  // Under mu_: drops cancelled timers at the head of the queue.
  void DropCancelledLocked();
  // Under mu_: decides how long to sleep (0: work is ready; -1: until an
  // fd, a Post or the timerfd), arming the timerfd for the next deadline.
  int PrepareSleepLocked();
  void ArmTimerLocked(SteadyPoint when);
  void Dispatch(uint64_t key);
  void Wake();

  bool TryEnter();
  void Leave();
  // Takes the execution lock unless this thread already runs this loop's
  // work; returns whether it did.
  bool LockForWork();

  const int epoll_fd_;
  const int wake_fd_;
  const int timer_fd_;

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
  std::multimap<SteadyPoint, Timer> timers_;
  std::unordered_set<TimerId> live_timers_;
  IdGenerator<TimerId> timer_ids_;
  // The loop thread is (about to be) asleep in epoll_wait with no timeout:
  // a Post must write wake_fd_, and an earlier timer must re-arm the
  // timerfd. Cleared by the first Post and by the loop when it wakes.
  bool sleeping_ = false;
  SteadyPoint armed_ = SteadyPoint::max();  // timerfd deadline
  std::atomic<bool> stopping_{false};  // written under mu_

  // Watched fds by key (the epoll data; keys are never reused, so an event
  // still in flight for an unwatched fd finds nothing). Guarded by
  // exec_mu_.
  std::unordered_map<uint64_t, std::shared_ptr<WatchEntry>> watches_;
  uint64_t next_watch_key_ = 2;  // 0 is wake_fd_, 1 is timer_fd_

  std::thread thread_;
};

}  // namespace leases

#endif  // SRC_RUNTIME_EVENT_LOOP_H_
