#include "src/runtime/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <future>
#include <utility>

#include "src/common/check.h"

namespace leases {
namespace {

constexpr uint64_t kWakeKey = 0;
constexpr uint64_t kTimerKey = 1;
constexpr uint64_t kLeadWakeKey = 2;
constexpr int kMaxEvents = 16;

// The loop whose work this thread is running: the loop thread's own loop
// for its whole life, the loop a TryRunHere caller entered, or the loop a
// leader leads while it is awake.
thread_local EventLoop* t_running = nullptr;

void AddToEpoll(int epoll_fd, int fd, uint64_t key, uint32_t flags = 0) {
  epoll_event ev{};
  ev.events = EPOLLIN | flags;
  ev.data.u64 = key;
  LEASES_CHECK(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0);
}

void Drain(int fd) {
  uint64_t count;
  (void)!::read(fd, &count, sizeof(count));
}

void Signal(int event_fd) {
  uint64_t one = 1;
  (void)!::write(event_fd, &one, sizeof(one));
}

// An epoll_wait timeout that does not end before `deadline`.
int MillisUntil(EventLoop::SteadyPoint now, EventLoop::SteadyPoint deadline) {
  auto ms = std::chrono::ceil<std::chrono::milliseconds>(deadline - now);
  return static_cast<int>(std::min<int64_t>(ms.count(), INT_MAX));
}

}  // namespace

EventLoop::EventLoop()
    : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      timer_fd_(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)),
      lead_epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      lead_wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  LEASES_CHECK(epoll_fd_ >= 0 && wake_fd_ >= 0 && timer_fd_ >= 0 &&
               lead_epoll_fd_ >= 0 && lead_wake_fd_ >= 0);
  AddToEpoll(epoll_fd_, wake_fd_, kWakeKey);
  AddToEpoll(epoll_fd_, timer_fd_, kTimerKey);
  AddToEpoll(lead_epoll_fd_, lead_wake_fd_, kLeadWakeKey);
  thread_ = std::thread([this]() { Run(); });
}

EventLoop::~EventLoop() {
  Stop();
  ::close(lead_wake_fd_);
  ::close(lead_epoll_fd_);
  ::close(timer_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  Wake();
  Signal(lead_wake_fd_);
  {
    std::unique_lock<std::mutex> lock(mu_);
    lead_left_.wait(lock, [this]() { return !leading_; });
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  // Dropped tasks are destroyed here, so a RunSync waiting on one fails
  // its check instead of waiting forever.
  std::vector<std::function<void()>> dropped;
  std::lock_guard<std::mutex> lock(mu_);
  dropped.swap(tasks_);
  queued_.store(0, std::memory_order_release);
}

void EventLoop::Wake() { Signal(wake_fd_); }

void EventLoop::Post(std::function<void()> task) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    tasks_.push_back(std::move(task));
    queued_.store(tasks_.size(), std::memory_order_release);
    wake = sleeping_;
    sleeping_ = false;
  }
  if (wake) {
    Wake();
  }
}

void EventLoop::RunSync(std::function<void()> task) {
  LEASES_CHECK(t_running != this);
  // The promise lives in the posted closure: a stopping loop that drops the
  // task destroys it unrun, which readies the future without setting `ran`.
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  bool ran = false;
  Post([&task, &ran, done = std::move(done)]() {
    task();
    ran = true;
    done->set_value();
  });
  finished.wait();
  LEASES_CHECK(ran && "RunSync on a stopping EventLoop");
}

bool EventLoop::TryEnter() {
  // A task this thread posted earlier is either still queued, or taken by
  // the loop thread, which then holds the lock until it has run.
  if (t_running != nullptr || queued_.load(std::memory_order_acquire) != 0 ||
      loop_waiting_.load(std::memory_order_relaxed) || stopping_ ||
      !exec_mu_.try_lock()) {
    return false;
  }
  t_running = this;
  return true;
}

void EventLoop::Leave() {
  RunWorkEndHooks();
  t_running = nullptr;
  exec_mu_.unlock();
}

bool EventLoop::InLoopWork() const { return t_running == this; }

bool EventLoop::LockForWork() {
  if (t_running == this) {
    return false;
  }
  exec_mu_.lock();
  return true;
}

bool EventLoop::Lead(SteadyPoint deadline, const std::function<bool()>& done) {
  if (!TryEnter()) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (leading_) {
      t_running = nullptr;
      exec_mu_.unlock();  // nothing ran: no work end
      return false;
    }
    leading_ = true;
  }
  epoll_event events[kMaxEvents];
  while (!done() && !stopping_) {
    const SteadyPoint now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      break;
    }
    // Marked before the lock is released, so loop work that ends while the
    // leader sleeps -- even work that completes `done` -- wakes it.
    leader_asleep_ = true;
    t_running = nullptr;
    exec_mu_.unlock();
    int n = ::epoll_wait(lead_epoll_fd_, events, kMaxEvents,
                         MillisUntil(now, deadline));
    exec_mu_.lock();
    t_running = this;
    leader_asleep_ = false;
    DispatchAll(events, n);
  }
  // A readiness wake the leader took went to its set alone, so an fd it
  // has not drained yet would wait for its next wake. One last look hands
  // it over: what is still ready runs here, before the leader leaves.
  DispatchAll(events, ::epoll_wait(lead_epoll_fd_, events, kMaxEvents, 0));
  t_running = nullptr;
  exec_mu_.unlock();
  // Notified under mu_: once Stop sees the leader gone, it may destroy the
  // loop, so the leader touches nothing after releasing mu_.
  std::lock_guard<std::mutex> lock(mu_);
  leading_ = false;
  lead_left_.notify_all();
  return true;
}

void EventLoop::Watch(int fd, std::function<void()> on_readable) {
  bool locked = LockForWork();
  uint64_t key = next_watch_key_++;
  watches_[key] =
      std::make_shared<WatchEntry>(WatchEntry{fd, std::move(on_readable)});
  // Exclusive in both sets, the leader's first: a readiness wake goes to
  // the first set with a sleeper, so a sleeping leader takes it alone.
  AddToEpoll(lead_epoll_fd_, fd, key, EPOLLEXCLUSIVE);
  AddToEpoll(epoll_fd_, fd, key, EPOLLEXCLUSIVE);
  if (locked) {
    exec_mu_.unlock();
  }
}

void EventLoop::Unwatch(int fd) {
  // Holding the execution lock means no callback is mid-flight (unless this
  // is one, which keeps its own entry alive through Dispatch's reference).
  bool locked = LockForWork();
  for (auto it = watches_.begin(); it != watches_.end(); ++it) {
    if (it->second->fd == fd) {
      ::epoll_ctl(lead_epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      watches_.erase(it);
      break;
    }
  }
  if (locked) {
    exec_mu_.unlock();
  }
}

uint64_t EventLoop::AddWorkEndHook(std::function<void()> fn) {
  bool locked = LockForWork();
  uint64_t key = next_watch_key_++;
  work_end_hooks_.emplace_back(key, std::move(fn));
  if (locked) {
    exec_mu_.unlock();
  }
  return key;
}

void EventLoop::RemoveWorkEndHook(uint64_t key) {
  bool locked = LockForWork();
  for (auto it = work_end_hooks_.begin(); it != work_end_hooks_.end(); ++it) {
    if (it->first == key) {
      work_end_hooks_.erase(it);
      break;
    }
  }
  if (locked) {
    exec_mu_.unlock();
  }
}

void EventLoop::RunWorkEndHooks() {
  for (auto& hook : work_end_hooks_) {
    hook.second();
  }
  if (leader_asleep_) {
    leader_asleep_ = false;
    Signal(lead_wake_fd_);
  }
}

TimerId EventLoop::ScheduleAfter(Duration delay, std::function<void()> fn) {
  SteadyPoint when = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(delay.ToMicros());
  std::lock_guard<std::mutex> lock(mu_);
  TimerId id = timers_.Add(when, std::move(fn));
  // A sleeping loop computes no new deadline until it wakes, so an earlier
  // timer re-arms the timerfd from here (no thread switch).
  if (sleeping_ && when < armed_) {
    ArmTimerLocked(when);
  }
  return id;
}

bool EventLoop::CancelTimer(TimerId id) {
  std::function<void()> fn;  // destroyed after mu_ is released
  std::lock_guard<std::mutex> lock(mu_);
  return timers_.Cancel(id, &fn);
}

void EventLoop::ArmTimerLocked(SteadyPoint when) {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                when.time_since_epoch())
                .count();
  itimerspec spec{};
  spec.it_value.tv_sec = ns / 1000000000;
  spec.it_value.tv_nsec = ns % 1000000000;
  if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
    spec.it_value.tv_nsec = 1;  // all-zero would disarm
  }
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  armed_ = when;
}

int EventLoop::PrepareSleepLocked() {
  if (!tasks_.empty()) {
    return 0;
  }
  if (!timers_.empty()) {
    SteadyPoint next = timers_.NextDeadline();
    if (next <= std::chrono::steady_clock::now()) {
      return 0;
    }
    if (next < armed_) {
      ArmTimerLocked(next);
    }
  }
  sleeping_ = true;
  return -1;
}

void EventLoop::RunTasks() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_.swap(tasks_);
    queued_.store(0, std::memory_order_release);
  }
  if (running_.empty()) {
    return;
  }
  for (std::function<void()>& task : running_) {
    task();
  }
  running_.clear();
  RunWorkEndHooks();
}

void EventLoop::RunDueTimers() {
  // Deadlines are compared against one snapshot, so a timer that re-arms
  // itself with a zero delay runs once per pass rather than forever.
  const SteadyPoint now = std::chrono::steady_clock::now();
  bool ran = false;
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!timers_.PopDue(now, &fn)) {
        break;
      }
    }
    fn();
    ran = true;
  }
  if (ran) {
    RunWorkEndHooks();
  }
}

void EventLoop::Dispatch(uint64_t key) {
  if (key == kWakeKey) {
    Drain(wake_fd_);
    return;
  }
  if (key == kLeadWakeKey) {
    Drain(lead_wake_fd_);
    return;
  }
  if (key == kTimerKey) {
    Drain(timer_fd_);
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = SteadyPoint::max();
    return;
  }
  auto it = watches_.find(key);
  if (it == watches_.end()) {
    return;  // unwatched after epoll_wait reported it
  }
  std::shared_ptr<WatchEntry> entry = it->second;
  entry->fn();
}

void EventLoop::DispatchAll(const epoll_event* events, int n) {
  for (int i = 0; i < n; ++i) {
    Dispatch(events[i].data.u64);
  }
  if (n > 0) {
    RunWorkEndHooks();
  }
}

void EventLoop::Run() {
  t_running = this;
  std::unique_lock<std::mutex> exec(exec_mu_);
  epoll_event events[kMaxEvents];
  for (;;) {
    RunTasks();
    RunDueTimers();
    int timeout;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
      timeout = PrepareSleepLocked();
    }
    exec.unlock();
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    loop_waiting_.store(true, std::memory_order_relaxed);
    exec.lock();
    loop_waiting_.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      sleeping_ = false;
    }
    DispatchAll(events, n);
  }
}

}  // namespace leases
