#include "src/runtime/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <future>
#include <utility>

#include "src/common/check.h"

namespace leases {
namespace {

constexpr uint64_t kWakeKey = 0;
constexpr uint64_t kTimerKey = 1;
constexpr int kMaxEvents = 16;

// The loop whose work this thread is running: the loop thread's own loop
// for its whole life, or the loop a TryRunHere caller entered.
thread_local EventLoop* t_running = nullptr;

void AddToEpoll(int epoll_fd, int fd, uint64_t key) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = key;
  LEASES_CHECK(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0);
}

void Drain(int fd) {
  uint64_t count;
  (void)!::read(fd, &count, sizeof(count));
}

}  // namespace

EventLoop::EventLoop()
    : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      timer_fd_(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)) {
  LEASES_CHECK(epoll_fd_ >= 0 && wake_fd_ >= 0 && timer_fd_ >= 0);
  AddToEpoll(epoll_fd_, wake_fd_, kWakeKey);
  AddToEpoll(epoll_fd_, timer_fd_, kTimerKey);
  thread_ = std::thread([this]() { Run(); });
}

EventLoop::~EventLoop() {
  Stop();
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
  if (thread_.joinable()) {
    thread_.join();
  }
}

void EventLoop::Wake() {
  uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

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
  std::promise<void> done;
  Post([&task, &done]() {
    task();
    done.set_value();
  });
  done.get_future().wait();
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
  t_running = nullptr;
  exec_mu_.unlock();
}

bool EventLoop::LockForWork() {
  if (t_running == this) {
    return false;
  }
  exec_mu_.lock();
  return true;
}

void EventLoop::Watch(int fd, std::function<void()> on_readable) {
  bool locked = LockForWork();
  uint64_t key = next_watch_key_++;
  watches_[key] =
      std::make_shared<WatchEntry>(WatchEntry{fd, std::move(on_readable)});
  AddToEpoll(epoll_fd_, fd, key);
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
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      watches_.erase(it);
      break;
    }
  }
  if (locked) {
    exec_mu_.unlock();
  }
}

TimerId EventLoop::ScheduleAfter(Duration delay, std::function<void()> fn) {
  SteadyPoint when = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(delay.ToMicros());
  std::lock_guard<std::mutex> lock(mu_);
  TimerId id = timer_ids_.Next();
  timers_.emplace(when, Timer{id, std::move(fn)});
  live_timers_.insert(id);
  // A sleeping loop computes no new deadline until it wakes, so an earlier
  // timer re-arms the timerfd from here (no thread switch).
  if (sleeping_ && when < armed_) {
    ArmTimerLocked(when);
  }
  return id;
}

bool EventLoop::CancelTimer(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return live_timers_.erase(id) > 0;
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

void EventLoop::DropCancelledLocked() {
  while (!timers_.empty() &&
         live_timers_.count(timers_.begin()->second.id) == 0) {
    timers_.erase(timers_.begin());
  }
}

int EventLoop::PrepareSleepLocked() {
  DropCancelledLocked();
  if (!tasks_.empty()) {
    return 0;
  }
  if (!timers_.empty()) {
    SteadyPoint next = timers_.begin()->first;
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
  for (std::function<void()>& task : running_) {
    task();
  }
  running_.clear();
}

void EventLoop::RunDueTimers() {
  // Deadlines are compared against one snapshot, so a timer that re-arms
  // itself with a zero delay runs once per pass rather than forever.
  const SteadyPoint now = std::chrono::steady_clock::now();
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      DropCancelledLocked();
      if (timers_.empty() || timers_.begin()->first > now) {
        return;
      }
      auto it = timers_.begin();
      fn = std::move(it->second.fn);
      live_timers_.erase(it->second.id);
      timers_.erase(it);
    }
    fn();
  }
}

void EventLoop::Dispatch(uint64_t key) {
  if (key == kWakeKey) {
    Drain(wake_fd_);
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
    for (int i = 0; i < n; ++i) {
      Dispatch(events[i].data.u64);
    }
  }
}

}  // namespace leases
