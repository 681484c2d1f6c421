// Unit tests for TimerQueue, the timer set both runtime loops share, and
// for the timer contract EventLoop and ShardLoop build on it: FIFO among
// equal deadlines, stale handles that never cancel, closures destroyed
// before CancelTimer returns (and free to cancel other timers from their
// destructors), and microsecond precision.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "src/runtime/event_loop.h"
#include "src/runtime/shard_loop.h"
#include "src/runtime/timer_queue.h"

namespace leases {
namespace {

using Point = TimerQueue::Point;

Point At(int64_t us) { return Point(std::chrono::microseconds(us)); }

// Runs every timer due at or before `now`, in order.
void RunDue(TimerQueue& queue, Point now) {
  std::function<void()> fn;
  while (queue.PopDue(now, &fn)) {
    fn();
  }
}

TEST(TimerQueueTest, EqualDeadlinesRunInTheOrderAdded) {
  TimerQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    queue.Add(At(i % 2 == 0 ? 100 : 50),
              [&order, i]() { order.push_back(i); });
  }
  RunDue(queue, At(100));
  std::vector<int> expected;
  for (int i = 1; i < 50; i += 2) {
    expected.push_back(i);
  }
  for (int i = 0; i < 50; i += 2) {
    expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(queue.empty());
}

TEST(TimerQueueTest, OnlyTheCurrentHandleOfAPendingTimerCancels) {
  TimerQueue queue;
  std::function<void()> fn;
  EXPECT_FALSE(queue.Cancel(TimerId(), &fn));       // never issued
  EXPECT_FALSE(queue.Cancel(TimerId(12345), &fn));  // never issued

  TimerId fired = queue.Add(At(10), []() {});
  RunDue(queue, At(10));
  EXPECT_FALSE(queue.Cancel(fired, &fn));

  TimerId cancelled = queue.Add(At(10), []() {});
  EXPECT_TRUE(queue.Cancel(cancelled, &fn));
  EXPECT_FALSE(queue.Cancel(cancelled, &fn));

  // The freed slot now holds a new timer; the old handle still misses it.
  bool ran = false;
  TimerId reused = queue.Add(At(10), [&ran]() { ran = true; });
  EXPECT_NE(reused, cancelled);
  EXPECT_FALSE(queue.Cancel(cancelled, &fn));
  EXPECT_FALSE(queue.Cancel(fired, &fn));
  EXPECT_EQ(queue.size(), 1u);
  RunDue(queue, At(10));
  EXPECT_TRUE(ran);
}

TEST(TimerQueueTest, CancelHandsTheClosureOut) {
  auto captured = std::make_shared<int>(0);
  TimerQueue queue;
  TimerId id = queue.Add(At(10), [captured]() {});
  EXPECT_EQ(captured.use_count(), 2);
  {
    std::function<void()> fn;
    ASSERT_TRUE(queue.Cancel(id, &fn));
    EXPECT_EQ(captured.use_count(), 2);  // the caller holds it now
  }
  EXPECT_EQ(captured.use_count(), 1);
}

TEST(TimerQueueTest, MatchesAnOrderedReferenceUnderRandomCancels) {
  // A reference multimap keyed (deadline, add order) against the queue,
  // through adds, cancels (stale handles included) and partial drains.
  std::mt19937_64 rng(7);
  TimerQueue queue;
  std::map<std::pair<int64_t, int>, TimerId> reference;
  std::vector<TimerId> handles;
  std::vector<int> fired;
  int next = 0;
  int64_t now = 0;
  for (int step = 0; step < 20000; ++step) {
    uint64_t roll = rng() % 10;
    if (roll < 5) {
      int64_t when = now + static_cast<int64_t>(rng() % 1000);
      int tag = next++;
      TimerId id =
          queue.Add(At(when), [&fired, tag]() { fired.push_back(tag); });
      reference.emplace(std::make_pair(when, tag), id);
      handles.push_back(id);
    } else if (roll < 9 && !handles.empty()) {
      TimerId id = handles[rng() % handles.size()];
      auto it = std::find_if(reference.begin(), reference.end(),
                             [id](const auto& e) { return e.second == id; });
      std::function<void()> fn;
      EXPECT_EQ(queue.Cancel(id, &fn), it != reference.end());
      if (it != reference.end()) {
        reference.erase(it);
      }
    } else {
      now += static_cast<int64_t>(rng() % 300);
      fired.clear();
      RunDue(queue, At(now));
      std::vector<int> expected;
      while (!reference.empty() && reference.begin()->first.first <= now) {
        expected.push_back(reference.begin()->first.second);
        reference.erase(reference.begin());
      }
      ASSERT_EQ(fired, expected) << "step " << step;
    }
    ASSERT_EQ(queue.size(), reference.size());
    ASSERT_EQ(queue.NextDeadline(), reference.empty()
                                        ? Point::max()
                                        : At(reference.begin()->first.first));
  }
}

// Cancels `other` on `host` when destroyed.
struct CancelsOnDestroy {
  TimerHost* host;
  TimerId other;
  bool* cancelled;
  ~CancelsOnDestroy() { *cancelled = host->CancelTimer(other); }
};

void ExpectDestructorMayCancel(TimerHost& host) {
  bool cancelled = false;
  TimerId other = host.ScheduleAfter(Duration::Seconds(30), []() {});
  auto guard = std::make_shared<CancelsOnDestroy>(&host, other, &cancelled);
  TimerId id = host.ScheduleAfter(Duration::Seconds(30), [guard]() {});
  guard.reset();
  EXPECT_TRUE(host.CancelTimer(id));
  EXPECT_TRUE(cancelled);  // ran before CancelTimer returned
  EXPECT_FALSE(host.CancelTimer(other));
}

TEST(RuntimeTimerTest, AClosureDestructorMayCancelAnotherTimer) {
  EventLoop loop;
  ExpectDestructorMayCancel(loop);
  ShardLoop shard;  // before Start the owning thread may arm timers
  ExpectDestructorMayCancel(shard);
}

TEST(RuntimeTimerTest, StaleHandlesDoNotCancelOnEitherLoop) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  TimerId done =
      loop.ScheduleAfter(Duration::Zero(), [&]() { fired = true; });
  while (!fired) {
    std::this_thread::yield();
  }
  TimerId cancelled = loop.ScheduleAfter(Duration::Seconds(30), []() {});
  ASSERT_TRUE(loop.CancelTimer(cancelled));
  TimerId reused = loop.ScheduleAfter(Duration::Seconds(30), []() {});
  EXPECT_FALSE(loop.CancelTimer(done));
  EXPECT_FALSE(loop.CancelTimer(cancelled));
  EXPECT_TRUE(loop.CancelTimer(reused));

  ShardLoop shard;
  TimerId shard_cancelled =
      shard.ScheduleAfter(Duration::Seconds(30), []() {});
  ASSERT_TRUE(shard.CancelTimer(shard_cancelled));
  TimerId shard_reused = shard.ScheduleAfter(Duration::Seconds(30), []() {});
  EXPECT_FALSE(shard.CancelTimer(shard_cancelled));
  EXPECT_TRUE(shard.CancelTimer(shard_reused));
}

TEST(RuntimeTimerTest, ZeroDelayTimersRunInTheOrderScheduled) {
  EventLoop loop;
  std::vector<int> order;
  loop.RunSync([&]() {
    for (int i = 0; i < 100; ++i) {
      loop.ScheduleAfter(Duration::Zero(),
                         [&order, i]() { order.push_back(i); });
    }
  });
  std::vector<int> seen;
  for (int i = 0; i < 400 && seen.size() < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    loop.RunSync([&]() { seen = order; });
  }
  ASSERT_EQ(seen.size(), 100u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

// A parked shard sleeps on a condvar until its next deadline; a 200 us
// timer must not wait for a millisecond tick (compare
// EventLoopTest.TimersKeepMicrosecondPrecision).
TEST(RuntimeTimerTest, ShardLoopTimersKeepMicrosecondPrecision) {
  ShardLoop shard;
  shard.Start([](const ShardInbound&) {}, nullptr);
  std::vector<int64_t> lateness_us;
  for (int i = 0; i < 100; ++i) {
    std::atomic<bool> fired{false};
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point at;
    shard.Post([&]() {
      start = std::chrono::steady_clock::now();
      shard.ScheduleAfter(Duration::Micros(200), [&]() {
        at = std::chrono::steady_clock::now();
        fired = true;
      });
    });
    while (!fired) {
      std::this_thread::yield();
    }
    lateness_us.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(at - start)
            .count() -
        200);
  }
  shard.Stop();
  std::sort(lateness_us.begin(), lateness_us.end());
  EXPECT_GE(lateness_us.front(), 0);
  EXPECT_LT(lateness_us[lateness_us.size() / 2], 500);
}

}  // namespace
}  // namespace leases
