// Unit tests for the real-time event loop, UDP transport and the
// fault-injection decorator over the real backend.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/faulty_transport.h"
#include "src/runtime/event_loop.h"
#include "src/runtime/shard_loop.h"
#include "src/runtime/udp_transport.h"

namespace leases {
namespace {

TEST(EventLoopTest, PostedTasksRunInOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::atomic<bool> done{false};
  loop.Post([&]() { order.push_back(1); });
  loop.Post([&]() { order.push_back(2); });
  loop.Post([&]() {
    order.push_back(3);
    done = true;
  });
  while (!done) {
    std::this_thread::yield();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, RunSyncWaitsForCompletion) {
  EventLoop loop;
  int value = 0;
  loop.RunSync([&]() { value = 42; });
  EXPECT_EQ(value, 42);  // no race: RunSync returns after execution
  EXPECT_FALSE(loop.InLoopThread());
  bool in_loop = false;
  loop.RunSync([&]() { in_loop = loop.InLoopThread(); });
  EXPECT_TRUE(in_loop);
}

TEST(EventLoopTest, TimerFiresApproximatelyOnTime) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  auto start = std::chrono::steady_clock::now();
  std::atomic<int64_t> elapsed_ms{0};
  loop.ScheduleAfter(Duration::Millis(50), [&]() {
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    fired = true;
  });
  for (int i = 0; i < 200 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fired);
  EXPECT_GE(elapsed_ms, 45);
  EXPECT_LE(elapsed_ms, 500);  // generous for loaded CI machines
}

TEST(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::atomic<bool> done{false};
  loop.ScheduleAfter(Duration::Millis(60), [&]() {
    order.push_back(2);
    done = true;
  });
  loop.ScheduleAfter(Duration::Millis(20), [&]() { order.push_back(1); });
  for (int i = 0; i < 200 && !done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, CancelledTimerDoesNotFire) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  TimerId id = loop.ScheduleAfter(Duration::Millis(30),
                                  [&]() { fired = true; });
  EXPECT_TRUE(loop.CancelTimer(id));
  EXPECT_FALSE(loop.CancelTimer(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, CancelledTimerClosureIsFreedAtOnce) {
  // The closure (and what it captures) must not stay queued until the
  // deadline passes.
  auto captured = std::make_shared<int>(0);
  EventLoop loop;
  TimerId id = loop.ScheduleAfter(Duration::Seconds(30), [captured]() {});
  EXPECT_EQ(captured.use_count(), 2);
  EXPECT_TRUE(loop.CancelTimer(id));
  EXPECT_EQ(captured.use_count(), 1);

  ShardLoop shard;  // before Start the owning thread may arm timers
  TimerId shard_id =
      shard.ScheduleAfter(Duration::Seconds(30), [captured]() {});
  EXPECT_EQ(captured.use_count(), 2);
  EXPECT_TRUE(shard.CancelTimer(shard_id));
  EXPECT_EQ(captured.use_count(), 1);
  EXPECT_FALSE(shard.CancelTimer(shard_id));
}

TEST(EventLoopTest, StopIsIdempotentAndDropsPendingWork) {
  auto loop = std::make_unique<EventLoop>();
  std::atomic<bool> fired{false};
  loop->ScheduleAfter(Duration::Seconds(30), [&]() { fired = true; });
  loop->Stop();
  loop->Stop();
  loop.reset();
  EXPECT_FALSE(fired);
}

// Whole-millisecond rounding of the sleep would make every 200 us timer at
// least 800 us late; the timerfd keeps the median far below that (tens of
// microseconds on an idle 4-vCPU x86 VM).
void ExpectMicrosecondTimers(EventLoop& loop) {
  std::vector<int64_t> lateness_us;
  for (int i = 0; i < 100; ++i) {
    std::atomic<bool> fired{false};
    std::chrono::steady_clock::time_point at;
    auto start = std::chrono::steady_clock::now();
    loop.ScheduleAfter(Duration::Micros(200), [&]() {
      at = std::chrono::steady_clock::now();
      fired = true;
    });
    while (!fired) {
      std::this_thread::yield();
    }
    lateness_us.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(at - start)
            .count() -
        200);
  }
  std::sort(lateness_us.begin(), lateness_us.end());
  EXPECT_GE(lateness_us.front(), 0);
  EXPECT_LT(lateness_us[lateness_us.size() / 2], 500);
}

TEST(EventLoopTest, TimersKeepMicrosecondPrecision) {
  EventLoop loop;
  ExpectMicrosecondTimers(loop);
}

TEST(EventLoopTest, TryRunHereRunsOnTheCallerWhenIdle) {
  EventLoop loop;
  loop.RunSync([]() {});  // the loop thread is up and about to sleep
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  bool on_loop_thread = true;
  ASSERT_TRUE(loop.TryRunHere([&]() { on_loop_thread = loop.InLoopThread(); }));
  EXPECT_FALSE(on_loop_thread);
}

TEST(EventLoopTest, TryRunHereRefusesWhileAPostedTaskIsQueued) {
  // Each round posts a task from inside inline work and then tries to run
  // inline again. The second attempt must either be refused (the task is
  // still queued) or come after the task: posted work stays in FIFO order.
  EventLoop loop;
  std::vector<char> order;  // loop work only
  int refused = 0;
  constexpr int kRounds = 500;
  for (int i = 0; i < kRounds; ++i) {
    while (!loop.TryRunHere([&]() {
      loop.Post([&]() { order.push_back('P'); });
    })) {
      std::this_thread::yield();
    }
    auto inline_work = [&]() { order.push_back('I'); };
    if (!loop.TryRunHere(inline_work)) {
      ++refused;
      loop.Post(inline_work);
    }
  }
  loop.RunSync([]() {});
  ASSERT_EQ(order.size(), 2u * kRounds);
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(order[2 * i], 'P');
    EXPECT_EQ(order[2 * i + 1], 'I');
  }
  EXPECT_GT(refused, 0);
}

TEST(EventLoopTest, TryRunHereRefusesWhileACallbackRuns) {
  EventLoop loop;
  int fd = ::eventfd(0, EFD_NONBLOCK);
  ASSERT_GE(fd, 0);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  loop.Watch(fd, [&]() {
    uint64_t count;
    (void)!::read(fd, &count, sizeof(count));
    entered = true;
    while (!release) {
      std::this_thread::yield();
    }
  });
  uint64_t one = 1;
  ASSERT_EQ(::write(fd, &one, sizeof(one)), 8);
  while (!entered) {
    std::this_thread::yield();
  }
  bool ran = false;
  EXPECT_FALSE(loop.TryRunHere([&]() { ran = true; }));
  EXPECT_FALSE(ran);
  release = true;
  loop.Unwatch(fd);
  ::close(fd);
}

TEST(EventLoopTest, PostFromInlineWorkWakesTheLoop) {
  EventLoop loop;
  loop.RunSync([]() {});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // asleep
  std::atomic<bool> ran{false};
  ASSERT_TRUE(loop.TryRunHere([&]() { loop.Post([&]() { ran = true; }); }));
  for (int i = 0; i < 400 && !ran; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(ran);
}

TEST(EventLoopTest, TimerScheduledInlineWakesASleepingLoop) {
  EventLoop loop;
  loop.ScheduleAfter(Duration::Seconds(30), []() {});  // armed far out
  loop.RunSync([]() {});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<bool> fired{false};
  ASSERT_TRUE(loop.TryRunHere([&]() {
    loop.ScheduleAfter(Duration::Millis(1), [&]() { fired = true; });
  }));
  for (int i = 0; i < 400 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fired);
}

TEST(EventLoopDeathTest, RunSyncFromInsideLoopWorkFails) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        EventLoop loop;
        loop.RunSync([&]() { loop.RunSync([]() {}); });
      },
      "CHECK failed");
  EXPECT_DEATH(
      {
        EventLoop loop;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        while (!loop.TryRunHere([&]() { loop.RunSync([]() {}); })) {
          std::this_thread::yield();
        }
      },
      "CHECK failed");
}

TEST(EventLoopDeathTest, RunSyncOnAStoppedLoopFails) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        EventLoop loop;
        loop.Stop();
        loop.RunSync([]() {});
      },
      "CHECK failed");
  // Queued behind a running task when Stop begins: the loop exits without
  // running it, and Stop drops it.
  EXPECT_DEATH(
      {
        EventLoop loop;
        std::atomic<bool> entered{false};
        std::atomic<bool> release{false};
        loop.Post([&]() {
          entered = true;
          while (!release) {
            std::this_thread::yield();
          }
        });
        while (!entered) {
          std::this_thread::yield();
        }
        std::thread stopper([&]() {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          loop.Stop();
        });
        std::thread releaser([&]() {
          // A stopping loop drops a posted task at once.
          auto probe = std::make_shared<int>(0);
          for (;;) {
            const long before = probe.use_count();
            loop.Post([probe]() {});
            if (probe.use_count() == before) {
              break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          release = true;
        });
        loop.RunSync([]() {});
      },
      "CHECK failed");
}

// A socket that keeps receiving datagrams from a background sprayer.
class Sprayer {
 public:
  explicit Sprayer(uint16_t port) : port_(port) {
    thread_ = std::thread([this]() {
      int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port_);
      // A valid datagram: sender 7, then one record of class kData with a
      // one-byte payload.
      uint8_t frame[10] = {7, 0, 0, 0, 0, 1, 0, 0, 0, 1};
      while (!stop_) {
        ::sendto(fd, frame, sizeof(frame), 0,
                 reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      ::close(fd);
    });
  }
  ~Sprayer() {
    stop_ = true;
    thread_.join();
  }

 private:
  uint16_t port_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// A distinguishable packet for the UDP send tests.
Packet Tagged(uint64_t tag) { return Ping{RequestId(tag)}; }

// Records the tag of every Ping it receives, in arrival order.
class TagRecorder : public PacketHandler {
 public:
  void HandleTyped(NodeId, MessageClass, const Packet& packet) override {
    std::lock_guard<std::mutex> lock(mu_);
    tags_.push_back(std::get<Ping>(packet).req.value());
  }
  std::vector<uint64_t> tags() {
    std::lock_guard<std::mutex> lock(mu_);
    return tags_;
  }
  // Waits up to 2 s for `n` packets; returns how many arrived.
  size_t WaitFor(size_t n) {
    for (int i = 0; i < 400 && tags().size() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return tags().size();
  }

 private:
  std::mutex mu_;
  std::vector<uint64_t> tags_;
};

// A wire record: [class u8][length u32 LE][payload].
void AppendRecord(MessageClass cls, const std::vector<uint8_t>& payload,
                  std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(cls));
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(payload.size() >> (8 * i)));
  }
  out->insert(out->end(), payload.begin(), payload.end());
}

int BoundUdpSocket(uint16_t* port) {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  return fd;
}

TEST(EventLoopTest, NoCallbackAfterUnwatchReturns) {
  EventLoop loop;
  uint16_t port = 0;
  int fd = BoundUdpSocket(&port);
  ASSERT_GE(fd, 0);
  std::atomic<int> calls{0};
  std::atomic<bool> unwatched{false};
  std::atomic<bool> late{false};
  loop.Watch(fd, [&]() {
    uint8_t buf[64];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    if (unwatched) {
      late = true;
    }
    // Widen the window in which Unwatch has to wait for this callback.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ++calls;
  });
  Sprayer sprayer(port);
  for (int i = 0; i < 400 && calls < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(calls, 20);
  loop.Unwatch(fd);
  unwatched = true;
  const int at_unwatch = calls;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(late);
  EXPECT_EQ(calls, at_unwatch);
  ::close(fd);
}

TEST(UdpTransportTest, NoHandlerCallAfterStopReturns) {
  EventLoop loop;
  struct Flagger : PacketHandler {
    std::atomic<int> count{0};
    std::atomic<bool> stopped{false};
    std::atomic<bool> late{false};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      if (stopped) {
        late = true;
      }
      ++count;
    }
  } handler;
  UdpTransport t(NodeId(2), &loop, &handler);
  ASSERT_TRUE(t.Start().ok());
  Sprayer sprayer(t.port());
  for (int i = 0; i < 400 && handler.count < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(handler.count, 20);
  t.Stop();
  handler.stopped = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(handler.late);
}

TEST(UdpTransportTest, StopsCleanlyAfterItsLoopStopped) {
  auto loop = std::make_unique<EventLoop>();
  struct Counter : PacketHandler {
    std::atomic<int> count{0};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      ++count;
    }
  } counter;
  UdpTransport t(NodeId(2), loop.get(), &counter);
  ASSERT_TRUE(t.Start().ok());
  {
    Sprayer sprayer(t.port());
    for (int i = 0; i < 400 && counter.count == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    loop->Stop();  // the socket is still watched
  }
  const int at_stop = counter.count;
  EXPECT_GT(at_stop, 0);
  t.Stop();
  t.Stop();
  loop.reset();
  EXPECT_EQ(counter.count, at_stop);
}

TEST(UdpTransportTest, LooplessTransportDeliversOnItsOwnLoop) {
  std::atomic<int> count{0};
  UdpTransport t(NodeId(2), nullptr, nullptr);
  t.SetRawHandler([&](NodeId from, MessageClass cls,
                      std::span<const uint8_t> payload) {
    EXPECT_EQ(from, NodeId(7));
    EXPECT_EQ(cls, MessageClass::kData);
    EXPECT_EQ(payload.size(), 1u);
    ++count;
  });
  ASSERT_TRUE(t.Start().ok());
  Sprayer sprayer(t.port());
  for (int i = 0; i < 400 && count < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(count, 5);
  t.Stop();
}

TEST(UdpTransportTest, LoopbackDelivery) {
  EventLoop loop_a;
  EventLoop loop_b;

  struct Capture : PacketHandler {
    std::atomic<int> count{0};
    std::vector<uint8_t> last;
    NodeId last_from;
    MessageClass last_cls = MessageClass::kData;
    void HandlePacket(NodeId from, MessageClass cls,
                      std::span<const uint8_t> bytes) override {
      last.assign(bytes.begin(), bytes.end());
      last_from = from;
      last_cls = cls;
      ++count;
    }
  } capture;

  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &capture);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  EXPECT_NE(a.port(), 0);
  a.AddPeer(NodeId(2), b.port());

  a.Send(NodeId(2), MessageClass::kConsistency, Tagged(987));
  for (int i = 0; i < 200 && capture.count == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(capture.count, 1);
  EXPECT_EQ(capture.last, EncodePacket(Tagged(987)));
  EXPECT_EQ(capture.last_from, NodeId(1));
  EXPECT_EQ(capture.last_cls, MessageClass::kConsistency);
  EXPECT_EQ(a.stats().sent[static_cast<int>(MessageClass::kConsistency)], 1u);
  EXPECT_EQ(
      b.stats().received[static_cast<int>(MessageClass::kConsistency)], 1u);

  a.Stop();
  b.Stop();
}

TEST(UdpTransportTest, MulticastCountsOneSend) {
  EventLoop loop_a;
  EventLoop loop_b;
  EventLoop loop_c;
  struct Counter : PacketHandler {
    std::atomic<int> count{0};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      ++count;
    }
  } cb, cc;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &cb);
  UdpTransport c(NodeId(3), &loop_c, &cc);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(c.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  a.AddPeer(NodeId(3), c.port());

  NodeId dst[2] = {NodeId(2), NodeId(3)};
  a.Multicast(dst, MessageClass::kConsistency, Tagged(1));
  for (int i = 0; i < 200 && (cb.count == 0 || cc.count == 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(cb.count, 1);
  EXPECT_EQ(cc.count, 1);
  // The paper's accounting: one logical send regardless of fan-out.
  EXPECT_EQ(a.stats().TotalSent(), 1u);
  a.Stop();
  b.Stop();
  c.Stop();
}

TEST(UdpTransportTest, SendToUnknownPeerIsDroppedSafely) {
  EventLoop loop;
  UdpTransport a(NodeId(1), &loop, nullptr);
  ASSERT_TRUE(a.Start().ok());
  a.Send(NodeId(99), MessageClass::kData, Tagged(1));  // no peer registered
  a.Stop();
  SUCCEED();
}

TEST(UdpTransportTest, DropEveryNthLosesDeterministically) {
  EventLoop loop_a;
  EventLoop loop_b;
  struct Counter : PacketHandler {
    std::atomic<int> count{0};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      ++count;
    }
  } counter;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &counter);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  // The decorator's deterministic counter mode replaces the old transport
  // hook; per-destination counting gives exactly 5/10 losses here.
  FaultInjectingTransport faulty(&a, &loop_a);
  faulty.set_drop_every_nth(2);
  for (int i = 0; i < 10; ++i) {
    faulty.Send(NodeId(2), MessageClass::kData, Tagged(i));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(counter.count, 5);
  EXPECT_EQ(faulty.fault_stats().dropped_nth, 5u);
  a.Stop();
  b.Stop();
}

TEST(FaultInjectingTransportTest, DuplicatesAndDelaysArriveOverUdp) {
  EventLoop loop_a;
  EventLoop loop_b;
  struct Counter : PacketHandler {
    std::atomic<int> count{0};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      ++count;
    }
  } counter;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &counter);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  FaultInjectingTransport faulty(&a, &loop_a);
  TransportFaults faults;
  faults.dup_prob = 1.0;  // every send is doubled
  faults.dup_delay_max = Duration::Millis(2);
  faults.delay_prob = 1.0;  // and the original is jittered too
  faults.delay_max = Duration::Millis(2);
  faults.seed = 7;
  faulty.SetFaults(faults);
  for (int i = 0; i < 10; ++i) {
    faulty.Send(NodeId(2), MessageClass::kData, Tagged(i));
  }
  for (int i = 0; i < 200 && counter.count < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(counter.count, 20);  // 10 originals + 10 duplicates
  FaultInjectingTransport::FaultStats stats = faulty.fault_stats();
  EXPECT_EQ(stats.duplicated, 10u);
  EXPECT_EQ(stats.delayed, 10u);
  a.Stop();
  b.Stop();
}

TEST(FaultInjectingTransportTest, BlockedPeerPartitionsSendSide) {
  EventLoop loop_a;
  EventLoop loop_b;
  struct Counter : PacketHandler {
    std::atomic<int> count{0};
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t>) override {
      ++count;
    }
  } counter;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &counter);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  FaultInjectingTransport faulty(&a, &loop_a);
  faulty.SetPeerBlocked(NodeId(2), true);
  faulty.Send(NodeId(2), MessageClass::kData, Tagged(1));
  NodeId dst[1] = {NodeId(2)};
  faulty.Multicast(dst, MessageClass::kData, Tagged(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(counter.count, 0);
  EXPECT_EQ(faulty.fault_stats().dropped_blocked, 2u);

  faulty.SetPeerBlocked(NodeId(2), false);  // heal
  faulty.Send(NodeId(2), MessageClass::kData, Tagged(3));
  for (int i = 0; i < 200 && counter.count == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(counter.count, 1);
  a.Stop();
  b.Stop();
}

TEST(UdpTransportTest, BadRecordEndsItsDatagram) {
  // A datagram [valid, valid, bad]: the two records before the bad one are
  // delivered, the bad one counts one malformed, and the rest of the
  // datagram (a valid record, where the bad one leaves room) is dropped.
  struct Case {
    const char* name;
    std::vector<uint8_t> bad;
    bool valid_after;
  };
  const uint8_t data = static_cast<uint8_t>(MessageClass::kData);
  const std::vector<Case> cases = {
      {"truncated header", {data, 1, 0}, false},
      {"overlong length", {data, 0xff, 0xff, 0, 0, 1, 2}, true},
      {"unknown class", {0x7f, 1, 0, 0, 0, 1}, true},
  };
  EventLoop loop;
  TagRecorder recorder;
  UdpTransport t(NodeId(2), &loop, &recorder);
  ASSERT_TRUE(t.Start().ok());
  uint16_t unused = 0;
  int fd = BoundUdpSocket(&unused);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(t.port());
  uint64_t tag = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<uint8_t> datagram = {7, 0, 0, 0};
    AppendRecord(MessageClass::kControl, EncodePacket(Tagged(++tag)),
                 &datagram);
    AppendRecord(MessageClass::kControl, EncodePacket(Tagged(++tag)),
                 &datagram);
    datagram.insert(datagram.end(), c.bad.begin(), c.bad.end());
    if (c.valid_after) {
      AppendRecord(MessageClass::kControl, EncodePacket(Tagged(99)),
                   &datagram);
    }
    const uint64_t malformed_before = t.stats().malformed;
    ASSERT_EQ(::sendto(fd, datagram.data(), datagram.size(), 0,
                       reinterpret_cast<sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(datagram.size()));
    for (int i = 0; i < 400 && t.stats().malformed == malformed_before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(t.stats().malformed, malformed_before + 1);
  }
  std::vector<uint64_t> expected;
  for (uint64_t i = 1; i <= tag; ++i) {
    expected.push_back(i);
  }
  EXPECT_EQ(recorder.tags(), expected);
  NodeMessageStats stats = t.stats();
  EXPECT_EQ(stats.malformed, 3u);
  EXPECT_EQ(stats.TotalReceived(), 6u);
  EXPECT_EQ(stats.datagrams_received, 3u);
  ::close(fd);
  t.Stop();
}

TEST(UdpTransportTest, LoopWorkSendsLeaveAsOneDatagramWhenTheUnitEnds) {
  // N sends to one peer from one unit of loop work leave together, with no
  // further event on the sending loop; sends from any other thread leave
  // before Send returns.
  constexpr uint64_t kN = 6;
  EventLoop loop_a;
  EventLoop loop_b;
  TagRecorder recorder;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &recorder);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  auto burst = [&a](uint64_t base) {
    for (uint64_t i = 0; i < kN; ++i) {
      a.Send(NodeId(2), MessageClass::kControl, Tagged(base + i));
    }
  };
  auto expect_arrived = [&](uint64_t packets, uint64_t datagrams) {
    EXPECT_EQ(recorder.WaitFor(packets), packets);
    EXPECT_EQ(a.stats().datagrams_sent, datagrams);
    EXPECT_EQ(b.stats().datagrams_received, datagrams);
  };

  loop_a.Post([&]() { burst(0); });
  {
    SCOPED_TRACE("posted task");
    expect_arrived(kN, 1);
  }
  loop_a.ScheduleAfter(Duration::Millis(1), [&]() { burst(kN); });
  {
    SCOPED_TRACE("timer callback");
    expect_arrived(2 * kN, 2);
  }
  while (!loop_a.TryRunHere([&]() { burst(2 * kN); })) {
    std::this_thread::yield();
  }
  {
    SCOPED_TRACE("TryRunHere");
    expect_arrived(3 * kN, 3);
  }
  burst(3 * kN);
  EXPECT_EQ(a.stats().datagrams_sent, 3 + kN);  // already on the wire
  {
    SCOPED_TRACE("non-loop thread");
    expect_arrived(4 * kN, 3 + kN);
  }

  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < 4 * kN; ++i) {
    expected.push_back(i);
  }
  EXPECT_EQ(recorder.tags(), expected);
  // Packets are the paper's messages; datagrams are counted beside them.
  EXPECT_EQ(a.stats().TotalSent(), 4 * kN);
  EXPECT_EQ(b.stats().TotalReceived(), 4 * kN);
  a.Stop();
  b.Stop();
}

TEST(UdpTransportTest, BurstLargerThanADatagramSplitsInOrder) {
  // Records that would push a datagram past the limit open a new one;
  // packets to one peer keep their order across the split.
  // 8 KiB ReadReplies between the pings fill the datagrams; the recorder
  // keeps the pings' order.
  struct Mixed : PacketHandler {
    TagRecorder pings;
    std::atomic<int> replies{0};
    void HandleTyped(NodeId from, MessageClass cls,
                     const Packet& packet) override {
      if (std::holds_alternative<Ping>(packet)) {
        pings.HandleTyped(from, cls, packet);
      } else {
        ++replies;
      }
    }
  } mixed;
  TagRecorder& recorder = mixed.pings;
  EventLoop loop_a;
  EventLoop loop_b;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &mixed);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  constexpr uint64_t kPackets = 20;
  ReadReply padding;
  padding.data = std::vector<uint8_t>(8 * 1024, 0xab);
  {
    UdpBatchSender sender(&a);
    for (uint64_t i = 0; i < kPackets; ++i) {
      sender.Send(NodeId(2), MessageClass::kControl, Tagged(i));
      sender.Send(NodeId(2), MessageClass::kData, Packet(padding));
    }
    EXPECT_EQ(sender.pending(), 2 * kPackets);
    sender.Flush();
    EXPECT_EQ(sender.pending(), 0u);
  }
  EXPECT_EQ(recorder.WaitFor(kPackets), kPackets);
  for (int i = 0; i < 400 && mixed.replies < static_cast<int>(kPackets); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(mixed.replies, static_cast<int>(kPackets));
  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < kPackets; ++i) {
    expected.push_back(i);
  }
  EXPECT_EQ(recorder.tags(), expected);
  // Seven ping+reply pairs fit in one 60 KiB datagram: 7 + 7 + 6.
  EXPECT_EQ(a.stats().datagrams_sent, 3u);
  EXPECT_EQ(a.stats().send_failures, 0u);
  a.Stop();
  b.Stop();
}

TEST(UdpTransportTest, OversizePacketIsDroppedAndCounted) {
  // A packet no datagram can hold is dropped with a warning and one send
  // failure, on both send paths; the next normal packet still arrives.
  EventLoop loop_a;
  EventLoop loop_b;
  TagRecorder recorder;
  UdpTransport a(NodeId(1), &loop_a, nullptr);
  UdpTransport b(NodeId(2), &loop_b, &recorder);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  WriteRequest big;
  big.data = std::vector<uint8_t>(64 * 1024, 7);

  a.Send(NodeId(2), MessageClass::kData, Packet(big));
  EXPECT_EQ(a.stats().send_failures, 1u);
  a.Send(NodeId(2), MessageClass::kControl, Tagged(1));
  EXPECT_EQ(recorder.WaitFor(1), 1u);

  {
    UdpBatchSender sender(&a);
    sender.Send(NodeId(2), MessageClass::kData, Packet(big));
    EXPECT_EQ(a.stats().send_failures, 2u);
    EXPECT_EQ(sender.pending(), 0u);
    sender.Send(NodeId(2), MessageClass::kControl, Tagged(2));
    sender.Flush();
  }
  EXPECT_EQ(recorder.WaitFor(2), 2u);
  EXPECT_EQ(recorder.tags(), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(a.stats().TotalSent(), 2u);
  EXPECT_EQ(a.stats().send_failures, 2u);
  a.Stop();
  b.Stop();
}

// Leads `loop` until `done()`, `limit` or Stop, retrying while the loop
// refuses; returns whether this thread led (false: `done()` came first).
bool LeadUntil(EventLoop& loop, const std::function<bool()>& done,
               std::chrono::seconds limit = std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    if (loop.Lead(deadline, done)) {
      return true;
    }
    std::this_thread::yield();
  }
  return false;
}

TEST(EventLoopLeadTest, LoopWorkThatEndsTheWaitWakesTheLeader) {
  // The leader sleeps on the watched fds only. A timer or a posted task
  // that completes its wait runs on the loop thread, and the end of that
  // work must wake the leader well before its deadline.
  EventLoop loop;
  for (const std::string via : {"timer", "post"}) {
    SCOPED_TRACE(via);
    std::atomic<bool> flag{false};
    std::thread poster;
    if (via == "timer") {
      loop.ScheduleAfter(Duration::Millis(20), [&]() { flag = true; });
    } else {
      poster = std::thread([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        loop.Post([&]() { flag = true; });
      });
    }
    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(LeadUntil(loop, [&]() { return flag.load(); }));
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(flag);
    EXPECT_LT(waited, std::chrono::seconds(5));  // the deadline is 30 s
    if (poster.joinable()) {
      poster.join();
    }
  }
}

TEST(EventLoopLeadTest, TimersKeepMicrosecondPrecisionWhileACallerLeads) {
  EventLoop loop;
  std::atomic<bool> leading{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> led_throughout{false};
  std::thread leader([&]() {
    LeadUntil(loop, [&]() {
      if (loop.InLoopWork()) {  // called by Lead, not by LeadUntil
        leading = true;
      }
      return stop.load();
    });
    led_throughout = stop.load();
  });
  while (!leading) {
    std::this_thread::yield();
  }
  ExpectMicrosecondTimers(loop);
  stop = true;
  loop.RunSync([]() {});  // its work end wakes the leader
  leader.join();
  EXPECT_TRUE(led_throughout);
}

TEST(EventLoopLeadTest, DatagramsArrivingWhileACallerLeadsRunOnTheCaller) {
  // Each round sends a request from this thread to an echo host and leads
  // the loop until the echo is handled: the wake and the callback belong to
  // this thread, not the loop thread. A reply that beats the leader into
  // its sleep goes to the loop thread instead, hence the tolerance.
  struct Echo : PacketHandler {
    UdpTransport* transport = nullptr;
    void HandleTyped(NodeId from, MessageClass cls,
                     const Packet& packet) override {
      transport->Send(from, cls, packet);
    }
  } echo;
  struct Replies : PacketHandler {
    std::thread::id caller;
    std::atomic<int> count{0};
    std::atomic<int> on_caller{0};
    void HandleTyped(NodeId, MessageClass, const Packet&) override {
      if (std::this_thread::get_id() == caller) {
        ++on_caller;
      }
      ++count;
    }
  } replies;
  replies.caller = std::this_thread::get_id();
  EventLoop loop_a;
  EventLoop loop_b;
  UdpTransport a(NodeId(1), &loop_a, &replies);
  UdpTransport b(NodeId(2), &loop_b, &echo);
  echo.transport = &b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddPeer(NodeId(2), b.port());
  b.AddPeer(NodeId(1), a.port());
  constexpr int kRounds = 200;
  for (int i = 0; i < kRounds; ++i) {
    a.Send(NodeId(2), MessageClass::kControl, Tagged(i));
    LeadUntil(loop_a, [&]() { return replies.count > i; });
    ASSERT_EQ(replies.count, i + 1);
  }
  EXPECT_GE(replies.on_caller, kRounds / 2);
  a.Stop();
  b.Stop();
}

TEST(EventLoopLeadTest, UnwatchStopAndDestroyWhileACallerLeads) {
  auto loop = std::make_unique<EventLoop>();
  int fd = ::eventfd(0, EFD_NONBLOCK);
  ASSERT_GE(fd, 0);
  std::atomic<int> calls{0};
  loop->Watch(fd, [&]() {
    uint64_t count;
    (void)!::read(fd, &count, sizeof(count));
    ++calls;
  });
  std::atomic<bool> leading{false};
  std::atomic<bool> led{false};
  const auto start = std::chrono::steady_clock::now();
  std::thread leader([&, &loop = *loop]() {
    // Never done: only Stop ends this lead.
    led = LeadUntil(
        loop,
        [&]() {
          if (loop.InLoopWork()) {  // called by Lead, not by LeadUntil
            leading = true;
          }
          return false;
        },
        std::chrono::seconds(60));
  });
  while (!leading) {
    std::this_thread::yield();
  }
  uint64_t one = 1;
  ASSERT_EQ(::write(fd, &one, sizeof(one)), 8);
  for (int i = 0; i < 400 && calls == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(calls, 1);
  // One leader at a time.
  EXPECT_FALSE(loop->Lead(EventLoop::SteadyPoint::max(),
                          []() { return false; }));
  loop->Unwatch(fd);
  const int at_unwatch = calls;
  ASSERT_EQ(::write(fd, &one, sizeof(one)), 8);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(calls, at_unwatch);
  loop->Stop();  // returns once the leader has left
  loop.reset();
  leader.join();
  EXPECT_TRUE(led);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
  ::close(fd);
}

TEST(UdpTransportTest, RecordWalkSurvivesEveryFlipAndTruncation) {
  // Deterministic fuzz of the receive path's record walk. Each variant of a
  // valid 3-record datagram (every byte flipped, every truncation) must
  // deliver exactly the records before its first bad one, byte for byte,
  // and count one malformed if it has a bad one. This thread leads the loop
  // while each variant lands, so the walk runs on a caller, as it does
  // under RuntimeClient.
  struct Delivery {
    NodeId from;
    MessageClass cls;
    std::vector<uint8_t> bytes;
  };
  struct Capture : PacketHandler {
    std::mutex mu;
    std::vector<Delivery> got;
    void HandlePacket(NodeId from, MessageClass cls,
                      std::span<const uint8_t> bytes) override {
      std::lock_guard<std::mutex> lock(mu);
      got.push_back({from, cls, {bytes.begin(), bytes.end()}});
    }
  } capture;
  EventLoop loop;
  UdpTransport t(NodeId(2), &loop, &capture);
  ASSERT_TRUE(t.Start().ok());
  uint16_t unused = 0;
  int fd = BoundUdpSocket(&unused);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(t.port());

  const MessageClass classes[3] = {MessageClass::kControl,
                                   MessageClass::kData,
                                   MessageClass::kConsistency};
  std::vector<uint8_t> valid = {7, 0, 0, 0};
  std::vector<size_t> starts;  // offset of each record's class byte
  for (int k = 0; k < 3; ++k) {
    starts.push_back(valid.size());
    AppendRecord(classes[k], EncodePacket(Tagged(100 + k)), &valid);
  }
  starts.push_back(valid.size());
  // A flipped class byte is >= 0xf0 and a flipped length byte makes the
  // length >= 0xf4: both bad, given a datagram this short.
  ASSERT_LT(valid.size(), 0xf4u);
  // Marks the end of each variant's deliveries: the socket is FIFO.
  std::vector<uint8_t> sentinel_frame = {9, 0, 0, 0};
  AppendRecord(MessageClass::kControl, EncodePacket(Tagged(999)),
               &sentinel_frame);
  const std::vector<uint8_t>& sentinel = sentinel_frame;

  uint64_t expected_malformed = 0;
  auto check = [&](const std::vector<uint8_t>& variant, int good, bool bad) {
    const uint64_t malformed_before = t.stats().malformed;
    for (const std::vector<uint8_t>* d : {&variant, &sentinel}) {
      ASSERT_EQ(::sendto(fd, d->data(), d->size(), 0,
                         reinterpret_cast<sockaddr*>(&to), sizeof(to)),
                static_cast<ssize_t>(d->size()));
    }
    auto landed = [&]() {
      std::lock_guard<std::mutex> lock(capture.mu);
      return !capture.got.empty() && capture.got.back().from == NodeId(9);
    };
    LeadUntil(loop, landed, std::chrono::seconds(10));
    ASSERT_TRUE(landed());
    std::vector<Delivery> got;
    {
      std::lock_guard<std::mutex> lock(capture.mu);
      got.swap(capture.got);
    }
    got.pop_back();  // the sentinel
    ASSERT_EQ(got.size(), static_cast<size_t>(good));
    for (int k = 0; k < good; ++k) {
      EXPECT_EQ(got[k].from, NodeId(variant[0] | variant[1] << 8 |
                                    variant[2] << 16 | variant[3] << 24));
      EXPECT_EQ(got[k].cls, classes[k]);
      EXPECT_EQ(got[k].bytes,
                std::vector<uint8_t>(variant.begin() + starts[k] + 5,
                                     variant.begin() + starts[k + 1]));
    }
    expected_malformed += bad ? 1 : 0;
    EXPECT_EQ(t.stats().malformed - malformed_before, bad ? 1u : 0u);
  };

  for (size_t pos = 0; pos < valid.size(); ++pos) {
    SCOPED_TRACE("flip at " + std::to_string(pos));
    std::vector<uint8_t> variant = valid;
    variant[pos] ^= 0xff;
    int k = 0;  // the record holding `pos`
    while (pos >= starts[k + 1]) {
      ++k;
    }
    if (pos < starts[0] || pos >= starts[k] + 5) {
      check(variant, 3, false);  // sender or payload: structurally valid
    } else {
      check(variant, k, true);  // class or length
    }
  }
  for (size_t len = 0; len < valid.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    std::vector<uint8_t> variant(valid.begin(), valid.begin() + len);
    int k = 0;  // records that fit whole
    while (k < 3 && starts[k + 1] <= len) {
      ++k;
    }
    // A cut just after a whole record leaves a valid, shorter datagram.
    check(variant, k, k == 0 || len != starts[k]);
  }
  EXPECT_EQ(t.stats().malformed, expected_malformed);
  // Every variant and its sentinel arrived: one flip and one cut per byte.
  EXPECT_EQ(t.stats().datagrams_received, 4 * valid.size());
  ::close(fd);
  t.Stop();
}

}  // namespace
}  // namespace leases
