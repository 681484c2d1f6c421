// Proves the typed fast path's zero-allocation claim: once the message
// pool and scheduler have warmed up, pumping messages through SimNetwork
// performs no heap allocation at all, and neither does the UDP send path,
// whether a shard's batcher or UdpTransport::Send from loop work, with
// several records coalesced per datagram, nor arming and cancelling an
// EventLoop timer, nor a file-store lookup that hits in a large directory,
// nor a warm RuntimeClient read hit; and a simulated grant hands the
// store's buffer to the caller without allocating a block the payload's
// size -- counted by replacing global operator new/delete.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include <thread>
#include <vector>

#include "src/core/sim_cluster.h"
#include "src/fs/file_store.h"
#include "src/net/sim_network.h"
#include "src/runtime/event_loop.h"
#include "src/runtime/node.h"
#include "src/runtime/udp_transport.h"
#include "src/sim/simulator.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
// Allocations of at least kPayloadBytes: a copy of a datum that size.
constexpr std::size_t kPayloadBytes = 4096;
std::atomic<uint64_t> g_payload_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n >= kPayloadBytes) {
    g_payload_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace leases {
namespace {

// Replies Pong to every Ping; re-serves Ping while rounds remain. Keeps no
// per-message state, so the only possible allocations are the network's.
class PingPonger : public PacketHandler {
 public:
  void HandlePacket(NodeId, MessageClass,
                    std::span<const uint8_t>) override {
    ADD_FAILURE() << "typed path must not deliver bytes";
  }

  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override {
    (void)cls;
    ++handled;
    if (std::get_if<Ping>(&packet) != nullptr) {
      transport->Send(from, MessageClass::kControl, Packet(Pong{RequestId(1)}));
    } else if (remaining > 0) {
      --remaining;
      transport->Send(from, MessageClass::kControl, Packet(Ping{RequestId(1)}));
    }
  }

  Transport* transport = nullptr;
  int remaining = 0;
  uint64_t handled = 0;
};

TEST(FastPathAllocTest, SteadyStateMessagePumpDoesNotAllocate) {
  Simulator sim;
  SimNetwork net(&sim, NetworkParams{});
  net.set_codec_conformance(false);  // conformance mode allocates by design
  PingPonger a;
  PingPonger b;
  a.transport = net.AttachNode(NodeId(1), &a);
  b.transport = net.AttachNode(NodeId(2), &b);

  // Warm up: grows the typed-message pool, the scheduler slot table and
  // every vector capacity involved.
  a.remaining = 200;
  a.transport->Send(NodeId(2), MessageClass::kControl,
                    Packet(Ping{RequestId(1)}));
  sim.RunUntilIdle();
  ASSERT_GT(a.handled, 0u);
  ASSERT_GT(b.handled, 0u);

  // Measure: the same traffic again must be allocation-free end to end
  // (send, wire event, receive event, handler dispatch, pool recycling).
  a.remaining = 200;
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  a.transport->Send(NodeId(2), MessageClass::kControl,
                    Packet(Ping{RequestId(1)}));
  sim.RunUntilIdle();
  uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "typed fast path allocated";
  EXPECT_GE(b.handled, 400u);
}

TEST(FastPathAllocTest, TypedMulticastSteadyStateDoesNotAllocate) {
  Simulator sim;
  SimNetwork net(&sim, NetworkParams{});
  PingPonger sender;
  PingPonger r1;
  PingPonger r2;
  PingPonger r3;
  sender.transport = net.AttachNode(NodeId(1), &sender);
  r1.transport = net.AttachNode(NodeId(2), &r1);
  r2.transport = net.AttachNode(NodeId(3), &r2);
  r3.transport = net.AttachNode(NodeId(4), &r3);
  NodeId dst[3] = {NodeId(2), NodeId(3), NodeId(4)};

  for (int i = 0; i < 50; ++i) {  // warm up
    sender.transport->Multicast(dst, MessageClass::kControl,
                                Packet(Pong{RequestId(1)}));
  }
  sim.RunUntilIdle();

  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) {
    sender.transport->Multicast(dst, MessageClass::kControl,
                                Packet(Pong{RequestId(1)}));
  }
  sim.RunUntilIdle();
  uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "typed multicast allocated";
  EXPECT_EQ(r1.handled, 100u);
  EXPECT_EQ(r3.handled, 100u);
}

// A bound socket nobody reads is the sink: loopback datagrams beyond its
// buffer are dropped by the kernel, which sendmmsg does not report. Returns
// the socket and sets `port`.
int BindSink(uint16_t* port) {
  int sink = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (sink < 0 ||
      ::bind(sink, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(sink, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return sink;
}

TEST(FastPathAllocTest, BatchSenderSendAndFlushDoNotAllocate) {
  uint16_t port = 0;
  int sink = BindSink(&port);
  ASSERT_GE(sink, 0);

  UdpTransport transport(NodeId(1), nullptr, nullptr);
  ASSERT_TRUE(transport.Start().ok());
  transport.AddPeer(NodeId(2), port);
  {
    UdpBatchSender sender(&transport, /*max_batch=*/8);
    auto burst = [&sender]() {
      for (int i = 0; i < 5; ++i) {
        sender.Send(NodeId(2), MessageClass::kControl,
                    Packet(Ping{RequestId(1)}));
      }
      sender.Flush();
    };
    for (int i = 0; i < 20; ++i) {  // warm up: frame capacities grow
      burst();
    }
    uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 200; ++i) {
      burst();
    }
    uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << "batched send path allocated";
    EXPECT_EQ(sender.pending(), 0u);
  }
  NodeMessageStats stats = transport.stats();
  EXPECT_EQ(stats.sent[static_cast<int>(MessageClass::kControl)], 220u * 5);
  EXPECT_EQ(stats.datagrams_sent, 220u);  // five records per flush
  EXPECT_EQ(stats.send_failures, 0u);
  transport.Stop();
  ::close(sink);
}

TEST(FastPathAllocTest, TransportSendFromLoopWorkDoesNotAllocate) {
  uint16_t port = 0;
  int sink = BindSink(&port);
  ASSERT_GE(sink, 0);

  EventLoop loop;
  UdpTransport transport(NodeId(1), &loop, nullptr);
  ASSERT_TRUE(transport.Start().ok());
  transport.AddPeer(NodeId(2), port);
  // One unit of loop work run on this thread; its sends leave as one
  // datagram when it ends.
  auto sends = [&transport]() {
    for (int i = 0; i < 5; ++i) {
      transport.Send(NodeId(2), MessageClass::kControl,
                     Packet(Ping{RequestId(1)}));
    }
  };
  auto burst = [&loop, &sends]() {
    while (!loop.TryRunHere(sends)) {
      std::this_thread::yield();
    }
  };
  for (int i = 0; i < 20; ++i) {  // warm up: frame capacities grow
    burst();
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    burst();
  }
  uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "transport send path allocated";
  NodeMessageStats stats = transport.stats();
  EXPECT_EQ(stats.sent[static_cast<int>(MessageClass::kControl)], 220u * 5);
  EXPECT_EQ(stats.datagrams_sent, 220u);
  EXPECT_EQ(stats.send_failures, 0u);
  transport.Stop();
  ::close(sink);
}

TEST(FastPathAllocTest, TimerScheduleAndCancelDoNotAllocate) {
  // A request's resend timer is armed and cancelled once per round trip;
  // once the timer queue has grown to the working set, neither allocates.
  EventLoop loop;
  int hits = 0;
  std::vector<TimerId> pending(8);
  auto round = [&loop, &hits, &pending]() {
    for (TimerId& id : pending) {
      id = loop.ScheduleAfter(Duration::Seconds(30), [&hits]() { ++hits; });
    }
    for (TimerId id : pending) {
      EXPECT_TRUE(loop.CancelTimer(id));
    }
  };
  for (int i = 0; i < 20; ++i) {  // warm up: the slot table and heap grow
    round();
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 500; ++i) {
    round();
  }
  uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "timer schedule/cancel allocated";
  EXPECT_EQ(hits, 0);
}

TEST(FastPathAllocTest, DirectoryLookupHitDoesNotAllocate) {
  // A lookup walks the directory datum in place: a hit builds no decoded
  // entry list, however large the directory.
  FileStore store;
  FileId dir = *store.Mkdir(store.root(), "d", NodeId());
  std::vector<std::string> names;
  for (int i = 0; i < 1024; ++i) {
    names.push_back("entry-with-a-long-name-" + std::to_string(i));
    ASSERT_TRUE(store
                    .Create(dir, names.back(), FileClass::kNormal, {},
                            kModeRead, NodeId())
                    .ok());
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  size_t hits = 0;
  for (const std::string& name : names) {
    hits += store.Lookup(dir, name).ok() ? 1 : 0;
  }
  uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "directory lookup hit allocated";
  EXPECT_EQ(hits, names.size());
}

TEST(FastPathAllocTest, RuntimeReadHitDoesNotAllocate) {
  EngineConfig config;
  config.term = Duration::Seconds(60);  // no lease lapses during the test
  RuntimeServer server(NodeId(1), config);
  FileId file = *server.store().CreatePath(
      "/f", FileClass::kNormal, std::vector<uint8_t>(256, 0x5a));
  ASSERT_TRUE(server.Start().ok());
  RuntimeClient client(NodeId(2), NodeId(1), server.store().root(),
                       ClientParams{});
  ASSERT_TRUE(client.Start(server.port()).ok());
  server.AddPeer(NodeId(2), client.port());
  for (int i = 0; i < 20; ++i) {  // the first read fetches; the rest warm up
    ASSERT_TRUE(client.Read(file).ok());
  }
  // Each hit runs inline on this thread while both loops sleep, so the
  // count is this thread's alone. The result shares the cached buffer, so
  // there is nothing to allocate.
  for (int i = 0; i < 200; ++i) {
    uint64_t before = g_allocs.load(std::memory_order_relaxed);
    Result<ReadResult> r = client.Read(file);
    uint64_t after = g_allocs.load(std::memory_order_relaxed);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->from_cache);
    ASSERT_EQ(r->data.size(), 256u);
    EXPECT_EQ(after - before, 0u) << "read hit " << i;
  }
  EXPECT_EQ(client.stats().remote_fetches, 1u);
  client.Stop();
  server.Stop();
}

TEST(FastPathAllocTest, SimulatedGrantAllocatesNoPayloadSizedBlock) {
  // A grant shares one buffer from the store record through the reply in
  // flight and the client's cache entry to the caller's ReadResult, so a
  // 4 KiB datum is never copied on the way.
  ClusterOptions options;
  options.num_clients = 1;
  SimCluster cluster(options);
  const std::vector<uint8_t> payload(kPayloadBytes, 0x5a);
  FileId warm = *cluster.store().CreatePath("/warm", FileClass::kNormal,
                                            std::vector<uint8_t>(payload));
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            std::vector<uint8_t>(payload));
  // Warm up: grows the message pool, the scheduler and the client's tables.
  ASSERT_TRUE(cluster.SyncRead(0, warm).ok());

  uint64_t before = g_payload_allocs.load(std::memory_order_relaxed);
  Result<ReadResult> r = cluster.SyncRead(0, file);
  uint64_t after = g_payload_allocs.load(std::memory_order_relaxed);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->from_cache);
  EXPECT_EQ(after - before, 0u) << "the grant copied the payload";
  EXPECT_EQ(r->data, payload);
  EXPECT_EQ(r->data.data(), cluster.store().Find(file)->data.data());
}

}  // namespace
}  // namespace leases
