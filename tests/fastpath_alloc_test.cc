// Proves the typed fast path's zero-allocation claim: once the message
// pool and scheduler have warmed up, pumping messages through SimNetwork
// performs no heap allocation at all, and neither does a shard's batched
// UDP send path -- counted by replacing global operator new/delete.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/net/sim_network.h"
#include "src/runtime/udp_transport.h"
#include "src/sim/simulator.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
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

TEST(FastPathAllocTest, BatchSenderSendAndFlushDoNotAllocate) {
  // A bound socket nobody reads is the sink: loopback datagrams beyond its
  // buffer are dropped by the kernel, which sendmmsg does not report.
  int sink = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(sink, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(sink, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(sink, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  UdpTransport transport(NodeId(1), nullptr, nullptr);
  ASSERT_TRUE(transport.Start().ok());
  transport.AddPeer(NodeId(2), ntohs(addr.sin_port));
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
  EXPECT_EQ(transport.stats().sent[static_cast<int>(MessageClass::kControl)],
            220u * 5);
  EXPECT_EQ(transport.stats().send_failures, 0u);
  transport.Stop();
  ::close(sink);
}

}  // namespace
}  // namespace leases
