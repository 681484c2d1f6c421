// Unit tests for the simulated network: the paper's exact message cost
// model, loss, partitions, crash semantics and load accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/net/sim_network.h"
#include "src/sim/simulator.h"

namespace leases {
namespace {

class Recorder : public PacketHandler {
 public:
  struct Received {
    NodeId from;
    MessageClass cls;
    Packet packet;
    TimePoint at;
  };

  explicit Recorder(Simulator* sim) : sim_(sim) {}

  // Counts wire deliveries; the simulator should never make one.
  void HandlePacket(NodeId from, MessageClass cls,
                    std::span<const uint8_t> bytes) override {
    ++byte_deliveries;
    PacketHandler::HandlePacket(from, cls, bytes);
  }

  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override {
    received.push_back(Received{from, cls, packet, sim_->Now()});
    if (reply_to_sender) {
      transport->Send(from, MessageClass::kConsistency,
                      Packet(Pong{RequestId(1)}));
    }
  }

  Simulator* sim_;
  Transport* transport = nullptr;
  bool reply_to_sender = false;
  std::vector<Received> received;
  size_t byte_deliveries = 0;
};

struct Rig {
  Simulator sim;
  NetworkParams params;
  std::unique_ptr<SimNetwork> net;
  std::vector<std::unique_ptr<Recorder>> nodes;
  std::vector<SimTransport*> transports;

  explicit Rig(size_t n, NetworkParams p = NetworkParams{}) : params(p) {
    net = std::make_unique<SimNetwork>(&sim, p);
    for (size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<Recorder>(&sim));
      transports.push_back(
          net->AttachNode(NodeId(static_cast<uint32_t>(i + 1)),
                          nodes.back().get()));
      nodes.back()->transport = transports.back();
    }
  }
};

Packet SamplePacket() {
  ReadReply m;
  m.req = RequestId(42);
  m.file = FileId(7);
  m.version = 3;
  m.lease = LeaseGrant{LeaseKey(7), Duration::Seconds(10)};
  m.data = {9, 8, 7, 6};
  return m;
}

// A distinguishable packet, for tests that track which sends arrived.
Packet Tagged(uint64_t tag) { return Ping{RequestId(tag)}; }

uint64_t TagOf(const Recorder::Received& r) {
  return std::get<Ping>(r.packet).req.value();
}

TEST(SimNetworkTest, UnicastDeliveryTimeIsPropPlusTwoProc) {
  // "a message is received m_prop + 2*m_proc after it is sent"
  Rig rig(2);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[1]->received.size(), 1u);
  Duration latency = rig.nodes[1]->received[0].at - TimePoint::Epoch();
  EXPECT_EQ(latency, rig.params.prop_delay + rig.params.proc_time * 2);
  EXPECT_EQ(EncodePacket(rig.nodes[1]->received[0].packet),
            EncodePacket(SamplePacket()));
  EXPECT_EQ(rig.nodes[1]->received[0].from, NodeId(1));
}

TEST(SimNetworkTest, RequestResponseCostsTwoPropFourProc) {
  // Unicast request + reply = 2*m_prop + 4*m_proc (Table 1 discussion).
  Rig rig(2);
  rig.nodes[1]->reply_to_sender = true;
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[0]->received.size(), 1u);
  Duration rtt = rig.nodes[0]->received[0].at - TimePoint::Epoch();
  EXPECT_EQ(rtt, rig.params.prop_delay * 2 + rig.params.proc_time * 4);
}

class MulticastCost : public ::testing::TestWithParam<int> {};

TEST_P(MulticastCost, MulticastWithNRepliesMatchesFormula) {
  // "it requires time 2*m_prop + (n+3)*m_proc to send a multicast message
  // and receive n replies" -- the replies serialize on the sender's CPU.
  int n = GetParam();
  Rig rig(static_cast<size_t>(n) + 1);
  std::vector<NodeId> dst;
  for (int i = 0; i < n; ++i) {
    rig.nodes[static_cast<size_t>(i) + 1]->reply_to_sender = true;
    dst.push_back(NodeId(static_cast<uint32_t>(i + 2)));
  }
  rig.transports[0]->Multicast(dst, MessageClass::kConsistency,
                               SamplePacket());
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[0]->received.size(), static_cast<size_t>(n));
  TimePoint last;
  for (const auto& msg : rig.nodes[0]->received) {
    last = std::max(last, msg.at);
  }
  Duration expected =
      rig.params.prop_delay * 2 + rig.params.proc_time * (n + 3);
  EXPECT_EQ(last - TimePoint::Epoch(), expected) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Fanout, MulticastCost,
                         ::testing::Values(1, 2, 5, 9, 19, 39));

TEST(SimNetworkTest, SenderCpuSerializesBackToBackSends) {
  Rig rig(2);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[1]->received.size(), 2u);
  Duration gap = rig.nodes[1]->received[1].at - rig.nodes[1]->received[0].at;
  // The second message waits for the sender CPU (m_proc), then the
  // receiver CPU also serializes -- net effect: one m_proc apart.
  EXPECT_EQ(gap, rig.params.proc_time);
}

TEST(SimNetworkTest, NoSelfDelivery) {
  Rig rig(2);
  NodeId self(1);
  NodeId dsts[2] = {self, NodeId(2)};
  rig.transports[0]->Multicast(dsts, MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(rig.nodes[0]->received.empty());
  EXPECT_EQ(rig.nodes[1]->received.size(), 1u);
}

TEST(SimNetworkTest, LossDropsApproximatelyTheConfiguredFraction) {
  NetworkParams params;
  params.loss_prob = 0.25;
  params.seed = 42;
  Rig rig(2, params);
  const int kSends = 10000;
  for (int i = 0; i < kSends; ++i) {
    rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  }
  rig.sim.RunUntilIdle();
  double delivered = static_cast<double>(rig.nodes[1]->received.size());
  EXPECT_NEAR(delivered / kSends, 0.75, 0.02);
  EXPECT_EQ(rig.net->stats(NodeId(1)).dropped_loss,
            kSends - rig.nodes[1]->received.size());
}

TEST(SimNetworkTest, PartitionBlocksBothDirectionsUntilHealed) {
  Rig rig(2);
  rig.net->SetPartitioned(NodeId(1), NodeId(2), true);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.transports[1]->Send(NodeId(1), MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(rig.nodes[0]->received.empty());
  EXPECT_TRUE(rig.nodes[1]->received.empty());
  EXPECT_EQ(rig.net->stats(NodeId(1)).dropped_partition, 1u);

  rig.net->SetPartitioned(NodeId(1), NodeId(2), false);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  EXPECT_EQ(rig.nodes[1]->received.size(), 1u);
}

TEST(SimNetworkTest, IsolateNodeCutsAllPairs) {
  Rig rig(3);
  rig.net->IsolateNode(NodeId(2), true);
  EXPECT_TRUE(rig.net->ArePartitioned(NodeId(1), NodeId(2)));
  EXPECT_TRUE(rig.net->ArePartitioned(NodeId(2), NodeId(3)));
  EXPECT_FALSE(rig.net->ArePartitioned(NodeId(1), NodeId(3)));
  rig.net->IsolateNode(NodeId(2), false);
  EXPECT_FALSE(rig.net->ArePartitioned(NodeId(1), NodeId(2)));
}

TEST(SimNetworkTest, DownNodeReceivesNothing) {
  Rig rig(2);
  rig.net->SetNodeUp(NodeId(2), false);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, Tagged(1));
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(rig.nodes[1]->received.empty());
  rig.net->SetNodeUp(NodeId(2), true);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, Tagged(2));
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[1]->received.size(), 1u);
  EXPECT_EQ(TagOf(rig.nodes[1]->received[0]), 2u);
}

TEST(SimNetworkTest, MessagesInFlightAtCrashAreLost) {
  Rig rig(2);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  // Crash strictly between send and delivery.
  rig.sim.ScheduleAfter(Duration::Micros(100), [&]() {
    rig.net->SetNodeUp(NodeId(2), false);
  });
  rig.sim.ScheduleAfter(Duration::Millis(10), [&]() {
    rig.net->SetNodeUp(NodeId(2), true);
  });
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(rig.nodes[1]->received.empty());
}

TEST(SimNetworkTest, DownSenderCannotSend) {
  Rig rig(2);
  rig.net->SetNodeUp(NodeId(1), false);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(rig.nodes[1]->received.empty());
  EXPECT_EQ(rig.net->stats(NodeId(1)).TotalSent(), 0u);
}

TEST(SimNetworkTest, ReplaceHandlerDropsOldInFlight) {
  Rig rig(2);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  Recorder fresh(&rig.sim);
  rig.net->ReplaceHandler(NodeId(2), &fresh);
  rig.sim.RunUntilIdle();
  // The in-flight message belonged to the old incarnation.
  EXPECT_TRUE(rig.nodes[1]->received.empty());
  EXPECT_TRUE(fresh.received.empty());
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  EXPECT_EQ(fresh.received.size(), 1u);
}

TEST(SimNetworkTest, StatsCountHandledByClassAndMulticastOnce) {
  Rig rig(3);
  std::vector<NodeId> dst = {NodeId(2), NodeId(3)};
  rig.transports[0]->Multicast(dst, MessageClass::kConsistency, Tagged(1));
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  const NodeMessageStats& sender = rig.net->stats(NodeId(1));
  // One multicast counts as ONE sent message (the paper's "total of S
  // messages" accounting), plus the unicast.
  EXPECT_EQ(sender.sent[static_cast<int>(MessageClass::kConsistency)], 1u);
  EXPECT_EQ(sender.sent[static_cast<int>(MessageClass::kData)], 1u);
  EXPECT_EQ(sender.Handled(), 2u);
  EXPECT_EQ(rig.net->stats(NodeId(2)).TotalReceived(), 2u);
  EXPECT_EQ(rig.net->stats(NodeId(3)).TotalReceived(), 1u);
  EXPECT_EQ(rig.net->TotalHandled(), 5u);
  rig.net->ResetStats();
  EXPECT_EQ(rig.net->TotalHandled(), 0u);
}

TEST(SimNetworkTypedTest, TypedStatsMatchBytePathAccounting) {
  // The same traffic sent through the byte overloads of Transport (decoded
  // once at the sender) must be accounted exactly like typed sends.
  auto run = [](bool bytes) {
    Rig rig(3);
    Transport* sender = rig.transports[0];
    std::vector<NodeId> dst = {NodeId(2), NodeId(3)};
    if (bytes) {
      sender->Multicast(dst, MessageClass::kConsistency,
                        EncodePacket(Tagged(1)));
      sender->Send(NodeId(2), MessageClass::kData,
                   EncodePacket(SamplePacket()));
    } else {
      sender->Multicast(dst, MessageClass::kConsistency, Tagged(1));
      sender->Send(NodeId(2), MessageClass::kData, SamplePacket());
    }
    rig.sim.RunUntilIdle();
    std::vector<uint64_t> counts;
    for (uint32_t n = 1; n <= 3; ++n) {
      const NodeMessageStats& st = rig.net->stats(NodeId(n));
      counts.insert(counts.end(), std::begin(st.sent), std::end(st.sent));
      counts.insert(counts.end(), std::begin(st.received),
                    std::end(st.received));
    }
    counts.push_back(rig.net->TotalHandled());
    return counts;
  };
  std::vector<uint64_t> typed = run(false);
  EXPECT_EQ(typed, run(true));
  // Sender: one consistency multicast plus one data unicast; node 2 got
  // both, node 3 the multicast only.
  // Per node: sent[data, consistency, control], then received[...].
  EXPECT_EQ(typed, (std::vector<uint64_t>{1, 1, 0, 0, 0, 0,  //
                                          0, 0, 0, 1, 1, 0,  //
                                          0, 0, 0, 0, 1, 0,  //
                                          5}));
}

// --- Packet hand-off details ---------------------------------------------

TEST(SimNetworkTypedTest, TypedUnicastKeepsTheCostModelAndPayload) {
  Rig rig(2);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[1]->received.size(), 1u);
  EXPECT_EQ(rig.nodes[1]->byte_deliveries, 0u);  // no decode happened
  const auto& got = rig.nodes[1]->received[0];
  EXPECT_EQ(got.at - TimePoint::Epoch(),
            rig.params.prop_delay + rig.params.proc_time * 2);
  EXPECT_EQ(got.from, NodeId(1));
  const auto* reply = std::get_if<ReadReply>(&got.packet);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->data, (std::vector<uint8_t>{9, 8, 7, 6}));
}

TEST(SimNetworkTypedTest, TypedMulticastWithRepliesMatchesFormula) {
  const int n = 5;
  Rig rig(n + 1);
  std::vector<NodeId> dst;
  for (int i = 0; i < n; ++i) {
    rig.nodes[static_cast<size_t>(i) + 1]->reply_to_sender = true;
    dst.push_back(NodeId(static_cast<uint32_t>(i + 2)));
  }
  rig.transports[0]->Multicast(dst, MessageClass::kConsistency,
                               Packet(Ping{RequestId(1)}));
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[0]->received.size(), static_cast<size_t>(n));
  TimePoint last;
  for (const auto& msg : rig.nodes[0]->received) {
    last = std::max(last, msg.at);
  }
  EXPECT_EQ(last - TimePoint::Epoch(),
            rig.params.prop_delay * 2 + rig.params.proc_time * (n + 3));
}

TEST(SimNetworkTypedTest, ByteOnlyHandlerGetsWireBytesFromTypedSend) {
  // A handler that overrides only HandlePacket (a wire-level decorator)
  // must observe exactly what the wire would have carried.
  struct WireRecorder : PacketHandler {
    void HandlePacket(NodeId, MessageClass,
                      std::span<const uint8_t> bytes) override {
      received.emplace_back(bytes.begin(), bytes.end());
    }
    std::vector<std::vector<uint8_t>> received;
  };
  Simulator sim;
  SimNetwork net(&sim, NetworkParams{});
  WireRecorder byte_node;
  Recorder typed_node(&sim);
  net.AttachNode(NodeId(2), &byte_node);
  SimTransport* t0 = net.AttachNode(NodeId(3), &typed_node);
  Packet packet = SamplePacket();
  t0->Send(NodeId(2), MessageClass::kData, Packet(packet));
  sim.RunUntilIdle();
  ASSERT_EQ(byte_node.received.size(), 1u);
  EXPECT_EQ(byte_node.received[0], EncodePacket(packet));
}

TEST(SimNetworkTypedTest, ByteSendIsDecodedOntoThePacketPath) {
  // The byte overload of Transport::Send decodes once at the sender; an
  // undecodable payload is dropped before it costs the network anything.
  Rig rig(2);
  Transport* sender = rig.transports[0];
  sender->Send(NodeId(2), MessageClass::kData, EncodePacket(SamplePacket()));
  sender->Send(NodeId(2), MessageClass::kData, std::vector<uint8_t>{0xff});
  std::vector<NodeId> dst = {NodeId(2)};
  sender->Multicast(dst, MessageClass::kData, std::vector<uint8_t>{});
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[1]->received.size(), 1u);
  EXPECT_EQ(rig.nodes[1]->byte_deliveries, 0u);
  EXPECT_EQ(EncodePacket(rig.nodes[1]->received[0].packet),
            EncodePacket(SamplePacket()));
  EXPECT_EQ(rig.net->stats(NodeId(1)).TotalSent(), 1u);
}

TEST(SimNetworkTypedTest, TracerSeesWireBytesLazily) {
  Rig rig(3);
  std::vector<std::vector<uint8_t>> taps;
  rig.net->set_tracer([&](NodeId src, NodeId dst, MessageClass cls,
                          std::span<const uint8_t> bytes) {
    (void)src;
    (void)dst;
    (void)cls;
    taps.emplace_back(bytes.begin(), bytes.end());
  });
  // Tracer fires per destination, even for a partitioned one, with the
  // bytes the wire would carry.
  rig.net->SetPartitioned(NodeId(1), NodeId(3), true);
  Packet packet = SamplePacket();
  std::vector<NodeId> dst = {NodeId(2), NodeId(3)};
  rig.transports[0]->Multicast(dst, MessageClass::kData, Packet(packet));
  rig.sim.RunUntilIdle();
  ASSERT_EQ(taps.size(), 2u);
  EXPECT_EQ(taps[0], EncodePacket(packet));
  EXPECT_EQ(taps[1], EncodePacket(packet));
  ASSERT_EQ(rig.nodes[1]->received.size(), 1u);
  EXPECT_TRUE(rig.nodes[2]->received.empty());
}

TEST(SimNetworkTypedTest, ConformanceModeDeliversTheDecodedPacket) {
  Rig rig(2);
  rig.net->set_codec_conformance(true);
  Packet packet = SamplePacket();
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, Packet(packet));
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[1]->received.size(), 1u);
  EXPECT_EQ(rig.nodes[1]->byte_deliveries, 0u);
  EXPECT_EQ(EncodePacket(rig.nodes[1]->received[0].packet),
            EncodePacket(packet));
}

TEST(SimNetworkTypedTest, TypedInFlightAtCrashIsDroppedAndRecycled) {
  Rig rig(2);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.sim.ScheduleAfter(Duration::Micros(100), [&]() {
    rig.net->SetNodeUp(NodeId(2), false);
  });
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(rig.nodes[1]->received.empty());
  // The pooled message must have been released: a follow-up send after
  // restart reuses it and still delivers correctly.
  rig.net->SetNodeUp(NodeId(2), true);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData,
                          Packet(Ping{RequestId(5)}));
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[1]->received.size(), 1u);
  EXPECT_NE(std::get_if<Ping>(&rig.nodes[1]->received[0].packet), nullptr);
}

// --- Multicast vs. restart / handler replacement --------------------------

TEST(SimNetworkTest, MulticastReplaceHandlerOrphansOnlyThatDestination) {
  Rig rig(3);
  std::vector<NodeId> dst = {NodeId(2), NodeId(3)};
  // Sent through the byte overload, as an already-encoded payload.
  Transport* sender = rig.transports[0];
  sender->Multicast(dst, MessageClass::kConsistency, EncodePacket(Tagged(5)));
  Recorder fresh(&rig.sim);
  rig.net->ReplaceHandler(NodeId(2), &fresh);
  rig.sim.RunUntilIdle();
  // Node 2's copy belonged to the old incarnation; node 3's still lands.
  EXPECT_TRUE(rig.nodes[1]->received.empty());
  EXPECT_TRUE(fresh.received.empty());
  ASSERT_EQ(rig.nodes[2]->received.size(), 1u);
  EXPECT_EQ(TagOf(rig.nodes[2]->received[0]), 5u);
}

TEST(SimNetworkTypedTest, TypedMulticastReplaceHandlerOrphansOldEpoch) {
  Rig rig(3);
  std::vector<NodeId> dst = {NodeId(2), NodeId(3)};
  rig.transports[0]->Multicast(dst, MessageClass::kConsistency, Tagged(9));
  Recorder fresh(&rig.sim);
  rig.net->ReplaceHandler(NodeId(2), &fresh);
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(rig.nodes[1]->received.empty());
  EXPECT_TRUE(fresh.received.empty());
  ASSERT_EQ(rig.nodes[2]->received.size(), 1u);
  EXPECT_EQ(TagOf(rig.nodes[2]->received[0]), 9u);
  // Another send reaches the replaced handler; the shared in-flight
  // message from before was released cleanly (no leak under asan).
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, Tagged(10));
  rig.sim.RunUntilIdle();
  ASSERT_EQ(fresh.received.size(), 1u);
  EXPECT_EQ(TagOf(fresh.received[0]), 10u);
}

TEST(SimNetworkTypedTest, TypedMulticastCrashMidFlightOrphansOldEpoch) {
  Rig rig(3);
  std::vector<NodeId> dst = {NodeId(2), NodeId(3)};
  rig.transports[0]->Multicast(dst, MessageClass::kData,
                               Packet(Ping{RequestId(3)}));
  rig.net->SetNodeUp(NodeId(2), false);
  rig.net->SetNodeUp(NodeId(2), true);  // restart bumps the epoch
  rig.sim.RunUntilIdle();
  // The restarted incarnation must not see the pre-crash delivery.
  EXPECT_TRUE(rig.nodes[1]->received.empty());
  ASSERT_EQ(rig.nodes[2]->received.size(), 1u);
}

// --- Fault plane: duplication, reorder jitter, burst loss -----------------

TEST(SimNetworkFaultTest, DuplicationDeliversAnExtraCopy) {
  NetworkParams params;
  params.faults.dup_prob = 1.0;
  Rig rig(2, params);
  for (uint64_t i = 0; i < 5; ++i) {
    rig.transports[0]->Send(NodeId(2), MessageClass::kData, Tagged(i));
  }
  rig.sim.RunUntilIdle();
  EXPECT_EQ(rig.nodes[1]->received.size(), 10u);
  EXPECT_EQ(rig.net->stats(NodeId(1)).duplicated, 5u);
}

TEST(SimNetworkFaultTest, TypedDuplicationMatchesBytePath) {
  // Byte-overload sends are decoded at the sender and then duplicated
  // exactly like typed sends: same copies, same order, same counter.
  auto run = [](bool bytes) {
    NetworkParams params;
    params.faults.dup_prob = 1.0;
    Rig rig(2, params);
    Transport* sender = rig.transports[0];
    for (uint64_t i = 1; i <= 5; ++i) {
      if (bytes) {
        sender->Send(NodeId(2), MessageClass::kData, EncodePacket(Tagged(i)));
      } else {
        sender->Send(NodeId(2), MessageClass::kData, Tagged(i));
      }
    }
    rig.sim.RunUntilIdle();
    EXPECT_EQ(rig.net->stats(NodeId(1)).duplicated, 5u);
    std::vector<std::pair<uint64_t, int64_t>> arrivals;
    for (const auto& r : rig.nodes[1]->received) {
      arrivals.emplace_back(TagOf(r), (r.at - TimePoint::Epoch()).ToMicros());
    }
    return arrivals;
  };
  auto typed = run(false);
  EXPECT_EQ(typed.size(), 10u);
  EXPECT_EQ(typed, run(true));
}

TEST(SimNetworkFaultTest, ReorderJitterDelaysButDelivers) {
  NetworkParams params;
  params.faults.reorder_prob = 1.0;
  params.faults.reorder_delay_max = Duration::Millis(5);
  Rig rig(2, params);
  rig.transports[0]->Send(NodeId(2), MessageClass::kData, SamplePacket());
  rig.sim.RunUntilIdle();
  ASSERT_EQ(rig.nodes[1]->received.size(), 1u);
  Duration base = params.prop_delay + params.proc_time * 2;
  Duration latency = rig.nodes[1]->received[0].at - TimePoint::Epoch();
  EXPECT_GT(latency, base);
  EXPECT_LE(latency, base + params.faults.reorder_delay_max);
  EXPECT_EQ(rig.net->stats(NodeId(1)).delayed, 1u);
}

TEST(SimNetworkFaultTest, BurstLossDropsWhileChainIsBad) {
  NetworkParams params;
  params.faults.burst_enter_prob = 1.0;  // enter the bad state immediately
  params.faults.burst_exit_prob = 0.0;   // and never leave it
  params.faults.burst_loss_prob = 1.0;
  Rig rig(2, params);
  for (uint64_t i = 0; i < 8; ++i) {
    rig.transports[0]->Send(NodeId(2), MessageClass::kData, Tagged(i));
  }
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(rig.nodes[1]->received.empty());
  EXPECT_EQ(rig.net->stats(NodeId(1)).dropped_burst, 8u);
}

TEST(SimNetworkFaultTest, FaultStreamLeavesLossDrawsUntouched) {
  // The whole point of the dedicated fault RNG: enabling a fault must not
  // perturb which messages the independent-loss stream drops. Jitter-only
  // faults neither add nor remove deliveries, so the delivered payload set
  // must be identical with the fault plane on and off.
  auto delivered = [](bool faults_on) {
    NetworkParams params;
    params.seed = 9;
    params.loss_prob = 0.3;
    if (faults_on) {
      params.faults.reorder_prob = 1.0;
      params.faults.reorder_delay_max = Duration::Millis(2);
    }
    Rig rig(2, params);
    for (uint64_t i = 0; i < 50; ++i) {
      rig.transports[0]->Send(NodeId(2), MessageClass::kData, Tagged(i));
    }
    rig.sim.RunUntilIdle();
    std::vector<uint64_t> ids;
    for (const auto& r : rig.nodes[1]->received) {
      ids.push_back(TagOf(r));
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  std::vector<uint64_t> base = delivered(false);
  EXPECT_GT(base.size(), 0u);
  EXPECT_LT(base.size(), 50u);  // some losses, or the test proves nothing
  EXPECT_EQ(base, delivered(true));
}

}  // namespace
}  // namespace leases
