// The replicated lease authority over real UDP sockets: three replica
// processes-worth of state machines on localhost, a real holder crash, and
// a client that survives the failover by re-pointing the virtual address
// (the test's stand-in for the VIP/ARP move a deployment would do).
//
// Real-clock timing is inherently noisy, so every bound here is generous:
// the assertions pin the *shape* of failover (a standby takes over, the
// write hold comes from the inherited bound, data flows again), not tight
// latencies -- those are measured in the deterministic sim suites.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "src/runtime/node.h"

namespace leases {
namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

bool WaitFor(const std::function<bool()>& cond,
             Duration timeout = Duration::Seconds(20)) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout.ToMicros());
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return cond();
}

ClientParams RuntimeClientParams() {
  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  params.request_timeout = Duration::Millis(300);
  return params;
}

// A single-replica authority is a transparent shell: it serves immediately
// over the same two-socket wiring, with no election round-trips.
TEST(RuntimeReplica, SingleReplicaShellServesOverUdp) {
  EngineConfig config;
  config.term = Duration::Seconds(5);
  config.replica.num_replicas = 1;
  RuntimeServer server(NodeId(1), config, ReplicaBoot{.cold_boot = true});
  FileId file = *server.store().CreatePath("/data/hello", FileClass::kNormal,
                                           B("world"));
  ASSERT_TRUE(server.Start().ok());

  RuntimeClient client(NodeId(10), NodeId(1), server.store().root(),
                       RuntimeClientParams());
  ASSERT_TRUE(client.Start(server.port()).ok());
  server.AddPeer(NodeId(10), client.port());
  server.RegisterClient(NodeId(10));

  Result<ReadResult> read = client.Read(file, Duration::Seconds(10));
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "world");
  Result<WriteResult> write =
      client.Write(file, B("there"), Duration::Seconds(10));
  ASSERT_TRUE(write.ok()) << write.error().ToString();
  EXPECT_EQ(server.stats().writes_committed, 1u);

  client.Stop();
  server.Stop();
}

// The acceptance shape on real sockets: replica 0 seeds a cold cluster and
// serves; killing it promotes a standby well inside the plain server's
// max-granted-term recovery wait, and the client continues after
// re-pointing the virtual address at the new holder.
TEST(RuntimeReplica, ThreeReplicaFailoverPromotesStandby) {
  EngineConfig config;
  config.term = Duration::Seconds(10);  // grants are capped far below this
  config.replica.num_replicas = 3;

  std::vector<std::unique_ptr<RuntimeServer>> replicas;
  FileId file;
  for (size_t r = 0; r < 3; ++r) {
    auto replica = std::make_unique<RuntimeServer>(
        NodeId(1), config, ReplicaBoot{.index = r, .cold_boot = true});
    // The lease plane replicates authority, not file data: seed each
    // replica's independent store identically.
    file = *replica->store().CreatePath("/data/hello", FileClass::kNormal,
                                        B("world"));
    ASSERT_TRUE(replica->Start().ok());
    replicas.push_back(std::move(replica));
  }
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = 0; b < 3; ++b) {
      if (a != b) {
        replicas[a]->AddReplicaPeer(b, replicas[b]->authority_port());
      }
    }
  }

  // The seed replica acquires once the peer wiring is up.
  ASSERT_TRUE(WaitFor([&] { return replicas[0]->is_holder(); }))
      << "seed replica never acquired the authority lease";

  RuntimeClient client(NodeId(10), NodeId(1), replicas[0]->store().root(),
                       RuntimeClientParams());
  ASSERT_TRUE(client.Start(replicas[0]->port()).ok());
  for (auto& replica : replicas) {
    replica->AddPeer(NodeId(10), client.port());
    replica->RegisterClient(NodeId(10));
  }

  Result<ReadResult> read = client.Read(file, Duration::Seconds(10));
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "world");

  // Kill the holder. A standby must acquire from the surviving quorum well
  // inside the 10 s term a single server would have to wait out.
  auto crash = std::chrono::steady_clock::now();
  replicas[0]->Stop();
  RuntimeServer* successor = nullptr;
  ASSERT_TRUE(WaitFor([&] {
    for (size_t r = 1; r < 3; ++r) {
      if (replicas[r]->is_holder()) {
        successor = replicas[r].get();
        return true;
      }
    }
    return false;
  })) << "no standby took over after the holder crash";
  auto failover = std::chrono::steady_clock::now() - crash;
  EXPECT_LT(failover, std::chrono::seconds(10))
      << "failover took as long as single-server recovery";

  // The VIP move: re-point the virtual server id at the new holder.
  client.transport().AddPeer(NodeId(1), successor->port());

  // The first write pays the inherited grant bound (the deferred
  // inheritance hold), not the max-granted-term wait, then commits.
  Result<WriteResult> write =
      client.Write(file, B("after-failover"), Duration::Seconds(30));
  ASSERT_TRUE(write.ok()) << write.error().ToString();
  EXPECT_GT(successor->last_inherited_bound().ToMicros(), 0);
  EXPECT_LT(successor->last_inherited_bound(), Duration::Seconds(10));
  EXPECT_EQ(successor->stats().writes_committed, 1u);

  Result<ReadResult> again = client.Read(file, Duration::Seconds(10));
  ASSERT_TRUE(again.ok()) << again.error().ToString();
  EXPECT_EQ(std::string(again->data.begin(), again->data.end()),
            "after-failover");

  client.Stop();
  for (auto& replica : replicas) {
    replica->Stop();
  }
}

}  // namespace
}  // namespace leases
