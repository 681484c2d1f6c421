// The sharded grant plane under real concurrency: several RuntimeClients,
// each on its own threads, hammer a sharded RuntimeServer over UDP. The
// server runs every shard -- routing, the shards' handlers and timers, the
// cross-shard extend rendezvous and the sendmmsg flush -- as its one
// socket loop's work, while the client threads send, lead their own loops
// and read stats. Run under TSan in the sanitizer tier
// (tools/run_sanitizer_tier.sh), this is the proof that the client threads
// and the one server loop do not race.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/core/shard_router.h"
#include "src/runtime/node.h"
#include "src/runtime/udp_transport.h"

namespace leases {
namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// A sharded server granting fixed `term` leases.
EngineConfig ShardedConfig(Duration term, size_t num_shards) {
  EngineConfig config;
  config.term = term;
  config.num_shards = num_shards;
  return config;
}

ClientParams TestClientParams() {
  ClientParams p;
  p.transit_allowance = Duration::Millis(50);
  p.epsilon = Duration::Millis(50);
  p.request_timeout = Duration::Millis(300);
  return p;
}

TEST(ShardConcurrency, ClientsHammerAllShardsThroughBatchedUdp) {
  constexpr size_t kShards = 4;
  constexpr size_t kClients = 3;
  constexpr size_t kFiles = 16;
  constexpr int kRounds = 30;

  RuntimeServer server(NodeId(1),
                       ShardedConfig(Duration::Seconds(5), kShards));
  std::vector<FileId> files;
  for (size_t i = 0; i < kFiles; ++i) {
    files.push_back(*server.store().CreatePath(
        "/data/f" + std::to_string(i), FileClass::kNormal, B("seed")));
  }
  // The workload only exercises sharding if the files actually span shards.
  std::vector<bool> hit(kShards, false);
  for (FileId f : files) {
    hit[ShardIndexOf(f, kShards)] = true;
  }
  size_t shards_hit = 0;
  for (bool h : hit) {
    shards_hit += h ? 1 : 0;
  }
  ASSERT_GT(shards_hit, 1u);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<RuntimeClient>> clients;
  for (size_t c = 0; c < kClients; ++c) {
    auto client = std::make_unique<RuntimeClient>(
        NodeId(2 + c), NodeId(1), server.store().root(), TestClientParams());
    ASSERT_TRUE(client->Start(server.port()).ok());
    server.AddPeer(NodeId(2 + c), client->port());
    clients.push_back(std::move(client));
  }

  // Each client thread walks the whole file set repeatedly -- every thread
  // touches every shard -- mixing cached reads, write-throughs (which fan
  // out approval traffic to the other leaseholders) and fresh reads.
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> writes_done{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      RuntimeClient& client = *clients[c];
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < kFiles; ++i) {
          FileId file = files[i];
          if ((round + i) % (kClients + 1) == c) {
            std::string payload =
                "c" + std::to_string(c) + "r" + std::to_string(round);
            Result<WriteResult> w =
                client.Write(file, B(payload), Duration::Seconds(10));
            if (!w.ok()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            } else {
              writes_done.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            Result<ReadResult> r = client.Read(file, Duration::Seconds(10));
            if (!r.ok()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0u);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.writes_committed, writes_done.load());
  EXPECT_GT(stats.reads_served, 0u);
  EXPECT_GT(stats.leases_granted, 0u);
  EXPECT_GT(server.processed(), 0u);
  EXPECT_EQ(stats.send_failures, 0u);

  // Every client converges on the same final contents once the dust settles:
  // write-through plus approval-invalidation means a fresh read cannot
  // return a stale version.
  for (FileId file : files) {
    Result<ReadResult> first = clients[0]->Read(file, Duration::Seconds(10));
    ASSERT_TRUE(first.ok());
    for (size_t c = 1; c < kClients; ++c) {
      Result<ReadResult> other =
          clients[c]->Read(file, Duration::Seconds(10));
      ASSERT_TRUE(other.ok());
      EXPECT_EQ(other->version, first->version);
    }
  }

  for (auto& client : clients) {
    client->Stop();
  }
  server.Stop();
}

TEST(ShardConcurrency, CrossShardBatchedExtendOverUdp) {
  // Short term so the client's whole working set lapses together; the
  // batched ExtendRequest then spans shards and exercises the split/merge
  // rendezvous, each shard replying through the server's one socket.
  constexpr size_t kShards = 8;
  constexpr size_t kFiles = 12;

  RuntimeServer server(NodeId(1),
                       ShardedConfig(Duration::Millis(800), kShards));
  std::vector<FileId> files;
  for (size_t i = 0; i < kFiles; ++i) {
    files.push_back(*server.store().CreatePath(
        "/ext/f" + std::to_string(i), FileClass::kNormal, B("x")));
  }
  ASSERT_TRUE(server.Start().ok());

  RuntimeClient client(NodeId(2), NodeId(1), server.store().root(),
                       TestClientParams());
  ASSERT_TRUE(client.Start(server.port()).ok());
  server.AddPeer(NodeId(2), client.port());

  for (FileId f : files) {
    ASSERT_TRUE(client.Read(f, Duration::Seconds(10)).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  // All leases lapsed: the next read triggers one batched extension over
  // every held file, split across the shards and merged back into a single
  // reply the client can consume.
  ClientStats before = client.stats();
  for (FileId f : files) {
    ASSERT_TRUE(client.Read(f, Duration::Seconds(10)).ok());
  }
  ClientStats after = client.stats();
  EXPECT_GT(after.extend_requests, before.extend_requests);
  ServerStats stats = server.stats();
  EXPECT_GT(stats.extension_items, 0u);

  client.Stop();
  server.Stop();
}

// Regression for the per-send stats mutex removal: UdpBatchSender counts
// sends into shard-local atomics and UdpTransport::stats() merges them --
// live senders by reading their counters, destroyed senders by the fold in
// UnregisterBatchCounters. N shard threads hammering their own batchers
// must yield *exact* merged totals, stats() must be safe to read mid-storm
// (this test runs under TSan in the sanitizer tier), and the merged view
// must never go backwards.
TEST(ShardConcurrency, BatchSenderStatsMergeIsExactUnderContention) {
  constexpr size_t kThreads = 8;
  constexpr int kSendsPerThreadPerClass = 2000;

  UdpTransport sink(NodeId(9), nullptr, nullptr);
  sink.SetRawHandler([](NodeId, MessageClass, std::span<const uint8_t>) {});
  ASSERT_TRUE(sink.Start().ok());
  UdpTransport transport(NodeId(10), nullptr, nullptr);
  transport.SetRawHandler([](NodeId, MessageClass, std::span<const uint8_t>) {});
  ASSERT_TRUE(transport.Start().ok());
  transport.AddPeer(NodeId(9), sink.port());

  const NodeMessageStats before = transport.stats();

  // One batcher per shard thread, all counting against the same transport.
  std::vector<std::unique_ptr<UdpBatchSender>> batchers;
  for (size_t t = 0; t < kThreads; ++t) {
    batchers.push_back(std::make_unique<UdpBatchSender>(&transport));
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> regressions{0};
  std::thread reader([&]() {
    uint64_t prev = 0;
    while (!done.load(std::memory_order_relaxed)) {
      uint64_t now = transport.stats().TotalSent();
      if (now < prev) {
        regressions.fetch_add(1, std::memory_order_relaxed);
      }
      prev = now;
    }
  });

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      UdpBatchSender& batcher = *batchers[t];
      for (int i = 0; i < kSendsPerThreadPerClass; ++i) {
        batcher.Send(NodeId(9), MessageClass::kData, Ping{RequestId(1)});
        batcher.Send(NodeId(9), MessageClass::kConsistency,
                     Ping{RequestId(2)});
      }
      batcher.Flush();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // Destroy half the batchers so the final merge combines folded totals
  // (transport-side) with live shard-local counters.
  for (size_t t = 0; t < kThreads; t += 2) {
    batchers[t].reset();
  }

  const NodeMessageStats after = transport.stats();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const uint64_t expected = kThreads * uint64_t{kSendsPerThreadPerClass};
  EXPECT_EQ(after.sent[static_cast<int>(MessageClass::kData)] -
                before.sent[static_cast<int>(MessageClass::kData)],
            expected);
  EXPECT_EQ(after.sent[static_cast<int>(MessageClass::kConsistency)] -
                before.sent[static_cast<int>(MessageClass::kConsistency)],
            expected);
  EXPECT_EQ(after.send_failures, before.send_failures);
  EXPECT_EQ(regressions.load(), 0u);

  batchers.clear();
  transport.Stop();
  sink.Stop();
}

}  // namespace
}  // namespace leases
