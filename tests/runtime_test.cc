// The lease protocol over real UDP sockets and real timers: the same state
// machines as the simulation, on the localhost runtime.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <random>
#include <string>
#include <thread>

#include "src/core/shard_router.h"
#include "src/runtime/node.h"

namespace leases {
namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// A plain server granting fixed `term` leases.
EngineConfig TermConfig(Duration term) {
  EngineConfig config;
  config.term = term;
  return config;
}

class RuntimeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server = std::make_unique<RuntimeServer>(
        NodeId(1), TermConfig(Duration::Seconds(2)));
    file = *server->store().CreatePath("/data/hello", FileClass::kNormal,
                                       B("world"));
    ASSERT_TRUE(server->Start().ok());

    ClientParams client_params;
    client_params.transit_allowance = Duration::Millis(50);
    client_params.epsilon = Duration::Millis(50);
    client_params.request_timeout = Duration::Millis(300);
    client = std::make_unique<RuntimeClient>(
        NodeId(2), NodeId(1), server->store().root(), client_params);
    ASSERT_TRUE(client->Start(server->port()).ok());
    server->AddPeer(NodeId(2), client->port());
  }

  void TearDown() override {
    client->Stop();
    server->Stop();
  }

  std::unique_ptr<RuntimeServer> server;
  std::unique_ptr<RuntimeClient> client;
  FileId file;
};

TEST_F(RuntimeFixture, OpenReadWriteOverSockets) {
  Result<OpenResult> open = client->Open("/data/hello");
  ASSERT_TRUE(open.ok()) << open.error().ToString();
  EXPECT_EQ(open->file, file);

  Result<ReadResult> read = client->Read(file);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "world");
  EXPECT_FALSE(read->from_cache);

  Result<WriteResult> write = client->Write(file, B("there"));
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write->version, 2u);

  Result<ReadResult> again = client->Read(file);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);  // lease still valid on a real clock
  EXPECT_EQ(std::string(again->data.begin(), again->data.end()), "there");
}

TEST_F(RuntimeFixture, LeaseExpiresOnRealClock) {
  ASSERT_TRUE(client->Read(file).ok());
  ClientStats before = client->stats();
  EXPECT_EQ(before.extend_requests, 0u);
  // Term is 2 s; after 2.2 s the lease must have lapsed.
  std::this_thread::sleep_for(std::chrono::milliseconds(2200));
  Result<ReadResult> read = client->Read(file);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->from_cache);
  EXPECT_EQ(client->stats().extend_requests, 1u);
}

TEST_F(RuntimeFixture, RetransmissionSurvivesDatagramLoss) {
  // Drop every 2nd outgoing datagram from the client; retries (same request
  // id, server-side dedup) must still complete every operation exactly once.
  client->WithClient([](CacheClient&) {});
  client->faults().set_drop_every_nth(2);
  Result<WriteResult> w1 = client->Write(file, B("v2"), Duration::Seconds(10));
  ASSERT_TRUE(w1.ok()) << w1.error().ToString();
  Result<WriteResult> w2 = client->Write(file, B("v3"), Duration::Seconds(10));
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2->version, w1->version + 1);  // no double-commit from retries
  Result<ReadResult> read = client->Read(file, Duration::Seconds(10));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "v3");
  EXPECT_GT(client->stats().retransmits, 0u);
}

TEST_F(RuntimeFixture, DuplicatedAndDelayedDatagramsAreHarmless) {
  // Duplicate half the client's datagrams and jitter a third of them; the
  // request-id dedup and version-monotonic reply handling must keep every
  // operation exactly-once over the real backend.
  TransportFaults faults;
  faults.dup_prob = 0.5;
  faults.dup_delay_max = Duration::Millis(5);
  faults.delay_prob = 0.3;
  faults.delay_max = Duration::Millis(5);
  faults.seed = 42;
  client->faults().SetFaults(faults);
  Result<WriteResult> w1 = client->Write(file, B("d2"), Duration::Seconds(10));
  ASSERT_TRUE(w1.ok()) << w1.error().ToString();
  Result<WriteResult> w2 = client->Write(file, B("d3"), Duration::Seconds(10));
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2->version, w1->version + 1);  // duplicates never double-commit
  Result<ReadResult> read = client->Read(file, Duration::Seconds(10));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "d3");
}

TEST_F(RuntimeFixture, MalformedDatagramsAreCountedAndDropped) {
  // Empty, runt (shorter than the 5-byte header) and unknown-class frames
  // at both ends: each is counted once, none reaches a handler, and the
  // protocol keeps serving.
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  auto spray = [fd](uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    const uint8_t runt[3] = {2, 0, 0};
    const uint8_t bad_class[6] = {2, 0, 0, 0, 0x7f, 1};
    auto* to = reinterpret_cast<sockaddr*>(&addr);
    ::sendto(fd, runt, 0, 0, to, sizeof(addr));
    ::sendto(fd, runt, sizeof(runt), 0, to, sizeof(addr));
    ::sendto(fd, bad_class, sizeof(bad_class), 0, to, sizeof(addr));
  };
  spray(server->port());
  spray(client->port());
  for (int i = 0; i < 400 && (server->transport().stats().malformed < 3 ||
                              client->transport().stats().malformed < 3);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);
  EXPECT_EQ(server->transport().stats().malformed, 3u);
  EXPECT_EQ(client->transport().stats().malformed, 3u);
  EXPECT_EQ(server->transport().stats().TotalReceived(), 0u);

  Result<ReadResult> read = client->Read(file);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "world");
  EXPECT_EQ(server->transport().stats().malformed, 3u);
}

TEST(RuntimeMultiClient, SharedWriteInvalidatesOtherClient) {
  RuntimeServer server(NodeId(1), TermConfig(Duration::Seconds(5)));
  FileId file = *server.store().CreatePath("/shared", FileClass::kNormal,
                                           B("v1"));
  ASSERT_TRUE(server.Start().ok());

  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  RuntimeClient a(NodeId(2), NodeId(1), server.store().root(), params);
  RuntimeClient b(NodeId(3), NodeId(1), server.store().root(), params);
  ASSERT_TRUE(a.Start(server.port()).ok());
  ASSERT_TRUE(b.Start(server.port()).ok());
  server.AddPeer(NodeId(2), a.port());
  server.AddPeer(NodeId(3), b.port());

  ASSERT_TRUE(a.Read(file).ok());
  ASSERT_TRUE(b.Read(file).ok());

  // B writes; A must be consulted (real callback round over UDP) and its
  // copy invalidated.
  Result<WriteResult> w = b.Write(file, B("v2"));
  ASSERT_TRUE(w.ok()) << w.error().ToString();

  Result<ReadResult> read = a.Read(file);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "v2");
  EXPECT_FALSE(read->from_cache);
  EXPECT_EQ(a.stats().approvals_granted, 1u);

  a.Stop();
  b.Stop();
  server.Stop();
}

TEST(RuntimeMultiClient, HeldReadResultKeepsItsBytesAcrossAnOverwrite) {
  // A hit shares the cache entry's buffer with the caller. Another client's
  // write then invalidates the entry on the loop thread while this thread
  // still holds the result: the bytes must stay as they were read.
  RuntimeServer server(NodeId(1), TermConfig(Duration::Seconds(5)));
  FileId file = *server.store().CreatePath("/shared", FileClass::kNormal,
                                           B("v1"));
  ASSERT_TRUE(server.Start().ok());

  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  RuntimeClient a(NodeId(2), NodeId(1), server.store().root(), params);
  RuntimeClient b(NodeId(3), NodeId(1), server.store().root(), params);
  ASSERT_TRUE(a.Start(server.port()).ok());
  ASSERT_TRUE(b.Start(server.port()).ok());
  server.AddPeer(NodeId(2), a.port());
  server.AddPeer(NodeId(3), b.port());

  ASSERT_TRUE(a.Read(file).ok());
  Result<ReadResult> held = a.Read(file);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held->from_cache);

  ASSERT_TRUE(b.Write(file, B("v2")).ok());
  ClientStats stats = a.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(std::string(held->data.begin(), held->data.end()), "v1");

  Result<ReadResult> fresh = a.Read(file);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(std::string(fresh->data.begin(), fresh->data.end()), "v2");
  EXPECT_EQ(std::string(held->data.begin(), held->data.end()), "v1");

  a.Stop();
  b.Stop();
  server.Stop();
}

TEST(RuntimeMultiClient, TwoCallersBlockOnOneClientAtOnce) {
  // Two threads block on client A at once: while one leads A's loop, the
  // other runs inline or waits on its condvar, and the leader runs the
  // other's callbacks. Client B writes the same files, so A's reads miss
  // and A answers approval callbacks. Every call must finish, and no read
  // may return a version older than the newest write acknowledged (to any
  // thread) before the read began.
  constexpr int kFiles = 4;
  constexpr int kOpsPerThread = 1000;
  RuntimeServer server(NodeId(1), TermConfig(Duration::Seconds(2)));
  std::array<FileId, kFiles> files;
  for (int f = 0; f < kFiles; ++f) {
    files[f] = *server.store().CreatePath("/shared" + std::to_string(f),
                                          FileClass::kNormal, B("v1"));
  }
  ASSERT_TRUE(server.Start().ok());
  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  params.request_timeout = Duration::Millis(300);
  RuntimeClient a(NodeId(2), NodeId(1), server.store().root(), params);
  RuntimeClient b(NodeId(3), NodeId(1), server.store().root(), params);
  ASSERT_TRUE(a.Start(server.port()).ok());
  ASSERT_TRUE(b.Start(server.port()).ok());
  server.AddPeer(NodeId(2), a.port());
  server.AddPeer(NodeId(3), b.port());

  std::array<std::atomic<uint64_t>, kFiles> acked{};
  std::atomic<int> failed{0};
  std::atomic<int> stale{0};
  auto worker = [&](RuntimeClient* client, uint32_t seed) {
    std::mt19937 rng(seed);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const int f = static_cast<int>(rng() % kFiles);
      if (rng() % 2 == 0) {
        Result<WriteResult> w = client->Write(
            files[f], B(std::to_string(seed) + ":" + std::to_string(i)),
            Duration::Seconds(10));
        if (!w.ok()) {
          ++failed;
          continue;
        }
        uint64_t seen = acked[f].load();
        while (seen < w->version &&
               !acked[f].compare_exchange_weak(seen, w->version)) {
        }
      } else {
        const uint64_t floor = acked[f].load();
        Result<ReadResult> r = client->Read(files[f], Duration::Seconds(10));
        if (!r.ok()) {
          ++failed;
        } else if (r->version < floor) {
          ++stale;
        }
      }
    }
  };
  std::thread a1(worker, &a, 1);
  std::thread a2(worker, &a, 2);
  std::thread b1(worker, &b, 3);
  a1.join();
  a2.join();
  b1.join();
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(stale, 0);
  uint64_t writes = 0;
  for (const auto& version : acked) {
    writes += version.load() - 1;
  }
  EXPECT_GT(writes, 0u);
  EXPECT_GT(a.stats().approvals_granted, 0u);

  a.Stop();
  b.Stop();
  server.Stop();
}

// The engine shapes one RuntimeServer builds from its EngineConfig.
enum class Shape { kPlain, kTwoShards, kOneReplica, kShardedReplica };

class RuntimeShapes : public ::testing::TestWithParam<Shape> {};

// Open, read, a shared write and the invalidated re-read, over UDP, through
// the same class whatever the shape.
TEST_P(RuntimeShapes, SharedWriteInvalidatesTheOtherClient) {
  EngineConfig config = TermConfig(Duration::Seconds(5));
  if (GetParam() == Shape::kTwoShards ||
      GetParam() == Shape::kShardedReplica) {
    config.num_shards = 2;
  }
  if (GetParam() == Shape::kOneReplica ||
      GetParam() == Shape::kShardedReplica) {
    config.replica.num_replicas = 1;
  }
  RuntimeServer server(NodeId(1), config, ReplicaBoot{.cold_boot = true});
  FileId file = *server.store().CreatePath("/data/shared", FileClass::kNormal,
                                           B("v1"));
  ASSERT_TRUE(server.Start().ok());

  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  params.request_timeout = Duration::Millis(300);
  RuntimeClient a(NodeId(2), NodeId(1), server.store().root(), params);
  RuntimeClient b(NodeId(3), NodeId(1), server.store().root(), params);
  ASSERT_TRUE(a.Start(server.port()).ok());
  ASSERT_TRUE(b.Start(server.port()).ok());
  server.AddPeer(NodeId(2), a.port());
  server.AddPeer(NodeId(3), b.port());

  Result<OpenResult> open = a.Open("/data/shared", Duration::Seconds(10));
  ASSERT_TRUE(open.ok()) << open.error().ToString();
  EXPECT_EQ(open->file, file);
  Result<ReadResult> read = a.Read(file, Duration::Seconds(10));
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "v1");
  ASSERT_TRUE(b.Read(file, Duration::Seconds(10)).ok());

  // B's write must consult A (a callback round over UDP) and invalidate
  // A's copy before it commits.
  Result<WriteResult> write = b.Write(file, B("v2"), Duration::Seconds(10));
  ASSERT_TRUE(write.ok()) << write.error().ToString();
  EXPECT_EQ(a.stats().approvals_granted, 1u);

  Result<ReadResult> again = a.Read(file, Duration::Seconds(10));
  ASSERT_TRUE(again.ok()) << again.error().ToString();
  EXPECT_FALSE(again->from_cache);
  EXPECT_EQ(std::string(again->data.begin(), again->data.end()), "v2");
  EXPECT_EQ(server.stats().writes_committed, 1u);

  a.Stop();
  b.Stop();
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RuntimeShapes,
    ::testing::Values(Shape::kPlain, Shape::kTwoShards, Shape::kOneReplica,
                      Shape::kShardedReplica),
    [](const ::testing::TestParamInfo<Shape>& param_info) {
      switch (param_info.param) {
        case Shape::kPlain:
          return "Plain";
        case Shape::kTwoShards:
          return "TwoShards";
        case Shape::kOneReplica:
          return "OneReplica";
        case Shape::kShardedReplica:
          return "ShardedReplica";
      }
      return "Unknown";
    });

// A shape the host cannot run fails Start with kInvalidArgument, touches no
// disk, and leaves a server that stops and destructs cleanly.
TEST(RuntimeShapes, RefusedShapeFailsStartAndStopsCleanly) {
  const std::string dir = ::testing::TempDir() + "leases_runtime_refused." +
                          std::to_string(::getpid()) + ".tmp";
  std::filesystem::remove_all(dir);
  EngineConfig shards_and_dir;
  shards_and_dir.num_shards = 2;
  shards_and_dir.data_dir = dir;
  EngineConfig replicas_and_dir;
  replicas_and_dir.replica.num_replicas = 1;
  replicas_and_dir.data_dir = dir;
  for (const EngineConfig& config :
       {shards_and_dir, replicas_and_dir}) {
    SCOPED_TRACE("shards=" + std::to_string(config.num_shards) +
                 " replicas=" + std::to_string(config.replica.num_replicas) +
                 " data_dir=" + config.data_dir);
    auto server = std::make_unique<RuntimeServer>(NodeId(1), config);
    Status started = server->Start();
    EXPECT_EQ(started.code(), ErrorCode::kInvalidArgument)
        << started.ToString();
    EXPECT_EQ(server->port(), 0);
    EXPECT_FALSE(std::filesystem::exists(dir));
    server->Stop();
    server->Stop();
    server.reset();
  }
  std::filesystem::remove_all(dir);
}

// Every shard of a sharded server runs as its socket's loop work, so the
// replies to reads one client issued in one loop turn -- one request
// datagram -- leave in one reply datagram even when the files live on
// different shards.
TEST(RuntimeSharded, ReadsOnTwoShardsInOneTurnShareOneReplyDatagram) {
  EngineConfig config = TermConfig(Duration::Seconds(5));
  config.num_shards = 2;
  RuntimeServer server(NodeId(1), config);
  std::vector<FileId> files;  // one file per shard
  for (int i = 0; files.size() < 2; ++i) {
    FileId file = *server.store().CreatePath(
        "/data/f" + std::to_string(i), FileClass::kNormal, B("v1"));
    if (files.empty() || ShardIndexOf(file, 2) != ShardIndexOf(files[0], 2)) {
      files.push_back(file);
    }
  }
  ASSERT_TRUE(server.Start().ok());

  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  params.request_timeout = Duration::Seconds(5);  // no retransmission
  RuntimeClient client(NodeId(2), NodeId(1), server.store().root(), params);
  ASSERT_TRUE(client.Start(server.port()).ok());
  server.AddPeer(NodeId(2), client.port());

  const uint64_t before = client.transport().stats().datagrams_received;
  std::atomic<int> done{0};
  std::atomic<int> failed{0};
  client.WithClient([&](CacheClient& cache) {
    for (FileId file : files) {
      cache.Read(file, [&](Result<ReadResult> r) {
        failed.fetch_add(r.ok() ? 0 : 1);
        done.fetch_add(1);
      });
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(done.load(), 2);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(client.transport().stats().datagrams_received - before, 1u);
  EXPECT_EQ(server.stats().leases_granted, 2u);

  client.Stop();
  server.Stop();
}

// Every shard serves from the server's one store, so a write a shard
// commits is what store() holds: there is no per-shard copy for the store
// to fall behind.
TEST(RuntimeSharded, ProtocolWriteShowsInTheServersStore) {
  EngineConfig config = TermConfig(Duration::Seconds(5));
  config.num_shards = 2;
  RuntimeServer server(NodeId(1), config);
  std::vector<FileId> files;  // one file per shard
  for (int i = 0; files.size() < 2; ++i) {
    FileId file = *server.store().CreatePath(
        "/data/f" + std::to_string(i), FileClass::kNormal, B("v1"));
    if (files.empty() || ShardIndexOf(file, 2) != ShardIndexOf(files[0], 2)) {
      files.push_back(file);
    }
  }
  ASSERT_TRUE(server.Start().ok());
  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  RuntimeClient client(NodeId(2), NodeId(1), server.store().root(), params);
  ASSERT_TRUE(client.Start(server.port()).ok());
  server.AddPeer(NodeId(2), client.port());

  for (FileId file : files) {
    Result<WriteResult> written =
        client.Write(file, B("v2"), Duration::Seconds(10));
    ASSERT_TRUE(written.ok()) << written.error().ToString();
    uint64_t version = 0;
    std::vector<uint8_t> data;
    server.WithEngine([&](ServerEngine&) {
      const FileRecord* rec = server.store().Find(file);
      version = rec->version;
      data.assign(rec->data.begin(), rec->data.end());
    });
    EXPECT_EQ(version, 2u) << "shard " << ShardIndexOf(file, 2);
    EXPECT_EQ(data, B("v2"));
  }

  client.Stop();
  server.Stop();
}

// The clock-health plane reaches a socket: with uncertainty_terms set the
// server grants through the uncertainty-aware policy, which learns from
// the clock stamps on the client's requests.
TEST(RuntimeClockHealth, UncertaintyAwarePolicySeesClientClockSamples) {
  EngineConfig config = TermConfig(Duration::Seconds(5));
  config.epsilon = Duration::Millis(50);
  config.uncertainty_terms = true;
  RuntimeServer server(NodeId(1), config);
  FileId file = *server.store().CreatePath("/data/hello", FileClass::kNormal,
                                           B("world"));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.clock_health(), nullptr);
  EXPECT_EQ(server.clock_health()->estimator().tracked_nodes(), 0u);

  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  RuntimeClient client(NodeId(2), NodeId(1), server.store().root(), params);
  ASSERT_TRUE(client.Start(server.port()).ok());
  server.AddPeer(NodeId(2), client.port());

  Result<ReadResult> read = client.Read(file, Duration::Seconds(10));
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(std::string(read->data.begin(), read->data.end()), "world");
  Result<WriteResult> write =
      client.Write(file, B("there"), Duration::Seconds(10));
  ASSERT_TRUE(write.ok()) << write.error().ToString();
  Result<ReadResult> again = client.Read(file, Duration::Seconds(10));
  ASSERT_TRUE(again.ok()) << again.error().ToString();
  EXPECT_EQ(std::string(again->data.begin(), again->data.end()), "there");

  bool known = false;
  server.WithEngine([&](ServerEngine&) {
    known = server.clock_health()->estimator().View(NodeId(2)).known;
  });
  EXPECT_TRUE(known) << "the policy never saw the client's clock stamp";
  EXPECT_EQ(server.stats().writes_committed, 1u);

  client.Stop();
  server.Stop();
}

TEST(RuntimeDurability, RestartedServerRecoversGrantWindowFromDataDir) {
  const std::string dir =
      "leases_runtime_durable." + std::to_string(::getpid()) + ".tmp";
  std::filesystem::remove_all(dir);
  ClientParams client_params;
  client_params.transit_allowance = Duration::Millis(50);
  client_params.epsilon = Duration::Millis(50);

  // First incarnation journals its recovery state under `dir`; a client
  // read leaves a 1 s lease granted.
  {
    RuntimeServer server(NodeId(1), TermConfig(Duration::Seconds(1)));
    FileId file = *server.store().CreatePath("/data/hello",
                                             FileClass::kNormal, B("v1"));
    ASSERT_TRUE(server.Start(dir).ok());
    RuntimeClient client(NodeId(2), NodeId(1), server.store().root(),
                         client_params);
    ASSERT_TRUE(client.Start(server.port()).ok());
    server.AddPeer(NodeId(2), client.port());
    ASSERT_TRUE(client.Read(file).ok());
    EXPECT_EQ(server.stats().recoveries, 0u);  // fresh boot, nothing durable
    EXPECT_GT(server.stats().journal_appends, 0u);
    client.Stop();
    server.Stop();
    // The server process dies here; only `dir` survives.
  }

  // Second incarnation over the same directory: it must find the durable
  // state, advance the boot counter, and hold writes for the granted term.
  RuntimeServer reborn(NodeId(1), TermConfig(Duration::Seconds(1)));
  FileId file = *reborn.store().CreatePath("/data/hello", FileClass::kNormal,
                                           B("v1"));
  ASSERT_TRUE(reborn.Start(dir).ok());
  ServerStats stats = reborn.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.recovery_window, Duration::Seconds(1));
  EXPECT_GE(stats.journal_replays, 1u);
  EXPECT_GT(stats.journal_replayed_records, 0u);
  bool in_recovery = false;
  reborn.WithEngine([&](ServerEngine& e) {
    in_recovery = e.sharded()->shard(0).InRecovery();
  });
  EXPECT_TRUE(in_recovery);

  // A write during the window is held, not lost: it commits once the
  // pre-crash grant has provably expired.
  RuntimeClient client(NodeId(2), NodeId(1), reborn.store().root(),
                       client_params);
  ASSERT_TRUE(client.Start(reborn.port()).ok());
  reborn.AddPeer(NodeId(2), client.port());
  auto begin = std::chrono::steady_clock::now();
  Result<WriteResult> w = client.Write(file, B("v2"), Duration::Seconds(10));
  ASSERT_TRUE(w.ok()) << w.error().ToString();
  EXPECT_GT(std::chrono::steady_clock::now() - begin,
            std::chrono::milliseconds(200));
  client.Stop();
  reborn.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace leases
