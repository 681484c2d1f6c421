// EngineConfig validation and the MakeServerEngine factory: unsupported
// configurations must fail with a descriptive Status at construction time,
// and every supported shape must come up through the one factory.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/core/sim_cluster.h"
#include "src/workload/v_config.h"
#include "tests/packet_samples.h"

namespace leases {
namespace {

bool RejectedWith(const EngineConfig& config, const std::string& needle) {
  Status status = config.Validate();
  if (status.ok()) {
    return false;
  }
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  return status.error().message.find(needle) != std::string::npos;
}

TEST(EngineConfigTest, DefaultsValidate) {
  EngineConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_shards = 8;
  EXPECT_TRUE(config.Validate().ok());
  config.num_shards = 1;
  config.replica.num_replicas = 3;
  EXPECT_TRUE(config.Validate().ok());
}

// The historical wart: a sharded server with installed_optimization used to
// die on a LEASES_CHECK deep in the constructor. The factory now refuses
// up front, with a message saying *why*.
TEST(EngineConfigTest, InstalledOptimizationWithShardsIsRejectedNotFatal) {
  EngineConfig config;
  config.num_shards = 4;
  config.server.installed_optimization = true;
  EXPECT_TRUE(RejectedWith(config, "key==file routing invariant"));
}

TEST(EngineConfigTest, ShardIncompatibilities) {
  EngineConfig config;
  config.num_shards = 0;
  EXPECT_TRUE(RejectedWith(config, ">= 1"));
  config.num_shards = 65;
  EXPECT_TRUE(RejectedWith(config, "6 bits"));
  config.num_shards = 4;
  config.data_dir = "/tmp/x";
  EXPECT_TRUE(RejectedWith(config, "per-shard memory backends"));
  config.data_dir.clear();
  // Sharded serving composes with the replicated authority plane.
  config.replica.num_replicas = 3;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(EngineConfigTest, ReplicaIncompatibilities) {
  EngineConfig config;
  config.replica.num_replicas = 8;
  EXPECT_TRUE(RejectedWith(config, "<= 7"));
  config.replica.num_replicas = 3;
  config.server.persist_lease_records = true;
  EXPECT_TRUE(RejectedWith(config, "single-node recovery"));
  config.server.persist_lease_records = false;
  config.server.installed_optimization = true;
  EXPECT_TRUE(RejectedWith(config, "do not transfer across failover"));
  config.server.installed_optimization = false;
  config.data_dir = "/tmp/x";
  EXPECT_TRUE(RejectedWith(config, "diskless"));
  config.data_dir.clear();
  EXPECT_TRUE(config.Validate().ok());
}

TEST(EngineConfigTest, ReplicaTimingKnobsValidated) {
  EngineConfig config;
  config.replica.num_replicas = 3;
  config.replica.renew_interval = config.replica.authority_term;
  EXPECT_TRUE(RejectedWith(config, "at most half"));
  config.replica.renew_interval = Duration::Millis(400);
  config.replica.suspect_timeout = Duration::Millis(100);
  EXPECT_TRUE(RejectedWith(config, "two renewal intervals"));
  config.replica.suspect_timeout = Duration::Millis(1300);
  config.replica.acquire_retry = Duration::Zero();
  EXPECT_TRUE(RejectedWith(config, "acquire_retry"));
}

TEST(EngineFactoryTest, RejectsEnvShapeMismatches) {
  EngineConfig config;
  config.num_shards = 4;
  EngineEnv env;  // no shard environments supplied
  auto sharded = MakeServerEngine(config, std::move(env));
  EXPECT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.code(), ErrorCode::kInvalidArgument);

  EngineConfig rconfig;
  rconfig.replica.num_replicas = 3;
  EngineEnv renv;  // no peers, no serve transport
  auto replicated = MakeServerEngine(rconfig, std::move(renv));
  EXPECT_FALSE(replicated.ok());
  EXPECT_EQ(replicated.code(), ErrorCode::kInvalidArgument);

  EngineEnv penv;  // plain engine with a null environment
  auto plain = MakeServerEngine(EngineConfig{}, std::move(penv));
  EXPECT_FALSE(plain.ok());
  EXPECT_EQ(plain.code(), ErrorCode::kInvalidArgument);
}

// Keeps every packet the engine sends.
class RecordingTransport : public Transport {
 public:
  NodeId local_node() const override { return NodeId(1); }
  void Send(NodeId, MessageClass, Packet packet) override {
    sent.push_back(std::move(packet));
  }
  void Multicast(std::span<const NodeId>, MessageClass,
                 Packet packet) override {
    sent.push_back(std::move(packet));
  }
  std::vector<Packet> sent;
};

// The contract a host with one store relies on: an EngineEnv with only the
// scalar fields set builds the one-shard engine, which serves the store and
// meta it was given, with no partition copy in between.
TEST(EngineFactoryTest, ScalarFieldsBuildTheOneShardEngine) {
  Simulator sim;
  SimClock clock(&sim, ClockModel::Perfect());
  SimTimerHost timers(&sim, &clock);
  FileStore store;
  MemoryBackend backend;
  DurableMeta meta(&backend);
  ASSERT_TRUE(meta.Reopen().ok());
  FixedTermPolicy policy(Duration::Seconds(5));
  RecordingTransport out;
  FileId f = *store.CreatePath("/x", FileClass::kNormal, Bytes("v0"));

  EngineEnv env;
  env.id = NodeId(1);
  env.store = &store;
  env.meta = &meta;
  env.transport = &out;
  env.clock = &clock;
  env.timers = &timers;
  env.policy = &policy;
  auto built = MakeServerEngine(EngineConfig{}, std::move(env));
  ASSERT_TRUE(built.ok());
  std::unique_ptr<ServerEngine> engine = std::move(built.value());
  ASSERT_TRUE(engine->Start().ok());
  ShardedLeaseServer* server = engine->sharded();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->num_shards(), 1u);
  EXPECT_EQ(server->FindRecord(f), store.Find(f));  // the store's own record
  EXPECT_EQ(meta.Load(kBootCountMetaKey), 1);       // booted from this meta

  ReadRequest read;
  read.req = RequestId(7);
  read.file = f;
  engine->HandleTyped(NodeId(2), MessageClass::kData, Packet(read));
  ASSERT_EQ(out.sent.size(), 1u);
  const auto* reply = std::get_if<ReadReply>(&out.sent[0]);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->status, ErrorCode::kOk);
  EXPECT_EQ(Text(reply->data), "v0");
  EXPECT_EQ(server->ActiveLeaseCount(store.Find(f)->cover), 1u);
  engine->Stop();
}

// Every cluster shape comes up through the same factory and serves.
TEST(EngineFactoryTest, AllShapesServeThroughTheFactory) {
  struct Case {
    size_t shards;
    size_t replicas;
  };
  for (Case c : {Case{1, 0}, Case{4, 0}, Case{1, 1}, Case{1, 3}, Case{4, 3}}) {
    ClusterOptions options = MakeVClusterOptions(Duration::Seconds(5), 2, 1);
    options.num_shards = c.shards;
    options.replica.num_replicas = c.replicas;
    SimCluster cluster(options);
    FileId f = *cluster.store().CreatePath("/x", FileClass::kNormal,
                                           Bytes("v0"));
    auto read = cluster.SyncRead(0, f);
    ASSERT_TRUE(read.ok()) << "shards=" << c.shards
                           << " replicas=" << c.replicas;
    EXPECT_EQ(Text(read.value().data), "v0");
    ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1")).ok());
    EXPECT_EQ(cluster.oracle().violations(), 0u);
    EXPECT_EQ(cluster.server_stats().writes_committed, 1u);
  }
}

// Stop/Recover/Start through the engine interface is the crash/restart
// cycle every harness uses; the plain engine must preserve the recovery
// window semantics underneath it.
TEST(EngineFactoryTest, EngineLifecycleDrivesRecovery) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(5), 2, 1);
  SimCluster cluster(options);
  FileId f = *cluster.store().CreatePath("/x", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());  // a live grant to honour
  EXPECT_TRUE(cluster.engine().running());
  cluster.CrashServer();
  EXPECT_FALSE(cluster.engine().running());
  cluster.RestartServer();
  EXPECT_TRUE(cluster.engine().running());
  // The restarted engine holds writes for the persisted max term.
  TimePoint before = cluster.sim().Now();
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1")).ok());
  EXPECT_GT((cluster.sim().Now() - before).ToSeconds(), 1.0);
  EXPECT_GT(cluster.server_stats().recovery_window.ToMicros(), 0);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

// --- The one shared decode entry ------------------------------------------
//
// Every protocol object receives wire bytes through the default
// PacketHandler::HandlePacket. Feed it every truncated prefix of one sample
// of each Packet alternative, plus a frame with an unknown tag: each must be
// dropped with one warning, having sent nothing and touched no stats, and
// the target must still serve a valid read afterwards.

std::vector<std::vector<uint8_t>> MalformedDatagrams() {
  std::vector<std::vector<uint8_t>> datagrams;
  for (const Packet& packet : OneOfEveryPacket()) {
    std::vector<uint8_t> bytes = EncodePacket(packet);
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      datagrams.emplace_back(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(keep));
    }
  }
  datagrams.push_back({0xEE, 1, 2, 3});  // unknown message tag
  return datagrams;
}

enum class DecodeTarget { kLeaseServer, kCacheClient, kTwoShards, kOneReplica };

class SharedDecodeTest : public ::testing::TestWithParam<DecodeTarget> {};

TEST_P(SharedDecodeTest, MalformedDatagramsAreDroppedWithoutSideEffects) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(5), 2, 1);
  if (GetParam() == DecodeTarget::kTwoShards) {
    options.num_shards = 2;
  } else if (GetParam() == DecodeTarget::kOneReplica) {
    options.replica.num_replicas = 1;
  }
  SimCluster cluster(options);
  FileId f = *cluster.store().CreatePath("/x", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(1, f).ok());  // some live lease state

  PacketHandler* target = nullptr;
  NodeId from = cluster.client_id(0);
  switch (GetParam()) {
    case DecodeTarget::kLeaseServer:
      target = &cluster.server();
      break;
    case DecodeTarget::kTwoShards:
      target = &cluster.engine();
      break;
    case DecodeTarget::kCacheClient:
      target = &cluster.client(0);
      from = cluster.server_id();  // the one peer a client listens to
      break;
    case DecodeTarget::kOneReplica:
      target = &cluster.replica(0);
      break;
  }

  const uint64_t handled = cluster.network().TotalHandled();
  const ServerStats server_stats = cluster.server_stats();
  const ClientStats client_stats = cluster.client(0).stats();
  size_t warnings = 0;
  Logger::Get().set_sink([&](LogLevel, const std::string&) { ++warnings; });
  const std::vector<std::vector<uint8_t>> datagrams = MalformedDatagrams();
  for (const std::vector<uint8_t>& datagram : datagrams) {
    target->HandlePacket(from, MessageClass::kData, datagram);
  }
  Logger::Get().set_sink(nullptr);

  EXPECT_EQ(warnings, datagrams.size());
  EXPECT_EQ(cluster.network().TotalHandled(), handled);
  EXPECT_TRUE(cluster.server_stats() == server_stats);
  EXPECT_TRUE(cluster.client(0).stats() == client_stats);
  auto read = cluster.SyncRead(0, f);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Text(read.value().data), "v0");
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Targets, SharedDecodeTest,
    ::testing::Values(DecodeTarget::kLeaseServer, DecodeTarget::kCacheClient,
                      DecodeTarget::kTwoShards, DecodeTarget::kOneReplica),
    [](const ::testing::TestParamInfo<DecodeTarget>& param_info) {
      switch (param_info.param) {
        case DecodeTarget::kLeaseServer:
          return std::string("LeaseServer");
        case DecodeTarget::kCacheClient:
          return std::string("CacheClient");
        case DecodeTarget::kTwoShards:
          return std::string("TwoShardEngine");
        case DecodeTarget::kOneReplica:
          return std::string("OneReplicaEngine");
      }
      return std::string();
    });

}  // namespace
}  // namespace leases
