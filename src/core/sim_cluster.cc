#include "src/core/sim_cluster.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/fs/journal.h"

namespace leases {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string Text(std::span<const uint8_t> b) {
  return std::string(b.begin(), b.end());
}

Status ClusterOptions::Validate() const {
  Status base = EngineConfig::Validate();
  if (!base.ok()) return base;
  if (client.epsilon != epsilon) {
    return Status(ErrorCode::kInvalidArgument,
                  "client.epsilon must equal the engine epsilon: the client "
                  "shortens every term by its copy, the server sizes grants "
                  "against the authoritative EngineConfig::epsilon -- a "
                  "mismatch silently re-opens the Section 5 safety argument");
  }
  if (client.transit_allowance < Duration::Zero()) {
    return Status(ErrorCode::kInvalidArgument,
                  "client.transit_allowance must be non-negative");
  }
  return Status::Ok();
}

SimCluster::SimCluster(ClusterOptions options)
    : options_(std::move(options)), oracle_(&sim_) {
  {
    Status valid = options_.Validate();
    if (!valid.ok()) {
      std::fprintf(stderr, "ClusterOptions::Validate: %s\n",
                   valid.ToString().c_str());
    }
    LEASES_CHECK(valid.ok());
  }
  if (options_.data_dir.empty()) {
    // Deterministic sim default: the record vector plays the platter.
    storage_ = std::make_unique<MemoryBackend>();
  } else {
    auto journal = std::make_unique<JournalBackend>(options_.data_dir);
    LEASES_CHECK(journal->Open().ok());
    storage_ = std::move(journal);
  }
  meta_ = DurableMeta(storage_.get());
  // Recover whatever a previous cluster (or process) left behind; a fresh
  // backend replays zero records.
  LEASES_CHECK(meta_.Reopen().ok());
  network_ = std::make_unique<SimNetwork>(&sim_, options_.net);
  policy_ = MakeEnginePolicy(
      options_, options_.make_policy ? options_.make_policy() : nullptr);

  server_id_ = NodeId(1);
  server_node_ = MakeRig(server_id_, options_.server_clock, nullptr);
  if (options_.replica.num_replicas > 0) {
    BuildReplicas();
  } else {
    BuildEngine();
  }

  client_nodes_.reserve(options_.num_clients);
  clients_.reserve(options_.num_clients);
  for (size_t i = 0; i < options_.num_clients; ++i) {
    ClockModel model = i < options_.client_clocks.size()
                           ? options_.client_clocks[i]
                           : ClockModel::Perfect();
    client_nodes_.push_back(MakeRig(client_id(i), model, nullptr));
    clients_.push_back(MakeClient(i));
    network_->ReplaceHandler(client_id(i), clients_.back().get());
    if (engine_ != nullptr) {
      engine_->RegisterClient(client_id(i));
    } else {
      for (auto& replica : replicas_) {
        replica->RegisterClient(client_id(i));
      }
    }
  }
}

void SimCluster::BuildShardPlane() {
  // Sharded grant plane: every shard serves from the cluster's one store;
  // each owns a recovery-metadata store, durable across server
  // incarnations.
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shard_storages_.push_back(std::make_unique<MemoryBackend>());
    shard_metas_.push_back(
        std::make_unique<DurableMeta>(shard_storages_.back().get()));
    LEASES_CHECK(shard_metas_.back()->Reopen().ok());
  }
}

std::vector<ShardEnv> SimCluster::MakeShardEnvs(Clock* clock,
                                                TimerHost* timers,
                                                Transport* transport) {
  std::vector<ShardEnv> envs(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    envs[s].store = &store_;
    envs[s].meta = shard_metas_[s].get();
    // One simulated host: shards share the node's clock, timer host,
    // transport and term policy (single-threaded, so sharing is safe).
    envs[s].clock = clock;
    envs[s].timers = timers;
    envs[s].transport = transport;
  }
  return envs;
}

void SimCluster::BuildEngine() {
  EngineEnv env;
  env.id = server_id_;
  env.oracle = &oracle_;
  env.store = &store_;
  env.meta = &meta_;
  env.transport = server_node_.transport;
  env.clock = server_node_.clock.get();
  env.timers = server_node_.timers.get();
  if (options_.num_shards > 1) {
    BuildShardPlane();
    env.shards = MakeShardEnvs(env.clock, env.timers, env.transport);
  }
  policy_.Wire(&env);
  Result<std::unique_ptr<ServerEngine>> engine =
      MakeServerEngine(options_, std::move(env));
  LEASES_CHECK(engine.ok());
  engine_ = std::move(*engine);
  LEASES_CHECK(engine_->Start().ok());
  network_->ReplaceHandler(server_id_, engine_.get());
}

EngineEnv SimCluster::MakeReplicaEnv(size_t r, std::vector<NodeId> peers) {
  EngineEnv env;
  env.id = server_id_;
  env.store = &store_;
  env.oracle = &oracle_;
  env.serve_transport = server_node_.transport;
  env.replica_cold_boot = true;  // replicated clusters start fresh
  env.on_takeover = [this, r](NodeId) {
    last_holder_ = static_cast<int>(r);
    network_->ReplaceHandler(server_id_, replicas_[r].get());
  };
  if (peers.size() == 1) {
    // Degenerate shell: the one replica *is* the server node -- same rig,
    // same metadata, no authority plane. Digest-identical to plain mode.
    env.meta = &meta_;
    env.transport = server_node_.transport;
    env.clock = server_node_.clock.get();
    env.timers = server_node_.timers.get();
  } else {
    env.meta = r == 0 ? &meta_ : replica_metas_[r].get();
    env.transport = replica_nodes_[r].transport;
    env.clock = replica_nodes_[r].clock.get();
    env.timers = replica_nodes_[r].timers.get();
  }
  // This replica's slot in `peers` (a joining replica sits at the end of a
  // peer list that starts with the committed members).
  NodeId self = peers.size() == 1 ? server_id_ : replica_id(r);
  for (size_t i = 0; i < peers.size(); ++i) {
    if (peers[i] == self) {
      env.replica_index = i;
    }
  }
  if (options_.num_shards > 1) {
    // Sharded-replicated: the store and the shards' recovery metadata are
    // the shared data plane; clocks and timers are this host's own,
    // and replies leave through the virtual serving address.
    env.shards = MakeShardEnvs(env.clock, env.timers, server_node_.transport);
  }
  env.peers = std::move(peers);
  policy_.Wire(&env);
  return env;
}

void SimCluster::BuildReplicas() {
  const size_t n = options_.replica.num_replicas;
  if (options_.num_shards > 1) {
    BuildShardPlane();
  }
  std::vector<NodeId> peers;
  if (n == 1) {
    peers.push_back(server_id_);
  } else {
    for (size_t r = 0; r < n; ++r) {
      ClockModel model = r < options_.replica_clocks.size()
                             ? options_.replica_clocks[r]
                             : ClockModel::Perfect();
      replica_nodes_.push_back(MakeRig(replica_id(r), model, nullptr));
      if (r == 0) {
        // Replica 0 persists through the cluster meta_/storage_ so the
        // power-cut fault machinery reaches it.
        replica_storages_.push_back(nullptr);
        replica_metas_.push_back(nullptr);
      } else {
        replica_storages_.push_back(std::make_unique<MemoryBackend>());
        replica_metas_.push_back(
            std::make_unique<DurableMeta>(replica_storages_.back().get()));
        LEASES_CHECK(replica_metas_.back()->Reopen().ok());
      }
      peers.push_back(replica_id(r));
    }
  }
  replicas_.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    Result<std::unique_ptr<ServerEngine>> engine =
        MakeServerEngine(options_, MakeReplicaEnv(r, peers));
    LEASES_CHECK(engine.ok());
    replicas_.push_back(std::move(*engine));
  }
  for (size_t r = 0; r < n; ++r) {
    if (n > 1) {
      network_->ReplaceHandler(replica_id(r), replicas_[r].get());
    }
    LEASES_CHECK(replicas_[r]->Start().ok());
  }
}

int SimCluster::AddReplica() {
  LEASES_CHECK(replicas_.size() > 1);
  int h = holder_index();
  if (h < 0) {
    return -1;  // nobody can commit the expanded set right now
  }
  ReplicaNode& holder = replica(static_cast<size_t>(h));
  if (holder.reconfig_pending()) {
    return -1;
  }
  std::vector<NodeId> members = holder.member_addrs();
  const size_t r = replicas_.size();
  NodeId addr = replica_id(r);
  ClockModel model = r < options_.replica_clocks.size()
                         ? options_.replica_clocks[r]
                         : ClockModel::Perfect();
  replica_nodes_.push_back(MakeRig(addr, model, nullptr));
  replica_storages_.push_back(std::make_unique<MemoryBackend>());
  replica_metas_.push_back(
      std::make_unique<DurableMeta>(replica_storages_.back().get()));
  LEASES_CHECK(replica_metas_.back()->Reopen().ok());
  std::vector<NodeId> peers = members;
  peers.push_back(addr);
  EngineEnv env = MakeReplicaEnv(r, std::move(peers));
  env.join_as_learner = true;  // an acceptor, never a proposer, until named
  EngineConfig sub = options_;
  sub.replica.num_replicas = env.peers.size();
  Result<std::unique_ptr<ServerEngine>> engine =
      MakeServerEngine(sub, std::move(env));
  LEASES_CHECK(engine.ok());
  replicas_.push_back(std::move(*engine));
  network_->ReplaceHandler(addr, replicas_.back().get());
  for (size_t i = 0; i < clients_.size(); ++i) {
    replicas_.back()->RegisterClient(client_id(i));
  }
  LEASES_CHECK(replicas_.back()->Start().ok());
  members.push_back(addr);
  LEASES_CHECK(holder.RequestReconfig(std::move(members)).ok());
  return static_cast<int>(r);
}

Status SimCluster::RemoveReplica(size_t r) {
  LEASES_CHECK(replicas_.size() > 1);
  if (r >= replicas_.size()) {
    return Status(ErrorCode::kInvalidArgument, "no such replica");
  }
  int h = holder_index();
  if (h < 0) {
    return Status(ErrorCode::kUnavailable, "no confirmed authority holder");
  }
  ReplicaNode& holder = replica(static_cast<size_t>(h));
  std::vector<NodeId> members = holder.member_addrs();
  auto it = std::find(members.begin(), members.end(), replica_id(r));
  if (it == members.end()) {
    return Status(ErrorCode::kInvalidArgument,
                  "replica is not a committed member");
  }
  members.erase(it);
  return holder.RequestReconfig(std::move(members));
}

SimCluster::~SimCluster() {
  // Protocol objects hold timers into the simulator; destroy them before the
  // rigs so cancellation sees live TimerHosts.
  clients_.clear();
  engine_.reset();
  replicas_.clear();
}

SimCluster::NodeRig SimCluster::MakeRig(NodeId id, ClockModel model,
                                        PacketHandler* handler) {
  NodeRig rig;
  rig.clock = std::make_unique<SimClock>(&sim_, model);
  rig.timers = std::make_unique<SimTimerHost>(&sim_, rig.clock.get());
  rig.transport = network_->AttachNode(id, handler);
  return rig;
}

std::unique_ptr<CacheClient> SimCluster::MakeClient(size_t i) {
  NodeRig& rig = client_nodes_[i];
  if (client_incarnations_.size() <= i) {
    client_incarnations_.resize(i + 1, 0);
  }
  uint64_t incarnation =
      (static_cast<uint64_t>(client_id(i).value()) << 16) |
      client_incarnations_[i]++;
  return std::make_unique<CacheClient>(
      client_id(i), server_id_, store_.root(), rig.transport, rig.clock.get(),
      rig.timers.get(), options_.client, &oracle_, incarnation);
}

ShardedLeaseServer& SimCluster::sharded_server() {
  ShardedLeaseServer* s = nullptr;
  if (engine_ != nullptr) {
    s = engine_->sharded();
  } else {
    int h = holder_index();
    if (h >= 0) {
      s = replicas_[static_cast<size_t>(h)]->sharded();
    }
  }
  LEASES_CHECK(s != nullptr);
  return *s;
}

ServerStats SimCluster::server_stats() const {
  if (engine_ != nullptr) {
    return engine_->stats();
  }
  ServerStats out;
  for (const auto& replica : replicas_) {
    MergeServerStats(&out, replica->stats());
  }
  return out;
}

CacheClient& SimCluster::client(size_t i) {
  LEASES_CHECK(i < clients_.size() && clients_[i] != nullptr);
  return *clients_[i];
}

NodeId SimCluster::client_id(size_t i) const {
  return NodeId(static_cast<uint32_t>(2 + i));
}

SimClock& SimCluster::client_clock(size_t i) {
  LEASES_CHECK(i < client_nodes_.size());
  return *client_nodes_[i].clock;
}

NodeId SimCluster::replica_id(size_t r) const {
  if (options_.replica.num_replicas == 1) {
    return server_id_;
  }
  return NodeId(static_cast<uint32_t>(900 + r));
}

ReplicaNode& SimCluster::replica(size_t r) {
  LEASES_CHECK(r < replicas_.size());
  ReplicaNode* node = replicas_[r]->replica();
  LEASES_CHECK(node != nullptr);
  return *node;
}

SimClock& SimCluster::replica_clock(size_t r) {
  if (replicas_.size() == 1) {
    return *server_node_.clock;
  }
  LEASES_CHECK(r < replica_nodes_.size());
  return *replica_nodes_[r].clock;
}

int SimCluster::holder_index() const {
  for (size_t r = 0; r < replicas_.size(); ++r) {
    const ReplicaNode* node =
        const_cast<ServerEngine*>(replicas_[r].get())->replica();
    if (replicas_[r]->running() && node != nullptr && node->is_holder()) {
      return static_cast<int>(r);
    }
  }
  return -1;
}

bool SimCluster::AnyReplicaDown() const {
  for (const auto& replica : replicas_) {
    if (!replica->running()) {
      return true;
    }
  }
  return false;
}

bool SimCluster::ServerUp() const {
  if (engine_ != nullptr) {
    return engine_->running();
  }
  for (const auto& replica : replicas_) {
    if (replica->running()) {
      return true;
    }
  }
  return false;
}

void SimCluster::CrashReplica(size_t r, TailDamage damage) {
  LEASES_CHECK(r < replicas_.size());
  LEASES_CHECK(replicas_[r]->running());
  replicas_[r]->Stop();
  if (r == 0) {
    storage_->PowerCut(damage);
  } else {
    replica_storages_[r]->PowerCut(damage);
  }
  if (replicas_.size() > 1) {
    network_->ReplaceHandler(replica_id(r), nullptr);
    network_->SetNodeUp(replica_id(r), false);
    if (last_holder_ == static_cast<int>(r)) {
      // The virtual address pointed at the dead holder; client traffic
      // drops until a standby takes over and re-points it.
      network_->ReplaceHandler(server_id_, nullptr);
      if (options_.replica.standby_reads) {
        // With standby reads on, the VIP fails over to a surviving standby
        // immediately: it answers reads under the holder's delegated window
        // while the election runs (writes still wait for the new holder).
        for (size_t s = 0; s < replicas_.size(); ++s) {
          if (replicas_[s]->running()) {
            network_->ReplaceHandler(server_id_, replicas_[s].get());
            break;
          }
        }
      }
    }
  } else {
    network_->ReplaceHandler(server_id_, nullptr);
    network_->SetNodeUp(server_id_, false);
  }
}

void SimCluster::RestartReplica(size_t r) {
  LEASES_CHECK(r < replicas_.size());
  LEASES_CHECK(!replicas_[r]->running());
  if (replicas_.size() > 1) {
    network_->SetNodeUp(replica_id(r), true);
    network_->ReplaceHandler(replica_id(r), replicas_[r].get());
  } else {
    network_->SetNodeUp(server_id_, true);
  }
  LEASES_CHECK(replicas_[r]->Recover().ok());
  LEASES_CHECK(replicas_[r]->Start().ok());
}

void SimCluster::PartitionReplica(size_t r, bool partitioned) {
  LEASES_CHECK(replicas_.size() > 1 && r < replicas_.size());
  for (size_t s = 0; s < replicas_.size(); ++s) {
    if (s != r) {
      network_->SetPartitioned(replica_id(r), replica_id(s), partitioned);
    }
  }
}

void SimCluster::CrashServer(TailDamage damage) {
  LEASES_CHECK(ServerUp());
  if (!replicas_.empty()) {
    int target = holder_index();
    if (target < 0) {
      target = last_holder_;
    }
    if (!replicas_[static_cast<size_t>(target)]->running()) {
      // The remembered holder is already down (e.g. crashed while no
      // successor had won yet); fell any running replica instead.
      for (size_t r = 0; r < replicas_.size(); ++r) {
        if (replicas_[r]->running()) {
          target = static_cast<int>(r);
          break;
        }
      }
    }
    CrashReplica(static_cast<size_t>(target), damage);
    return;
  }
  engine_->Stop();  // volatile lease state dies with the process
  // Power-cut the storage plane: acknowledged records survive, and any
  // damage lands on the un-acknowledged tail only (the server persists
  // before it replies, so nothing a client saw can be lost).
  if (!shard_storages_.empty()) {
    for (auto& storage : shard_storages_) {
      storage->PowerCut(damage);
    }
  } else {
    storage_->PowerCut(damage);
  }
  network_->ReplaceHandler(server_id_, nullptr);
  network_->SetNodeUp(server_id_, false);
}

void SimCluster::RestartServer() {
  if (!replicas_.empty()) {
    for (size_t r = 0; r < replicas_.size(); ++r) {
      if (!replicas_[r]->running()) {
        RestartReplica(r);
      }
    }
    return;
  }
  LEASES_CHECK(!ServerUp());
  network_->SetNodeUp(server_id_, true);
  // Real recovery: replay the journal into the meta cache, repairing any
  // tail damage from the crash. Committed writes and the persisted maximum
  // term survive; the new incarnation honours pre-crash leases by holding
  // writes for that term.
  LEASES_CHECK(engine_->Recover().ok());
  LEASES_CHECK(engine_->Start().ok());
  network_->ReplaceHandler(server_id_, engine_.get());
}

void SimCluster::CrashClient(size_t i) {
  LEASES_CHECK(i < clients_.size() && clients_[i] != nullptr);
  clients_[i].reset();  // the cache and its leases are gone
  network_->ReplaceHandler(client_id(i), nullptr);
  network_->SetNodeUp(client_id(i), false);
}

void SimCluster::RestartClient(size_t i) {
  LEASES_CHECK(i < clients_.size() && clients_[i] == nullptr);
  network_->SetNodeUp(client_id(i), true);
  clients_[i] = MakeClient(i);
  network_->ReplaceHandler(client_id(i), clients_[i].get());
}

void SimCluster::PartitionClient(size_t i, bool partitioned) {
  network_->SetPartitioned(client_id(i), server_id_, partitioned);
}

namespace {

// Runs the simulator until `done` has a value or `deadline` passes.
template <typename T>
Result<T> Await(Simulator& sim, std::optional<Result<T>>& done,
                TimePoint deadline) {
  while (!done.has_value() && sim.Now() < deadline) {
    if (!sim.Step()) {
      break;  // queue drained without completing: stuck
    }
  }
  if (!done.has_value()) {
    return Error{ErrorCode::kTimeout, "operation did not complete in time"};
  }
  return std::move(*done);
}

}  // namespace

Result<ReadResult> SimCluster::SyncRead(size_t i, FileId file,
                                        Duration timeout) {
  std::optional<Result<ReadResult>> done;
  client(i).Read(file,
                 [&done](Result<ReadResult> r) { done = std::move(r); });
  return Await(sim_, done, sim_.Now() + timeout);
}

Result<WriteResult> SimCluster::SyncWrite(size_t i, FileId file,
                                          std::vector<uint8_t> data,
                                          Duration timeout) {
  std::optional<Result<WriteResult>> done;
  client(i).Write(file, std::move(data),
                  [&done](Result<WriteResult> r) { done = std::move(r); });
  return Await(sim_, done, sim_.Now() + timeout);
}

Result<OpenResult> SimCluster::SyncOpen(size_t i, const std::string& path,
                                        Duration timeout) {
  std::optional<Result<OpenResult>> done;
  client(i).Open(path,
                 [&done](Result<OpenResult> r) { done = std::move(r); });
  return Await(sim_, done, sim_.Now() + timeout);
}

}  // namespace leases
