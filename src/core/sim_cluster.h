// SimCluster: one lease service plus N client caches wired onto the
// simulated network, with per-host clocks, fault injection and synchronous
// convenience wrappers.
//
// This is the standard harness used by the tests, the benches that
// regenerate the paper's figures, and the simulation examples. All protocol
// objects run on the single Simulator; determinism is total for a given
// seed.
//
// The service side is built through the ServerEngine factory: the same
// ClusterOptions (an EngineConfig) selects the plain (one-shard) server, the
// FileId-sharded server, or the replicated lease authority. In replicated
// mode the cluster runs one ReplicaNode per authority replica on its own
// simulated host (NodeId 900+r, its own clock model), plus a virtual
// serving address (NodeId 1) that every client talks to; the on_takeover
// hook re-points the virtual address at the current holder -- the sim's
// stand-in for a VIP/ARP move.
#ifndef SRC_CORE_SIM_CLUSTER_H_
#define SRC_CORE_SIM_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/clock/sim_clock.h"
#include "src/clock/sim_timer_host.h"
#include "src/core/cache_client.h"
#include "src/core/lease_server.h"
#include "src/core/oracle.h"
#include "src/core/params.h"
#include "src/core/server_engine.h"
#include "src/core/sharded_lease_server.h"
#include "src/core/term_policy.h"
#include "src/fs/file_store.h"
#include "src/net/sim_network.h"
#include "src/replica/authority.h"
#include "src/sim/simulator.h"

namespace leases {

// The engine selection (ServerParams, term, shards, replicas, data_dir)
// lives in the EngineConfig base; the cluster adds the sim-only knobs.
struct ClusterOptions : EngineConfig {
  size_t num_clients = 4;
  NetworkParams net;
  ClientParams client;
  // Optional custom policy (e.g. AdaptiveTermPolicy); overrides `term`.
  // With uncertainty_terms set, the clock-health wrapper wraps it.
  std::function<std::unique_ptr<TermPolicy>()> make_policy;
  ClockModel server_clock = ClockModel::Perfect();
  // Per-client clock model; clients beyond the vector get perfect clocks.
  std::vector<ClockModel> client_clocks;
  // Per-replica clock model (replicated mode); defaults to perfect.
  std::vector<ClockModel> replica_clocks;

  // EngineConfig::Validate() plus the cluster-level consistency checks:
  // the client-side shortening epsilon must equal the engine's
  // authoritative epsilon (one source of truth for Section 5's allowance).
  Status Validate() const;
};

class SimCluster {
 public:
  explicit SimCluster(ClusterOptions options);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  Simulator& sim() { return sim_; }
  SimNetwork& network() { return *network_; }
  FileStore& store() { return store_; }
  Oracle& oracle() { return oracle_; }
  TermPolicy& policy() { return *policy_.policy; }
  // The uncertainty wrapper when options.uncertainty_terms is set, else
  // null. (policy() returns the wrapper itself in that mode.)
  UncertaintyAwareTermPolicy* clock_health() { return policy_.clock_health; }

  // The engine behind the service (plain and sharded modes).
  ServerEngine& engine() { return *engine_; }
  // The serving server; valid while it is up -- in replicated mode it
  // resolves to the current holder's serving plane.
  ShardedLeaseServer& sharded_server();
  // Its first shard: the whole server when num_shards == 1.
  LeaseServer& server() { return sharded_server().shard(0); }
  bool sharded() const { return options_.num_shards > 1; }
  bool replicated() const { return options_.replica.num_replicas > 0; }
  // Merged counters regardless of mode (replicated: summed over replicas,
  // so authority counters from every node are visible).
  ServerStats server_stats() const;
  // The durable recovery metadata (shared across server incarnations);
  // tests inspect the boot counter and max-term record through it. In
  // replicated mode this is replica 0's metadata.
  DurableMeta& meta() { return meta_; }
  // The backend behind meta() (JournalBackend when data_dir is set, else
  // MemoryBackend); tests arm crash points on it through this.
  StorageBackend& storage() { return *storage_; }
  CacheClient& client(size_t i);
  size_t num_clients() const { return clients_.size(); }

  NodeId server_id() const { return server_id_; }
  NodeId client_id(size_t i) const;
  SimClock& server_clock() { return *server_node_.clock; }
  SimClock& client_clock(size_t i);

  // --- Replicated authority (replica.num_replicas > 0) ---
  size_t num_replicas() const { return replicas_.size(); }
  // Authority-plane address of replica r (the virtual address for n == 1).
  NodeId replica_id(size_t r) const;
  ReplicaNode& replica(size_t r);
  SimClock& replica_clock(size_t r);
  // Index of the current authority holder, or -1 while none.
  int holder_index() const;
  // True when at least one replica is crashed (RestartServer revives them).
  bool AnyReplicaDown() const;
  void CrashReplica(size_t r, TailDamage damage = TailDamage::kClean);
  void RestartReplica(size_t r);
  // Cuts (or heals) replica r's authority traffic to every other replica.
  // Client traffic to the virtual address is unaffected: the interesting
  // window where an isolated holder keeps serving until it steps down is
  // exactly what this models.
  void PartitionReplica(size_t r, bool partitioned);

  // --- Live membership change (replicas > 1 only) ---
  // Attaches a brand-new replica host (fresh rig, fresh metadata), starts
  // it as a joining learner, and asks the current holder to commit the
  // expanded member set. Returns the new replica's index, or -1 when no
  // holder is confirmed (or a reconfiguration is already in flight) -- the
  // caller retries later; nothing was attached.
  int AddReplica();
  // Asks the current holder to remove replica r from the committed member
  // set. The node itself stays attached and running as an inert non-member
  // acceptor (crashing/restarting it remains legal); removing the holder
  // commits the shrink first, then steps it down for re-election.
  Status RemoveReplica(size_t r);

  // --- Fault injection ---
  // Kills the server process; `damage` additionally power-cuts the storage
  // backend, wounding the un-acknowledged journal tail (recovery repairs it
  // on restart). Volatile lease state dies either way. In replicated mode
  // this crashes the current holder (the most recent one if none is
  // confirmed right now).
  void CrashServer(TailDamage damage = TailDamage::kClean);
  // Restarts the crashed server; in replicated mode, restarts every downed
  // replica.
  void RestartServer();
  bool ServerUp() const;
  void CrashClient(size_t i);
  void RestartClient(size_t i);
  bool ClientUp(size_t i) const {
    return i < clients_.size() && clients_[i] != nullptr;
  }
  // Partitions client i from the server (true) or heals it (false).
  void PartitionClient(size_t i, bool partitioned);

  // --- Synchronous wrappers: run the simulation until the operation
  // completes (or `timeout` of simulated time passes). Only for tests and
  // examples; benches drive the async API directly. ---
  Result<ReadResult> SyncRead(size_t i, FileId file,
                              Duration timeout = Duration::Seconds(120));
  Result<WriteResult> SyncWrite(size_t i, FileId file,
                                std::vector<uint8_t> data,
                                Duration timeout = Duration::Seconds(120));
  Result<OpenResult> SyncOpen(size_t i, const std::string& path,
                              Duration timeout = Duration::Seconds(120));

  // Convenience: run the simulation forward.
  void RunFor(Duration d) { sim_.RunFor(d); }

 private:
  struct NodeRig {
    std::unique_ptr<SimClock> clock;
    std::unique_ptr<SimTimerHost> timers;
    SimTransport* transport = nullptr;  // owned by the network
  };

  NodeRig MakeRig(NodeId id, ClockModel model, PacketHandler* handler);
  std::unique_ptr<CacheClient> MakeClient(size_t i);
  void BuildEngine();
  void BuildReplicas();
  // Builds the durable shard plane (per-shard recovery metadata) once;
  // shared by the sharded and the sharded-replicated construction paths.
  void BuildShardPlane();
  // Per-shard environments over the shared plane for one host: the store
  // and shard metas are the cluster's (data plane shared across replicas),
  // the clock/timers/transport are the host's own.
  std::vector<ShardEnv> MakeShardEnvs(Clock* clock, TimerHost* timers,
                                      Transport* transport);
  EngineEnv MakeReplicaEnv(size_t r, std::vector<NodeId> peers);

  ClusterOptions options_;
  Simulator sim_;
  std::unique_ptr<SimNetwork> network_;
  FileStore store_;
  std::unique_ptr<StorageBackend> storage_;  // outlives server incarnations
  DurableMeta meta_;
  Oracle oracle_;
  EnginePolicy policy_;

  NodeId server_id_;
  NodeRig server_node_;  // the (virtual, in replicated mode) serving host
  std::unique_ptr<ServerEngine> engine_;  // plain and sharded modes

  // Sharded modes (plain and replicated). Every shard serves from store_;
  // the per-shard recovery metadata is durable: it outlives server
  // incarnations (CrashServer/RestartServer), exactly like meta_ does for
  // the plain server. In sharded-replicated mode it belongs to the shared
  // data plane behind the VIP -- replicas replicate the authority to serve,
  // so a replica crash never power-cuts it.
  std::vector<std::unique_ptr<StorageBackend>> shard_storages_;
  std::vector<std::unique_ptr<DurableMeta>> shard_metas_;

  // Replicated mode only. Replica 0 persists through the cluster's
  // meta_/storage_ (so power-cut fault injection reaches it); replicas 1+
  // own their metadata. All share the cluster FileStore: the replicas
  // front one durable file service, they replicate the *authority to
  // serve*, not the data plane.
  std::vector<NodeRig> replica_nodes_;  // empty when num_replicas == 1
  std::vector<std::unique_ptr<StorageBackend>> replica_storages_;
  std::vector<std::unique_ptr<DurableMeta>> replica_metas_;
  std::vector<std::unique_ptr<ServerEngine>> replicas_;
  int last_holder_ = 0;

  std::vector<NodeRig> client_nodes_;
  std::vector<std::unique_ptr<CacheClient>> clients_;
  std::vector<uint64_t> client_incarnations_;
};

// Converts between std::string payloads and the bytes the API uses.
std::vector<uint8_t> Bytes(const std::string& s);
std::string Text(std::span<const uint8_t> b);

}  // namespace leases

#endif  // SRC_CORE_SIM_CLUSTER_H_
