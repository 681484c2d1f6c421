// ServerEngine: one construction and lifecycle API for every server shape.
//
// There are two engines: the unreplicated one, a ShardedLeaseServer over
// num_shards FileId partitions (the plain server is its one-shard case),
// and the replicated authority (src/replica/authority.h), whose holder
// serves the same ShardedLeaseServer. Callers describe *what* they want in
// an EngineConfig, supply the environment (stores, transports, clocks,
// timers) in an EngineEnv, and get back an engine they Start/Stop/Recover
// uniformly. Invalid configurations fail here, at construction, with a
// descriptive Status.
//
// Lifecycle contract:
//   * Start()   constructs the protocol state machine(s) and begins
//               serving; grant timers arm inside.
//   * Stop()    models a crash: volatile lease state dies with it. A
//               stopped engine drops every packet.
//   * Recover() replays durable state (journal replay via DurableMeta::
//               Reopen) and must precede the Start() of a restart.
// This maps one-to-one onto the crash injection the harnesses do
// (SimCluster::CrashServer/RestartServer, chaos kCrashServer ops).
#ifndef SRC_CORE_SERVER_ENGINE_H_
#define SRC_CORE_SERVER_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/engine_config.h"
#include "src/core/lease_server.h"
#include "src/core/sharded_lease_server.h"

namespace leases {

class ReplicaNode;

// Everything an engine needs from its host. With num_shards == 1 the
// scalar fields may stand in for `shards`: the factory builds the one shard
// from them (serving on serve_transport when replicated). Replicated
// engines also use the scalar fields for the authority plane, and the
// replica block. Pointers must outlive the engine (and, for the durable
// pieces, survive its Stop/Recover/Start cycles).
struct EngineEnv {
  // Client-facing address the engine serves on. For a replicated engine
  // this is the *virtual* (VIP) address shared by all replicas.
  NodeId id;
  FileStore* store = nullptr;
  DurableMeta* meta = nullptr;
  Transport* transport = nullptr;
  Clock* clock = nullptr;
  TimerHost* timers = nullptr;
  TermPolicy* policy = nullptr;
  Oracle* oracle = nullptr;  // may be null

  // Optional clock-health source: returns a measured epsilon bound -- the
  // clock error the worst-synced tracked node can accumulate over the
  // given horizon (see ClockErrorEstimator::EpsilonBound). The replicated
  // authority composes max(config.epsilon, epsilon_bound(authority_term))
  // into its bound arithmetic, so a measured degradation widens the safety
  // margins. Null means the configured constant stands alone.
  std::function<Duration(Duration horizon)> epsilon_bound;

  // One environment per shard; size must equal config.num_shards (empty
  // for the one-shard engine built from the scalar fields).
  std::vector<ShardEnv> shards;

  // Replicated engine (config.replica.num_replicas > 0): this node's slot
  // in `peers` (the full replica address list, one entry per replica), and
  // a transport bound to the virtual serving address. `transport` above is
  // the replica's own address, used for authority traffic. `on_takeover`
  // fires on the node that just acquired the authority lease -- the host
  // re-points the virtual address at it (the sim's stand-in for a VIP/ARP
  // move).
  size_t replica_index = 0;
  std::vector<NodeId> peers;
  Transport* serve_transport = nullptr;
  std::function<void(NodeId holder_addr)> on_takeover;
  // Host's assertion that this replica has never participated in an
  // authority round (fresh cluster, empty state). When false -- the safe
  // default -- a starting replica stays silent for one authority term plus
  // drift before voting, so promises made by a lost incarnation cannot be
  // contradicted. A replica restarted in-object (Stop/Recover/Start on the
  // same engine) always warms up regardless of this flag.
  bool replica_cold_boot = false;
  // This replica is joining an existing cluster through a membership
  // change: it acts as an acceptor from the start but never proposes
  // (never tries to become holder) until it observes a committed member
  // set that contains it.
  bool join_as_learner = false;
};

class ServerEngine : public PacketHandler {
 public:
  ~ServerEngine() override = default;

  virtual Status Start() = 0;
  virtual void Stop() = 0;
  virtual Status Recover() = 0;
  virtual bool running() const = 0;

  virtual ServerStats stats() const = 0;
  virtual NodeId id() const = 0;

  // Pre-registers a client for installed-file multicasts. Forwarded when
  // running; engines do not replay registrations across Start cycles
  // (clients re-announce through traffic).
  virtual void RegisterClient(NodeId client) = 0;

  // Introspection for tests and harnesses: the serving server (null while
  // stopped, or on a replica that is not the holder) and the replica.
  virtual ShardedLeaseServer* sharded() { return nullptr; }
  virtual ReplicaNode* replica() { return nullptr; }
};

// The grant policy an EngineConfig describes, built in one place for every
// host (SimCluster and RuntimeServer), so the simulator and the sockets
// grant alike.
struct EnginePolicy {
  std::unique_ptr<TermPolicy> policy;
  // The clock-health wrapper that is `policy` when config.uncertainty_terms
  // is set, else null.
  UncertaintyAwareTermPolicy* clock_health = nullptr;

  // Points `env` and each of its shard environments at `policy`. With clock
  // health it also sets env->epsilon_bound, which a replicated authority
  // composes into its safety margins.
  void Wire(EngineEnv* env) const;
};

// `inner` (FixedTermPolicy(config.term) when null), wrapped in an
// UncertaintyAwareTermPolicy sized by config.epsilon when
// config.uncertainty_terms is set.
EnginePolicy MakeEnginePolicy(const EngineConfig& config,
                              std::unique_ptr<TermPolicy> inner = nullptr);

// Builds the engine `config` describes over `env`. Fails with
// kInvalidArgument (from EngineConfig::Validate or env checks) instead of
// crashing on unsupported combinations. The engine is returned stopped;
// call Start().
Result<std::unique_ptr<ServerEngine>> MakeServerEngine(
    const EngineConfig& config, EngineEnv env);

}  // namespace leases

#endif  // SRC_CORE_SERVER_ENGINE_H_
