// EngineConfig: the one layered configuration for every server shape.
//
// Historically each server variant grew its own ad-hoc config surface:
// ServerParams for the protocol knobs, ClusterOptions for the sim harness,
// and loose (id, params, term, shards) argument lists in the runtime. This
// header collapses them: EngineConfig carries the protocol params plus the
// plane selectors (shards, replicas, journal directory), and Validate()
// rejects every unsupported combination with a descriptive Status at
// construction time instead of a crash (or silent misbehavior) mid-run.
// ClusterOptions derives from it, so the sim harness, the runtime nodes and
// the MakeServerEngine factory all speak the same configuration type.
#ifndef SRC_CORE_ENGINE_CONFIG_H_
#define SRC_CORE_ENGINE_CONFIG_H_

#include <cstddef>
#include <string>

#include "src/common/result.h"
#include "src/common/time.h"
#include "src/core/params.h"
#include "src/core/term_policy.h"

namespace leases {

// Replicated authority plane knobs (see src/replica/authority.h). The
// defaults trade ~5x client-extension traffic for failover in a couple of
// authority terms instead of the max-granted-term recovery wait.
struct ReplicaParams {
  // Number of authority replicas. 0 (the default) means no replication
  // plane: the factory builds the plain (or sharded) engine. 1 builds a
  // ReplicatedLeaseAuthority degenerate to a transparent shell around the
  // plain server -- no authority messages, no grant capping, single-node
  // recovery semantics, bit-identical digests (the differential test pins
  // this). 2-7 run PaxosLease-style quorum acquisition; 3-5 recommended.
  size_t num_replicas = 0;

  // Authority-lease term. Client grants are capped so they never outlive
  // the holder's quorum-confirmed authority lease; shorter terms mean
  // faster failover and more frequent client extensions.
  Duration authority_term = Duration::Millis(1500);

  // Holder renewal cadence; several renewals must fit in one term so a
  // single lost renewal round does not force a step-down.
  Duration renew_interval = Duration::Millis(400);

  // A standby suspects the holder after this long without observing a
  // valid renewal at its own acceptor, and starts acquiring.
  Duration suspect_timeout = Duration::Millis(1300);

  // Base retry pacing for an acquiring proposer (deterministically
  // jittered per replica index so contenders de-synchronize).
  Duration acquire_retry = Duration::Millis(200);

  // Persist acceptor promises/accepts (and the membership config) through
  // the engine's DurableMeta before replying, so a crash-restarted
  // acceptor rejoins immediately instead of sitting out the one-term+2eps
  // warm-up silence. Off by default: the volatile path stays
  // digest-identical to the PR 8 diskless protocol.
  bool durable_acceptors = false;

  // Let non-holder replicas answer ReadRequests for files with no write in
  // flight, under a bound delegated from the holder's quorum-confirmed
  // authority expiry minus epsilon. Grants ride as zero-term (no caching
  // rights), so standbys never create leaseholders the holder cannot see.
  bool standby_reads = false;
};

struct EngineConfig {
  // Protocol-level knobs, shared by every shape.
  ServerParams server;

  // Default lease term when the environment supplies no TermPolicy.
  Duration term = Duration::Seconds(10);

  // The authoritative clock-uncertainty allowance epsilon (Section 5):
  // clients shorten every received term by it, uncertainty-aware policies
  // size grants so measured drift stays within it, and the replicated
  // authority inflates every inherited-bound comparison by it. Formerly
  // duplicated across ServerParams, ClientParams and ReplicaParams;
  // ClientParams::epsilon remains (clients are built from ClientParams
  // alone) but must agree -- ClusterOptions::Validate() enforces that.
  Duration epsilon = Duration::Millis(100);

  // Clock-health plane: wrap the term policy in an
  // UncertaintyAwareTermPolicy fed by the clock stamps on read/extend
  // requests. Grants are then capped by each client's measured drift bound
  // and degrade to zero-term when sync is blown; a replicated authority
  // additionally composes the measured epsilon bound into its safety
  // margins. `uncertainty.epsilon` is overwritten with `epsilon` above.
  // MakeEnginePolicy (server_engine.h) builds the policy for every host.
  bool uncertainty_terms = false;
  UncertaintyAwareTermPolicy::Options uncertainty;

  // Sharded grant plane (src/core/sharded_lease_server.h); 1 = plain.
  size_t num_shards = 1;

  // Replicated authority plane (src/replica/authority.h).
  ReplicaParams replica;

  // On-disk recovery journal directory (plain single-node engine only; the
  // sharded sim plane uses per-shard memory backends and the replica plane
  // is deliberately diskless on the acquire path).
  std::string data_dir;

  // Rejects unsupported combinations with a descriptive status:
  //   * installed_optimization with num_shards > 1 (directory cover keys
  //     break the key==file shard routing invariant);
  //   * num_shards > 1 with data_dir;
  //   * replication with persist_lease_records / installed_optimization /
  //     data_dir (the quorum replaces single-node durable recovery);
  //   * nonsensical shard/replica counts and replica timing knobs.
  // num_shards > 1 with replica.num_replicas > 1 is supported: the
  // authority plane elects one holder which serves a ShardedLeaseServer
  // behind the virtual NodeId, grant-capped on every shard.
  Status Validate() const;
};

}  // namespace leases

#endif  // SRC_CORE_ENGINE_CONFIG_H_
