// ReplicatedLeaseAuthority: failover without the recovery wait.
//
// The paper's single server recovers from a crash by waiting out the
// longest term it may ever have granted (the durable max-term bound, §2.3)
// before approving writes -- correct, but the file service stalls for a
// full lease term. This module removes that stall by replicating the
// *authority to serve* across a small set of nodes: the replicas run a
// PaxosLease-style diskless election for a short "authority lease" on the
// virtual server identity, the holder serves client lease traffic exactly
// as the plain server does, and on a holder crash a standby acquires the
// authority lease from a quorum and takes over immediately.
//
// Two ideas make the takeover safe without any synchronized clocks or
// durable election state (terms travel as durations; only bounded drift
// `epsilon` is assumed, exactly like the client/server protocol):
//
//  1. Grant capping. The holder never grants a client lease that outlives
//     its own quorum-confirmed authority lease (CappedTermPolicy below
//     takes min(policy term, confirmed authority expiry - epsilon - now)).
//     So when the authority lease expires, every client grant of the dead
//     holder has expired with it: the new holder owes nothing beyond its
//     own acquisition round.
//
//  2. Deferred grant inheritance. Capping bounds the overhang but the new
//     holder still must not approve a write while a stale grant could be
//     live. Acceptors therefore remember, per accepted authority lease,
//     the latest moment any grant of that holder could expire (authority
//     expiry inflated by epsilon, and the holder's piggybacked
//     outstanding-grant horizon). Promise replies report this bound as a
//     remaining duration; the new holder takes the max over its promise
//     quorum plus epsilon and seeds the plain server's existing max-term
//     recovery machinery with it. Quorum intersection guarantees some
//     promise in the new holder's quorum witnessed the last confirmed
//     renewal, so the inherited bound covers every capped grant. With
//     renewals healthy the bound is ~renew_interval + 2*epsilon -- the
//     write hold after failover is a few hundred milliseconds instead of
//     the max granted term.
//
// The election itself is the PaxosLease round (prepare/promise,
// propose/accept) with leases instead of consensus: acceptor state is
// volatile, a restarted acceptor simply stays silent for one authority
// term plus drift before voting again, and the holder re-proposes on a
// fresh ballot every renew_interval. If the holder cannot re-confirm a
// quorum before its confirmed expiry (partition, quorum loss) it steps
// down -- destroying its serving engine so no stale grant or write
// approval can escape after a new holder may exist.
//
// num_replicas == 1 degenerates to a transparent shell around the serving
// ShardedLeaseServer: no messages, no capping, no meta seeding --
// byte-identical behavior to the unreplicated server (pinned by the
// differential test).
//
// Hardening legs layered on the PR 8 protocol (DESIGN.md §7.7):
//  * Live membership change: joint-quorum (old AND new majority)
//    reconfiguration, one replica added or removed per step, disseminated
//    on renewals and re-learned by stale proposers from promise replies.
//  * Durable acceptors (opt-in, replica.durable_acceptors): promises,
//    accepts and the member config persist through DurableMeta before any
//    reply, so a restarted acceptor rejoins without the warm-up silence.
//  * Standby reads (opt-in, replica.standby_reads): non-holders answer
//    reads for files with no write in flight, under a bound delegated
//    from the holder's confirmed authority expiry minus epsilon, with
//    zero-term grants (no caching rights, so no holder-invisible leases).
//  * Sharded serving: the elected holder runs a ShardedLeaseServer (one
//    shard unless num_shards > 1) behind the virtual address, the grant
//    cap folded into every shard's term policy.
#ifndef SRC_REPLICA_AUTHORITY_H_
#define SRC_REPLICA_AUTHORITY_H_

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/core/server_engine.h"
#include "src/core/term_policy.h"

namespace leases {

// Decorates the host's TermPolicy so no grant outlives the authority
// lease: term = min(inner term, confirmed authority expiry - epsilon -
// now), floored at zero. Adaptation hooks forward so AdaptiveTermPolicy
// keeps learning across failovers.
class CappedTermPolicy : public TermPolicy {
 public:
  // `cap` returns the current grant ceiling as a remaining duration
  // (Duration::Infinite() to disable capping).
  CappedTermPolicy(TermPolicy* inner, std::function<Duration()> cap)
      : inner_(inner), cap_(std::move(cap)) {}

  Duration TermFor(FileId file, FileClass file_class, NodeId client) override {
    Duration term = inner_->TermFor(file, file_class, client);
    Duration limit = cap_();
    if (limit < term) {
      ++cap_hits_;
      return limit;
    }
    return term;
  }

  // How many grants the authority-lease ceiling actually shortened.
  uint64_t cap_hits() const { return cap_hits_; }
  void OnRead(FileId file, TimePoint now) override {
    inner_->OnRead(file, now);
  }
  void OnWrite(FileId file, size_t holders_at_write, TimePoint now) override {
    inner_->OnWrite(file, holders_at_write, now);
  }
  void OnClockSample(NodeId client, int64_t remote_clock_us,
                     TimePoint now) override {
    inner_->OnClockSample(client, remote_clock_us, now);
  }

 private:
  TermPolicy* inner_;
  std::function<Duration()> cap_;
  uint64_t cap_hits_ = 0;
};

// One replica of the replicated lease authority. Every replica embeds a
// PaxosLease acceptor; each is also a candidate proposer, and the current
// holder runs a ShardedLeaseServer over the environment's shards against
// the virtual serving address.
class ReplicaNode : public ServerEngine {
 public:
  ReplicaNode(const EngineConfig& config, EngineEnv env);
  ~ReplicaNode() override;

  // ServerEngine lifecycle. Start() re-initializes the volatile acceptor
  // and proposer state (a restart forgets its promises -- hence the warm-up
  // before it votes again). Stop() models a crash: the serving engine and
  // all authority state die. Recover() reopens this replica's DurableMeta
  // (boot counter + inherited max-term seed survive there).
  Status Start() override;
  void Stop() override;
  Status Recover() override;
  bool running() const override { return started_; }

  ServerStats stats() const override;
  NodeId id() const override { return env_.id; }
  void RegisterClient(NodeId client) override;

  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override;

  ReplicaNode* replica() override { return this; }
  // The serving server while this replica holds the authority (or always,
  // for the single-replica shell); null otherwise.
  ShardedLeaseServer* sharded() override { return serving_.get(); }

  // Live membership change (holder only). `new_members` must differ from
  // the committed member set by exactly one replica -- one add or one
  // remove per call, so any old-set majority intersects the new-set
  // majority and a stale proposer always meets an acceptor that blocks it.
  // The joint (old AND new majority) config rides on the next renewal and
  // commits on its first quorum-confirmed round; removing the holder
  // commits first, then steps the holder down for an orderly re-election.
  Status RequestReconfig(std::vector<NodeId> new_members);
  // The committed member set (authority-plane addresses).
  std::vector<NodeId> member_addrs() const { return members_; }
  uint64_t member_epoch() const { return member_epoch_; }
  bool reconfig_pending() const { return !next_members_.empty(); }
  // True while this node may not propose (joined via membership change and
  // has not yet seen a committed member set containing itself).
  bool is_learner() const { return learner_; }

  // Introspection for harnesses, tests and benches.
  bool is_holder() const { return role_ == Role::kHolder; }
  // This replica's own (authority-plane) address.
  NodeId self_addr() const { return env_.peers[env_.replica_index]; }
  size_t replica_index() const { return env_.replica_index; }
  uint64_t ballot() const { return ballot_; }
  // The grant bound this holder inherited at its last takeover -- the
  // write hold it imposed instead of the max-granted-term recovery wait.
  Duration last_inherited_bound() const { return inherited_bound_; }
  // Remaining quorum-confirmed authority lease (zero when not holder).
  Duration confirmed_remaining() const;

 private:
  enum class Role { kFollower, kAcquiring, kHolder };

  // --- role / lifecycle ----------------------------------------------
  void StartServing();
  // This replica's own meta, then each shard meta that is not the same
  // store (the one-shard plain shape serves from the replica's own meta).
  std::vector<DurableMeta*> Metas() const;
  void Takeover();
  void StepDown(bool count);
  void AccumulateServingStats();

  // --- proposer -------------------------------------------------------
  void Tick();
  void ArmTick(Duration delay);
  void StartAcquisition();
  void BeginPropose();
  void OnPromise(NodeId from, const AuthorityPromise& m);
  void OnAccept(NodeId from, const AuthorityAccept& m);
  void ObserveBallot(uint64_t ballot);
  void ArmStepDownCheck();
  Duration SuspectDelay();
  Duration ServingGrantHorizon();

  // --- membership -----------------------------------------------------
  bool IsMember(NodeId node) const;
  // Majority of the committed set AND (while a reconfiguration is in
  // flight) majority of the pending set, evaluated over votes_.
  bool HaveQuorum() const;
  // Adopts a newer membership view from a peer's message; returns true on
  // change (an acquiring proposer then abandons its round, because the
  // quorum it was counting against is stale).
  bool AdoptConfig(uint64_t epoch, const std::vector<uint32_t>& members,
                   const std::vector<uint32_t>& next_members);
  // Commits the pending joint set after a quorum-confirmed round.
  void CommitPendingConfig();
  void AbandonRound();
  void FillConfig(uint64_t* epoch, std::vector<uint32_t>* members,
                  std::vector<uint32_t>* next_members) const;

  // --- acceptor -------------------------------------------------------
  bool AcceptorReady() const;
  // nullopt = durable append failed; send nothing (the proposer treats it
  // as a lost datagram), never acknowledge state that did not persist.
  std::optional<AuthorityPromise> AcceptPrepare(const AuthorityPrepare& m);
  std::optional<AuthorityAccept> AcceptPropose(NodeId from,
                                               const AuthorityPropose& m);
  bool PersistAcceptor();
  void PersistConfig();
  void RestoreDurableAcceptor(TimePoint now);
  bool durable() const {
    return config_.replica.durable_acceptors && n_ > 1;
  }

  // --- standby reads --------------------------------------------------
  void ServeStandbyRead(NodeId from, const ReadRequest& m);

  // --- plumbing -------------------------------------------------------
  TimePoint Now() const { return env_.clock->Now(); }
  // The clock-uncertainty inflation for authority-plane bound arithmetic:
  // the configured constant, or the *measured* bound over an authority
  // term when the environment wires a clock-health source and it reports
  // worse than the constant. Sync degrading at a replica thus widens every
  // safety margin instead of silently eating into it.
  Duration Epsilon() const;
  void SendAuth(NodeId to, Packet packet);
  // Broadcasts to the union of committed and pending member sets (minus
  // self), so joint rounds and joining learners both hear every round.
  void BroadcastAuth(Packet packet);

  EngineConfig config_;
  EngineEnv env_;
  const size_t n_;

  bool started_ = false;
  bool ever_started_ = false;  // an in-object restart must warm up

  // Membership: the committed member set plus (mid-reconfiguration) the
  // pending one. Volatile unless durable_acceptors -- a restarted replica
  // re-learns the current view from promise/accept/propose traffic.
  uint64_t member_epoch_ = 0;
  std::vector<NodeId> members_;
  std::vector<NodeId> next_members_;
  bool learner_ = false;

  // Acceptor state -- volatile by design (PaxosLease): a crash forgets it
  // and the warm-up window makes that safe.
  uint64_t promised_ = 0;
  uint64_t accepted_ballot_ = 0;
  uint32_t accepted_owner_ = 0;
  TimePoint accepted_expiry_ = TimePoint::Epoch();  // + epsilon inflation
  TimePoint horizon_expiry_ = TimePoint::Epoch();   // piggybacked grants
  TimePoint warm_until_ = TimePoint::Epoch();

  // Proposer state.
  Role role_ = Role::kFollower;
  int phase_ = 0;  // 0 idle, 1 awaiting promises, 2 awaiting accepts
  uint64_t round_ = 0;
  uint64_t observed_round_ = 0;
  uint64_t ballot_ = 0;
  std::set<uint32_t> votes_;
  TimePoint round_anchor_ = TimePoint::Epoch();  // term anchored at send
  Duration round_bound_ = Duration::Zero();      // max promise bound
  Duration round_blocked_ = Duration::Zero();    // live foreign holder
  Duration inherited_bound_ = Duration::Zero();
  TimePoint confirmed_expiry_ = TimePoint::Epoch();
  TimePoint last_holder_seen_ = TimePoint::Epoch();
  TimePoint block_until_ = TimePoint::Epoch();
  bool seed_boot_ = false;  // replica 0 on a cold cluster acquires at once
  uint64_t jitter_seq_ = 0;

  // Standby-read delegation (replica.standby_reads): the window delegated
  // by the holder's last accepted propose, and the files it reported as
  // write-locked (refused at standbys; overflow disables standby serving).
  TimePoint delegation_expiry_ = TimePoint::Epoch();
  std::vector<uint64_t> standby_locked_;
  bool standby_locked_overflow_ = false;

  TimerId tick_timer_;
  TimerId stepdown_timer_;

  // Serving plane: alive only while holder (or always when n_ == 1).
  std::unique_ptr<ShardedLeaseServer> serving_;
  std::unique_ptr<CappedTermPolicy> capped_policy_;
  std::set<NodeId> clients_;

  // Counters survive Stop/Start on the same object (the harness reads
  // them across injected crashes); serving stats fold in at step-down.
  ServerStats accumulated_;
  uint64_t authority_rounds_ = 0;
  uint64_t authority_acquisitions_ = 0;
  uint64_t authority_renewals_ = 0;
  uint64_t authority_stepdowns_ = 0;
  uint64_t authority_warmup_waits_ = 0;
  uint64_t standby_reads_served_ = 0;
};

}  // namespace leases

#endif  // SRC_REPLICA_AUTHORITY_H_
