#include "src/replica/authority.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/core/backoff.h"

namespace leases {

namespace {

// Ballots are (round << 8) | (replica_index + 1): unique per proposer
// within a round, totally ordered across rounds, and -- because every
// phase-2 round bumps the round -- strictly greater than any ballot a
// previous holder ever confirmed. The serving plane's boot counter is
// seeded from the winning ballot, so write sequence numbers from
// successive holders never collide.
constexpr uint64_t kBallotIndexBits = 8;

uint64_t MakeBallot(uint64_t round, size_t replica_index) {
  return (round << kBallotIndexBits) | (static_cast<uint64_t>(replica_index) + 1);
}

uint64_t RoundOf(uint64_t ballot) { return ballot >> kBallotIndexBits; }

// Durable acceptor state (replica.durable_acceptors): persisted through the
// replica's DurableMeta *before* any promise/accept reply leaves the node,
// so a restarted acceptor's word still stands and it can vote immediately
// instead of sitting out the one-term+2eps warm-up.
constexpr const char kAuthPromisedKey[] = "auth_promised";
constexpr const char kAuthAcceptedBallotKey[] = "auth_accepted_ballot";
constexpr const char kAuthAcceptedOwnerKey[] = "auth_accepted_owner";
constexpr const char kAuthEpochKey[] = "auth_epoch";
constexpr const char kAuthMembersKey[] = "auth_members";  // count
constexpr const char kAuthNextKey[] = "auth_next";        // count

std::string IndexedKey(const char* base, size_t i) {
  return std::string(base) + "_" + std::to_string(i);
}

// Write-locked piggyback cap: one propose datagram stays small; a holder
// with more in-flight writes than this sets the overflow flag, which
// disables standby serving entirely rather than risk a stale answer.
constexpr size_t kWriteLockedCap = 64;

std::vector<uint32_t> ToWire(const std::vector<NodeId>& nodes) {
  std::vector<uint32_t> out;
  out.reserve(nodes.size());
  for (NodeId n : nodes) {
    out.push_back(static_cast<uint32_t>(n.value()));
  }
  return out;
}

std::vector<NodeId> FromWire(const std::vector<uint32_t>& ids) {
  std::vector<NodeId> out;
  out.reserve(ids.size());
  for (uint32_t id : ids) {
    out.push_back(NodeId(id));
  }
  return out;
}

// Size of the symmetric difference between two member sets.
size_t MemberDelta(std::vector<NodeId> a, std::vector<NodeId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<NodeId> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff));
  return diff.size();
}

}  // namespace

ReplicaNode::ReplicaNode(const EngineConfig& config, EngineEnv env)
    : config_(config), env_(std::move(env)), n_(config.replica.num_replicas) {
  LEASES_CHECK(n_ >= 1);
  LEASES_CHECK(env_.peers.size() == n_);
  LEASES_CHECK(env_.replica_index < n_);
}

ReplicaNode::~ReplicaNode() {
  if (started_) {
    Stop();
  }
}

Duration ReplicaNode::Epsilon() const {
  Duration eps = config_.epsilon;
  if (env_.epsilon_bound) {
    eps = std::max(eps, env_.epsilon_bound(config_.replica.authority_term));
  }
  return eps;
}

Status ReplicaNode::Start() {
  LEASES_CHECK(!started_);
  started_ = true;
  TimePoint now = Now();

  // Volatile authority state: a (re)start forgets everything, like a
  // PaxosLease acceptor losing its memory in a crash.
  promised_ = 0;
  accepted_ballot_ = 0;
  accepted_owner_ = 0;
  accepted_expiry_ = TimePoint::Epoch();
  horizon_expiry_ = TimePoint::Epoch();
  role_ = Role::kFollower;
  phase_ = 0;
  votes_.clear();
  round_bound_ = Duration::Zero();
  round_blocked_ = Duration::Zero();
  confirmed_expiry_ = TimePoint::Epoch();
  last_holder_seen_ = now;
  block_until_ = TimePoint::Epoch();
  delegation_expiry_ = TimePoint::Epoch();
  standby_locked_.clear();
  standby_locked_overflow_ = false;

  // Membership resets with the acceptor: a volatile restart falls back to
  // the construction-time view and re-learns any newer config from
  // promise/accept/propose traffic during the warm-up. A learner starts
  // with an empty view -- it is nobody until a committed set names it.
  member_epoch_ = 0;
  learner_ = env_.join_as_learner;
  members_ = learner_ ? std::vector<NodeId>{} : env_.peers;
  next_members_.clear();

  if (n_ == 1) {
    // Degenerate shell: the plain server, nothing else. No authority
    // messages, no capping, no warm-up -- behavior is bit-identical to the
    // unreplicated engine.
    ever_started_ = true;
    StartServing();
    return Status::Ok();
  }

  // A replica that may have voted in a lost incarnation stays silent for a
  // full authority term plus drift, so nothing it promised before the
  // crash can be contradicted after it.
  bool must_warm = ever_started_ || !env_.replica_cold_boot;
  warm_until_ = must_warm
                    ? now + config_.replica.authority_term +
                          Epsilon() * 2
                    : now;
  seed_boot_ = !must_warm && env_.replica_index == 0;
  if (durable()) {
    // The journal is the acceptor's memory: restore what it promised and
    // rejoin immediately -- the warm-up silence exists only to cover
    // forgotten volatile promises.
    RestoreDurableAcceptor(now);
    warm_until_ = now;
  } else if (warm_until_ > now) {
    ++authority_warmup_waits_;
  }
  ever_started_ = true;
  ArmTick(Duration::Zero());
  return Status::Ok();
}

void ReplicaNode::Stop() {
  LEASES_CHECK(started_);
  started_ = false;
  if (tick_timer_ != TimerId()) {
    env_.timers->CancelTimer(tick_timer_);
    tick_timer_ = TimerId();
  }
  if (stepdown_timer_ != TimerId()) {
    env_.timers->CancelTimer(stepdown_timer_);
    stepdown_timer_ = TimerId();
  }
  // A crash loses the serving incarnation and its counters, exactly like
  // the plain server's crash model. The authority_* counters live on the
  // engine object so harnesses can count takeovers across injected faults.
  serving_.reset();
  capped_policy_.reset();
  accumulated_ = ServerStats{};
  role_ = Role::kFollower;
  phase_ = 0;
}

std::vector<DurableMeta*> ReplicaNode::Metas() const {
  std::vector<DurableMeta*> metas{env_.meta};
  for (const ShardEnv& shard : env_.shards) {
    if (shard.meta != env_.meta) {
      metas.push_back(shard.meta);
    }
  }
  return metas;
}

Status ReplicaNode::Recover() {
  for (DurableMeta* meta : Metas()) {
    Status s = meta->Reopen();
    if (!s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

ServerStats ReplicaNode::stats() const {
  ServerStats out = accumulated_;
  if (serving_ != nullptr) {
    MergeServerStats(&out, serving_->stats());
  }
  if (capped_policy_ != nullptr) {
    out.grant_cap_hits += capped_policy_->cap_hits();
  }
  out.authority_rounds += authority_rounds_;
  out.authority_acquisitions += authority_acquisitions_;
  out.authority_renewals += authority_renewals_;
  out.authority_stepdowns += authority_stepdowns_;
  out.authority_warmup_waits += authority_warmup_waits_;
  out.standby_reads_served += standby_reads_served_;
  return out;
}

void ReplicaNode::RegisterClient(NodeId client) {
  clients_.insert(client);
  if (serving_ != nullptr) {
    serving_->RegisterClient(client);
  }
}

Duration ReplicaNode::confirmed_remaining() const {
  if (role_ != Role::kHolder) {
    return Duration::Zero();
  }
  TimePoint now = env_.clock->Now();
  return confirmed_expiry_ > now ? confirmed_expiry_ - now : Duration::Zero();
}

// --------------------------------------------------------------------
// Serving plane
// --------------------------------------------------------------------

void ReplicaNode::StartServing() {
  std::vector<ShardEnv> shards = env_.shards;
  if (n_ > 1) {
    capped_policy_ = std::make_unique<CappedTermPolicy>(
        env_.policy, [this]() -> Duration {
          if (role_ != Role::kHolder) {
            return Duration::Zero();
          }
          TimePoint limit = confirmed_expiry_ - Epsilon();
          TimePoint now = env_.clock->Now();
          return limit > now ? limit - now : Duration::Zero();
        });
    // The authority-lease ceiling folds into *every* shard's term policy:
    // no shard may grant past the confirmed expiry.
    for (ShardEnv& shard : shards) {
      shard.policy = capped_policy_.get();
    }
  }
  serving_ = std::make_unique<ShardedLeaseServer>(env_.id, std::move(shards),
                                                  config_.server, env_.oracle);
  if (n_ > 1) {
    // A successor inherits the installed-multicast client set; the n == 1
    // shell matches the plain server's restart behavior instead (no
    // replay -- clients re-announce through traffic).
    for (NodeId client : clients_) {
      serving_->RegisterClient(client);
    }
  }
  if (env_.on_takeover) {
    env_.on_takeover(self_addr());
  }
}

void ReplicaNode::Takeover() {
  // Seed the server's existing crash-recovery machinery with the
  // quorum-inherited grant bound: every shard LeaseServer then defers
  // write approvals for `inherited_bound_` -- the replicated replacement
  // for waiting out the durable max granted term. The winning ballot
  // becomes the boot-counter floor, so the serving write sequence range is
  // disjoint from every previous holder's. Each shard reads both from its
  // own meta at construction.
  inherited_bound_ = round_bound_ + Epsilon();
  for (DurableMeta* meta : Metas()) {
    if (!meta->Save(kMaxTermMetaKey, inherited_bound_.ToMicros()).ok()) {
      role_ = Role::kFollower;
      return;
    }
    int64_t boot = meta->Load(kBootCountMetaKey).value_or(0);
    if (static_cast<int64_t>(ballot_) > boot &&
        !meta->Save(kBootCountMetaKey, static_cast<int64_t>(ballot_)).ok()) {
      role_ = Role::kFollower;
      return;
    }
  }
  role_ = Role::kHolder;
  StartServing();
  ++authority_acquisitions_;
}

void ReplicaNode::StepDown(bool count) {
  if (serving_ != nullptr) {
    AccumulateServingStats();
    serving_.reset();
    capped_policy_.reset();
  }
  if (count) {
    ++authority_stepdowns_;
  }
  role_ = Role::kFollower;
  phase_ = 0;
  last_holder_seen_ = Now();
}

void ReplicaNode::AccumulateServingStats() {
  MergeServerStats(&accumulated_, serving_->stats());
  if (capped_policy_ != nullptr) {
    accumulated_.grant_cap_hits += capped_policy_->cap_hits();
  }
}

// --------------------------------------------------------------------
// Proposer
// --------------------------------------------------------------------

void ReplicaNode::ArmTick(Duration delay) {
  if (tick_timer_ != TimerId()) {
    env_.timers->CancelTimer(tick_timer_);
  }
  tick_timer_ = env_.timers->ScheduleAfter(delay, [this] {
    tick_timer_ = TimerId();
    Tick();
  });
}

Duration ReplicaNode::SuspectDelay() {
  // Staggered by replica index (lower indexes move first) and jittered so
  // simultaneous contenders de-synchronize without a shared RNG stream.
  Duration base = config_.replica.suspect_timeout +
                  config_.replica.acquire_retry * env_.replica_index;
  return base + SymmetricJitter(config_.replica.acquire_retry / 2,
                                self_addr().value(), ++jitter_seq_);
}

void ReplicaNode::Tick() {
  if (!started_) {
    return;
  }
  TimePoint now = Now();
  Duration next = config_.replica.acquire_retry;
  switch (role_) {
    case Role::kHolder: {
      // Renewal: a fresh phase-2 round on a fresh (higher) ballot. Stale
      // accepts from the previous round carry the old ballot and cannot
      // contaminate this round's quorum.
      round_ = std::max(round_, observed_round_) + 1;
      ballot_ = MakeBallot(round_, env_.replica_index);
      BeginPropose();
      next = config_.replica.renew_interval;
      break;
    }
    case Role::kAcquiring: {
      // The in-flight round stalled (lost datagrams, unreachable quorum):
      // run a fresh one.
      StartAcquisition();
      next = config_.replica.acquire_retry +
             SymmetricJitter(config_.replica.acquire_retry / 2,
                             self_addr().value(), ++jitter_seq_);
      break;
    }
    case Role::kFollower: {
      if (now < warm_until_) {
        next = warm_until_ - now;
        break;
      }
      if (learner_ || !IsMember(self_addr())) {
        // A learner (joining member) or a removed replica keeps its
        // acceptor alive but never proposes; re-check after a suspect
        // interval in case a config naming (or re-naming) us arrives.
        next = config_.replica.suspect_timeout;
        break;
      }
      if (seed_boot_) {
        // Replica 0 of a brand-new cluster: no holder can exist, acquire
        // immediately instead of sitting out a suspect timeout.
        seed_boot_ = false;
        StartAcquisition();
        break;
      }
      TimePoint due = last_holder_seen_ + SuspectDelay();
      due = std::max(due, block_until_);
      if (now >= due) {
        StartAcquisition();
      } else {
        next = due - now;
      }
      break;
    }
  }
  ArmTick(next);
}

void ReplicaNode::StartAcquisition() {
  role_ = Role::kAcquiring;
  ++authority_rounds_;
  round_ = std::max(round_, observed_round_) + 1;
  ballot_ = MakeBallot(round_, env_.replica_index);
  phase_ = 1;
  votes_.clear();
  round_bound_ = Duration::Zero();
  round_blocked_ = Duration::Zero();
  round_anchor_ = Now();
  AuthorityPrepare prepare{ballot_};
  BroadcastAuth(Packet(prepare));
  if (AcceptorReady()) {
    // Self-vote without a network hop.
    if (std::optional<AuthorityPromise> self = AcceptPrepare(prepare)) {
      OnPromise(self_addr(), *self);
    }
  }
}

void ReplicaNode::BeginPropose() {
  phase_ = 2;
  votes_.clear();
  // The authority term is anchored at this send: acceptors grant from
  // receipt (later than the anchor), so a quorum of accepts proves the
  // lease lives until at least anchor + term on every voter's clock.
  round_anchor_ = Now();
  AuthorityPropose propose;
  propose.ballot = ballot_;
  propose.owner = static_cast<uint32_t>(self_addr().value());
  propose.term = config_.replica.authority_term;
  propose.grant_horizon = ServingGrantHorizon();
  FillConfig(&propose.config_epoch, &propose.members, &propose.next_members);
  if (config_.replica.standby_reads && serving_ != nullptr) {
    // Files a write might be racing: standbys must refuse them for the
    // whole delegated window this propose opens.
    serving_->CollectWriteLocked(kWriteLockedCap, &propose.write_locked,
                                 &propose.write_locked_overflow);
  }
  BroadcastAuth(Packet(propose));
  if (AcceptorReady()) {
    if (std::optional<AuthorityAccept> self =
            AcceptPropose(self_addr(), propose)) {
      OnAccept(self_addr(), *self);
    }
  }
}

Duration ReplicaNode::ServingGrantHorizon() {
  // The outstanding-grant horizon piggybacked on every propose: the latest
  // expiry among grants this holder has outstanding, as a duration from
  // now. Acceptors fold it into the bound they report to a successor.
  if (serving_ == nullptr) {
    return Duration::Zero();
  }
  TimePoint now = Now();
  return serving_->GlobalMaxExpiry(now) - now;
}

void ReplicaNode::ObserveBallot(uint64_t ballot) {
  observed_round_ = std::max(observed_round_, RoundOf(ballot));
}

void ReplicaNode::OnPromise(NodeId from, const AuthorityPromise& m) {
  if (AdoptConfig(m.config_epoch, m.members, m.next_members) &&
      role_ == Role::kAcquiring) {
    // The quorum this round was counting against is stale (e.g. a removed
    // replica learning the committed set from a survivor): abandon and let
    // the tick re-evaluate under the adopted config.
    AbandonRound();
    return;
  }
  if (phase_ != 1 || role_ != Role::kAcquiring || m.ballot != ballot_) {
    return;
  }
  if (!m.ok) {
    ObserveBallot(m.promised);
    return;  // outbid; the tick retries on a higher round
  }
  if (m.holder != 0 &&
      m.holder != static_cast<uint32_t>(self_addr().value())) {
    round_blocked_ = std::max(round_blocked_, m.holder_remaining);
  }
  round_bound_ = std::max(round_bound_, m.bound_remaining);
  votes_.insert(static_cast<uint32_t>(from.value()));
  if (!HaveQuorum()) {
    return;
  }
  if (round_blocked_ > Duration::Zero()) {
    // Another holder's authority lease is still live at some voter: stand
    // down and re-check once it can have expired everywhere.
    role_ = Role::kFollower;
    phase_ = 0;
    block_until_ = Now() + round_blocked_ + Epsilon();
    return;
  }
  BeginPropose();
}

void ReplicaNode::OnAccept(NodeId from, const AuthorityAccept& m) {
  if (AdoptConfig(m.config_epoch, m.members, m.next_members) &&
      role_ == Role::kAcquiring) {
    AbandonRound();
    return;
  }
  if (phase_ != 2 || m.ballot != ballot_) {
    return;
  }
  if (!m.ok) {
    ObserveBallot(m.promised);
    return;  // a holder keeps serving until the step-down check fires
  }
  votes_.insert(static_cast<uint32_t>(from.value()));
  if (!HaveQuorum()) {
    return;
  }
  phase_ = 0;
  confirmed_expiry_ = round_anchor_ + config_.replica.authority_term;
  // A quorum-confirmed round is the commit point for a pending joint
  // config: it carried majorities in both the old and new sets.
  CommitPendingConfig();
  ArmStepDownCheck();
  if (role_ == Role::kHolder) {
    ++authority_renewals_;
    if (!IsMember(self_addr())) {
      // We just committed our own removal: orderly step-down; a surviving
      // member re-acquires after its suspect timeout.
      StepDown(/*count=*/true);
    }
  } else if (IsMember(self_addr())) {
    Takeover();
  } else {
    // Won a round but the set committed in it does not name us (removed
    // mid-acquisition): do not serve.
    role_ = Role::kFollower;
  }
}

void ReplicaNode::ArmStepDownCheck() {
  if (stepdown_timer_ != TimerId()) {
    env_.timers->CancelTimer(stepdown_timer_);
  }
  TimePoint now = Now();
  TimePoint deadline = confirmed_expiry_ - Epsilon();
  Duration delay = deadline > now ? deadline - now : Duration::Zero();
  stepdown_timer_ = env_.timers->ScheduleAfter(delay, [this] {
    stepdown_timer_ = TimerId();
    if (role_ != Role::kHolder) {
      return;
    }
    TimePoint t = Now();
    if (t >= confirmed_expiry_ - Epsilon()) {
      // Could not re-confirm a quorum before the confirmed lease runs
      // out: destroy the serving engine *before* a successor can win, so
      // no stale grant or write approval escapes.
      StepDown(/*count=*/true);
    } else {
      ArmStepDownCheck();  // a renewal moved the horizon forward
    }
  });
}

// --------------------------------------------------------------------
// Acceptor
// --------------------------------------------------------------------

bool ReplicaNode::AcceptorReady() const { return Now() >= warm_until_; }

std::optional<AuthorityPromise> ReplicaNode::AcceptPrepare(
    const AuthorityPrepare& m) {
  TimePoint now = Now();
  AuthorityPromise reply;
  reply.ballot = m.ballot;
  if (m.ballot >= promised_) {
    promised_ = m.ballot;
    if (!PersistAcceptor()) {
      return std::nullopt;  // never acknowledge a promise that isn't durable
    }
    reply.ok = true;
  } else {
    reply.ok = false;
  }
  reply.promised = promised_;
  if (accepted_owner_ != 0 && accepted_expiry_ > now) {
    reply.holder = accepted_owner_;
    reply.holder_remaining = accepted_expiry_ - now;
  }
  // The bound a successor must honour: the accepted authority lease's
  // (epsilon-inflated) expiry, or the holder's last reported grant
  // horizon, whichever is later. Reported as a remaining duration -- the
  // receiver adds its own epsilon; no clock comparison crosses nodes.
  TimePoint bound = std::max(accepted_expiry_, horizon_expiry_);
  reply.bound_remaining = bound > now ? bound - now : Duration::Zero();
  FillConfig(&reply.config_epoch, &reply.members, &reply.next_members);
  return reply;
}

std::optional<AuthorityAccept> ReplicaNode::AcceptPropose(
    NodeId from, const AuthorityPropose& m) {
  AdoptConfig(m.config_epoch, m.members, m.next_members);
  TimePoint now = Now();
  AuthorityAccept reply;
  reply.ballot = m.ballot;
  bool lease_free = accepted_owner_ == 0 || accepted_expiry_ <= now ||
                    accepted_owner_ == m.owner;
  if (m.ballot >= promised_ && lease_free) {
    promised_ = m.ballot;
    accepted_ballot_ = m.ballot;
    accepted_owner_ = m.owner;
    accepted_expiry_ = now + m.term + Epsilon();
    // Replace, not max: any horizon report is a sound cover for the
    // grants outstanding at its receipt, and newer is tighter.
    horizon_expiry_ = now + m.grant_horizon;
    last_holder_seen_ = now;
    if (!PersistAcceptor()) {
      return std::nullopt;
    }
    reply.ok = true;
    // The accepted propose delegates read authority until the holder's
    // confirmed expiry minus epsilon (m.term from our receipt is an upper
    // bound on it), along with the files standbys must refuse.
    delegation_expiry_ = now + m.term - Epsilon();
    standby_locked_ = m.write_locked;
    std::sort(standby_locked_.begin(), standby_locked_.end());
    standby_locked_overflow_ = m.write_locked_overflow;
    if (m.owner != static_cast<uint32_t>(self_addr().value()) &&
        role_ == Role::kAcquiring) {
      // Someone else holds a confirmed-enough lease; abandon this round.
      role_ = Role::kFollower;
      phase_ = 0;
    }
  } else {
    reply.ok = false;
    reply.promised = promised_;
    if (accepted_owner_ != 0 && accepted_owner_ == m.owner &&
        accepted_expiry_ > now) {
      last_holder_seen_ = now;  // refused on ballot, but the holder lives
    }
  }
  (void)from;
  FillConfig(&reply.config_epoch, &reply.members, &reply.next_members);
  return reply;
}

bool ReplicaNode::PersistAcceptor() {
  if (!durable()) {
    return true;
  }
  return env_.meta
             ->Save(kAuthPromisedKey, static_cast<int64_t>(promised_))
             .ok() &&
         env_.meta
             ->Save(kAuthAcceptedBallotKey,
                    static_cast<int64_t>(accepted_ballot_))
             .ok() &&
         env_.meta
             ->Save(kAuthAcceptedOwnerKey,
                    static_cast<int64_t>(accepted_owner_))
             .ok();
}

void ReplicaNode::PersistConfig() {
  if (!durable()) {
    return;
  }
  // Best-effort: a lost config record degrades to the volatile re-learning
  // path, it never contradicts a promise.
  (void)env_.meta->Save(kAuthEpochKey, static_cast<int64_t>(member_epoch_));
  (void)env_.meta->Save(kAuthMembersKey,
                        static_cast<int64_t>(members_.size()));
  for (size_t i = 0; i < members_.size(); ++i) {
    (void)env_.meta->Save(IndexedKey(kAuthMembersKey, i),
                          static_cast<int64_t>(members_[i].value()));
  }
  (void)env_.meta->Save(kAuthNextKey,
                        static_cast<int64_t>(next_members_.size()));
  for (size_t i = 0; i < next_members_.size(); ++i) {
    (void)env_.meta->Save(IndexedKey(kAuthNextKey, i),
                          static_cast<int64_t>(next_members_[i].value()));
  }
}

void ReplicaNode::RestoreDurableAcceptor(TimePoint now) {
  std::optional<int64_t> promised = env_.meta->Load(kAuthPromisedKey);
  if (promised.has_value()) {
    promised_ = static_cast<uint64_t>(*promised);
    accepted_ballot_ = static_cast<uint64_t>(
        env_.meta->Load(kAuthAcceptedBallotKey).value_or(0));
    accepted_owner_ = static_cast<uint32_t>(
        env_.meta->Load(kAuthAcceptedOwnerKey).value_or(0));
    observed_round_ = std::max(observed_round_, RoundOf(promised_));
    if (accepted_owner_ != 0) {
      // The journal records *that* we accepted, not when it expires (terms
      // travel as durations). Over-approximate: assume the lease was
      // accepted the instant before the crash. A too-long expiry only
      // lengthens refusals and inherited bounds -- never unsafe.
      accepted_expiry_ = now + config_.replica.authority_term + Epsilon();
      horizon_expiry_ = accepted_expiry_;
    }
  }
  std::optional<int64_t> epoch = env_.meta->Load(kAuthEpochKey);
  if (epoch.has_value()) {
    int64_t n_members = env_.meta->Load(kAuthMembersKey).value_or(0);
    std::vector<NodeId> members;
    for (int64_t i = 0; i < n_members; ++i) {
      std::optional<int64_t> v =
          env_.meta->Load(IndexedKey(kAuthMembersKey, static_cast<size_t>(i)));
      if (v.has_value()) {
        members.push_back(NodeId(static_cast<uint64_t>(*v)));
      }
    }
    if (!members.empty()) {
      member_epoch_ = static_cast<uint64_t>(*epoch);
      members_ = std::move(members);
      next_members_.clear();
      int64_t n_next = env_.meta->Load(kAuthNextKey).value_or(0);
      for (int64_t i = 0; i < n_next; ++i) {
        std::optional<int64_t> v =
            env_.meta->Load(IndexedKey(kAuthNextKey, static_cast<size_t>(i)));
        if (v.has_value()) {
          next_members_.push_back(NodeId(static_cast<uint64_t>(*v)));
        }
      }
      if (IsMember(self_addr())) {
        learner_ = false;
      }
    }
  }
}

// --------------------------------------------------------------------
// Membership
// --------------------------------------------------------------------

bool ReplicaNode::IsMember(NodeId node) const {
  return std::find(members_.begin(), members_.end(), node) != members_.end();
}

bool ReplicaNode::HaveQuorum() const {
  auto votes_in = [this](const std::vector<NodeId>& set) {
    size_t count = 0;
    for (NodeId node : set) {
      if (votes_.count(static_cast<uint32_t>(node.value())) != 0) {
        ++count;
      }
    }
    return count;
  };
  if (members_.empty() ||
      votes_in(members_) < members_.size() / 2 + 1) {
    return false;
  }
  if (!next_members_.empty() &&
      votes_in(next_members_) < next_members_.size() / 2 + 1) {
    return false;
  }
  return true;
}

void ReplicaNode::FillConfig(uint64_t* epoch, std::vector<uint32_t>* members,
                             std::vector<uint32_t>* next_members) const {
  *epoch = member_epoch_;
  *members = ToWire(members_);
  *next_members = ToWire(next_members_);
}

bool ReplicaNode::AdoptConfig(uint64_t epoch,
                              const std::vector<uint32_t>& members,
                              const std::vector<uint32_t>& next_members) {
  if (members.empty()) {
    return false;  // malformed or from a node with no view yet
  }
  bool changed = false;
  if (epoch > member_epoch_ || members_.empty()) {
    member_epoch_ = epoch;
    members_ = FromWire(members);
    next_members_ = FromWire(next_members);
    changed = true;
  } else if (epoch == member_epoch_ && next_members_.empty() &&
             !next_members.empty()) {
    // Same committed set, but the sender knows of a pending joint config
    // we have not seen (quorum-intersection dissemination).
    next_members_ = FromWire(next_members);
    changed = true;
  }
  if (changed) {
    if (learner_ && IsMember(self_addr())) {
      learner_ = false;  // a committed set names us: full member now
    }
    PersistConfig();
  }
  return changed;
}

void ReplicaNode::CommitPendingConfig() {
  if (next_members_.empty()) {
    return;
  }
  ++member_epoch_;
  members_ = std::move(next_members_);
  next_members_.clear();
  if (learner_ && IsMember(self_addr())) {
    learner_ = false;
  }
  PersistConfig();
}

void ReplicaNode::AbandonRound() {
  role_ = Role::kFollower;
  phase_ = 0;
  last_holder_seen_ = Now();  // give the (possibly new) holder a full window
}

Status ReplicaNode::RequestReconfig(std::vector<NodeId> new_members) {
  if (n_ == 1) {
    return Status(ErrorCode::kUnavailable,
                  "the single-replica shell has no membership plane");
  }
  if (role_ != Role::kHolder) {
    return Status(ErrorCode::kUnavailable,
                  "only the authority holder can change membership");
  }
  if (!next_members_.empty()) {
    return Status(ErrorCode::kUnavailable,
                  "a reconfiguration is already in flight");
  }
  std::sort(new_members.begin(), new_members.end());
  new_members.erase(std::unique(new_members.begin(), new_members.end()),
                    new_members.end());
  if (new_members.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "the member set cannot be empty");
  }
  if (new_members.size() > 7) {
    return Status(ErrorCode::kInvalidArgument,
                  "at most 7 replicas (3-5 recommended)");
  }
  size_t delta = MemberDelta(members_, new_members);
  if (delta == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "membership unchanged (replica already a member, or "
                  "already removed)");
  }
  if (delta != 1) {
    // Single-step changes keep every old-set majority intersecting the
    // new-set majority, so a proposer on a stale config always reaches an
    // acceptor holding (or blocking for) the current authority lease.
    return Status(ErrorCode::kInvalidArgument,
                  "membership changes one replica at a time");
  }
  next_members_ = std::move(new_members);
  PersistConfig();
  // The joint config rides on the next renewal (<= renew_interval away)
  // and commits on its first quorum-confirmed round.
  return Status::Ok();
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

void ReplicaNode::SendAuth(NodeId to, Packet packet) {
  env_.transport->Send(to, MessageClass::kControl, std::move(packet));
}

void ReplicaNode::BroadcastAuth(Packet packet) {
  // Committed plus pending members, minus self: joint rounds must reach
  // both sets, and a joining learner hears the rounds that will name it.
  std::vector<NodeId> targets;
  targets.reserve(members_.size() + next_members_.size());
  for (NodeId node : members_) {
    if (node != self_addr()) {
      targets.push_back(node);
    }
  }
  for (NodeId node : next_members_) {
    if (node != self_addr() &&
        std::find(targets.begin(), targets.end(), node) == targets.end()) {
      targets.push_back(node);
    }
  }
  if (targets.empty()) {
    return;
  }
  env_.transport->Multicast(std::span<const NodeId>(targets),
                            MessageClass::kControl, std::move(packet));
}

void ReplicaNode::HandleTyped(NodeId from, MessageClass cls,
                              const Packet& packet) {
  if (!started_) {
    return;
  }
  if (const auto* prepare = std::get_if<AuthorityPrepare>(&packet)) {
    if (n_ > 1 && AcceptorReady()) {
      if (std::optional<AuthorityPromise> reply = AcceptPrepare(*prepare)) {
        SendAuth(from, Packet(*reply));
      }
    }
    return;  // warming acceptors stay silent
  }
  if (const auto* propose = std::get_if<AuthorityPropose>(&packet)) {
    if (n_ > 1 && AcceptorReady()) {
      if (std::optional<AuthorityAccept> reply =
              AcceptPropose(from, *propose)) {
        SendAuth(from, Packet(*reply));
      }
    }
    return;
  }
  if (const auto* promise = std::get_if<AuthorityPromise>(&packet)) {
    if (n_ > 1) {
      OnPromise(from, *promise);
    }
    return;
  }
  if (const auto* accept = std::get_if<AuthorityAccept>(&packet)) {
    if (n_ > 1) {
      OnAccept(from, *accept);
    }
    return;
  }
  // Client lease traffic: the holder's serving engine answers; a standby
  // may answer reads under the holder's delegated window; everything else
  // is dropped and the client retransmits until the virtual address points
  // at the new holder.
  if (serving_ != nullptr) {
    serving_->HandleTyped(from, cls, packet);
    return;
  }
  if (const auto* read = std::get_if<ReadRequest>(&packet)) {
    ServeStandbyRead(from, *read);
  }
}

void ReplicaNode::ServeStandbyRead(NodeId from, const ReadRequest& m) {
  if (!config_.replica.standby_reads || n_ == 1) {
    return;
  }
  TimePoint now = Now();
  if (now >= delegation_expiry_ || standby_locked_overflow_) {
    return;  // no live delegation (or an unknowably large locked set)
  }
  if (std::binary_search(standby_locked_.begin(), standby_locked_.end(),
                         m.file.value())) {
    return;  // a write may be racing this file at the holder
  }
  // Serve from the store every shard commits to, with a zero-term grant: no
  // caching rights, so the standby never creates a leaseholder the holder
  // cannot see. The data is write-through fresh -- every committed write
  // already applied.
  ReadReply reply;
  reply.req = m.req;
  reply.file = m.file;
  const FileRecord* rec = env_.store->Find(m.file);
  if (rec == nullptr) {
    reply.status = ErrorCode::kNotFound;
  } else if (!FileStore::CanRead(*rec, from)) {
    reply.status = ErrorCode::kPermissionDenied;
  } else {
    reply.version = rec->version;
    reply.file_class = rec->file_class;
    reply.lease = LeaseGrant{rec->cover, Duration::Zero()};
    if (m.have_version != 0 && m.have_version == rec->version) {
      reply.not_modified = true;
    } else {
      reply.data = rec->data;
    }
  }
  ++standby_reads_served_;
  env_.serve_transport->Send(from, MessageClass::kData, Packet(std::move(reply)));
}

}  // namespace leases
