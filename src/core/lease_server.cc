#include "src/core/lease_server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace leases {
namespace {

constexpr const char* kMaxTermKey = kMaxTermMetaKey;
constexpr const char* kBootCountKey = kBootCountMetaKey;
constexpr const char* kLeaseRecordPrefix = "lease/";

std::string LeaseRecordKey(LeaseKey key, NodeId node) {
  return std::string(kLeaseRecordPrefix) + std::to_string(key.value()) + "/" +
         std::to_string(node.value());
}
// Slack past a holder's expiry before an expiry-commit: the comparison is
// strict (a lease is valid *through* its expiry instant).
constexpr Duration kExpirySlack = Duration::Micros(1);

}  // namespace

LeaseServer::LeaseServer(NodeId id, FileStore* store, DurableMeta* meta,
                         Transport* transport, Clock* clock, TimerHost* timers,
                         TermPolicy* policy, ServerParams params,
                         Oracle* oracle)
    : id_(id),
      store_(store),
      meta_(meta),
      transport_(transport),
      clock_(clock),
      timers_(timers),
      policy_(policy),
      params_(params),
      oracle_(oracle) {
  // Recovery (Section 2): if a previous incarnation granted leases, honour
  // them by delaying all writes for the maximum granted term. The lease
  // table itself was volatile and is gone; only this one durable number is
  // needed for safety.
  if (params_.persist_lease_records) {
    // Detailed persistent lease records: rebuild the table and skip the
    // recovery window entirely -- writes consult the recovered holders.
    for (const auto& [record, expiry_us] :
         meta_->LoadPrefix(kLeaseRecordPrefix)) {
      size_t slash = record.find('/', std::strlen(kLeaseRecordPrefix));
      if (slash == std::string::npos) {
        continue;
      }
      uint64_t key_value = std::strtoull(
          record.c_str() + std::strlen(kLeaseRecordPrefix), nullptr, 10);
      uint32_t node_value = static_cast<uint32_t>(
          std::strtoul(record.c_str() + slash + 1, nullptr, 10));
      TimePoint expiry = TimePoint::FromMicros(expiry_us);
      if (expiry > clock_->Now()) {
        table_.Grant(LeaseKey(key_value), NodeId(node_value), expiry);
        RememberClient(NodeId(node_value));
        ++stats_.recovered_lease_records;
      } else {
        // Already expired: drop the record. A failed erase keeps a lapsed
        // lease on disk, which recovery honours needlessly but safely.
        (void)meta_->Erase(record);
      }
    }
    if (std::optional<int64_t> us = meta_->Load(kMaxTermKey)) {
      max_term_granted_ = Duration::Micros(*us);
    }
  } else if (std::optional<int64_t> us = meta_->Load(kMaxTermKey)) {
    Duration window = Duration::Micros(*us);
    max_term_granted_ = window;
    recovering_ = true;
    recovery_until_ = clock_->Now() + window;
    stats_.recovery_window = window;
    if (!window.IsInfinite()) {
      recovery_timer_ = timers_->ScheduleAfter(
          window + kExpirySlack, [this]() { DrainRecoveryQueue(); });
    }
  }
  // Write sequence numbers are salted with a durable boot counter, giving
  // successive incarnations disjoint seq ranges. Without this, an
  // ApproveRequest from before a crash -- duplicated or delayed on the wire,
  // answered by a slow holder after the restart -- could carry a seq that
  // collides with a *different* pending write of the new incarnation and
  // count as a false approval, committing a write while a live lease still
  // covers stale data.
  int64_t boot = meta_->Load(kBootCountKey).value_or(0) + 1;
  if (!meta_->Save(kBootCountKey, boot).ok()) {
    // The counter never reached the disk, so a later incarnation would
    // recover the old value and reuse this one's seq range -- exactly the
    // false-approval hazard the counter exists to prevent. Serving without
    // it is unsafe: halt (drop every packet, as if the boot had failed).
    halted_ = true;
    LEASES_ERROR("server %u: boot counter not durable; halting", id_.value());
  }
  // The shard salt (0 on a plain server) keeps concurrent shards of one
  // sharded server in disjoint seq ranges, for the same collision reason.
  next_write_seq_ = (static_cast<uint64_t>(boot) << 32) |
                    (static_cast<uint64_t>(params_.shard_seq_salt) << 26);
  // boot > 1 means a previous incarnation's durable state was recovered
  // (from the journal, when the meta store is backend-backed).
  if (boot > 1) {
    stats_.recoveries = 1;
  }
  RefreshDurabilityStats();

  if (params_.installed_optimization && !halted_) {
    installed_timer_ = timers_->ScheduleAfter(
        params_.installed_multicast_period,
        [this]() { InstalledMulticastTick(); });
  }
}

LeaseServer::~LeaseServer() {
  // The server object may be destroyed mid-run (crash injection); every
  // timer holding `this` must be cancelled.
  for (auto& [seq, pending] : pending_) {
    if (pending.deadline_timer.valid()) {
      timers_->CancelTimer(pending.deadline_timer);
    }
    if (pending.retry_timer.valid()) {
      timers_->CancelTimer(pending.retry_timer);
    }
  }
  if (installed_timer_.valid()) {
    timers_->CancelTimer(installed_timer_);
  }
  if (recovery_timer_.valid()) {
    timers_->CancelTimer(recovery_timer_);
  }
}

void LeaseServer::HandleTyped(NodeId from, MessageClass /*cls*/,
                              const Packet& packet) {
  if (halted_) {
    // Boot failed to persist its counter: acknowledging anything could
    // violate recovery invariants, so behave exactly like a down server.
    return;
  }
  RememberClient(from);
  if (const auto* read = std::get_if<ReadRequest>(&packet)) {
    OnReadRequest(from, *read);
    return;
  }
  if (const auto* extend = std::get_if<ExtendRequest>(&packet)) {
    OnExtendRequest(from, *extend);
    return;
  }
  if (const auto* write = std::get_if<WriteRequest>(&packet)) {
    OnWriteRequest(from, *write);
    return;
  }
  if (const auto* approve = std::get_if<ApproveReply>(&packet)) {
    OnApproveReply(from, *approve);
    return;
  }
  if (const auto* relinquish = std::get_if<Relinquish>(&packet)) {
    OnRelinquish(from, *relinquish);
    return;
  }
  if (const auto* ping = std::get_if<Ping>(&packet)) {
    SendTo(from, MessageClass::kControl, Pong{ping->req});
    return;
  }
  LEASES_WARN("server %u: unexpected %s from %u", id_.value(),
              PacketName(packet).c_str(), from.value());
}

// --- Reads and extensions ---

void LeaseServer::OnReadRequest(NodeId from, const ReadRequest& m) {
  if (m.clock_us != 0) {
    // Estimation-only clock stamp: feeds the policy's drift estimator
    // before any term is sized for this request.
    ++stats_.clock_samples;
    policy_->OnClockSample(from, static_cast<int64_t>(m.clock_us),
                           clock_->Now());
  }
  ReadReply reply;
  reply.req = m.req;
  reply.file = m.file;

  if (!AdmitGrantWork()) {
    // Admission control: the grant queue is full, shed instead of buffering
    // without bound. kUnavailable is retryable -- the client backs off.
    reply.status = ErrorCode::kUnavailable;
    SendTo(from, MessageClass::kData, std::move(reply));
    return;
  }

  const FileRecord* rec = store_->Find(m.file);
  if (rec == nullptr || !FileStore::CanRead(*rec, from)) {
    reply.status = rec == nullptr ? ErrorCode::kNotFound
                                  : ErrorCode::kPermissionDenied;
    SendTo(from, MessageClass::kData, std::move(reply));
    return;
  }

  policy_->OnRead(m.file, clock_->Now());
  reply.version = rec->version;
  reply.file_class = rec->file_class;
  reply.lease = GrantFor(from, *rec);
  if (m.have_version != 0 && m.have_version == rec->version) {
    reply.not_modified = true;
    ++stats_.not_modified_replies;
  } else {
    reply.data = rec->data;  // shares the store's buffer
  }
  ++stats_.reads_served;
  SendTo(from, MessageClass::kData, std::move(reply));
}

void LeaseServer::OnExtendRequest(NodeId from, const ExtendRequest& m) {
  ++stats_.extension_requests;
  if (m.clock_us != 0) {
    ++stats_.clock_samples;
    policy_->OnClockSample(from, static_cast<int64_t>(m.clock_us),
                           clock_->Now());
  }
  ExtendReply reply;
  reply.req = m.req;
  reply.items.reserve(m.items.size());
  if (!AdmitGrantWork()) {
    // Shed the whole batch without touching lease state; every item comes
    // back kUnavailable so the client retries after backoff instead of
    // dropping its cached entries.
    for (const ExtendItem& item : m.items) {
      ExtendReplyItem out;
      out.file = item.file;
      out.status = ErrorCode::kUnavailable;
      reply.items.push_back(std::move(out));
    }
    SendTo(from, MessageClass::kConsistency, std::move(reply));
    return;
  }
  TimePoint now = clock_->Now();
  for (const ExtendItem& item : m.items) {
    ++stats_.extension_items;
    ExtendReplyItem out;
    out.file = item.file;
    const FileRecord* rec = store_->Find(item.file);
    if (rec == nullptr || !FileStore::CanRead(*rec, from)) {
      out.status = rec == nullptr ? ErrorCode::kNotFound
                                  : ErrorCode::kPermissionDenied;
      reply.items.push_back(std::move(out));
      continue;
    }
    policy_->OnRead(item.file, now);
    out.version = rec->version;
    out.file_class = rec->file_class;
    out.lease = GrantFor(from, *rec);
    if (rec->version != item.version) {
      // The cache's copy went stale while its lease was expired; refresh it
      // in the same reply ("updating the cache if the datum has been
      // modified since the lease expired", Section 2).
      out.refreshed = true;
      out.data = rec->data;
    }
    reply.items.push_back(std::move(out));
  }
  SendTo(from, MessageClass::kConsistency, std::move(reply));
}

// --- Leases ---

LeaseGrant LeaseServer::GrantFor(NodeId from, const FileRecord& rec) {
  LeaseKey key = rec.cover;
  TimePoint now = clock_->Now();
  if (KeyBlocked(key)) {
    // A write is waiting: granting would starve it (footnote 1). The read
    // itself is still served -- the requester just gets no caching rights.
    ++stats_.zero_term_grants;
    return LeaseGrant{key, Duration::Zero()};
  }
  if (IsInstalledKey(key)) {
    // No per-client record is kept for installed files; the grant is only
    // as long as the currently advertised multicast window, which is the
    // exact window a future write will wait out.
    const InstalledKeyState& st = installed_keys_.at(key);
    Duration remaining =
        st.advertised ? (st.last_advert + params_.installed_term) - now
                      : Duration::Zero();
    if (remaining <= Duration::Zero()) {
      ++stats_.zero_term_grants;
      return LeaseGrant{key, Duration::Zero()};
    }
    ++stats_.leases_granted;
    return LeaseGrant{key, remaining};
  }
  Duration term = policy_->TermFor(rec.id, rec.file_class, from);
  if (term <= Duration::Zero()) {
    ++stats_.zero_term_grants;
    return LeaseGrant{key, Duration::Zero()};
  }
  // Durability precedes visibility: the recovery record (the max term, and
  // under persist_lease_records the per-lease entry) must be on disk before
  // the grant is acknowledged. On an append failure the read is still
  // served, but with a zero-term grant -- no caching rights are handed out
  // that a recovered server might not honour.
  if (!RecordMaxTerm(term)) {
    ++stats_.durability_refused_grants;
    ++stats_.zero_term_grants;
    return LeaseGrant{key, Duration::Zero()};
  }
  if (params_.persist_lease_records) {
    // One durable write per grant -- the I/O cost the paper weighs against
    // the simple recovery window.
    if (!meta_->Save(LeaseRecordKey(key, from), (now + term).ToMicros())
             .ok()) {
      ++stats_.durability_refused_grants;
      ++stats_.zero_term_grants;
      return LeaseGrant{key, Duration::Zero()};
    }
    meta_->CountWrite();
  }
  table_.Grant(key, from, now + term);
  LEASES_DEBUG("server: grant key=%llu to=%u term=%s",
               (unsigned long long)key.value(), from.value(),
               term.ToString().c_str());
  ++stats_.leases_granted;
  return LeaseGrant{key, term};
}

bool LeaseServer::RecordMaxTerm(Duration term) {
  if (term <= max_term_granted_) {
    return true;  // already durably covered by the recorded maximum
  }
  // One durable write, and only when the maximum grows -- the paper's
  // alternative of logging every lease would cost I/O per grant.
  if (!meta_->Save(kMaxTermKey, term.ToMicros()).ok()) {
    // Not durable => not visible: leave the in-memory maximum where it is,
    // so it never claims coverage the recovery window cannot deliver.
    return false;
  }
  max_term_granted_ = term;
  meta_->CountWrite();
  return true;
}

void LeaseServer::RefreshDurabilityStats() const {
  const StorageStats* s = meta_->storage_stats();
  if (s == nullptr) {
    return;
  }
  stats_.journal_appends = s->appends;
  stats_.journal_replays = s->replays;
  stats_.journal_replayed_records = s->replayed_records;
  stats_.journal_truncated_tails = s->truncated_tails;
  stats_.journal_corrupt_dropped = s->corrupt_dropped;
  stats_.snapshot_compactions = s->compactions;
  stats_.replay_duration = s->last_replay_time;
}

bool LeaseServer::KeyBlocked(LeaseKey key) const {
  auto it = blocked_keys_.find(key);
  return it != blocked_keys_.end() && it->second > 0;
}

void LeaseServer::BlockKey(LeaseKey key) { blocked_keys_[key]++; }

void LeaseServer::UnblockKey(LeaseKey key) {
  auto it = blocked_keys_.find(key);
  LEASES_CHECK(it != blocked_keys_.end() && it->second > 0);
  if (--it->second == 0) {
    blocked_keys_.erase(it);
  }
}

// --- Writes ---

void LeaseServer::OnWriteRequest(NodeId from, const WriteRequest& m) {
  ++stats_.writes_received;
  if (const WriteReply* replay = FindWriteReply(from, m.req)) {
    // Retransmitted request for a write that already committed: replay the
    // reply; re-applying would double-commit.
    ++stats_.dedup_replays;
    SendTo(from, MessageClass::kData, *replay);
    return;
  }
  WriteDedupKey dk{from.value(), m.req.value()};
  if (writes_in_flight_.count(dk) > 0) {
    return;  // duplicate of a write still being processed
  }
  writes_in_flight_.insert(dk);
  AdmitWrite(QueuedWrite{from, m, clock_->Now(), LeaseKey()});
}

void LeaseServer::AdmitWrite(QueuedWrite write) {
  if (InRecovery()) {
    // Honouring pre-crash leases: all writes wait out the recovery window
    // ("it delays writes to all files for that period", Section 2). Beyond
    // the queue limit the server sheds load instead of buffering without
    // bound; the client backs off and retries (kUnavailable is retryable).
    if (recovery_queue_.size() >= params_.recovery_queue_limit) {
      ++stats_.recovery_shed_writes;
      // RejectWrite drops the in-flight dedup entry, so the retry after
      // backoff is admitted as a fresh write rather than swallowed.
      RejectWrite(write.from, write.request, ErrorCode::kUnavailable);
      return;
    }
    ++stats_.recovery_held_writes;
    recovery_queue_.push_back(std::move(write));
    return;
  }
  const WriteRequest& m = write.request;
  Status check = store_->CheckWrite(m.file, write.from);
  if (!check.ok()) {
    RejectWrite(write.from, m, check.code());
    return;
  }
  const FileRecord* rec = store_->Find(m.file);
  const bool active = active_write_.count(m.file) > 0;
  if (m.base_version != 0 && m.base_version != rec->version && !active) {
    // Fast-fail an already-stale optimistic write. (If writes are queued,
    // the check happens at commit against the then-current version.)
    RejectWrite(write.from, m, ErrorCode::kConflict);
    return;
  }
  write.key = rec->cover;
  BlockKey(write.key);
  if (active || !write_queue_[m.file].empty()) {
    write_queue_[m.file].push_back(std::move(write));
    return;
  }
  ActivateWrite(std::move(write));
}

void LeaseServer::ActivateWrite(QueuedWrite write) {
  const WriteRequest& m = write.request;
  const FileRecord* rec = store_->Find(m.file);
  if (rec == nullptr) {
    // Removed while queued behind another write.
    UnblockKey(write.key);
    RejectWrite(write.from, m, ErrorCode::kNotFound);
    FinishWrite(m.file);
    return;
  }
  TimePoint now = clock_->Now();
  uint64_t seq = ++next_write_seq_;
  PendingWrite pending;
  pending.seq = seq;
  pending.writer = write.from;
  pending.req = m.req;
  pending.file = m.file;
  pending.key = write.key;
  pending.data = m.data;
  pending.base_version = m.base_version;
  pending.arrival = write.arrival;

  if (IsInstalledKey(pending.key)) {
    // Installed path (Section 4): stop advertising the key and wait for the
    // advertised window to drain. No callbacks, no reply implosion, and no
    // need to have tracked any leaseholder.
    InstalledKeyState& st = installed_keys_[pending.key];
    st.advertised = false;
    pending.installed = true;
    pending.deadline =
        st.last_advert + params_.installed_term + kExpirySlack;
    pending.holders_at_start = clients_.size();
    active_write_[pending.file] = seq;
    Duration delay = pending.deadline - now;
    if (delay <= Duration::Zero()) {
      pending_.emplace(seq, std::move(pending));
      ++stats_.writes_immediate;
      CommitWrite(seq, false);
      return;
    }
    ++stats_.writes_deferred;
    auto [it, inserted] = pending_.emplace(seq, std::move(pending));
    it->second.deadline_timer =
        timers_->ScheduleAfter(delay, [this, seq]() { OnWriteDeadline(seq); });
    return;
  }

  // One lookup serves holder enumeration and the expiry deadline below; the
  // pointer stays valid because nothing mutates the table until then.
  const LeaseTable::Holders* live = table_.PruneExpired(pending.key, now);
  std::span<const LeaseHolder> holders;
  if (live != nullptr) {
    holders = *live;
  }
  LEASES_DEBUG("server: activate write file=%llu writer=%u holders=%zu",
               (unsigned long long)pending.file.value(), pending.writer.value(),
               holders.size());
  pending.holders_at_start = holders.size();
  bool writer_holds = false;
  pending.waiting.reserve(holders.size());
  for (const LeaseHolder& h : holders) {
    if (h.node == pending.writer) {
      writer_holds = true;
    } else {
      pending.waiting.push_back(h.node);
    }
  }
  TimePoint max_expiry = LeaseTable::MaxExpiryOf(holders, now);
  if (!writer_holds) {
    // S counts the writer's cache too once the write lands.
    pending.holders_at_start += 1;
  }

  active_write_[pending.file] = seq;
  if (pending.waiting.empty()) {
    // The writer's own approval is implicit in the request (footnote 5), so
    // an unshared file commits with the single request-response.
    pending_.emplace(seq, std::move(pending));
    ++stats_.writes_immediate;
    CommitWrite(seq, false);
    return;
  }

  ++stats_.writes_deferred;
  pending.deadline = max_expiry + kExpirySlack;
  Duration delay = pending.deadline - now;
  auto [it, inserted] = pending_.emplace(seq, std::move(pending));
  PendingWrite& p = it->second;
  p.deadline_timer =
      timers_->ScheduleAfter(delay, [this, seq]() { OnWriteDeadline(seq); });
  if (params_.consult_holders) {
    SendApprovalRound(p, /*retry=*/false);
  }
  // else: Section 4's wait-for-expiry option -- no callbacks; the deadline
  // timer alone commits the write.
}

void LeaseServer::SendApprovalRound(PendingWrite& pending, bool retry) {
  if (retry) {
    ++stats_.approval_retries;
  } else {
    ++stats_.approval_rounds;
  }
  ApproveRequest request{pending.seq, pending.file, pending.key};
  if (params_.multicast_approvals) {
    transport_->Multicast(pending.waiting, MessageClass::kConsistency,
                          Packet(request));
  } else {
    // Ablation A2: serial unicast costs 2(S-1) messages (footnote 6).
    for (NodeId node : pending.waiting) {
      transport_->Send(node, MessageClass::kConsistency, Packet(request));
    }
  }
  uint64_t seq = pending.seq;
  pending.retry_timer = timers_->ScheduleAfter(
      params_.approval_retry_interval, [this, seq]() {
        auto it = pending_.find(seq);
        if (it == pending_.end()) {
          return;
        }
        // Lost callback or reply: ask again. Never waits past the lease
        // expiry deadline, which is still armed.
        SendApprovalRound(it->second, /*retry=*/true);
      });
}

void LeaseServer::OnApproveReply(NodeId from, const ApproveReply& m) {
  auto it = pending_.find(m.write_seq);
  if (it == pending_.end()) {
    return;  // late or duplicate reply for a finished write
  }
  PendingWrite& pending = it->second;
  auto waiting =
      std::find(pending.waiting.begin(), pending.waiting.end(), from);
  if (waiting == pending.waiting.end()) {
    return;
  }
  ++stats_.approvals_received;
  LEASES_DEBUG("server: approval from %u file=%llu relinquish=%d left=%zu",
               from.value(), (unsigned long long)m.file.value(),
               m.relinquish_key, pending.waiting.size() - 1);
  pending.waiting.erase(waiting);
  if (m.relinquish_key) {
    // The holder caches nothing else under this key; forgetting it spares
    // future writes a callback to this client.
    table_.Remove(pending.key, from);
    ForgetLeaseRecord(pending.key, from);
  }
  if (pending.waiting.empty()) {
    CommitWrite(m.write_seq, /*via_expiry=*/false);
  }
}

void LeaseServer::OnWriteDeadline(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    return;
  }
  it->second.deadline_timer = TimerId();
  // Every outstanding lease has expired on our clock; unreachable holders
  // delay a write by at most the term (Section 5).
  CommitWrite(seq, /*via_expiry=*/true);
}

void LeaseServer::CommitWrite(uint64_t seq, bool via_expiry) {
  auto it = pending_.find(seq);
  LEASES_CHECK(it != pending_.end());
  PendingWrite pending = std::move(it->second);
  pending_.erase(it);
  if (pending.deadline_timer.valid()) {
    timers_->CancelTimer(pending.deadline_timer);
  }
  if (pending.retry_timer.valid()) {
    timers_->CancelTimer(pending.retry_timer);
  }
  writes_in_flight_.erase({pending.writer.value(), pending.req.value()});
  UnblockKey(pending.key);
  active_write_.erase(pending.file);

  TimePoint now = clock_->Now();
  WriteReply reply;
  reply.req = pending.req;
  reply.file = pending.file;

  const FileRecord* rec = store_->Find(pending.file);
  if (pending.base_version != 0 && rec != nullptr &&
      rec->version != pending.base_version) {
    reply.status = ErrorCode::kConflict;
    ++stats_.writes_rejected;
    SendTo(pending.writer, MessageClass::kData, std::move(reply));
  } else {
    Result<uint64_t> applied =
        store_->Apply(pending.file, std::move(pending.data), pending.writer);
    if (!applied.ok()) {
      reply.status = applied.code();
      ++stats_.writes_rejected;
      SendTo(pending.writer, MessageClass::kData, std::move(reply));
    } else {
      if (oracle_ != nullptr) {
        oracle_->OnCommit(pending.file, *applied);
      }
      policy_->OnWrite(pending.file,
                       std::max<size_t>(pending.holders_at_start, 1), now);
      reply.status = ErrorCode::kOk;
      reply.version = *applied;
      ++stats_.writes_committed;
      if (via_expiry) {
        ++stats_.writes_expired_commit;
      }
      LEASES_DEBUG("server: commit file=%llu v=%llu writer=%u expiry=%d",
                   (unsigned long long)pending.file.value(),
                   (unsigned long long)*applied, pending.writer.value(),
                   via_expiry);
      Duration waited = now - pending.arrival;
      stats_.write_wait_total += waited;
      stats_.max_write_wait = std::max(stats_.max_write_wait, waited);
      RememberWriteReply(pending.writer, reply);
      SendTo(pending.writer, MessageClass::kData, std::move(reply));
    }
  }

  if (pending.installed && !KeyBlocked(pending.key)) {
    // Resume advertising once no write is waiting on the key; the next
    // multicast tick re-extends it for everyone.
    auto ik = installed_keys_.find(pending.key);
    if (ik != installed_keys_.end()) {
      ik->second.advertised = true;
    }
  }
  FinishWrite(pending.file);
}

void LeaseServer::FinishWrite(FileId file) {
  auto queue = write_queue_.find(file);
  if (queue == write_queue_.end() || queue->second.empty()) {
    write_queue_.erase(file);
    return;
  }
  QueuedWrite next = std::move(queue->second.front());
  queue->second.pop_front();
  if (queue->second.empty()) {
    write_queue_.erase(queue);
  }
  // This write already holds a BlockKey reference from AdmitWrite.
  ActivateWrite(std::move(next));
}

void LeaseServer::RejectWrite(NodeId from, const WriteRequest& m,
                              ErrorCode code) {
  ++stats_.writes_rejected;
  writes_in_flight_.erase({from.value(), m.req.value()});
  WriteReply reply;
  reply.req = m.req;
  reply.file = m.file;
  reply.status = code;
  SendTo(from, MessageClass::kData, std::move(reply));
}

void LeaseServer::DrainRecoveryQueue() {
  recovery_timer_ = TimerId();
  recovering_ = false;
  std::deque<QueuedWrite> held = std::move(recovery_queue_);
  recovery_queue_.clear();
  for (QueuedWrite& write : held) {
    AdmitWrite(std::move(write));
  }
}

// --- Relinquish ---

void LeaseServer::OnRelinquish(NodeId from, const Relinquish& m) {
  for (LeaseKey key : m.keys) {
    table_.Remove(key, from);
    ForgetLeaseRecord(key, from);
    ++stats_.relinquishes;
  }
}

void LeaseServer::ForgetLeaseRecord(LeaseKey key, NodeId node) {
  if (params_.persist_lease_records) {
    // A failed erase is conservative: recovery would honour a lease the
    // holder already gave up, which costs time but never correctness.
    (void)meta_->Erase(LeaseRecordKey(key, node));
    meta_->CountWrite();
  }
}

// --- Installed files ---

Status LeaseServer::InstallDirectory(FileId dir) {
  if (!params_.installed_optimization) {
    return Status(ErrorCode::kInvalidArgument,
                  "installed_optimization is disabled");
  }
  Status covered = store_->CoverDirectory(dir);
  if (!covered.ok()) {
    return covered;
  }
  LeaseKey key = store_->CoverOf(dir);
  installed_keys_[key] = InstalledKeyState{true, clock_->Now()};
  return Status::Ok();
}

bool LeaseServer::IsInstalledKey(LeaseKey key) const {
  return installed_keys_.find(key) != installed_keys_.end();
}

void LeaseServer::InstalledMulticastTick() {
  TimePoint now = clock_->Now();
  std::vector<LeaseKey> advertised;
  for (auto& [key, st] : installed_keys_) {
    if (st.advertised) {
      st.last_advert = now;
      advertised.push_back(key);
    }
  }
  if (!advertised.empty() && !clients_.empty()) {
    InstalledExtend msg;
    msg.term = params_.installed_term;
    msg.keys = std::move(advertised);
    std::vector<NodeId> targets(clients_.begin(), clients_.end());
    transport_->Multicast(targets, MessageClass::kConsistency,
                          Packet(std::move(msg)));
    ++stats_.installed_multicasts;
  }
  installed_timer_ = timers_->ScheduleAfter(
      params_.installed_multicast_period,
      [this]() { InstalledMulticastTick(); });
}

// --- Admission control ---

bool LeaseServer::AdmitGrantWork() {
  if (params_.grant_queue_limit == 0) {
    return true;
  }
  TimePoint now = clock_->Now();
  if (grant_drain_last_ == TimePoint()) {
    grant_drain_last_ = now;
  }
  // Leaky bucket: backlog drains continuously at grant_drain_rate, each
  // admitted request adds one unit. Shedding starts only once a full
  // queue's worth of un-drained work has accumulated.
  double drained = (now - grant_drain_last_).ToMicros() * 1e-6 *
                   params_.grant_drain_rate;
  grant_backlog_ -= drained;
  if (grant_backlog_ < 0.0) {
    grant_backlog_ = 0.0;
  }
  grant_drain_last_ = now;
  if (grant_backlog_ + 1.0 > static_cast<double>(params_.grant_queue_limit)) {
    ++stats_.grants_shed;
    return false;
  }
  grant_backlog_ += 1.0;
  uint64_t depth = static_cast<uint64_t>(grant_backlog_);
  if (depth > stats_.grant_backlog_peak) {
    stats_.grant_backlog_peak = depth;
  }
  return true;
}

// --- Plumbing ---

void LeaseServer::RegisterClient(NodeId client) { RememberClient(client); }

void LeaseServer::SetClientGroup(NodeId group, NodeId base, uint32_t count) {
  group_addr_ = group;
  group_base_ = base;
  group_count_ = count;
  if (count > 0) {
    RememberClient(group);
  }
}

void LeaseServer::RememberClient(NodeId from) {
  if (!from.valid() || from == id_) {
    return;
  }
  if (group_count_ > 0 && from.value() >= group_base_.value() &&
      from.value() - group_base_.value() < group_count_) {
    // A swarm member: it is already covered by the group address, and
    // inserting each of a million members here is exactly the per-client
    // state the installed-file design exists to avoid.
    return;
  }
  clients_.insert(from);
}

void LeaseServer::SendTo(NodeId to, MessageClass cls, Packet packet) {
  transport_->Send(to, cls, std::move(packet));
}

void LeaseServer::RememberWriteReply(NodeId to, const WriteReply& reply) {
  WriteDedupKey key{to.value(), reply.req.value()};
  if (write_dedup_.emplace(key, reply).second) {
    write_dedup_order_.push_back(key);
    while (write_dedup_order_.size() > params_.write_dedup_capacity) {
      write_dedup_.erase(write_dedup_order_.front());
      write_dedup_order_.pop_front();
    }
  }
}

const WriteReply* LeaseServer::FindWriteReply(NodeId from,
                                              RequestId req) const {
  auto it = write_dedup_.find({from.value(), req.value()});
  return it == write_dedup_.end() ? nullptr : &it->second;
}

size_t LeaseServer::ActiveLeaseCount(LeaseKey key) const {
  return table_.ActiveHolderCount(key, clock_->Now());
}

bool LeaseServer::HasPendingWrite(FileId file) const {
  return active_write_.find(file) != active_write_.end();
}

void LeaseServer::CollectWriteLocked(size_t cap, std::vector<uint64_t>* out,
                                     bool* overflow) const {
  for (const auto& [file, seq] : active_write_) {
    (void)seq;
    out->push_back(file.value());
  }
  for (const auto& [file, queue] : write_queue_) {
    if (!queue.empty() &&
        active_write_.find(file) == active_write_.end()) {
      out->push_back(file.value());
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  if (out->size() > cap) {
    out->resize(cap);
    *overflow = true;
  }
}

}  // namespace leases
