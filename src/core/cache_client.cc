#include "src/core/cache_client.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/path.h"
#include "src/core/backoff.h"
#include "src/fs/dir_codec.h"

namespace leases {

CacheClient::CacheClient(NodeId id, NodeId server, FileId root,
                         Transport* transport, Clock* clock, TimerHost* timers,
                         ClientParams params, Oracle* oracle,
                         uint64_t incarnation)
    : id_(id),
      server_(server),
      root_(root),
      transport_(transport),
      clock_(clock),
      timers_(timers),
      params_(params),
      oracle_(oracle),
      request_ids_(incarnation << 32) {
  MaybeScheduleAnticipation();
}

CacheClient::~CacheClient() {
  for (auto& [req, fetch] : fetches_) {
    if (fetch.timer.valid()) {
      timers_->CancelTimer(fetch.timer);
    }
  }
  for (auto& [req, write] : writes_) {
    if (write.timer.valid()) {
      timers_->CancelTimer(write.timer);
    }
  }
  if (anticipation_timer_.valid()) {
    timers_->CancelTimer(anticipation_timer_);
  }
}

// --- Packet dispatch ---

void CacheClient::HandleTyped(NodeId from, MessageClass /*cls*/,
                              const Packet& packet) {
  if (from != server_) {
    LEASES_WARN("client %u: packet from unexpected node %u", id_.value(),
                from.value());
    return;
  }
  if (const auto* read = std::get_if<ReadReply>(&packet)) {
    OnReadReply(*read);
    return;
  }
  if (const auto* extend = std::get_if<ExtendReply>(&packet)) {
    OnExtendReply(*extend);
    return;
  }
  if (const auto* write = std::get_if<WriteReply>(&packet)) {
    OnWriteReply(*write);
    return;
  }
  if (const auto* approve = std::get_if<ApproveRequest>(&packet)) {
    OnApproveRequest(*approve);
    return;
  }
  if (const auto* installed = std::get_if<InstalledExtend>(&packet)) {
    OnInstalledExtend(*installed);
    return;
  }
  if (std::get_if<Pong>(&packet) != nullptr) {
    return;  // keepalive; nothing to do
  }
  LEASES_WARN("client %u: unexpected %s", id_.value(),
              PacketName(packet).c_str());
}

// --- Reads ---

Oracle::ReadToken CacheClient::BeginRead(FileId file) {
  if (oracle_ != nullptr) {
    return oracle_->BeginRead(file, id_);
  }
  return Oracle::ReadToken{};
}

bool CacheClient::ReadCached(FileId file, ReadResult* result) {
  auto it = cache_.find(file);
  if (it == cache_.end()) {
    return false;
  }
  Entry& entry = it->second;
  // A temporary file is served without a lease. Anything else needs a valid
  // lease on a datum not suspect.
  const TimePoint now = clock_->Now();
  if (entry.file_class != FileClass::kTemporary &&
      (entry.suspect || !LeaseValid(entry.keys, now))) {
    return false;
  }
  Touch(entry, now);
  ++stats_.reads;
  ++stats_.local_reads;
  if (oracle_ != nullptr) {
    oracle_->EndRead(BeginRead(file), entry.version);
  }
  result->file = file;
  result->version = entry.version;
  result->from_cache = true;
  result->data = entry.data;
  return true;
}

void CacheClient::Read(FileId file, ReadCallback cb) {
  ReadResult hit;
  if (ReadCached(file, &hit)) {
    cb(std::move(hit));
    return;
  }
  ReadMiss(file, std::move(cb));
}

void CacheClient::ReadMiss(FileId file, ReadCallback cb) {
  ++stats_.reads;
  ReadWaiter waiter;
  waiter.file = file;
  waiter.cb = std::move(cb);
  if (oracle_ != nullptr) {
    waiter.token = BeginRead(file);
    waiter.has_token = true;
  }

  auto inflight = fetch_for_file_.find(file);
  if (inflight != fetch_for_file_.end()) {
    // A request covering this file is already on the wire; join it.
    fetches_[inflight->second].waiters.push_back(std::move(waiter));
    return;
  }
  if (HasCached(file)) {
    StartExtension(file, std::move(waiter));
  } else {
    StartFetch(file, std::move(waiter));
  }
}

void CacheClient::FinishRead(const ReadWaiter& waiter, const Entry& entry,
                             bool from_cache) {
  if (waiter.has_token && oracle_ != nullptr) {
    oracle_->EndRead(waiter.token, entry.version);
  }
  ReadResult result;
  result.file = waiter.file;
  result.version = entry.version;
  result.data = entry.data;
  result.from_cache = from_cache;
  waiter.cb(std::move(result));
}

void CacheClient::StartFetch(FileId file, ReadWaiter waiter) {
  RequestId req = request_ids_.Next();
  PendingFetch fetch;
  fetch.req = req;
  fetch.is_extend = false;
  fetch.file = file;
  fetch.have_version = 0;
  fetch.sent_at = clock_->Now();
  fetch.waiters.push_back(std::move(waiter));
  fetch_for_file_.emplace(file, req);
  ++stats_.remote_fetches;
  fetches_.emplace(req, std::move(fetch));
  SendToServer(MessageClass::kData, ReadRequest{req, file, 0, ClockStampUs()});
  ArmFetchTimer(req);
}

std::vector<ExtendItem> CacheClient::CollectExtensionItems(FileId focus) {
  std::vector<ExtendItem> items;
  if (!params_.batch_extensions) {
    auto it = cache_.find(focus);
    LEASES_CHECK(it != cache_.end());
    items.push_back(ExtendItem{focus, it->second.version});
    return items;
  }
  // "A cache should extend together all leases over all files that it still
  // holds" (Section 3.1). Skip temporaries (never leased) and files already
  // covered by an in-flight request.
  for (const auto& [file, entry] : cache_) {
    if (entry.file_class == FileClass::kTemporary) {
      continue;
    }
    if (file != focus && fetch_for_file_.count(file) > 0) {
      continue;
    }
    items.push_back(ExtendItem{file, entry.version});
  }
  // Deterministic order keeps simulations reproducible.
  std::sort(items.begin(), items.end(),
            [](const ExtendItem& a, const ExtendItem& b) {
              return a.file < b.file;
            });
  return items;
}

void CacheClient::StartExtension(FileId focus, ReadWaiter waiter) {
  RequestId req = request_ids_.Next();
  PendingFetch fetch;
  fetch.req = req;
  fetch.is_extend = true;
  fetch.sent_at = clock_->Now();
  fetch.items = CollectExtensionItems(focus);
  if (waiter.cb) {
    fetch.waiters.push_back(std::move(waiter));
  }
  for (const ExtendItem& item : fetch.items) {
    fetch_for_file_.emplace(item.file, req);
  }
  ++stats_.extend_requests;
  stats_.extend_items += fetch.items.size();
  ExtendRequest request{req, fetch.items, ClockStampUs()};
  fetches_.emplace(req, std::move(fetch));
  SendToServer(MessageClass::kConsistency, std::move(request));
  ArmFetchTimer(req);
}

void CacheClient::ArmFetchTimer(RequestId req) {
  auto it = fetches_.find(req);
  LEASES_CHECK(it != fetches_.end());
  it->second.timer = timers_->ScheduleAfter(
      ResendDelay(it->second.retries, req.value()),
      [this, req]() { ResendFetch(req); });
}

void CacheClient::ResendFetch(RequestId req) {
  auto it = fetches_.find(req);
  if (it == fetches_.end()) {
    return;
  }
  PendingFetch& fetch = it->second;
  fetch.timer = TimerId();
  if (fetch.retries >= params_.max_retries) {
    ++stats_.timeouts;
    PendingFetch failed = std::move(fetch);
    fetches_.erase(it);
    FailFetch(failed, ErrorCode::kTimeout);
    return;
  }
  ++fetch.retries;
  ++stats_.retransmits;
  if (fetch.is_extend) {
    SendToServer(MessageClass::kConsistency,
                 ExtendRequest{req, fetch.items, ClockStampUs()});
  } else {
    SendToServer(MessageClass::kData,
                 ReadRequest{req, fetch.file, fetch.have_version,
                             ClockStampUs()});
  }
  ArmFetchTimer(req);
}

void CacheClient::FailFetch(PendingFetch& fetch, ErrorCode code) {
  if (fetch.timer.valid()) {
    timers_->CancelTimer(fetch.timer);
  }
  ClearFetchMarks(fetch);
  for (ReadWaiter& waiter : fetch.waiters) {
    waiter.cb(Error{code, "read failed"});
  }
}

void CacheClient::ClearFetchMarks(const PendingFetch& fetch) {
  auto clear = [this, &fetch](FileId file) {
    auto mark = fetch_for_file_.find(file);
    if (mark != fetch_for_file_.end() && mark->second == fetch.req) {
      fetch_for_file_.erase(mark);
    }
  };
  if (!fetch.is_extend) {
    clear(fetch.file);
    return;
  }
  for (const ExtendItem& item : fetch.items) {
    clear(item.file);
  }
}

void CacheClient::OnReadReply(const ReadReply& m) {
  auto it = fetches_.find(m.req);
  if (it == fetches_.end() || it->second.is_extend) {
    return;  // duplicate or late reply
  }
  if (m.status == ErrorCode::kUnavailable &&
      it->second.retries < params_.max_retries) {
    // The grant-plane admission control shed this read. Retry the same
    // request id after a jittered exponential backoff, exactly like the
    // recovering-server write path in OnWriteReply.
    PendingFetch& fetch = it->second;
    if (fetch.timer.valid()) {
      timers_->CancelTimer(fetch.timer);
    }
    ++stats_.unavailable_retries;
    fetch.timer = timers_->ScheduleAfter(
        UnavailableBackoff(fetch.retries, m.req.value()),
        [this, req = m.req]() { ResendFetch(req); });
    return;
  }
  PendingFetch fetch = std::move(it->second);
  fetches_.erase(it);
  if (fetch.timer.valid()) {
    timers_->CancelTimer(fetch.timer);
  }
  fetch_for_file_.erase(m.file);

  if (m.status != ErrorCode::kOk) {
    EraseEntry(m.file);
    for (ReadWaiter& waiter : fetch.waiters) {
      waiter.cb(Error{m.status, "read rejected by server"});
    }
    return;
  }
  bool poisoned = std::find(fetch.poisoned_keys.begin(),
                            fetch.poisoned_keys.end(),
                            m.lease.key) != fetch.poisoned_keys.end();
  Entry& entry = EntryFor(m.file);
  // Replies apply monotonically: a delayed or replayed reply must never
  // regress the entry past data a newer reply already installed.
  if (m.version >= entry.version) {
    if (!m.not_modified) {
      entry.data = m.data;
    }
    entry.version = m.version;
    entry.file_class = m.file_class;
    SetKey(entry, m.lease.key);
    entry.suspect = false;  // this reply revalidated the datum
  }
  Touch(entry, clock_->Now());
  if (poisoned) {
    // We relinquished this cover key while the fetch was on the wire: the
    // grant may predate the relinquish on the server, so it cannot be
    // trusted. Serve the fetched data once, then revalidate.
    entry.suspect = true;
    ++stats_.poisoned_grants;
  } else {
    AcceptLease(m.lease, m.file, fetch.sent_at);
  }
  MaybeEvict(m.file);
  LEASES_DEBUG("client %u: readreply file=%llu v=%llu term=%s", id_.value(),
               (unsigned long long)m.file.value(),
               (unsigned long long)m.version, m.lease.term.ToString().c_str());
  for (ReadWaiter& waiter : fetch.waiters) {
    FinishRead(waiter, entry, /*from_cache=*/false);
  }
}

void CacheClient::OnExtendReply(const ExtendReply& m) {
  auto it = fetches_.find(m.req);
  if (it == fetches_.end() || !it->second.is_extend) {
    return;
  }
  bool all_unavailable = !m.items.empty();
  for (const ExtendReplyItem& item : m.items) {
    all_unavailable &= item.status == ErrorCode::kUnavailable;
  }
  if (all_unavailable && it->second.retries < params_.max_retries) {
    // A shed extension: the server rejected the whole batch under
    // admission control without touching lease state. Back off and retry
    // rather than erasing cached entries that are merely un-extended.
    PendingFetch& fetch = it->second;
    if (fetch.timer.valid()) {
      timers_->CancelTimer(fetch.timer);
    }
    ++stats_.unavailable_retries;
    fetch.timer = timers_->ScheduleAfter(
        UnavailableBackoff(fetch.retries, m.req.value()),
        [this, req = m.req]() { ResendFetch(req); });
    return;
  }
  PendingFetch fetch = std::move(it->second);
  fetches_.erase(it);
  if (fetch.timer.valid()) {
    timers_->CancelTimer(fetch.timer);
  }
  ClearFetchMarks(fetch);

  std::unordered_map<FileId, const ExtendReplyItem*> by_file;
  for (const ExtendReplyItem& item : m.items) {
    by_file[item.file] = &item;
    if (item.status != ErrorCode::kOk) {
      EraseEntry(item.file);
      continue;
    }
    bool poisoned = std::find(fetch.poisoned_keys.begin(),
                              fetch.poisoned_keys.end(),
                              item.lease.key) != fetch.poisoned_keys.end();
    Entry& entry = EntryFor(item.file);
    if (item.version >= entry.version) {
      if (item.refreshed) {
        entry.data = item.data;
        ++stats_.refreshed_items;
      }
      entry.version = item.version;
      entry.file_class = item.file_class;
      SetKey(entry, item.lease.key);
      entry.suspect = false;
    }
    if (poisoned) {
      // Same overtaken-grant hazard as in OnReadReply.
      entry.suspect = true;
      ++stats_.poisoned_grants;
      continue;
    }
    AcceptLease(item.lease, item.file, fetch.sent_at);
    LEASES_DEBUG("client %u: extendreply file=%llu v=%llu term=%s",
                 id_.value(), (unsigned long long)item.file.value(),
                 (unsigned long long)item.version,
                 item.lease.term.ToString().c_str());
  }

  for (ReadWaiter& waiter : fetch.waiters) {
    auto found = by_file.find(waiter.file);
    if (found == by_file.end()) {
      waiter.cb(Error{ErrorCode::kCorrupt, "file missing from extend reply"});
      continue;
    }
    const ExtendReplyItem& item = *found->second;
    if (item.status != ErrorCode::kOk) {
      waiter.cb(Error{item.status, "extension rejected"});
      continue;
    }
    Entry& entry = EntryFor(waiter.file);
    Touch(entry, clock_->Now());
    FinishRead(waiter, entry, /*from_cache=*/false);
  }
}

// --- Writes ---

void CacheClient::Write(FileId file, std::vector<uint8_t> data,
                        WriteCallback cb) {
  ++stats_.writes;
  auto it = cache_.find(file);
  if (it != cache_.end() &&
      it->second.file_class == FileClass::kTemporary) {
    // Temporary files never go through to the server (Section 2: special
    // handling for temporary files eliminates most write-through cost).
    Entry& entry = it->second;
    entry.data = std::move(data);
    entry.version++;
    Touch(entry, clock_->Now());
    ++stats_.temp_local_writes;
    WriteResult result;
    result.file = file;
    result.version = entry.version;
    cb(std::move(result));
    return;
  }
  SendWrite(file, std::move(data), std::move(cb));
}

void CacheClient::SendWrite(FileId file, SharedBytes data, WriteCallback cb) {
  RequestId req = request_ids_.Next();
  PendingWriteOp op;
  op.req = req;
  op.file = file;
  op.data = data;
  op.cb = std::move(cb);
  writes_.emplace(req, std::move(op));
  // A blind write (base_version 0): the write-through order is the
  // server's.
  SendToServer(MessageClass::kData,
               WriteRequest{req, file, 0, std::move(data)});
  ArmWriteTimer(req);
}

void CacheClient::ArmWriteTimer(RequestId req) {
  auto it = writes_.find(req);
  LEASES_CHECK(it != writes_.end());
  it->second.timer = timers_->ScheduleAfter(
      ResendDelay(it->second.retries, req.value()),
      [this, req]() { ResendWrite(req); });
}

void CacheClient::ResendWrite(RequestId req) {
  auto it = writes_.find(req);
  if (it == writes_.end()) {
    return;
  }
  PendingWriteOp& op = it->second;
  op.timer = TimerId();
  if (op.retries >= params_.max_retries) {
    ++stats_.timeouts;
    ++stats_.writes_failed;
    WriteCallback cb = std::move(op.cb);
    writes_.erase(it);
    cb(Error{ErrorCode::kTimeout, "write timed out"});
    return;
  }
  ++op.retries;
  ++stats_.retransmits;
  // Same request id: the server's dedup cache makes the retry idempotent.
  SendToServer(MessageClass::kData, WriteRequest{req, op.file, 0, op.data});
  ArmWriteTimer(req);
}

Duration CacheClient::UnavailableBackoff(int retries, uint64_t salt) const {
  // +/-25% jitter from a splitmix-style hash of (request id, attempt): no
  // RNG stream is consumed, so simulations stay bit-reproducible, yet
  // concurrent clients (distinct request ids) decorrelate.
  return JitteredBackoff(params_.unavailable_backoff_base,
                         params_.unavailable_backoff_max, retries, salt);
}

Duration CacheClient::ResendDelay(int retries, uint64_t salt) const {
  // Resend pacing for silent losses (dead server, failover window): the
  // same deterministic jitter machinery with its cap at request_timeout,
  // so the wait stays flat. A fleet probing a restarting server therefore
  // spreads its resends instead of re-synchronizing every timeout.
  return JitteredBackoff(params_.request_timeout, params_.request_timeout,
                         retries, salt);
}

void CacheClient::OnWriteReply(const WriteReply& m) {
  auto it = writes_.find(m.req);
  if (it == writes_.end()) {
    return;
  }
  if (m.status == ErrorCode::kUnavailable &&
      it->second.retries < params_.max_retries) {
    // Graceful degradation: the server is recovering from a crash and shed
    // this write. Retry the same request id after a jittered exponential
    // backoff instead of hammering it every request_timeout (ResendWrite
    // re-checks the retry budget and re-arms the normal timeout).
    PendingWriteOp& op = it->second;
    if (op.timer.valid()) {
      timers_->CancelTimer(op.timer);
    }
    ++stats_.unavailable_retries;
    op.timer = timers_->ScheduleAfter(
        UnavailableBackoff(op.retries, m.req.value()),
        [this, req = m.req]() { ResendWrite(req); });
    return;
  }
  PendingWriteOp op = std::move(it->second);
  writes_.erase(it);
  if (op.timer.valid()) {
    timers_->CancelTimer(op.timer);
  }

  if (m.status != ErrorCode::kOk) {
    ++stats_.writes_failed;
    if (m.status == ErrorCode::kConflict) {
      EraseEntry(m.file);  // our base data was stale
    }
    op.cb(Error{m.status, "write rejected"});
  } else {
    // The written-through data is the newest committed copy; keep it cached.
    // (The writer retains whatever lease it held; if it held none, the next
    // read will extend.) A delayed ack for an older write must not regress
    // an entry a newer reply has already advanced.
    Entry& entry = EntryFor(m.file);
    if (m.version >= entry.version) {
      entry.data = std::move(op.data);
      entry.version = m.version;
    }
    Touch(entry, clock_->Now());
    MaybeEvict(m.file);
    if (oracle_ != nullptr) {
      // The write is now acknowledged: it becomes the floor every later
      // read must meet.
      oracle_->OnAcked(m.file, m.version);
    }
    LEASES_DEBUG("client %u: writereply file=%llu v=%llu", id_.value(),
                 (unsigned long long)m.file.value(),
                 (unsigned long long)m.version);
    WriteResult result;
    result.file = m.file;
    result.version = m.version;
    op.cb(std::move(result));
  }
}

// --- Server-initiated traffic ---

void CacheClient::OnApproveRequest(const ApproveRequest& m) {
  if (params_.approval_delay <= Duration::Zero()) {
    SendApproval(m.write_seq, m.file, m.key);
    return;
  }
  // Deliberately deferred approval (Section 4 client option). Duplicate
  // callbacks during the hold are ignored; the server's deadline still
  // bounds the writer's wait.
  if (!deferred_approvals_.insert(m.write_seq).second) {
    return;
  }
  timers_->ScheduleAfter(
      params_.approval_delay,
      [this, seq = m.write_seq, file = m.file, key = m.key]() {
        deferred_approvals_.erase(seq);
        SendApproval(seq, file, key);
      });
}

void CacheClient::SendApproval(uint64_t seq, FileId file, LeaseKey key) {
  LEASES_DEBUG("client %u: approve seq=%llu file=%llu", id_.value(),
               (unsigned long long)seq, (unsigned long long)file.value());
  // Granting approval invalidates the local copy (Section 2).
  if (EraseEntry(file)) {
    ++stats_.invalidations;
  }
  auto keys = keys_.find(key);
  const bool key_still_used = keys != keys_.end() && keys->second.entries > 0;
  if (!key_still_used) {
    if (keys != keys_.end()) {  // a state with no entries holds a lease
      keys_.erase(keys);
      ++stats_.keys_relinquished;
    }
    // The server will drop us as a holder of `key` when this approval
    // lands. Any reply already on the wire may carry a grant of the same
    // key issued before that, which would resurrect a lease the server no
    // longer tracks -- poison in-flight fetches against it.
    for (auto& [req, fetch] : fetches_) {
      fetch.poisoned_keys.push_back(key);
    }
  }
  ++stats_.approvals_granted;
  SendToServer(MessageClass::kConsistency,
               ApproveReply{seq, file, !key_still_used});
}

void CacheClient::OnInstalledExtend(const InstalledExtend& m) {
  for (LeaseKey key : m.keys) {
    if (keys_.count(key) > 0) {  // leased, or cached entries use it
      AcceptLease(LeaseGrant{key, m.term});
      ++stats_.installed_renewals;
    }
  }
}

// --- Leases ---

void CacheClient::AcceptLease(const LeaseGrant& grant, FileId validated,
                              TimePoint anchor) {
  if (!grant.key.valid()) {
    return;
  }
  auto found = keys_.find(grant.key);
  KeyState* keys = found == keys_.end() ? nullptr : &found->second;
  if (!LeaseValid(keys, clock_->Now())) {
    // The lease lapsed before this renewal: a write may have committed in
    // the gap (for installed keys, that is precisely how writes are
    // ordered). Every other datum under the key must revalidate before it
    // may be served again. The scan runs only when there is one.
    size_t others = keys == nullptr ? 0 : keys->entries;
    auto v = cache_.find(validated);
    if (v != cache_.end() && v->second.key == grant.key) {
      --others;
    }
    if (others > 0) {
      for (auto& [file, entry] : cache_) {
        if (entry.key == grant.key && file != validated) {
          entry.suspect = true;
        }
      }
    }
  }
  TimePoint candidate;
  if (grant.term.IsInfinite()) {
    candidate = TimePoint::Max();
  } else {
    // Client-side shortening (Section 3.1): the term started counting when
    // the server granted it, up to transit_allowance ago, and our clock may
    // disagree by up to epsilon over the term.
    Duration tc = grant.term - params_.transit_allowance - params_.epsilon;
    if (tc <= Duration::Zero()) {
      return;  // grants never shorten an existing lease
    }
    candidate = clock_->Now() + tc;
    // A reply the network delayed past transit_allowance (reorder jitter, a
    // duplicate surfacing late) would otherwise date the term from receipt
    // and overshoot the server's expiry -- a stale-read window. The term
    // cannot have started before the request left, so the first-send anchor
    // caps the expiry; when the round trip stayed within the allowance the
    // cap is slack and behaviour is unchanged.
    if (anchor != TimePoint::Max()) {
      candidate = std::min(candidate, anchor + grant.term - params_.epsilon);
    }
  }
  // An empty expiry means "no lease": never default it to the epoch, which
  // would read as far-future on a clock with negative readings.
  if (keys == nullptr) {
    keys = &keys_[grant.key];
  }
  keys->expiry = keys->expiry ? std::max(*keys->expiry, candidate) : candidate;
}

size_t CacheClient::lease_count() const {
  return static_cast<size_t>(std::count_if(
      keys_.begin(), keys_.end(),
      [](const auto& key) { return key.second.expiry.has_value(); }));
}

uint64_t CacheClient::ClockStampUs() const {
  return static_cast<uint64_t>(clock_->Now().ToMicros());
}

void CacheClient::MaybeScheduleAnticipation() {
  if (!params_.anticipatory_extension || anticipation_timer_.valid()) {
    return;
  }
  Duration period = params_.anticipation_lead / 2;
  if (period < Duration::Millis(100)) {
    period = Duration::Millis(100);
  }
  if (params_.extension_jitter > Duration::Zero()) {
    // De-synchronize extension timers across the fleet: offset each tick
    // by a deterministic hash of (client id, tick counter). Clients booted
    // in lockstep would otherwise extend in lockstep forever.
    period += SymmetricJitter(params_.extension_jitter,
                              0x736a6974746572ULL ^ id_.value(),
                              ++anticipation_seq_);
    if (period < Duration::Millis(50)) {
      period = Duration::Millis(50);
    }
  }
  anticipation_timer_ =
      timers_->ScheduleAfter(period, [this]() { AnticipationTick(); });
}

void CacheClient::AnticipationTick() {
  anticipation_timer_ = TimerId();
  TimePoint horizon = clock_->Now() + params_.anticipation_lead;
  FileId focus;
  for (const auto& [file, entry] : cache_) {
    if (entry.file_class == FileClass::kTemporary) {
      continue;
    }
    if (fetch_for_file_.count(file) > 0) {
      continue;
    }
    if (!LeaseValid(entry.keys, horizon)) {
      focus = file;
      break;
    }
  }
  if (focus.valid()) {
    // Renew ahead of need; reads then never stall on an extension, at the
    // cost of extension traffic even while idle (Section 4's trade-off).
    StartExtension(focus, ReadWaiter{});
  }
  MaybeScheduleAnticipation();
}

void CacheClient::MaybeEvict(FileId keep) {
  if (params_.max_cached_files == 0 ||
      cache_.size() <= params_.max_cached_files) {
    return;
  }
  // Victim: the least recently touched entry other than `keep`.
  Entry* victim = lru_head_;
  if (victim->file == keep) {
    victim = victim->lru_next;
  }
  LeaseKey key = victim->key;
  EraseEntry(victim->file);
  ++stats_.evictions;
  RelinquishKeyIfUnused(key);
}

void CacheClient::RelinquishKeyIfUnused(LeaseKey key) {
  // A state with no entries holds a lease.
  auto it = keys_.find(key);
  if (it == keys_.end() || it->second.entries > 0) {
    return;
  }
  keys_.erase(it);
  ++stats_.keys_relinquished;
  SendToServer(MessageClass::kConsistency, Relinquish{{key}});
}

void CacheClient::RelinquishIdle(Duration idle) {
  const TimePoint now = clock_->Now();
  const TimePoint cutoff = now - idle;
  std::unordered_map<LeaseKey, bool> key_idle;
  for (const auto& [file, entry] : cache_) {
    bool entry_idle = entry.last_access <= cutoff;
    auto [it, inserted] = key_idle.emplace(entry.key, entry_idle);
    if (!inserted) {
      it->second = it->second && entry_idle;
    }
  }
  Relinquish msg;
  for (const auto& [key, is_idle] : key_idle) {
    auto keys = keys_.find(key);
    if (is_idle && keys != keys_.end() && LeaseValid(&keys->second, now)) {
      msg.keys.push_back(key);
      keys->second.expiry.reset();  // its entries keep the state
      ++stats_.keys_relinquished;
    }
  }
  if (!msg.keys.empty()) {
    std::sort(msg.keys.begin(), msg.keys.end());
    SendToServer(MessageClass::kConsistency, std::move(msg));
  }
}

void CacheClient::DropCache() {
  cache_.clear();
  lru_head_ = nullptr;
  lru_tail_ = nullptr;
  keys_.clear();
}

// --- Cache entries ---

CacheClient::Entry& CacheClient::EntryFor(FileId file) {
  auto [it, inserted] = cache_.try_emplace(file);
  Entry& entry = it->second;
  if (inserted) {
    entry.file = file;
    entry.lru_next = lru_head_;
    if (lru_head_ != nullptr) {
      lru_head_->lru_prev = &entry;
    } else {
      lru_tail_ = &entry;
    }
    lru_head_ = &entry;
  }
  return entry;
}

void CacheClient::Touch(Entry& entry, TimePoint now) {
  entry.last_access = now;
  if (lru_tail_ == &entry) {
    return;
  }
  LruUnlink(entry);
  entry.lru_prev = lru_tail_;
  if (lru_tail_ != nullptr) {
    lru_tail_->lru_next = &entry;
  } else {
    lru_head_ = &entry;
  }
  lru_tail_ = &entry;
}

void CacheClient::LruUnlink(Entry& entry) {
  if (entry.lru_prev != nullptr) {
    entry.lru_prev->lru_next = entry.lru_next;
  } else {
    lru_head_ = entry.lru_next;
  }
  if (entry.lru_next != nullptr) {
    entry.lru_next->lru_prev = entry.lru_prev;
  } else {
    lru_tail_ = entry.lru_prev;
  }
  entry.lru_prev = nullptr;
  entry.lru_next = nullptr;
}

void CacheClient::SetKey(Entry& entry, LeaseKey key) {
  if (entry.key == key) {
    return;
  }
  ReleaseKey(entry);
  entry.key = key;
  if (key.valid()) {
    entry.keys = &keys_[key];
    ++entry.keys->entries;
  }
}

void CacheClient::ReleaseKey(Entry& entry) {
  KeyState* keys = std::exchange(entry.keys, nullptr);
  if (keys != nullptr && --keys->entries == 0 && !keys->expiry) {
    keys_.erase(entry.key);
  }
}

bool CacheClient::EraseEntry(FileId file) {
  auto it = cache_.find(file);
  if (it == cache_.end()) {
    return false;
  }
  LruUnlink(it->second);
  ReleaseKey(it->second);
  cache_.erase(it);
  return true;
}

// --- Open ---

void CacheClient::Open(const std::string& path, OpenCallback cb) {
  ++stats_.opens;
  auto parts = SplitAbsPath(path);
  if (!parts.has_value()) {
    cb(Error{ErrorCode::kInvalidArgument, "bad path: " + path});
    return;
  }
  auto state = std::make_shared<OpenState>();
  state->parts = std::move(*parts);
  state->current = root_;
  state->cb = std::move(cb);
  StepOpen(std::move(state));
}

void CacheClient::StepOpen(std::shared_ptr<OpenState> state) {
  if (state->index == state->parts.size()) {
    OpenResult result;
    result.file = state->current;
    if (state->index == 0) {
      result.file_class = FileClass::kDirectory;
      result.mode = kModeRead | kModeWrite;
    } else {
      result.file_class = state->last_class;
      result.mode = state->last_mode;
    }
    state->cb(std::move(result));
    return;
  }
  // Each path component is a read of the directory datum -- cached and
  // leased, so repeated opens cost no messages while the lease is valid.
  Read(state->current, [this, state](Result<ReadResult> r) mutable {
    if (!r.ok()) {
      state->cb(r.error());
      return;
    }
    // The walk covers the whole datum: a bad byte after the wanted name
    // still makes the datum corrupt.
    const std::string& name = state->parts[state->index];
    DirWalker walk(r->data);
    std::optional<DirEntryView> entry = walk.Find(name);
    if (!walk.ok()) {
      state->cb(Error{ErrorCode::kCorrupt, "malformed directory datum"});
      return;
    }
    if (!entry.has_value()) {
      state->cb(Error{ErrorCode::kNotFound, "no such name: " + name});
      return;
    }
    state->current = entry->file;
    state->last_class = entry->file_class;
    state->last_mode = entry->mode;
    state->index++;
    StepOpen(std::move(state));
  });
}

// --- Introspection ---

bool CacheClient::HasCached(FileId file) const {
  return cache_.find(file) != cache_.end();
}

bool CacheClient::HasValidLease(FileId file) const {
  auto it = cache_.find(file);
  return it != cache_.end() && LeaseValid(it->second.keys, clock_->Now());
}

void CacheClient::SendToServer(MessageClass cls, Packet packet) {
  transport_->Send(server_, cls, std::move(packet));
}

}  // namespace leases
