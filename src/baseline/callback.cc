#include "src/baseline/callback.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace leases {

// --- BaselineServer ---

BaselineServer::BaselineServer(NodeId id, BaselineMode mode, FileStore* store,
                               Transport* transport, Oracle* oracle)
    : id_(id),
      mode_(mode),
      store_(store),
      transport_(transport),
      oracle_(oracle) {}

void BaselineServer::HandleTyped(NodeId from, MessageClass /*cls*/,
                                 const Packet& packet) {
  if (const auto* read = std::get_if<ReadRequest>(&packet)) {
    OnReadRequest(from, *read);
    return;
  }
  if (const auto* validate = std::get_if<ExtendRequest>(&packet)) {
    OnExtendRequest(from, *validate);
    return;
  }
  if (const auto* write = std::get_if<WriteRequest>(&packet)) {
    OnWriteRequest(from, *write);
    return;
  }
  // An ApproveReply is a break acknowledgement; nothing to track.
}

void BaselineServer::OnReadRequest(NodeId from, const ReadRequest& m) {
  ReadReply reply;
  reply.req = m.req;
  reply.file = m.file;
  const FileRecord* rec = store_->Find(m.file);
  if (rec == nullptr) {
    reply.status = ErrorCode::kNotFound;
  } else {
    reply.version = rec->version;
    reply.file_class = rec->file_class;
    if (m.have_version != 0 && m.have_version == rec->version) {
      reply.not_modified = true;
    } else {
      reply.data = rec->data;
    }
    if (mode_ == BaselineMode::kCallbacks) {
      callbacks_[m.file].insert(from);
    }
  }
  ++stats_.reads_served;
  transport_->Send(from, MessageClass::kData, std::move(reply));
}

void BaselineServer::OnExtendRequest(NodeId from, const ExtendRequest& m) {
  // Validation poll: version check per item, fresh data when stale. In
  // callback mode a validation also re-establishes the callback promise.
  ++stats_.validations;
  ExtendReply reply;
  reply.req = m.req;
  for (const ExtendItem& item : m.items) {
    ExtendReplyItem out;
    out.file = item.file;
    const FileRecord* rec = store_->Find(item.file);
    if (rec == nullptr) {
      out.status = ErrorCode::kNotFound;
    } else {
      out.version = rec->version;
      out.file_class = rec->file_class;
      if (rec->version != item.version) {
        out.refreshed = true;
        out.data = rec->data;
      }
      if (mode_ == BaselineMode::kCallbacks) {
        callbacks_[item.file].insert(from);
      }
    }
    reply.items.push_back(std::move(out));
  }
  transport_->Send(from, MessageClass::kConsistency, std::move(reply));
}

void BaselineServer::OnWriteRequest(NodeId from, const WriteRequest& m) {
  WriteReply reply;
  reply.req = m.req;
  reply.file = m.file;
  Result<uint64_t> applied = store_->Apply(m.file, m.data, from);
  if (!applied.ok()) {
    reply.status = applied.code();
    transport_->Send(from, MessageClass::kData, std::move(reply));
    return;
  }
  reply.version = *applied;
  ++stats_.writes_committed;
  if (oracle_ != nullptr) {
    oracle_->OnCommit(m.file, *applied);
  }
  // The write proceeds regardless of whether the breaks arrive -- this is
  // the Andrew behaviour the paper contrasts with leases: an unreachable
  // client is simply left with stale data until its next poll.
  if (mode_ == BaselineMode::kCallbacks) {
    auto holders = callbacks_.find(m.file);
    if (holders != callbacks_.end()) {
      ApproveRequest break_msg{++next_break_seq_, m.file, LeaseKey()};
      for (NodeId holder : holders->second) {
        if (holder == from) {
          continue;
        }
        transport_->Send(holder, MessageClass::kConsistency, break_msg);
        ++stats_.breaks_sent;
      }
      callbacks_.erase(holders);
      callbacks_[m.file].insert(from);
    }
  }
  transport_->Send(from, MessageClass::kData, std::move(reply));
}

// --- BaselineClient ---

BaselineClient::BaselineClient(NodeId id, NodeId server, Transport* transport,
                               Clock* clock, TimerHost* timers, Oracle* oracle)
    : id_(id),
      server_(server),
      transport_(transport),
      clock_(clock),
      timers_(timers),
      oracle_(oracle) {}

BaselineClient::~BaselineClient() {
  for (auto& [req, op] : pending_) {
    if (op.timer.valid()) {
      timers_->CancelTimer(op.timer);
    }
  }
}

void BaselineClient::HandleTyped(NodeId from, MessageClass /*cls*/,
                                 const Packet& packet) {
  if (from != server_) {
    return;
  }
  if (const auto* read = std::get_if<ReadReply>(&packet)) {
    OnReadReply(*read);
    return;
  }
  if (const auto* write = std::get_if<WriteReply>(&packet)) {
    OnWriteReply(*write);
    return;
  }
  if (const auto* brk = std::get_if<ApproveRequest>(&packet)) {
    ++stats_.breaks_received;
    OnBreak(brk->file);
    transport_->Send(server_, MessageClass::kConsistency,
                     ApproveReply{brk->write_seq, brk->file, false});
    return;
  }
  if (const auto* validate = std::get_if<ExtendReply>(&packet)) {
    // Poll replies are routed through the ReadReply path per item by the
    // subclasses that send them; a bare reply only refreshes the cache.
    for (const ExtendReplyItem& item : validate->items) {
      if (item.status != ErrorCode::kOk) {
        cache_.erase(item.file);
        continue;
      }
      Entry& entry = cache_[item.file];
      if (item.refreshed) {
        entry.data = item.data;
        ++stats_.refreshed;
      }
      entry.version = item.version;
      OnEntryFresh(entry);
    }
    return;
  }
}

void BaselineClient::OnBreak(FileId file) { cache_.erase(file); }

void BaselineClient::ServeLocal(FileId file, const Entry& entry,
                                ReadCallback& cb) {
  ++stats_.local_reads;
  if (oracle_ != nullptr) {
    Oracle::ReadToken token = oracle_->BeginRead(file, id_);
    oracle_->EndRead(token, entry.version);
  }
  ReadResult result;
  result.file = file;
  result.version = entry.version;
  result.data = entry.data;
  result.from_cache = true;
  cb(std::move(result));
}

void BaselineClient::Read(FileId file, ReadCallback cb) {
  ++stats_.reads;
  auto it = cache_.find(file);
  if (it != cache_.end() && CanServe(it->second)) {
    ServeLocal(file, it->second, cb);
    return;
  }
  if (it != cache_.end()) {
    Validate(file, std::move(cb));
  } else {
    Fetch(file, 0, std::move(cb));
  }
}

void BaselineClient::Fetch(FileId file, uint64_t have_version,
                           ReadCallback cb) {
  ++stats_.fetches;
  PendingOp op;
  op.req = request_ids_.Next();
  op.file = file;
  op.have_version = have_version;
  op.read_cb = std::move(cb);
  if (oracle_ != nullptr) {
    op.token = oracle_->BeginRead(file, id_);
    op.has_token = true;
  }
  SendOp(std::move(op));
}

void BaselineClient::Validate(FileId file, ReadCallback cb) {
  ++stats_.validations;
  auto it = cache_.find(file);
  LEASES_CHECK(it != cache_.end());
  PendingOp op;
  op.req = request_ids_.Next();
  op.file = file;
  op.is_validate = true;
  op.have_version = it->second.version;
  op.read_cb = std::move(cb);
  if (oracle_ != nullptr) {
    op.token = oracle_->BeginRead(file, id_);
    op.has_token = true;
  }
  SendOp(std::move(op));
}

void BaselineClient::Write(FileId file, std::vector<uint8_t> data,
                           WriteCallback cb) {
  ++stats_.writes;
  PendingOp op;
  op.req = request_ids_.Next();
  op.file = file;
  op.is_write = true;
  op.data = std::move(data);
  op.write_cb = std::move(cb);
  SendOp(std::move(op));
}

void BaselineClient::SendOp(PendingOp op) {
  RequestId req = op.req;
  if (op.is_write) {
    transport_->Send(server_, MessageClass::kData,
                     WriteRequest{req, op.file, 0, op.data});
  } else {
    // Validations are consistency traffic; cold fetches are data traffic.
    transport_->Send(server_,
                     op.is_validate ? MessageClass::kConsistency
                                    : MessageClass::kData,
                     ReadRequest{req, op.file, op.have_version});
  }
  auto [it, inserted] = pending_.emplace(req, std::move(op));
  LEASES_CHECK(inserted);
  it->second.timer = timers_->ScheduleAfter(
      Duration::Seconds(2), [this, req]() { ResendOp(req); });
}

void BaselineClient::ResendOp(RequestId req) {
  auto it = pending_.find(req);
  if (it == pending_.end()) {
    return;
  }
  PendingOp& op = it->second;
  op.timer = TimerId();
  if (op.retries >= 8) {
    PendingOp failed = std::move(op);
    pending_.erase(it);
    ++stats_.failures;
    if (failed.is_write) {
      failed.write_cb(Error{ErrorCode::kTimeout, "write timed out"});
    } else {
      failed.read_cb(Error{ErrorCode::kTimeout, "read timed out"});
    }
    return;
  }
  ++op.retries;
  // Re-send with the same request id.
  if (op.is_write) {
    transport_->Send(server_, MessageClass::kData,
                     WriteRequest{req, op.file, 0, op.data});
  } else {
    transport_->Send(server_,
                     op.is_validate ? MessageClass::kConsistency
                                    : MessageClass::kData,
                     ReadRequest{req, op.file, op.have_version});
  }
  op.timer = timers_->ScheduleAfter(Duration::Seconds(2),
                                    [this, req]() { ResendOp(req); });
}

void BaselineClient::OnReadReply(const ReadReply& m) {
  auto it = pending_.find(m.req);
  if (it == pending_.end() || it->second.is_write) {
    return;
  }
  PendingOp op = std::move(it->second);
  pending_.erase(it);
  if (op.timer.valid()) {
    timers_->CancelTimer(op.timer);
  }
  if (m.status != ErrorCode::kOk) {
    cache_.erase(m.file);
    op.read_cb(Error{m.status, "read rejected"});
    return;
  }
  Entry& entry = cache_[m.file];
  if (!m.not_modified) {
    entry.data = m.data;
    if (op.is_validate) {
      ++stats_.refreshed;
    }
  }
  entry.version = m.version;
  OnEntryFresh(entry);
  if (op.has_token && oracle_ != nullptr) {
    oracle_->EndRead(op.token, entry.version);
  }
  ReadResult result;
  result.file = m.file;
  result.version = entry.version;
  result.data = entry.data;
  op.read_cb(std::move(result));
}

void BaselineClient::OnWriteReply(const WriteReply& m) {
  auto it = pending_.find(m.req);
  if (it == pending_.end() || !it->second.is_write) {
    return;
  }
  PendingOp op = std::move(it->second);
  pending_.erase(it);
  if (op.timer.valid()) {
    timers_->CancelTimer(op.timer);
  }
  if (m.status != ErrorCode::kOk) {
    ++stats_.failures;
    op.write_cb(Error{m.status, "write rejected"});
    return;
  }
  Entry& entry = cache_[m.file];
  entry.data = std::move(op.data);
  entry.version = m.version;
  OnEntryFresh(entry);
  if (oracle_ != nullptr) {
    oracle_->OnAcked(m.file, m.version);
  }
  WriteResult result;
  result.file = m.file;
  result.version = m.version;
  op.write_cb(std::move(result));
}

// --- CallbackClient ---

CallbackClient::CallbackClient(NodeId id, NodeId server, Transport* transport,
                               Clock* clock, TimerHost* timers, Oracle* oracle,
                               Duration poll_period)
    : BaselineClient(id, server, transport, clock, timers, oracle),
      poll_period_(poll_period) {
  poll_timer_ =
      timers_->ScheduleAfter(poll_period_, [this]() { PollTick(); });
}

CallbackClient::~CallbackClient() {
  if (poll_timer_.valid()) {
    timers_->CancelTimer(poll_timer_);
  }
}

void CallbackClient::PollTick() {
  // Bounds the stale window after a lost break ("polling with a period of
  // ten minutes is used to limit the interval for which inconsistent data
  // may be used").
  if (!cache_.empty()) {
    ExtendRequest poll;
    poll.req = RequestId();  // fire-and-forget; reply refreshes the cache
    for (const auto& [file, entry] : cache_) {
      poll.items.push_back(ExtendItem{file, entry.version});
    }
    transport_->Send(server_, MessageClass::kConsistency, std::move(poll));
  }
  poll_timer_ =
      timers_->ScheduleAfter(poll_period_, [this]() { PollTick(); });
}

// --- TtlClient ---

TtlClient::TtlClient(NodeId id, NodeId server, Transport* transport,
                     Clock* clock, TimerHost* timers, Oracle* oracle,
                     Duration ttl)
    : BaselineClient(id, server, transport, clock, timers, oracle),
      ttl_(ttl) {}

}  // namespace leases
