#include "src/core/sharded_lease_server.h"

#include <algorithm>

#include "src/common/check.h"

namespace leases {
namespace {

// The one placement of namespace records into FileId partitions: upserts
// (rec != null) or drops (rec == null) `file` in its owning partition.
void PlaceRecord(std::span<FileStore* const> partitions, FileId file,
                 const FileRecord* rec) {
  FileStore* store = partitions[ShardIndexOf(file, partitions.size())];
  if (rec != nullptr) {
    store->Adopt(*rec);
  } else {
    store->Drop(file);
  }
}

}  // namespace

ShardedLeaseServer::ShardedLeaseServer(NodeId id, std::vector<ShardEnv> envs,
                                       ServerParams params, Oracle* oracle)
    : id_(id), params_(params) {
  LEASES_CHECK(!envs.empty());
  LEASES_CHECK(envs.size() <= 64);  // shard_seq_salt occupies 6 bits
  // One directory key covering many files would make Relinquish key-routing
  // ambiguous (see shard_router.h); refuse rather than silently misroute.
  LEASES_CHECK(!(params.installed_optimization && envs.size() > 1));
  shards_.reserve(envs.size());
  for (size_t i = 0; i < envs.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->tap = std::make_unique<ReplyTap>(this, i, envs[i].transport);
    ServerParams shard_params = params;
    shard_params.shard_seq_salt = static_cast<uint32_t>(i);
    shard->server = std::make_unique<LeaseServer>(
        id, envs[i].store, envs[i].meta, shard->tap.get(), envs[i].clock,
        envs[i].timers, envs[i].policy, shard_params, oracle);
    shards_.push_back(std::move(shard));
    partitions_.push_back(envs[i].store);
  }
}

ShardedLeaseServer::~ShardedLeaseServer() = default;

void ShardedLeaseServer::HandleTyped(NodeId from, MessageClass cls,
                                     const Packet& packet) {
  ShardRoute route = RouteServerPacket(packet, shards_.size());
  if (route.kind == ShardRouteKind::kSingle) {
    shards_[route.shard]->server->HandleTyped(from, cls, packet);
    return;
  }
  // Inline sink: sub-requests run to completion shard by shard, in shard
  // order (deterministic under the simulator's single thread).
  DispatchSink sink = [this](size_t shard, NodeId f, MessageClass c,
                             Packet&& p) {
    shards_[shard]->server->HandleTyped(f, c, p);
  };
  if (const auto* extend = std::get_if<ExtendRequest>(&packet)) {
    RouteSplitExtend(from, cls, *extend, sink);
  } else if (const auto* rel = std::get_if<Relinquish>(&packet)) {
    RouteSplitRelinquish(from, cls, *rel, sink);
  }
}

void ShardedLeaseServer::Route(NodeId from, MessageClass cls, Packet&& packet,
                               const DispatchSink& sink) {
  ShardRoute route = RouteServerPacket(packet, shards_.size());
  if (route.kind == ShardRouteKind::kSingle) {
    sink(route.shard, from, cls, std::move(packet));
    return;
  }
  if (const auto* extend = std::get_if<ExtendRequest>(&packet)) {
    RouteSplitExtend(from, cls, *extend, sink);
  } else if (const auto* rel = std::get_if<Relinquish>(&packet)) {
    RouteSplitRelinquish(from, cls, *rel, sink);
  }
}

void ShardedLeaseServer::DeliverToShard(size_t shard_index, NodeId from,
                                        MessageClass cls,
                                        const Packet& packet) {
  shards_[shard_index]->server->HandleTyped(from, cls, packet);
}

void ShardedLeaseServer::RouteSplitExtend(NodeId from, MessageClass cls,
                                          const ExtendRequest& m,
                                          const DispatchSink& sink) {
  const size_t n = shards_.size();
  std::vector<std::vector<ExtendItem>> per_shard(n);
  std::vector<std::vector<uint32_t>> index_of(n);
  for (uint32_t i = 0; i < m.items.size(); ++i) {
    size_t s = ShardIndexOf(m.items[i].file, n);
    per_shard[s].push_back(m.items[i]);
    index_of[s].push_back(i);
  }
  size_t touched = 0;
  for (const auto& items : per_shard) {
    touched += items.empty() ? 0 : 1;
  }
  {
    std::lock_guard<std::mutex> lock(splits_mu_);
    SplitKey key{from.value(), m.req.value()};
    if (splits_.find(key) != splits_.end()) {
      // A retransmission of an extend whose split is still in flight: the
      // armed rendezvous will answer the client; processing the duplicate
      // would corrupt the slot bookkeeping. Drop it (the client retries
      // again if the merged reply is lost too).
      return;
    }
    ExtendSplit& split = splits_[key];
    split.slots.resize(m.items.size());
    split.index_of = std::move(index_of);
    split.remaining = touched;
    split.cls = cls;
    active_splits_.fetch_add(1, std::memory_order_release);
  }
  for (size_t s = 0; s < n; ++s) {
    if (per_shard[s].empty()) {
      continue;
    }
    ExtendRequest sub;
    sub.req = m.req;
    sub.items = std::move(per_shard[s]);
    sink(s, from, cls, Packet(std::move(sub)));
  }
}

void ShardedLeaseServer::RouteSplitRelinquish(NodeId from, MessageClass cls,
                                              const Relinquish& m,
                                              const DispatchSink& sink) {
  const size_t n = shards_.size();
  std::vector<std::vector<LeaseKey>> per_shard(n);
  for (LeaseKey key : m.keys) {
    per_shard[ShardIndexOfKey(key, n)].push_back(key);
  }
  for (size_t s = 0; s < n; ++s) {
    if (per_shard[s].empty()) {
      continue;
    }
    sink(s, from, cls, Packet(Relinquish{std::move(per_shard[s])}));
  }
}

bool ShardedLeaseServer::AbsorbExtendReply(size_t shard_index, NodeId dst,
                                           MessageClass cls, Packet& packet,
                                           std::optional<Packet>* merged,
                                           MessageClass* merged_cls) {
  auto& reply = std::get<ExtendReply>(packet);
  std::lock_guard<std::mutex> lock(splits_mu_);
  auto it = splits_.find(SplitKey{dst.value(), reply.req.value()});
  if (it == splits_.end()) {
    return false;
  }
  ExtendSplit& split = it->second;
  const std::vector<uint32_t>& indexes = split.index_of[shard_index];
  // One sub-request produces exactly one reply with one item per request
  // item, in order; anything else is not this split's reply.
  if (indexes.size() != reply.items.size()) {
    return false;
  }
  for (size_t j = 0; j < reply.items.size(); ++j) {
    split.slots[indexes[j]] = std::move(reply.items[j]);
  }
  if (cls == MessageClass::kData) {
    split.cls = MessageClass::kData;  // any refreshed data upgrades the class
  }
  if (--split.remaining == 0) {
    ExtendReply out;
    out.req = reply.req;
    out.items = std::move(split.slots);
    *merged_cls = split.cls;
    merged->emplace(std::move(out));
    splits_.erase(it);
    active_splits_.fetch_sub(1, std::memory_order_release);
  }
  return true;
}

void ShardedLeaseServer::ReplyTap::Send(NodeId dst, MessageClass cls,
                                        Packet packet) {
  if (owner_->active_splits_.load(std::memory_order_acquire) > 0 &&
      std::holds_alternative<ExtendReply>(packet)) {
    std::optional<Packet> merged;
    MessageClass merged_cls = cls;
    if (owner_->AbsorbExtendReply(shard_, dst, cls, packet, &merged,
                                  &merged_cls)) {
      if (merged) {
        inner_->Send(dst, merged_cls, std::move(*merged));
      }
      return;
    }
  }
  inner_->Send(dst, cls, std::move(packet));
}

void PartitionNamespace(FileStore& ns, std::vector<FileStore*> partitions) {
  for (FileId file : ns.AllFiles()) {
    PlaceRecord(partitions, file, ns.Find(file));
  }
  ns.SetMirror([partitions = std::move(partitions)](FileId file,
                                                   const FileRecord* rec) {
    PlaceRecord(partitions, file, rec);
  });
}

void ShardedLeaseServer::AdoptAll(const FileStore& namespace_store) {
  for (FileId file : namespace_store.AllFiles()) {
    const FileRecord* rec = namespace_store.Find(file);
    LEASES_CHECK(rec != nullptr);
    PlaceRecord(partitions_, file, rec);
  }
}

void ShardedLeaseServer::MirrorRecord(FileId file, const FileRecord* rec) {
  PlaceRecord(partitions_, file, rec);
}

const FileRecord* ShardedLeaseServer::FindRecord(FileId file) const {
  return partitions_[ShardOf(file)]->Find(file);
}

void MergeServerStats(ServerStats* into, const ServerStats& from) {
  into->reads_served += from.reads_served;
  into->not_modified_replies += from.not_modified_replies;
  into->extension_requests += from.extension_requests;
  into->extension_items += from.extension_items;
  into->leases_granted += from.leases_granted;
  into->zero_term_grants += from.zero_term_grants;
  into->clock_samples += from.clock_samples;
  into->writes_received += from.writes_received;
  into->writes_committed += from.writes_committed;
  into->writes_immediate += from.writes_immediate;
  into->writes_deferred += from.writes_deferred;
  into->writes_expired_commit += from.writes_expired_commit;
  into->writes_rejected += from.writes_rejected;
  into->write_wait_total += from.write_wait_total;
  into->max_write_wait = std::max(into->max_write_wait, from.max_write_wait);
  into->approval_rounds += from.approval_rounds;
  into->approval_retries += from.approval_retries;
  into->approvals_received += from.approvals_received;
  into->relinquishes += from.relinquishes;
  into->installed_multicasts += from.installed_multicasts;
  into->recovery_held_writes += from.recovery_held_writes;
  into->recovery_shed_writes += from.recovery_shed_writes;
  into->grants_shed += from.grants_shed;
  into->grant_backlog_peak =
      std::max(into->grant_backlog_peak, from.grant_backlog_peak);
  into->recovery_window = std::max(into->recovery_window,
                                   from.recovery_window);
  into->recovered_lease_records += from.recovered_lease_records;
  into->dedup_replays += from.dedup_replays;
  into->recoveries += from.recoveries;
  into->durability_refused_grants += from.durability_refused_grants;
  into->journal_appends += from.journal_appends;
  into->journal_replays += from.journal_replays;
  into->journal_replayed_records += from.journal_replayed_records;
  into->journal_truncated_tails += from.journal_truncated_tails;
  into->journal_corrupt_dropped += from.journal_corrupt_dropped;
  into->snapshot_compactions += from.snapshot_compactions;
  into->replay_duration = std::max(into->replay_duration,
                                   from.replay_duration);
  into->send_failures += from.send_failures;
  into->authority_rounds += from.authority_rounds;
  into->authority_acquisitions += from.authority_acquisitions;
  into->authority_renewals += from.authority_renewals;
  into->authority_stepdowns += from.authority_stepdowns;
  into->authority_warmup_waits += from.authority_warmup_waits;
  into->grant_cap_hits += from.grant_cap_hits;
  into->standby_reads_served += from.standby_reads_served;
}

ServerStats ShardedLeaseServer::stats() const {
  ServerStats out;
  for (const auto& shard : shards_) {
    MergeServerStats(&out, shard->server->stats());
  }
  return out;
}

size_t ShardedLeaseServer::ActiveLeaseCount(LeaseKey key) const {
  return shards_[ShardIndexOfKey(key, shards_.size())]
      ->server->ActiveLeaseCount(key);
}

bool ShardedLeaseServer::HasPendingWrite(FileId file) const {
  return shards_[ShardIndexOf(file, shards_.size())]->server->HasPendingWrite(
      file);
}

TimePoint ShardedLeaseServer::GlobalMaxExpiry(TimePoint now) const {
  TimePoint max = now;
  for (const auto& shard : shards_) {
    max = std::max(max, shard->server->lease_table().GlobalMaxExpiry(now));
  }
  return max;
}

void ShardedLeaseServer::CollectWriteLocked(size_t cap,
                                            std::vector<uint64_t>* out,
                                            bool* overflow) const {
  for (const auto& shard : shards_) {
    shard->server->CollectWriteLocked(cap, out, overflow);
  }
  std::sort(out->begin(), out->end());
  if (out->size() > cap) {
    out->resize(cap);
    *overflow = true;
  }
}

void ShardedLeaseServer::RegisterClient(NodeId client) {
  for (auto& shard : shards_) {
    shard->server->RegisterClient(client);
  }
}

}  // namespace leases
