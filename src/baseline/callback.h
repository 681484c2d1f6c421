// Baseline consistency protocols from Section 6 of the paper.
//
// * BaselineServer in kCallbacks mode + CallbackClient = the revised Andrew
//   file system: effectively infinite-term leases where the server notifies
//   (breaks) callbacks on write but does NOT wait for unreachable clients --
//   "if communication with a client fails, the server allows updates to
//   proceed, possibly leaving the client operating on stale data"; clients
//   limit the stale window by polling (Andrew used ten minutes).
//
// * BaselineServer in kStateless mode + TtlClient = NFS/DNS-style
//   time-to-live hints: the client trusts cached data for a fixed TTL with
//   no server involvement at all; data "may be modified during that
//   interval" -- consistency is not guaranteed.
//
// The zero-term baseline (Sprite / RFS / the Andrew prototype) needs no
// separate code: it is the lease protocol with a ZeroTermPolicy.
//
// Both clients report into the same Oracle as the lease client, so the
// baseline benches measure staleness with identical methodology.
#ifndef SRC_BASELINE_CALLBACK_H_
#define SRC_BASELINE_CALLBACK_H_

#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "src/clock/clock.h"
#include "src/clock/timer_host.h"
#include "src/core/cache_client.h"  // ReadResult/WriteResult/callbacks
#include "src/core/oracle.h"
#include "src/fs/file_store.h"
#include "src/net/transport.h"
#include "src/proto/messages.h"

namespace leases {

enum class BaselineMode {
  kCallbacks,  // Andrew-style break-on-write
  kStateless,  // no server-side consistency state (TTL hints)
};

struct BaselineServerStats {
  uint64_t reads_served = 0;
  uint64_t validations = 0;
  uint64_t writes_committed = 0;
  uint64_t breaks_sent = 0;
};

class BaselineServer : public PacketHandler {
 public:
  BaselineServer(NodeId id, BaselineMode mode, FileStore* store,
                 Transport* transport, Oracle* oracle);

  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override;

  const BaselineServerStats& stats() const { return stats_; }

 private:
  void OnReadRequest(NodeId from, const ReadRequest& m);
  void OnExtendRequest(NodeId from, const ExtendRequest& m);
  void OnWriteRequest(NodeId from, const WriteRequest& m);

  NodeId id_;
  BaselineMode mode_;
  FileStore* store_;
  Transport* transport_;
  Oracle* oracle_;
  std::unordered_map<FileId, std::set<NodeId>> callbacks_;
  uint64_t next_break_seq_ = 0;
  BaselineServerStats stats_;
};

struct BaselineClientStats {
  uint64_t reads = 0;
  uint64_t local_reads = 0;
  uint64_t fetches = 0;
  uint64_t validations = 0;
  uint64_t refreshed = 0;
  uint64_t writes = 0;
  uint64_t breaks_received = 0;
  uint64_t failures = 0;
};

// Common client plumbing: request tracking with timeout/retry, the cache
// map, oracle hooks. Subclasses decide when a cached entry may be served.
class BaselineClient : public PacketHandler {
 public:
  BaselineClient(NodeId id, NodeId server, Transport* transport, Clock* clock,
                 TimerHost* timers, Oracle* oracle);
  ~BaselineClient() override;

  void Read(FileId file, ReadCallback cb);
  void Write(FileId file, std::vector<uint8_t> data, WriteCallback cb);

  const BaselineClientStats& stats() const { return stats_; }
  bool HasCached(FileId file) const { return cache_.count(file) > 0; }

  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override;

 protected:
  struct Entry {
    SharedBytes data;
    uint64_t version = 0;
    TimePoint fetched_at;
  };

  // True if a cached entry may satisfy a read right now.
  virtual bool CanServe(const Entry& entry) const = 0;
  // Called when an entry is (re)validated or fetched.
  virtual void OnEntryFresh(Entry& entry) { entry.fetched_at = clock_->Now(); }
  virtual void OnBreak(FileId file);

  void Fetch(FileId file, uint64_t have_version, ReadCallback cb);
  void Validate(FileId file, ReadCallback cb);

  NodeId id_;
  NodeId server_;
  Transport* transport_;
  Clock* clock_;
  TimerHost* timers_;
  Oracle* oracle_;
  std::unordered_map<FileId, Entry> cache_;
  BaselineClientStats stats_;

 private:
  struct PendingOp {
    RequestId req;
    FileId file;
    bool is_write = false;
    bool is_validate = false;
    uint64_t have_version = 0;
    SharedBytes data;
    ReadCallback read_cb;
    WriteCallback write_cb;
    Oracle::ReadToken token;
    bool has_token = false;
    int retries = 0;
    TimerId timer;
  };

  void SendOp(PendingOp op);
  void ResendOp(RequestId req);
  void OnReadReply(const ReadReply& m);
  void OnWriteReply(const WriteReply& m);
  void ServeLocal(FileId file, const Entry& entry, ReadCallback& cb);

  IdGenerator<RequestId> request_ids_;
  std::map<RequestId, PendingOp> pending_;
};

// Andrew-style client: cached entries are valid until broken; a poll timer
// bounds the inconsistency window after a lost break.
class CallbackClient : public BaselineClient {
 public:
  CallbackClient(NodeId id, NodeId server, Transport* transport, Clock* clock,
                 TimerHost* timers, Oracle* oracle, Duration poll_period);
  ~CallbackClient() override;

 protected:
  bool CanServe(const Entry&) const override { return true; }

 private:
  void PollTick();

  Duration poll_period_;
  TimerId poll_timer_;
};

// NFS-style client: cached entries are trusted for a fixed TTL, then
// revalidated; the server is never involved in invalidation.
class TtlClient : public BaselineClient {
 public:
  TtlClient(NodeId id, NodeId server, Transport* transport, Clock* clock,
            TimerHost* timers, Oracle* oracle, Duration ttl);

 protected:
  bool CanServe(const Entry& entry) const override {
    return clock_->Now() < entry.fetched_at + ttl_;
  }

 private:
  Duration ttl_;
};

}  // namespace leases

#endif  // SRC_BASELINE_CALLBACK_H_
