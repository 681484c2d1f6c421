// ShardedRuntimeServer: the FileId-partitioned grant plane on real sockets.
//
// One UDP transport (one port, served by the transport's private event
// loop) fronts N run-to-completion shard threads. The transport's loop
// decodes each packet straight from its receive buffer and routes it with
// the same shard_router.h functions the simulator uses
// (ShardedLeaseServer::Route), pushing it onto the owning shard's SPSC
// queue; the shard thread then runs the LeaseServer state machine against
// its private FileStore partition, timer queue and outbound batch sender.
// Grant/extend/relinquish processing therefore takes no locks: the only
// synchronization on the hot path is the SPSC ring and the sendmmsg flush
// at the batch boundary.
//
// A full inbound ring drops the packet (counted), which the protocol
// reads as wire loss and the client repairs by retransmission -- exactly
// the overload behavior a real UDP service has.
#ifndef SRC_RUNTIME_SHARDED_NODE_H_
#define SRC_RUNTIME_SHARDED_NODE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/clock/system_clock.h"
#include "src/core/server_engine.h"
#include "src/core/term_policy.h"
#include "src/fs/file_store.h"
#include "src/runtime/shard_loop.h"
#include "src/runtime/udp_transport.h"

namespace leases {

class ShardedRuntimeServer {
 public:
  // Full configuration surface; config.num_shards selects the shard count
  // and MakeServerEngine validates the combination at Start (the historical
  // LEASES_CHECK death on installed_optimization+shards is now a Status).
  ShardedRuntimeServer(NodeId id, EngineConfig config);
  ~ShardedRuntimeServer();

  ShardedRuntimeServer(const ShardedRuntimeServer&) = delete;
  ShardedRuntimeServer& operator=(const ShardedRuntimeServer&) = delete;

  Status Start(uint16_t port = 0);
  void Stop();

  uint16_t port() const { return transport_->port(); }
  void AddPeer(NodeId peer, uint16_t peer_port) {
    transport_->AddPeer(peer, peer_port);
  }

  // Namespace store for pre-start setup (CreatePath etc.). Start() copies
  // every record into its owning shard partition; once serving, the
  // partitions are authoritative and this store must not be touched.
  FileStore& store() { return store_; }

  size_t num_shards() const { return config_.num_shards; }

  // Merged per-shard counters, snapshotted on each shard's own thread, plus
  // the transport's local send failures.
  ServerStats stats();

  // Datagrams dropped because a shard's inbound ring was full.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  // Messages processed across all shards.
  uint64_t processed() const;

 private:
  // Everything one shard owns: its worker loop, its FileStore partition,
  // its in-memory recovery metadata, its term policy and its outbound
  // batcher. unique_ptr keeps addresses stable for the ShardEnv pointers.
  struct ShardRig {
    std::unique_ptr<ShardLoop> loop;
    FileStore store;
    DurableMeta meta;
    std::unique_ptr<FixedTermPolicy> policy;
    std::unique_ptr<UdpBatchSender> sender;
  };

  NodeId id_;
  EngineConfig config_;
  FileStore store_;  // namespace store; partitions are seeded from it
  SystemClock clock_;
  std::unique_ptr<UdpTransport> transport_;
  std::vector<std::unique_ptr<ShardRig>> rigs_;
  // The factory-built engine shell; sharded_ is its introspection pointer
  // (the routing fast path keeps the concrete type).
  std::unique_ptr<ServerEngine> engine_;
  ShardedLeaseServer* sharded_ = nullptr;
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace leases

#endif  // SRC_RUNTIME_SHARDED_NODE_H_
