// Runtime node harnesses: the same LeaseServer / CacheClient state machines
// running over real UDP sockets and the monotonic system clock.
//
// RuntimeServer is the one server host; its EngineConfig picks the shape:
//   * plain: one event loop and one socket; the engine's protocol work runs
//     as that loop's work (see event_loop.h). A non-empty config.data_dir
//     journals the recovery state (max term, boot count, optional lease
//     records) there and replays it before serving, so a restarted process
//     honors the previous incarnation's grants.
//   * num_shards > 1: the FileId-partitioned grant plane, built like the
//     plain shape: one event loop and one socket host every shard. The
//     socket's handler is the engine, whose ShardedLeaseServer routes each
//     packet to its owning shard inline with the simulator's shard_router.h
//     functions; each shard runs its LeaseServer against the server's one
//     FileStore and its own recovery metadata, and shares the loop's
//     timers, the socket and the host clock. All shards' replies to one
//     client in one unit of loop work leave in one datagram. Overload fills
//     the socket's receive buffer, and the kernel drops what does not fit,
//     which the protocol reads as wire loss and the client repairs by
//     retransmission.
//   * replica.num_replicas > 0: one replica of the replicated lease
//     authority (PaxosLease), two sockets on one loop. The authority socket
//     is bound to the replica's own address (ReplicaAddr(index)) and carries
//     the prepare/promise/propose/accept traffic between replicas. The
//     serving socket is bound to the virtual server identity every replica
//     shares and carries client traffic; only the authority holder answers
//     on it (standbys drop client datagrams, which the client repairs by
//     retry). With no real VIP on localhost, a client re-points its peer
//     table for the virtual NodeId at the new holder's serving port after a
//     takeover. The replica is diskless: safety across process loss comes
//     from the acceptor warm-up window (see src/replica/authority.h). With
//     num_shards > 1 the serving engine a holder builds is the sharded one,
//     its shards on the serving socket.
// Every shape grants through the one term policy MakeEnginePolicy builds
// from the config (clock health included), and exposes its engine on the
// protocol thread through WithEngine.
//
// RuntimeClient owns an event loop, a UDP transport and a clock; all
// protocol work runs as loop work. It offers blocking wrappers for
// application code, which run the call on the caller's thread when the loop
// is idle and wait for a miss's reply by leading the loop (EventLoop::Lead):
// the reply wakes the caller, which handles it itself, and the loop thread
// stays asleep. A read hit is cheaper still: CacheClient::ReadCached serves
// it inline on the caller's thread, with no waiter, no callback and one
// clock read.
#ifndef SRC_RUNTIME_NODE_H_
#define SRC_RUNTIME_NODE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/clock/system_clock.h"
#include "src/core/cache_client.h"
#include "src/core/server_engine.h"
#include "src/fs/file_store.h"
#include "src/net/faulty_transport.h"
#include "src/runtime/event_loop.h"
#include "src/runtime/udp_transport.h"

namespace leases {

// The boot inputs of one authority replica; ignored by the other shapes.
struct ReplicaBoot {
  size_t index = 0;  // this replica's slot, < config.replica.num_replicas
  // The host's assertion that this replica never took part in an authority
  // round (fresh cluster); when false the replica warms up for one
  // authority term before voting.
  bool cold_boot = false;
  uint16_t authority_port = 0;  // 0 picks an ephemeral port
  // Join a live cluster as a learner: an acceptor that never proposes until
  // a committed member set names it.
  bool join_as_learner = false;
};

class RuntimeServer {
 public:
  // The authority-plane address of replica `index`; kept out of the small
  // NodeId range clients and servers use.
  static NodeId ReplicaAddr(size_t index) {
    return NodeId(900 + static_cast<uint32_t>(index));
  }

  // `id` is the client-facing address (the virtual one a replica shares).
  RuntimeServer(NodeId id, EngineConfig config, ReplicaBoot boot = {});
  ~RuntimeServer();

  RuntimeServer(const RuntimeServer&) = delete;
  RuntimeServer& operator=(const RuntimeServer&) = delete;

  // Builds the shape config names and starts serving on 127.0.0.1:`port`
  // (0 picks one). A shape EngineConfig::Validate refuses returns
  // kInvalidArgument.
  Status Start(uint16_t port = 0);
  // Start with config.data_dir = `data_dir`.
  Status Start(const std::string& data_dir, uint16_t port = 0);
  void Stop();

  // The serving port; 0 when not serving.
  uint16_t port() const {
    return transport_ != nullptr ? transport_->port() : 0;
  }
  // Registers a client's address on the serving socket.
  void AddPeer(NodeId peer, uint16_t peer_port) {
    transport_->AddPeer(peer, peer_port);
  }
  // Replica shape: the authority socket and its peers.
  uint16_t authority_port() const { return authority_->port(); }
  void AddReplicaPeer(size_t index, uint16_t peer_port) {
    authority_->AddPeer(ReplicaAddr(index), peer_port);
  }

  // The serving socket (valid between Start and Stop).
  UdpTransport& transport() { return *transport_; }

  // The store every shard serves from; set it up before Start (CreatePath
  // etc.), and touch it only through WithEngine once serving. Replica
  // stores are independent copies (the plane replicates authority, not file
  // data): seed them identically.
  FileStore& store() { return store_; }
  // The clock-health policy when config.uncertainty_terms is set, else null.
  UncertaintyAwareTermPolicy* clock_health() { return policy_.clock_health; }

  // Runs `fn` against the live engine as loop work, so no protocol work runs
  // beside it. Valid between a successful Start and Stop.
  void WithEngine(const std::function<void(ServerEngine&)>& fn);
  // Engine counters plus the sockets' local send failures.
  ServerStats stats();
  // Pre-registers a client for installed-file multicasts; a replica replays
  // it into the serving engine it builds at takeover.
  void RegisterClient(NodeId client) {
    WithEngine([client](ServerEngine& e) { e.RegisterClient(client); });
  }

  // Replica shape: whether this replica holds the authority lease (false
  // when not serving), and the grant bound it inherited at takeover.
  bool is_holder();
  Duration last_inherited_bound();

  // Packets the sockets handed to the engine, on the one loop.
  uint64_t processed() const;
  // Always 0: the socket hands packets to the shards directly, so overload
  // drops in the kernel's socket buffer, uncounted here. Kept because
  // loopbench reports it as `ring_drops`.
  uint64_t dropped() const { return 0; }

 private:
  Status Serve(uint16_t port);

  NodeId id_;
  EngineConfig config_;
  ReplicaBoot boot_;
  FileStore store_;
  // Set when config.data_dir names a journal; meta_ journals through it and
  // must be destroyed first (declaration order keeps the backend alive).
  std::unique_ptr<StorageBackend> storage_;
  DurableMeta meta_;
  SystemClock clock_;
  EnginePolicy policy_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<UdpTransport> transport_;    // the serving socket
  std::unique_ptr<UdpTransport> authority_;    // replica shape
  // Sharded shape: each shard's in-memory recovery metadata, sized once
  // per Start (the shards hold pointers into it).
  std::vector<DurableMeta> shard_metas_;
  std::unique_ptr<ServerEngine> engine_;
};

// loopbench (a benchmark whose sources stay fixed) still names the sharded
// host by its old class name and includes sharded_node.h.
using ShardedRuntimeServer = RuntimeServer;

class RuntimeClient {
 public:
  RuntimeClient(NodeId id, NodeId server_id, FileId root,
                ClientParams params);
  ~RuntimeClient();

  Status Start(uint16_t server_port, uint16_t port = 0);
  void Stop();

  uint16_t port() const { return transport_->port(); }

  // Blocking wrappers (call from any thread outside this client's loop
  // work; several threads may block at once, one of them leading). Read
  // returns a hit without waiting when the loop is idle, allocating
  // nothing: the result shares the cached buffer.
  Result<OpenResult> Open(const std::string& path,
                          Duration timeout = Duration::Seconds(30));
  Result<ReadResult> Read(FileId file,
                          Duration timeout = Duration::Seconds(30));
  Result<WriteResult> Write(FileId file, std::vector<uint8_t> data,
                            Duration timeout = Duration::Seconds(30));

  void WithClient(std::function<void(CacheClient&)> fn);
  ClientStats stats();
  UdpTransport& transport() { return *transport_; }

  // Fault-injection decorator the client sends through; a passthrough until
  // faults are configured. Valid between Start and Stop.
  FaultInjectingTransport& faults() { return *faulty_; }

 private:
  // Runs `call` against the CacheClient as loop work and waits for its
  // callback: leading the loop when it can, on a condvar otherwise.
  template <typename T, typename Call>
  Result<T> Blocking(Call call, Duration timeout);

  NodeId id_;
  NodeId server_id_;
  FileId root_;
  ClientParams params_;
  SystemClock clock_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<UdpTransport> transport_;
  std::unique_ptr<FaultInjectingTransport> faulty_;
  std::unique_ptr<CacheClient> client_;
};

}  // namespace leases

#endif  // SRC_RUNTIME_NODE_H_
