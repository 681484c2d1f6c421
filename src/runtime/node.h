// Runtime node harnesses: the same LeaseServer / CacheClient state machines
// running over real UDP sockets and the monotonic system clock.
//
// RuntimeServer and RuntimeClient each own an event loop, a UDP transport
// and a clock; all protocol work runs as loop work (see event_loop.h).
// RuntimeClient additionally offers blocking wrappers for application code,
// which run the call on the caller's thread when the loop is idle.
#ifndef SRC_RUNTIME_NODE_H_
#define SRC_RUNTIME_NODE_H_

#include <memory>
#include <string>

#include "src/clock/system_clock.h"
#include "src/core/cache_client.h"
#include "src/core/server_engine.h"
#include "src/core/term_policy.h"
#include "src/fs/file_store.h"
#include "src/net/faulty_transport.h"
#include "src/runtime/event_loop.h"
#include "src/runtime/udp_transport.h"

namespace leases {

class RuntimeServer {
 public:
  // The full configuration surface; the engine shape (plain only -- sharded
  // runs under ShardedRuntimeServer, replicated under RuntimeReplicaServer)
  // is validated by MakeServerEngine at Start.
  RuntimeServer(NodeId id, EngineConfig config);
  // Historical shim: plain server with a fixed `term`.
  RuntimeServer(NodeId id, ServerParams params, Duration term);
  ~RuntimeServer();

  Status Start(uint16_t port = 0);
  // Durable variant: recovery state (max term, boot count, optional lease
  // records) is journaled under `data_dir` and replayed before the server
  // starts serving, so a restarted process honors the previous incarnation's
  // grants. The directory is created if missing.
  Status Start(const std::string& data_dir, uint16_t port = 0);
  void Stop();

  uint16_t port() const { return transport_->port(); }
  void AddPeer(NodeId peer, uint16_t peer_port) {
    transport_->AddPeer(peer, peer_port);
  }

  // Valid between Start and Stop.
  UdpTransport& transport() { return *transport_; }

  // Direct (pre-start) store setup; not thread-safe once serving.
  FileStore& store() { return store_; }
  // Runs `fn` on the protocol thread against the live server.
  void WithServer(std::function<void(LeaseServer&)> fn);
  // The engine shell (valid between Start and Stop).
  ServerEngine& engine() { return *engine_; }
  ServerStats stats();

  // Fault-injection decorator the server sends through; a passthrough until
  // faults are configured. Valid between Start and Stop.
  FaultInjectingTransport& faults() { return *faulty_; }

 private:
  Status StartInternal(uint16_t port);

  NodeId id_;
  EngineConfig config_;
  FileStore store_;
  // Set only by the durable Start overload; meta_ journals through it and
  // must be destroyed first (declaration order keeps the backend alive).
  std::unique_ptr<StorageBackend> storage_;
  DurableMeta meta_;
  SystemClock clock_;
  std::unique_ptr<TermPolicy> policy_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<UdpTransport> transport_;
  std::unique_ptr<FaultInjectingTransport> faulty_;
  std::unique_ptr<ServerEngine> engine_;
};

class RuntimeClient {
 public:
  RuntimeClient(NodeId id, NodeId server_id, FileId root,
                ClientParams params);
  ~RuntimeClient();

  Status Start(uint16_t server_port, uint16_t port = 0);
  void Stop();

  uint16_t port() const { return transport_->port(); }

  // Blocking wrappers (call from any thread outside this client's loop
  // work).
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
  // callback.
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
