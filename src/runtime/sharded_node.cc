#include "src/runtime/sharded_node.h"

#include <utility>

#include "src/common/check.h"

namespace leases {

ShardedRuntimeServer::ShardedRuntimeServer(NodeId id, EngineConfig config)
    : id_(id), config_(std::move(config)) {
  LEASES_CHECK(config_.num_shards >= 1);
}

ShardedRuntimeServer::ShardedRuntimeServer(NodeId id, ServerParams params,
                                           Duration term, size_t num_shards)
    : ShardedRuntimeServer(id, [&] {
        EngineConfig config;
        config.server = params;
        config.term = term;
        config.num_shards = num_shards;
        return config;
      }()) {}

ShardedRuntimeServer::~ShardedRuntimeServer() { Stop(); }

Status ShardedRuntimeServer::Start(uint16_t port) {
  // Raw-handler mode: the transport runs a private event loop whose only
  // work is routing datagrams straight into the shard queues.
  transport_ = std::make_unique<UdpTransport>(id_, nullptr, nullptr);

  const size_t num_shards = config_.num_shards;
  std::vector<ShardEnv> envs(num_shards);
  rigs_.clear();
  rigs_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto rig = std::make_unique<ShardRig>();
    rig->loop = std::make_unique<ShardLoop>();
    rig->policy = std::make_unique<FixedTermPolicy>(config_.term);
    rig->sender = std::make_unique<UdpBatchSender>(transport_.get());
    envs[i].store = &rig->store;
    envs[i].meta = &rig->meta;
    envs[i].clock = &clock_;
    envs[i].timers = rig->loop.get();
    envs[i].transport = rig->sender.get();
    envs[i].policy = rig->policy.get();
    rigs_.push_back(std::move(rig));
  }

  // Constructing the per-shard LeaseServers before the shard threads exist
  // is single-threaded and therefore safe: constructor-scheduled timers land
  // in the still-unstarted timer queues, and thread creation below
  // happens-after all of it.
  EngineEnv env;
  env.id = id_;
  env.shards = std::move(envs);
  auto engine = MakeServerEngine(config_, std::move(env));
  if (!engine.ok()) {
    rigs_.clear();
    transport_.reset();
    return Status(engine.error().code, engine.error().message);
  }
  engine_ = std::move(engine.value());
  Status serving = engine_->Start();
  if (!serving.ok()) {
    return serving;
  }
  sharded_ = engine_->sharded();
  store_.SetMirror([this](FileId file, const FileRecord* rec) {
    sharded_->MirrorRecord(file, rec);
  });
  sharded_->AdoptAll(store_);

  for (size_t i = 0; i < num_shards; ++i) {
    ShardRig* rig = rigs_[i].get();
    rig->loop->Start(
        [this, i](const ShardInbound& msg) {
          sharded_->DeliverToShard(i, msg.from, msg.cls, msg.packet);
        },
        [sender = rig->sender.get()]() { sender->Flush(); });
  }

  // Routing runs as the transport loop's work; only the enqueue touches
  // shard state, through the SPSC ring. A full ring means the shard is
  // saturated: shed the datagram like the wire would.
  transport_->SetRawHandler([this](NodeId from, MessageClass cls,
                                   std::span<const uint8_t> payload) {
    std::optional<Packet> packet = DecodePacket(payload);
    if (!packet) {
      return;  // malformed datagrams are dropped, as in LeaseServer
    }
    sharded_->Route(
        from, cls, std::move(*packet),
        [this](size_t shard, NodeId f, MessageClass c, Packet&& p) {
          if (!rigs_[shard]->loop->Enqueue(
                  ShardInbound{f, c, std::move(p)})) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
          }
        });
  });
  return transport_->Start(port);
}

void ShardedRuntimeServer::Stop() {
  if (transport_ != nullptr) {
    transport_->Stop();  // no receive callback runs after this: no enqueues
  }
  for (auto& rig : rigs_) {
    if (rig->loop != nullptr) {
      rig->loop->Stop();  // joins the shard thread; in-flight input is lost
    }
  }
  // All threads are joined: tearing the protocol objects down from here is
  // single-threaded again (LeaseServer destructors cancel timers against
  // the now-quiescent loops).
  engine_.reset();
  sharded_ = nullptr;
  store_.SetMirror(nullptr);
  rigs_.clear();
  transport_.reset();
}

ServerStats ShardedRuntimeServer::stats() {
  ServerStats out;
  if (sharded_ == nullptr) {
    return out;
  }
  for (size_t i = 0; i < rigs_.size(); ++i) {
    // Snapshot on the shard's own thread: LeaseServer::stats() touches
    // mutable server state and must not race the message path.
    ServerStats snap;
    rigs_[i]->loop->RunSync([this, i, &snap]() {
      snap = sharded_->shard(i).stats();
    });
    MergeServerStats(&out, snap);
  }
  if (transport_ != nullptr) {
    out.send_failures += transport_->stats().send_failures;
  }
  return out;
}

uint64_t ShardedRuntimeServer::processed() const {
  uint64_t total = 0;
  for (const auto& rig : rigs_) {
    total += rig->loop->processed();
  }
  return total;
}

}  // namespace leases
