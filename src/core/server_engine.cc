#include "src/core/server_engine.h"

#include <utility>

#include "src/common/check.h"
#include "src/replica/authority.h"

namespace leases {
namespace {

// The unreplicated engine: lifecycle shell around ShardedLeaseServer. The
// plain server is its one-shard case. The shard environments (stores,
// metas, timers, transports) are owned by the host and survive Stop/Start.
class ShardedEngine : public ServerEngine {
 public:
  ShardedEngine(const EngineConfig& config, EngineEnv env)
      : config_(config), env_(std::move(env)) {}

  ~ShardedEngine() override = default;

  Status Start() override {
    LEASES_CHECK(server_ == nullptr);
    server_ = std::make_unique<ShardedLeaseServer>(env_.id, env_.shards,
                                                   config_.server, env_.oracle);
    return Status::Ok();
  }

  void Stop() override { server_.reset(); }

  Status Recover() override {
    for (const ShardEnv& shard : env_.shards) {
      Status s = shard.meta->Reopen();
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  bool running() const override { return server_ != nullptr; }

  ServerStats stats() const override {
    return server_ != nullptr ? server_->stats() : ServerStats{};
  }

  NodeId id() const override { return env_.id; }

  void RegisterClient(NodeId client) override {
    if (server_ != nullptr) {
      server_->RegisterClient(client);
    }
  }

  ShardedLeaseServer* sharded() override { return server_.get(); }

  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override {
    if (server_ != nullptr) {
      server_->HandleTyped(from, cls, packet);
    }
  }

 private:
  EngineConfig config_;
  EngineEnv env_;
  std::unique_ptr<ShardedLeaseServer> server_;
};

Status InvalidEnv(std::string message) {
  return Status(ErrorCode::kInvalidArgument, std::move(message));
}

}  // namespace

void EnginePolicy::Wire(EngineEnv* env) const {
  env->policy = policy.get();
  for (ShardEnv& shard : env->shards) {
    shard.policy = policy.get();
  }
  if (clock_health != nullptr) {
    env->epsilon_bound = [health = clock_health](Duration horizon) {
      return health->EpsilonBound(horizon);
    };
  }
}

EnginePolicy MakeEnginePolicy(const EngineConfig& config,
                              std::unique_ptr<TermPolicy> inner) {
  EnginePolicy out;
  out.policy = inner != nullptr
                   ? std::move(inner)
                   : std::make_unique<FixedTermPolicy>(config.term);
  if (config.uncertainty_terms) {
    UncertaintyAwareTermPolicy::Options options = config.uncertainty;
    options.epsilon = config.epsilon;  // one authoritative source
    auto wrapped = std::make_unique<UncertaintyAwareTermPolicy>(
        std::move(out.policy), options);
    out.clock_health = wrapped.get();
    out.policy = std::move(wrapped);
  }
  return out;
}

Result<std::unique_ptr<ServerEngine>> MakeServerEngine(
    const EngineConfig& config, EngineEnv env) {
  Status valid = config.Validate();
  if (!valid.ok()) {
    return valid.error();
  }
  const bool replicated = config.replica.num_replicas > 0;
  if (env.shards.empty() && config.num_shards == 1) {
    // The plain server is the one-shard case, serving from the store as
    // every shard does. A replica serves it on the virtual address.
    env.shards.push_back(ShardEnv{
        env.store, env.meta, env.clock, env.timers,
        replicated ? env.serve_transport : env.transport, env.policy});
  }
  if (env.shards.size() != config.num_shards) {
    return InvalidEnv(
        "EngineEnv.shards must carry exactly num_shards environments")
        .error();
  }
  for (const ShardEnv& shard : env.shards) {
    if (shard.store == nullptr || shard.meta == nullptr ||
        shard.clock == nullptr || shard.timers == nullptr ||
        shard.transport == nullptr || shard.policy == nullptr) {
      return InvalidEnv("every shard needs store/meta/clock/timers/"
                        "transport/policy")
          .error();
    }
  }
  if (!replicated) {
    return std::unique_ptr<ServerEngine>(
        std::make_unique<ShardedEngine>(config, std::move(env)));
  }
  // A replicated config builds a ReplicaNode whose holder serves the
  // ShardedLeaseServer behind the virtual address.
  if (env.peers.size() != config.replica.num_replicas) {
    return InvalidEnv("EngineEnv.peers must list one address per replica")
        .error();
  }
  if (env.replica_index >= env.peers.size()) {
    return InvalidEnv("EngineEnv.replica_index out of range").error();
  }
  if (env.serve_transport == nullptr || env.meta == nullptr ||
      env.transport == nullptr || env.clock == nullptr ||
      env.timers == nullptr || env.policy == nullptr) {
    return InvalidEnv(
        "replicated engines need meta/transport/clock/timers/policy and a "
        "serve_transport bound to the virtual address")
        .error();
  }
  return std::unique_ptr<ServerEngine>(
      std::make_unique<ReplicaNode>(config, std::move(env)));
}

}  // namespace leases
