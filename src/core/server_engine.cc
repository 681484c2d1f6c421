#include "src/core/server_engine.h"

#include <utility>

#include "src/common/check.h"
#include "src/replica/authority.h"

namespace leases {
namespace {

// The unreplicated single-node engine: a thin lifecycle shell around
// LeaseServer. Construction order inside Start() matches the historical
// SimCluster/RuntimeServer paths exactly, so digests are unchanged.
class PlainEngine : public ServerEngine {
 public:
  PlainEngine(const EngineConfig& config, EngineEnv env)
      : config_(config), env_(std::move(env)) {}

  ~PlainEngine() override = default;

  Status Start() override {
    LEASES_CHECK(server_ == nullptr);
    server_ = std::make_unique<LeaseServer>(
        env_.id, env_.store, env_.meta, env_.transport, env_.clock,
        env_.timers, env_.policy, config_.server, env_.oracle);
    return Status::Ok();
  }

  void Stop() override { server_.reset(); }

  Status Recover() override { return env_.meta->Reopen(); }

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

  LeaseServer* plain() override { return server_.get(); }

  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override {
    if (server_ != nullptr) {
      server_->HandleTyped(from, cls, packet);
    }
  }

 private:
  EngineConfig config_;
  EngineEnv env_;
  std::unique_ptr<LeaseServer> server_;
};

// The FileId-sharded engine: lifecycle shell around ShardedLeaseServer.
// The per-shard environments (stores, metas, timers, transports) are owned
// by the host and survive Stop/Start, exactly like the plain durable state.
class ShardedEngine : public ServerEngine {
 public:
  ShardedEngine(const EngineConfig& config, EngineEnv env)
      : config_(config), env_(std::move(env)) {}

  ~ShardedEngine() override = default;

  Status Start() override {
    LEASES_CHECK(server_ == nullptr);
    std::vector<ShardEnv> envs = env_.shards;  // reusable across restarts
    server_ = std::make_unique<ShardedLeaseServer>(
        env_.id, std::move(envs), config_.server, env_.oracle);
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
  // Replication outranks sharding: a sharded-replicated config builds a
  // ReplicaNode whose holder serves a ShardedLeaseServer behind the VIP.
  if (config.replica.num_replicas > 0) {
    if (env.peers.size() != config.replica.num_replicas) {
      return InvalidEnv(
          "EngineEnv.peers must list one address per replica")
          .error();
    }
    if (env.replica_index >= env.peers.size()) {
      return InvalidEnv("EngineEnv.replica_index out of range").error();
    }
    if (env.serve_transport == nullptr) {
      return InvalidEnv(
          "replicated engines need a serve_transport bound to the virtual "
          "address")
          .error();
    }
    if (config.num_shards > 1 && env.shards.size() != config.num_shards) {
      return InvalidEnv(
          "sharded-replicated engines need one ShardEnv per shard")
          .error();
    }
    return std::unique_ptr<ServerEngine>(
        std::make_unique<ReplicaNode>(config, std::move(env)));
  }
  if (config.num_shards > 1) {
    if (env.shards.size() != config.num_shards) {
      return InvalidEnv(
          "EngineEnv.shards must carry exactly num_shards environments")
          .error();
    }
    return std::unique_ptr<ServerEngine>(
        std::make_unique<ShardedEngine>(config, std::move(env)));
  }
  if (env.store == nullptr || env.meta == nullptr || env.transport == nullptr ||
      env.clock == nullptr || env.timers == nullptr || env.policy == nullptr) {
    return InvalidEnv("plain engines need store/meta/transport/clock/timers/"
                      "policy")
        .error();
  }
  return std::unique_ptr<ServerEngine>(
      std::make_unique<PlainEngine>(config, std::move(env)));
}

}  // namespace leases
