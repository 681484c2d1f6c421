#include "src/runtime/node.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>

#include "src/common/check.h"
#include "src/fs/journal.h"
#include "src/replica/authority.h"

namespace leases {
namespace {

// Bridges an async protocol call into a blocking one with a deadline. The
// shared state outlives the caller's wait if the callback fires late; a
// callback that already fired (a call completed inline, or on the caller
// while it led the loop) returns at once.
template <typename T>
class Waiter {
 public:
  std::function<void(Result<T>)> MakeCallback() {
    return [state = state_](Result<T> r) {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->result.has_value()) {
          return;
        }
        state->result.emplace(std::move(r));
        state->ready.store(true, std::memory_order_release);
      }
      state->cv.notify_one();
    };
  }

  bool ready() const { return state_->ready.load(std::memory_order_acquire); }

  // The result, once ready().
  Result<T> Take() {
    std::lock_guard<std::mutex> lock(state_->mu);
    return std::move(*state_->result);
  }

  Result<T> Wait(EventLoop::SteadyPoint deadline) {
    std::unique_lock<std::mutex> lock(state_->mu);
    if (!state_->cv.wait_until(
            lock, deadline, [this]() { return state_->result.has_value(); })) {
      return Error{ErrorCode::kTimeout, "blocking call timed out"};
    }
    return std::move(*state_->result);
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Result<T>> result;
    std::atomic<bool> ready{false};  // result is set
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

// Waits for a call already started on `loop` to complete `waiter`. A call
// that completed inline returns at once, without reading the clock. A
// pending one waits by leading the loop: the reply wakes this thread, which
// runs the callback itself. When the loop is busy or another caller leads,
// that thread runs the callback and wakes this one.
template <typename T>
Result<T> Await(EventLoop& loop, Waiter<T>& waiter, Duration timeout) {
  if (waiter.ready()) {
    return waiter.Take();
  }
  const EventLoop::SteadyPoint deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(timeout.ToMicros());
  loop.Lead(deadline, [&waiter]() { return waiter.ready(); });
  return waiter.Wait(deadline);
}

}  // namespace

RuntimeServer::RuntimeServer(NodeId id, EngineConfig config, ReplicaBoot boot)
    : id_(id),
      config_(std::move(config)),
      boot_(boot),
      policy_(MakeEnginePolicy(config_)) {}

RuntimeServer::~RuntimeServer() { Stop(); }

Status RuntimeServer::Start(const std::string& data_dir, uint16_t port) {
  config_.data_dir = data_dir;
  return Start(port);
}

Status RuntimeServer::Start(uint16_t port) {
  Status valid = config_.Validate();
  if (!valid.ok()) {
    return valid;
  }
  if (!config_.data_dir.empty()) {
    auto journal = std::make_unique<JournalBackend>(config_.data_dir);
    Status opened = journal->Open();
    if (!opened.ok()) {
      return opened;
    }
    storage_ = std::move(journal);
    meta_ = DurableMeta(storage_.get());
    // Replay IS recovery: the rebuilt max term / boot count make the new
    // server delay writes for the previous incarnation's grant window.
    Status replayed = meta_.Reopen();
    if (!replayed.ok()) {
      return replayed;
    }
  }
  Status serving = Serve(port);
  if (!serving.ok()) {
    Stop();
  }
  return serving;
}

Status RuntimeServer::Serve(uint16_t port) {
  loop_ = std::make_unique<EventLoop>();
  transport_ = std::make_unique<UdpTransport>(id_, loop_.get(), nullptr);
  EngineEnv env;
  env.id = id_;
  env.store = &store_;
  env.meta = &meta_;
  env.transport = transport_.get();
  env.clock = &clock_;
  env.timers = loop_.get();
  if (config_.num_shards > 1) {
    // One host, as in the simulator: every shard shares the loop's timers,
    // the serving socket and the clock, and owns its partition and
    // metadata. The namespace store mirrors each record into its owner.
    env.shards.resize(config_.num_shards);
    std::vector<FileStore*> partitions;
    for (ShardEnv& shard : env.shards) {
      ShardRig& rig = *rigs_.emplace_back(std::make_unique<ShardRig>());
      shard.store = &rig.store;
      shard.meta = &rig.meta;
      shard.clock = &clock_;
      shard.timers = loop_.get();
      shard.transport = transport_.get();
      partitions.push_back(&rig.store);
    }
    PartitionNamespace(store_, std::move(partitions));
  }
  if (config_.replica.num_replicas > 0) {
    authority_ = std::make_unique<UdpTransport>(ReplicaAddr(boot_.index),
                                                loop_.get(), nullptr);
    Status bound = authority_->Start(boot_.authority_port);
    if (!bound.ok()) {
      return bound;
    }
    env.transport = authority_.get();
    env.serve_transport = transport_.get();
    env.replica_index = boot_.index;
    for (size_t r = 0; r < config_.replica.num_replicas; ++r) {
      env.peers.push_back(ReplicaAddr(r));
    }
    env.replica_cold_boot = boot_.cold_boot;
    env.join_as_learner = boot_.join_as_learner;
  }
  Status bound = transport_->Start(port);
  if (!bound.ok()) {
    return bound;
  }
  // Shards share the one policy: FixedTermPolicy is immutable and the
  // clock-health wrapper locks internally.
  policy_.Wire(&env);
  auto engine = MakeServerEngine(config_, std::move(env));
  if (!engine.ok()) {
    return Status(engine.error().code, engine.error().message);
  }
  engine_ = std::move(engine.value());
  // Engine start (LeaseServer construction, timer arming, a seed replica's
  // first acquisition) runs on the loop thread, preserving the
  // single-threaded protocol model.
  Status serving;
  loop_->RunSync([this, &serving]() { serving = engine_->Start(); });
  if (!serving.ok()) {
    return serving;
  }
  transport_->SetHandler(engine_.get());
  if (authority_ != nullptr) {
    authority_->SetHandler(engine_.get());
  }
  return Status::Ok();
}

void RuntimeServer::Stop() {
  // No receive callback runs once the sockets stop.
  for (UdpTransport* socket : {transport_.get(), authority_.get()}) {
    if (socket != nullptr) {
      socket->SetHandler(nullptr);
      socket->Stop();
    }
  }
  // Engine teardown cancels its timers on the still-running loop.
  if (loop_ != nullptr && engine_ != nullptr) {
    loop_->RunSync([this]() { engine_.reset(); });
  }
  if (loop_ != nullptr) {
    loop_->Stop();
  }
  engine_.reset();
  store_.SetMirror(nullptr);
  rigs_.clear();
  authority_.reset();
  transport_.reset();
  loop_.reset();
}

void RuntimeServer::WithEngine(const std::function<void(ServerEngine&)>& fn) {
  LEASES_CHECK(engine_ != nullptr);
  loop_->RunSync([this, &fn]() { fn(*engine_); });
}

ServerStats RuntimeServer::stats() {
  ServerStats out;
  WithEngine([&out](ServerEngine& engine) { out = engine.stats(); });
  // Local send failures are invisible to the protocol (it reads them as
  // wire loss), so surface them alongside the engine counters.
  for (UdpTransport* socket : {transport_.get(), authority_.get()}) {
    if (socket != nullptr) {
      out.send_failures += socket->stats().send_failures;
    }
  }
  return out;
}

bool RuntimeServer::is_holder() {
  bool holder = false;
  if (engine_ != nullptr) {
    WithEngine([&holder](ServerEngine& e) {
      holder = e.replica()->is_holder();
    });
  }
  return holder;
}

Duration RuntimeServer::last_inherited_bound() {
  Duration bound = Duration::Zero();
  WithEngine([&bound](ServerEngine& e) {
    bound = e.replica()->last_inherited_bound();
  });
  return bound;
}

uint64_t RuntimeServer::processed() const {
  uint64_t total = 0;
  for (const UdpTransport* socket : {transport_.get(), authority_.get()}) {
    if (socket != nullptr) {
      total += socket->stats().TotalReceived();
    }
  }
  return total;
}

RuntimeClient::RuntimeClient(NodeId id, NodeId server_id, FileId root,
                             ClientParams params)
    : id_(id), server_id_(server_id), root_(root), params_(params) {}

RuntimeClient::~RuntimeClient() { Stop(); }

Status RuntimeClient::Start(uint16_t server_port, uint16_t port) {
  loop_ = std::make_unique<EventLoop>();
  transport_ = std::make_unique<UdpTransport>(id_, loop_.get(), nullptr);
  Status started = transport_->Start(port);
  if (!started.ok()) {
    return started;
  }
  transport_->AddPeer(server_id_, server_port);
  faulty_ =
      std::make_unique<FaultInjectingTransport>(transport_.get(), loop_.get());
  uint64_t incarnation = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  loop_->RunSync([this, incarnation]() {
    client_ = std::make_unique<CacheClient>(
        id_, server_id_, root_, faulty_.get(), &clock_, loop_.get(),
        params_, /*oracle=*/nullptr, incarnation);
  });
  transport_->SetHandler(client_.get());
  return Status::Ok();
}

void RuntimeClient::Stop() {
  if (transport_ != nullptr) {
    transport_->SetHandler(nullptr);
    transport_->Stop();
  }
  if (loop_ != nullptr && client_ != nullptr) {
    loop_->RunSync([this]() { client_.reset(); });
  }
  if (loop_ != nullptr) {
    loop_->Stop();
  }
  client_.reset();
  faulty_.reset();  // after Stop: no more loop callbacks into the decorator
  transport_.reset();
  loop_.reset();
}

template <typename T, typename Call>
Result<T> RuntimeClient::Blocking(Call call, Duration timeout) {
  LEASES_CHECK(client_ != nullptr);
  Waiter<T> waiter;
  auto run = [this, call = std::move(call),
              cb = waiter.MakeCallback()]() mutable {
    call(*client_, std::move(cb));
  };
  // An idle loop lets the call run right here, so a miss puts its request
  // on the wire from this thread. Otherwise the call queues behind the
  // loop's work.
  if (!loop_->TryRunHere(run)) {
    loop_->Post(std::move(run));
  }
  return Await(*loop_, waiter, timeout);
}

Result<OpenResult> RuntimeClient::Open(const std::string& path,
                                       Duration timeout) {
  return Blocking<OpenResult>(
      [path](CacheClient& client, OpenCallback cb) {
        client.Open(path, std::move(cb));
      },
      timeout);
}

Result<ReadResult> RuntimeClient::Read(FileId file, Duration timeout) {
  LEASES_CHECK(client_ != nullptr);
  // A hit is served right here by the cache's synchronous hit path: no
  // callback, no waiter, no thread switch. A miss starts its fetch in the
  // same unit of loop work, without a second hit check, and waits like any
  // other blocking call. Posted work runs later, so it takes the full Read.
  ReadResult hit;
  std::optional<Waiter<ReadResult>> miss;
  const bool ran = loop_->TryRunHere([this, file, &hit, &miss]() {
    if (!client_->ReadCached(file, &hit)) {
      client_->ReadMiss(file, miss.emplace().MakeCallback());
    }
  });
  if (!ran) {
    loop_->Post([this, file, cb = miss.emplace().MakeCallback()]() mutable {
      client_->Read(file, std::move(cb));
    });
  } else if (!miss.has_value()) {
    return hit;
  }
  return Await(*loop_, *miss, timeout);
}

Result<WriteResult> RuntimeClient::Write(FileId file,
                                         std::vector<uint8_t> data,
                                         Duration timeout) {
  return Blocking<WriteResult>(
      [file, data = std::move(data)](CacheClient& client,
                                     WriteCallback cb) mutable {
        client.Write(file, std::move(data), std::move(cb));
      },
      timeout);
}

void RuntimeClient::WithClient(std::function<void(CacheClient&)> fn) {
  LEASES_CHECK(loop_ != nullptr && client_ != nullptr);
  loop_->RunSync([this, &fn]() { fn(*client_); });
}

ClientStats RuntimeClient::stats() {
  ClientStats out;
  WithClient([&out](CacheClient& client) { out = client.stats(); });
  return out;
}

}  // namespace leases
