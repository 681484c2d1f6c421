#include "src/runtime/node.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>

#include "src/common/check.h"
#include "src/fs/journal.h"

namespace leases {
namespace {

// Bridges an async protocol call into a blocking one with a timeout. The
// shared state outlives the caller's wait if the callback fires late; a
// callback that already fired (a call completed inline) returns at once.
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
      }
      state->cv.notify_one();
    };
  }

  Result<T> Wait(Duration timeout) {
    std::unique_lock<std::mutex> lock(state_->mu);
    if (!state_->cv.wait_for(
            lock, std::chrono::microseconds(timeout.ToMicros()),
            [this]() { return state_->result.has_value(); })) {
      return Error{ErrorCode::kTimeout, "blocking call timed out"};
    }
    return std::move(*state_->result);
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Result<T>> result;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace

RuntimeServer::RuntimeServer(NodeId id, EngineConfig config)
    : id_(id),
      config_(std::move(config)),
      policy_(std::make_unique<FixedTermPolicy>(config_.term)) {}

RuntimeServer::RuntimeServer(NodeId id, ServerParams params, Duration term)
    : RuntimeServer(id, [&] {
        EngineConfig config;
        config.server = params;
        config.term = term;
        return config;
      }()) {}

RuntimeServer::~RuntimeServer() { Stop(); }

Status RuntimeServer::Start(uint16_t port) { return StartInternal(port); }

Status RuntimeServer::Start(const std::string& data_dir, uint16_t port) {
  auto journal = std::make_unique<JournalBackend>(data_dir);
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
  return StartInternal(port);
}

Status RuntimeServer::StartInternal(uint16_t port) {
  loop_ = std::make_unique<EventLoop>();
  transport_ = std::make_unique<UdpTransport>(id_, loop_.get(), nullptr);
  Status started = transport_->Start(port);
  if (!started.ok()) {
    return started;
  }
  // All protocol traffic goes through the fault decorator (a passthrough
  // until faults are configured); delayed re-sends run on the loop.
  faulty_ =
      std::make_unique<FaultInjectingTransport>(transport_.get(), loop_.get());
  EngineEnv env;
  env.id = id_;
  env.store = &store_;
  env.meta = &meta_;
  env.transport = faulty_.get();
  env.clock = &clock_;
  env.timers = loop_.get();
  env.policy = policy_.get();
  auto engine = MakeServerEngine(config_, std::move(env));
  if (!engine.ok()) {
    return Status(engine.error().code, engine.error().message);
  }
  engine_ = std::move(engine.value());
  // Engine start (LeaseServer construction, timer arming) runs on the loop
  // thread, preserving the single-threaded protocol model.
  Status serving;
  loop_->RunSync([this, &serving]() { serving = engine_->Start(); });
  if (!serving.ok()) {
    return serving;
  }
  transport_->SetHandler(engine_.get());
  return Status::Ok();
}

void RuntimeServer::Stop() {
  if (transport_ != nullptr) {
    transport_->SetHandler(nullptr);
    transport_->Stop();
  }
  if (loop_ != nullptr && engine_ != nullptr) {
    loop_->RunSync([this]() { engine_.reset(); });
  }
  if (loop_ != nullptr) {
    loop_->Stop();
  }
  engine_.reset();
  faulty_.reset();  // after Stop: no more loop callbacks into the decorator
  transport_.reset();
  loop_.reset();
}

void RuntimeServer::WithServer(std::function<void(LeaseServer&)> fn) {
  LEASES_CHECK(loop_ != nullptr && engine_ != nullptr);
  loop_->RunSync([this, &fn]() { fn(*engine_->plain()); });
}

ServerStats RuntimeServer::stats() {
  ServerStats out;
  WithServer([&out](LeaseServer& server) { out = server.stats(); });
  // Transport plane: local send failures are invisible to the protocol (it
  // reads them as wire loss), so surface them alongside the server counters.
  out.send_failures = transport_->stats().send_failures;
  return out;
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
  // An idle loop lets the call run right here: a cache hit completes with
  // no thread switch, and a miss puts its request on the wire from this
  // thread. Otherwise the call queues behind the loop's work.
  if (!loop_->TryRunHere(run)) {
    loop_->Post(std::move(run));
  }
  return waiter.Wait(timeout);
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
  return Blocking<ReadResult>(
      [file](CacheClient& client, ReadCallback cb) {
        client.Read(file, std::move(cb));
      },
      timeout);
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
