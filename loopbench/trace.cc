#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <mutex>
#include <type_traits>
#include <unordered_map>

#include "src/analytic/model.h"
#include "src/clock/system_clock.h"
#include "src/core/server_engine.h"
#include "src/core/term_policy.h"
#include "src/fs/journal.h"
#include "src/runtime/event_loop.h"
#include "src/runtime/shard_loop.h"
#include "src/runtime/udp_transport.h"

namespace loopbench {

using leases::DecodePacket;
using leases::DurableMeta;
using leases::EngineEnv;
using leases::MessageClass;
using leases::Packet;

namespace trace {
namespace {

constexpr uint64_t kSampleEvery = 32;       // requests whose spans are kept
constexpr size_t kMaxSpansPerThread = 200000;
constexpr size_t kReservoirSize = 1 << 18;  // self-time samples per name
constexpr uint64_t kCaptureEvery = 16;      // datagrams kept for the codec
constexpr size_t kMaxCapturedPerThread = 4096;
constexpr uint8_t kNoType = 0xff;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t JoinKey(uint32_t node, uint64_t key) {
  return Mix(key ^ (static_cast<uint64_t>(node) << 40));
}

// Uniform sample of up to kReservoirSize values, plus exact count and sum.
struct Reservoir {
  uint64_t count = 0;
  double sum_ns = 0;
  std::vector<uint32_t> samples;
  uint64_t rng = 0x2545f4914f6cdd1dULL;

  void Add(uint64_t ns) {
    ++count;
    sum_ns += static_cast<double>(ns);
    uint32_t v = static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
    if (samples.size() < kReservoirSize) {
      samples.push_back(v);
      return;
    }
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    uint64_t j = rng % count;
    if (j < kReservoirSize) {
      samples[j] = v;
    }
  }
};

struct SpanRecord {
  uint64_t id;
  uint64_t parent;  // 0: none
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t key;     // RequestId, or an approval's write seq; 0: none
  uint32_t node;    // the client the request belongs to
  uint16_t name;
  uint8_t type;     // Packet variant index, or kNoType
  uint16_t thread;
};

struct Frame {
  uint64_t id;
  uint64_t start_ns;
  uint64_t child_ns;
  uint64_t key;
  uint32_t node;
  uint16_t name;
  uint8_t type;
};

struct ThreadTrace {
  uint16_t index = 0;
  uint64_t next_id = 1;
  uint64_t unkeyed = 0;
  std::vector<Frame> stack;
  Reservoir names[kNumNames];
  std::vector<SpanRecord> spans;
  uint64_t counters[kNumCounters] = {};
  uint64_t datagrams = 0;
  std::vector<std::vector<uint8_t>> captured;
  Op* current_op = nullptr;
  // WriteRequest handler start, by JoinKey(client, request).
  std::unordered_map<uint64_t, uint64_t> write_arrivals;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadTrace>> threads;
  std::atomic<uint64_t> generation{1};
};

Registry& TheRegistry() {
  static Registry registry;
  return registry;
}

thread_local ThreadTrace* t_trace = nullptr;
thread_local uint64_t t_generation = 0;

ThreadTrace& Local() {
  Registry& reg = TheRegistry();
  uint64_t generation = reg.generation.load(std::memory_order_acquire);
  if (t_trace == nullptr || t_generation != generation) {
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.threads.push_back(std::make_unique<ThreadTrace>());
    t_trace = reg.threads.back().get();
    t_trace->index = static_cast<uint16_t>(reg.threads.size() - 1);
    t_generation = generation;
  }
  return *t_trace;
}

bool Keep(ThreadTrace& t, uint32_t node, uint64_t key) {
  if (t.spans.size() >= kMaxSpansPerThread) {
    return false;
  }
  if (key == 0) {
    return ++t.unkeyed % kSampleEvery == 0;
  }
  return JoinKey(node, key) % kSampleEvery == 0;
}

void Count(Counter counter, uint64_t n) { Local().counters[counter] += n; }

template <typename T, typename V>
struct VariantIndex;
template <typename T, typename... Ts>
struct VariantIndex<T, std::variant<Ts...>> {
  static constexpr uint8_t value = [] {
    uint8_t i = 0;
    (void)((std::is_same_v<T, Ts> ? false : (++i, true)) && ...);
    return i;
  }();
};
template <typename T>
constexpr uint8_t kIndex = VariantIndex<T, Packet>::value;

bool IsRequest(uint8_t type) {
  return type == kIndex<leases::ReadRequest> ||
         type == kIndex<leases::WriteRequest> ||
         type == kIndex<leases::ExtendRequest>;
}

bool IsReply(uint8_t type) {
  return type == kIndex<leases::ReadReply> ||
         type == kIndex<leases::WriteReply> ||
         type == kIndex<leases::ExtendReply>;
}

// The reply type answering request type `type`.
uint8_t ReplyTo(uint8_t type) { return static_cast<uint8_t>(type + 1); }

uint64_t KeyOf(const Packet& packet) {
  return std::visit(
      [](const auto& m) -> uint64_t {
        if constexpr (requires { m.req; }) {
          return m.req.value();
        } else if constexpr (requires { m.write_seq; }) {
          return m.write_seq;
        } else {
          return 0;
        }
      },
      packet);
}

void NoteArrival(uint32_t from, uint64_t key, const Packet& packet) {
  if (packet.index() == kIndex<leases::WriteRequest>) {
    Local().write_arrivals.emplace(JoinKey(from, key), NowNs());
  }
}

void Capture(std::span<const uint8_t> bytes) {
  ThreadTrace& t = Local();
  if (++t.datagrams % kCaptureEvery == 0 &&
      t.captured.size() < kMaxCapturedPerThread) {
    t.captured.emplace_back(bytes.begin(), bytes.end());
  }
}

Name HandleName(bool server, const Packet& packet) {
  return static_cast<Name>((server ? kServerHandle : kClientHandle) +
                           packet.index());
}

}  // namespace

void Reset(bool on) {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.threads.clear();
  reg.generation.fetch_add(1, std::memory_order_release);
  g_on.store(on);
}

Scope::Scope(Name name, uint32_t node, uint64_t key) : active_(On()) {
  if (!active_) {
    return;
  }
  ThreadTrace& t = Local();
  t.stack.push_back(Frame{(static_cast<uint64_t>(t.index) << 48) | t.next_id++,
                          NowNs(), 0, key, node, name, kNoType});
}

Scope::~Scope() {
  if (!active_) {
    return;
  }
  ThreadTrace& t = Local();
  Frame f = t.stack.back();
  t.stack.pop_back();
  uint64_t end = NowNs();
  uint64_t duration = end - f.start_ns;
  t.names[f.name].Add(duration > f.child_ns ? duration - f.child_ns : 0);
  uint64_t parent = 0;
  if (!t.stack.empty()) {
    t.stack.back().child_ns += duration;
    parent = t.stack.back().id;
  }
  if (Keep(t, f.node, f.key)) {
    t.spans.push_back(SpanRecord{f.id, parent, f.start_ns, end, f.key, f.node,
                                 f.name, f.type, t.index});
  }
}

namespace {

// Scope with a message type attached (handler and send spans).
class TypedScope {
 public:
  TypedScope(Name name, uint32_t node, uint64_t key, uint8_t type)
      : scope_(name, node, key) {
    if (On()) {
      Local().stack.back().type = type;
    }
  }

 private:
  Scope scope_;
};

}  // namespace

CallScope::CallScope(Op* op, bool write)
    : scope_(write ? kCallWrite : kCallRead, op->node), active_(On()) {
  if (!active_) {
    return;
  }
  ThreadTrace& t = Local();
  previous_ = t.current_op;
  t.current_op = op;
}

CallScope::~CallScope() {
  if (active_) {
    Local().current_op = previous_;
  }
}

void FinishOp(const Op& op, bool write, bool from_cache) {
  if (!On()) {
    return;
  }
  ThreadTrace& t = Local();
  uint64_t end = NowNs();
  uint64_t duration = end - op.start_ns;
  Name name = write ? kOpWrite : kOpRead;
  t.names[name].Add(duration);
  if (from_cache) {
    t.names[kLocalRead].Add(duration);
  }
  if (Keep(t, op.node, op.req)) {
    t.spans.push_back(SpanRecord{
        (static_cast<uint64_t>(t.index) << 48) | t.next_id++, 0, op.start_ns,
        end, op.req, op.node, static_cast<uint16_t>(name), kNoType, t.index});
  }
}

void Sample(Name name, uint64_t ns) {
  if (On()) {
    Local().names[name].Add(ns);
  }
}

}  // namespace trace

namespace {

using trace::On;
using trace::Scope;
using trace::TypedScope;

// Transport decorator: one span per Send/Multicast. On a client it also
// links the request to the operation being issued; on the server it closes
// the write-hold interval when a WriteReply leaves.
class TracingTransport : public leases::Transport {
 public:
  TracingTransport(leases::Transport* inner, bool server)
      : inner_(inner), server_(server) {}

  NodeId local_node() const override { return inner_->local_node(); }

  // The protocol objects send typed packets; the byte path only forwards.
  void Send(NodeId dst, MessageClass cls, std::vector<uint8_t> bytes) override {
    inner_->Send(dst, cls, std::move(bytes));
  }
  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 std::vector<uint8_t> bytes) override {
    inner_->Multicast(dst, cls, std::move(bytes));
  }

  void Send(NodeId dst, MessageClass cls, Packet packet) override {
    if (!On()) {
      inner_->Send(dst, cls, std::move(packet));
      return;
    }
    uint64_t key = trace::KeyOf(packet);
    uint8_t type = static_cast<uint8_t>(packet.index());
    trace::ThreadTrace& t = trace::Local();
    uint32_t node = server_ ? dst.value() : inner_->local_node().value();
    if (!server_ && t.current_op != nullptr && t.current_op->req == 0 &&
        trace::IsRequest(type)) {
      t.current_op->req = key;
    }
    {
      TypedScope span(server_ ? trace::kServerSend : trace::kClientSend, node,
                      key, type);
      inner_->Send(dst, cls, std::move(packet));
    }
    if (server_ && type == trace::kIndex<leases::WriteReply>) {
      auto it = t.write_arrivals.find(trace::JoinKey(node, key));
      if (it != t.write_arrivals.end()) {
        trace::Sample(trace::kWriteHold, NowNs() - it->second);
        t.write_arrivals.erase(it);
      }
    }
  }

  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 Packet packet) override {
    if (!On()) {
      inner_->Multicast(dst, cls, std::move(packet));
      return;
    }
    TypedScope span(server_ ? trace::kServerSend : trace::kClientSend, 0,
                    trace::KeyOf(packet), static_cast<uint8_t>(packet.index()));
    inner_->Multicast(dst, cls, std::move(packet));
  }

 private:
  leases::Transport* inner_;
  bool server_;
};

// PacketHandler decorator: decodes the datagram under a decode span, then
// hands the packet to the inner handler's typed entry point under a
// per-message-type handler span. HandlePacket is exactly decode + typed
// dispatch in LeaseServer and CacheClient, so behaviour is unchanged.
class TracingHandler : public leases::PacketHandler {
 public:
  TracingHandler(leases::PacketHandler* inner, bool server, NodeId self)
      : inner_(inner), server_(server), self_(self) {}

  void HandlePacket(NodeId from, MessageClass cls,
                    std::span<const uint8_t> bytes) override {
    if (!On()) {
      inner_->HandlePacket(from, cls, bytes);
      return;
    }
    trace::Capture(bytes);
    std::optional<Packet> packet;
    {
      Scope span(server_ ? trace::kServerDecode : trace::kClientDecode);
      packet = DecodePacket(bytes);
    }
    if (!packet) {
      inner_->HandlePacket(from, cls, bytes);  // it logs and drops it
      return;
    }
    uint64_t key = trace::KeyOf(*packet);
    uint32_t node = server_ ? from.value() : self_.value();
    if (server_) {
      trace::NoteArrival(node, key, *packet);
    }
    TypedScope span(trace::HandleName(server_, *packet), node, key,
                    static_cast<uint8_t>(packet->index()));
    inner_->HandleTyped(from, cls, *packet);
  }

 private:
  leases::PacketHandler* inner_;
  bool server_;
  NodeId self_;
};

// StorageBackend decorator: one span per Append.
class TracingStorage : public leases::StorageBackend {
 public:
  explicit TracingStorage(std::unique_ptr<leases::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  Status Append(const leases::MetaRecord& record) override {
    Scope span(trace::kJournalAppend);
    if (On()) {
      trace::Count(trace::kAppends, 1);
    }
    return inner_->Append(record);
  }
  Status Replay(const ReplayFn& fn) override { return inner_->Replay(fn); }
  Status Compact(
      const std::vector<std::pair<std::string, int64_t>>& state) override {
    return inner_->Compact(state);
  }
  void PowerCut(leases::TailDamage damage) override {
    inner_->PowerCut(damage);
  }
  const leases::StorageStats& stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<leases::StorageBackend> inner_;
};

Status FromError(const leases::Error& error) {
  return Status(error.code, error.message);
}

// The plain server host (as RuntimeServer), with the decorators in place.
class TracedPlainServer : public ServerHost {
 public:
  TracedPlainServer(const WorkloadSpec& spec, NodeId id)
      : id_(id), config_(ConfigFor(spec)), policy_(config_.term) {}
  ~TracedPlainServer() override { Stop(); }

  FileStore& store() override { return store_; }

  Status Start(const std::string& data_dir) override {
    if (!data_dir.empty()) {
      auto journal = std::make_unique<leases::JournalBackend>(data_dir);
      Status opened = journal->Open();
      if (!opened.ok()) {
        return opened;
      }
      storage_ = std::make_unique<TracingStorage>(std::move(journal));
      meta_ = DurableMeta(storage_.get());
      Status replayed = meta_.Reopen();
      if (!replayed.ok()) {
        return replayed;
      }
    }
    loop_ = std::make_unique<leases::EventLoop>();
    udp_ = std::make_unique<leases::UdpTransport>(id_, loop_.get(), nullptr);
    Status started = udp_->Start(0);
    if (!started.ok()) {
      return started;
    }
    out_ = std::make_unique<TracingTransport>(udp_.get(), /*server=*/true);
    EngineEnv env;
    env.id = id_;
    env.store = &store_;
    env.meta = &meta_;
    env.transport = out_.get();
    env.clock = &clock_;
    env.timers = loop_.get();
    env.policy = &policy_;
    auto engine = leases::MakeServerEngine(config_, std::move(env));
    if (!engine.ok()) {
      return FromError(engine.error());
    }
    engine_ = std::move(engine.value());
    Status serving;
    loop_->RunSync([this, &serving]() { serving = engine_->Start(); });
    if (!serving.ok()) {
      return serving;
    }
    handler_ = std::make_unique<TracingHandler>(engine_.get(), true, id_);
    udp_->SetHandler(handler_.get());
    return Status::Ok();
  }

  uint16_t port() const override { return udp_->port(); }
  void AddPeer(NodeId peer, uint16_t port) override {
    udp_->AddPeer(peer, port);
  }
  ServerStats stats() override {
    ServerStats out;
    loop_->RunSync([this, &out]() { out = engine_->stats(); });
    out.send_failures = udp_->stats().send_failures;
    return out;
  }
  uint64_t ring_drops() const override { return 0; }

 private:
  void Stop() {
    if (udp_ != nullptr) {
      udp_->SetHandler(nullptr);
      udp_->Stop();
    }
    if (loop_ != nullptr && engine_ != nullptr) {
      loop_->RunSync([this]() { engine_.reset(); });
    }
    if (loop_ != nullptr) {
      loop_->Stop();
    }
    handler_.reset();
    out_.reset();
    udp_.reset();
    loop_.reset();
  }

  NodeId id_;
  leases::EngineConfig config_;
  FileStore store_;
  std::unique_ptr<leases::StorageBackend> storage_;  // outlives meta_
  DurableMeta meta_;
  leases::SystemClock clock_;
  leases::FixedTermPolicy policy_;
  std::unique_ptr<leases::EventLoop> loop_;
  std::unique_ptr<leases::UdpTransport> udp_;
  std::unique_ptr<TracingTransport> out_;
  std::unique_ptr<leases::ServerEngine> engine_;
  std::unique_ptr<TracingHandler> handler_;
};

// The sharded server host (as ShardedRuntimeServer): receiver-thread
// decode and route into per-shard SPSC rings, shard threads running the
// handlers, and a batch flush in each shard's idle hook.
class TracedShardedServer : public ServerHost {
 public:
  TracedShardedServer(const WorkloadSpec& spec, NodeId id)
      : id_(id), config_(ConfigFor(spec)) {}
  ~TracedShardedServer() override { Stop(); }

  FileStore& store() override { return store_; }

  Status Start(const std::string& /*data_dir*/) override {
    udp_ = std::make_unique<leases::UdpTransport>(id_, nullptr, nullptr);
    const size_t num_shards = config_.num_shards;
    std::vector<leases::ShardEnv> envs(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      auto rig = std::make_unique<ShardRig>();
      rig->loop = std::make_unique<leases::ShardLoop>();
      rig->policy = std::make_unique<leases::FixedTermPolicy>(config_.term);
      rig->sender = std::make_unique<leases::UdpBatchSender>(udp_.get());
      rig->out = std::make_unique<TracingTransport>(rig->sender.get(), true);
      envs[i].store = &rig->store;
      envs[i].meta = &rig->meta;
      envs[i].clock = &clock_;
      envs[i].timers = rig->loop.get();
      envs[i].transport = rig->out.get();
      envs[i].policy = rig->policy.get();
      rigs_.push_back(std::move(rig));
    }
    EngineEnv env;
    env.id = id_;
    env.shards = std::move(envs);
    auto engine = leases::MakeServerEngine(config_, std::move(env));
    if (!engine.ok()) {
      return FromError(engine.error());
    }
    engine_ = std::move(engine.value());
    Status serving = engine_->Start();
    if (!serving.ok()) {
      return serving;
    }
    sharded_ = engine_->sharded();
    store_.SetMirror([this](FileId file, const leases::FileRecord* rec) {
      sharded_->MirrorRecord(file, rec);
    });
    sharded_->AdoptAll(store_);

    for (size_t i = 0; i < num_shards; ++i) {
      leases::UdpBatchSender* sender = rigs_[i]->sender.get();
      rigs_[i]->loop->Start(
          [this, i](const leases::ShardInbound& msg) {
            if (!On()) {
              sharded_->DeliverToShard(i, msg.from, msg.cls, msg.packet);
              return;
            }
            uint64_t key = trace::KeyOf(msg.packet);
            trace::NoteArrival(msg.from.value(), key, msg.packet);
            TypedScope span(trace::HandleName(true, msg.packet),
                            msg.from.value(), key,
                            static_cast<uint8_t>(msg.packet.index()));
            sharded_->DeliverToShard(i, msg.from, msg.cls, msg.packet);
          },
          [sender]() {
            size_t frames = sender->pending();
            if (frames == 0 || !On()) {
              sender->Flush();
              return;
            }
            Scope span(trace::kShardFlush);
            sender->Flush();
            trace::Count(trace::kFlushes, 1);
            trace::Count(trace::kFlushedFrames, frames);
          });
    }
    udp_->SetRawHandler([this](NodeId from, MessageClass cls,
                               std::span<const uint8_t> payload) {
      Scope route(trace::kServerRoute);
      if (On()) {
        trace::Capture(payload);
      }
      std::optional<Packet> packet;
      {
        Scope span(trace::kServerDecode);
        packet = DecodePacket(payload);
      }
      if (!packet) {
        return;  // malformed datagrams are dropped, as in the runtime host
      }
      sharded_->Route(
          from, cls, std::move(*packet),
          [this](size_t shard, NodeId f, MessageClass c, Packet&& p) {
            if (!rigs_[shard]->loop->Enqueue(
                    leases::ShardInbound{f, c, std::move(p)})) {
              dropped_.fetch_add(1, std::memory_order_relaxed);
            }
          });
    });
    return udp_->Start(0);
  }

  uint16_t port() const override { return udp_->port(); }
  void AddPeer(NodeId peer, uint16_t port) override {
    udp_->AddPeer(peer, port);
  }
  ServerStats stats() override {
    ServerStats out;
    for (size_t i = 0; i < rigs_.size(); ++i) {
      ServerStats snap;
      rigs_[i]->loop->RunSync(
          [this, i, &snap]() { snap = sharded_->shard(i).stats(); });
      leases::MergeServerStats(&out, snap);
    }
    out.send_failures += udp_->stats().send_failures;
    return out;
  }
  uint64_t ring_drops() const override {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct ShardRig {
    std::unique_ptr<leases::ShardLoop> loop;
    FileStore store;
    DurableMeta meta;
    std::unique_ptr<leases::FixedTermPolicy> policy;
    std::unique_ptr<leases::UdpBatchSender> sender;
    std::unique_ptr<TracingTransport> out;
  };

  void Stop() {
    if (udp_ != nullptr) {
      udp_->Stop();
    }
    for (auto& rig : rigs_) {
      rig->loop->Stop();
    }
    engine_.reset();
    sharded_ = nullptr;
    store_.SetMirror(nullptr);
    rigs_.clear();
    udp_.reset();
  }

  NodeId id_;
  leases::EngineConfig config_;
  FileStore store_;
  leases::SystemClock clock_;
  std::unique_ptr<leases::UdpTransport> udp_;
  std::vector<std::unique_ptr<ShardRig>> rigs_;
  std::unique_ptr<leases::ServerEngine> engine_;
  leases::ShardedLeaseServer* sharded_ = nullptr;
  std::atomic<uint64_t> dropped_{0};
};

// The client host (as RuntimeClient). Its blocking calls use the same
// post-to-loop and promise/future handoff, and additionally split the
// caller's wall time into the CacheClient call->callback time and the rest
// (the handoff).
class TracedClient : public ClientHost {
 public:
  TracedClient(NodeId id, NodeId server, FileId root, ClientParams params)
      : id_(id), server_(server), root_(root), params_(params) {}
  ~TracedClient() override { Stop(); }

  Status Start(uint16_t server_port) override {
    loop_ = std::make_unique<leases::EventLoop>();
    udp_ = std::make_unique<leases::UdpTransport>(id_, loop_.get(), nullptr);
    Status started = udp_->Start(0);
    if (!started.ok()) {
      return started;
    }
    udp_->AddPeer(server_, server_port);
    out_ = std::make_unique<TracingTransport>(udp_.get(), /*server=*/false);
    uint64_t incarnation = NowNs();
    loop_->RunSync([this, incarnation]() {
      client_ = std::make_unique<CacheClient>(id_, server_, root_, out_.get(),
                                              &clock_, loop_.get(), params_,
                                              /*oracle=*/nullptr, incarnation);
    });
    handler_ = std::make_unique<TracingHandler>(client_.get(), false, id_);
    udp_->SetHandler(handler_.get());
    return Status::Ok();
  }

  uint16_t port() const override { return udp_->port(); }

  Result<ReadResult> Read(FileId file) override {
    return Blocking<ReadResult>(
        /*write=*/false, [file](CacheClient& c, leases::ReadCallback cb) {
          c.Read(file, std::move(cb));
        });
  }
  Result<WriteResult> Write(FileId file, std::vector<uint8_t> data) override {
    return Blocking<WriteResult>(
        /*write=*/true,
        [file, data = std::move(data)](CacheClient& c,
                                       leases::WriteCallback cb) mutable {
          c.Write(file, std::move(data), std::move(cb));
        });
  }
  void WithClient(std::function<void(CacheClient&)> fn) override {
    loop_->RunSync([this, &fn]() { fn(*client_); });
  }
  ClientStats stats() override {
    ClientStats out;
    WithClient([&out](CacheClient& c) { out = c.stats(); });
    return out;
  }
  NodeMessageStats transport_stats() override { return udp_->stats(); }

 private:
  template <typename T>
  struct CallState {
    std::promise<Result<T>> promise;
    std::atomic<bool> done{false};
    trace::Op op;
    uint64_t op_ns = 0;
  };

  template <typename T, typename Call>
  Result<T> Blocking(bool write, Call call) {
    Scope caller(write ? trace::kCallerWrite : trace::kCallerRead);
    uint64_t start = NowNs();
    auto state = std::make_shared<CallState<T>>();
    std::future<Result<T>> future = state->promise.get_future();
    loop_->Post([this, state, write, call = std::move(call)]() mutable {
      state->op = trace::Op{NowNs(), id_.value(), 0};
      trace::CallScope scope(&state->op, write);
      call(*client_, [state, write](Result<T> r) {
        state->op_ns = NowNs() - state->op.start_ns;
        bool from_cache = false;
        if constexpr (std::is_same_v<T, ReadResult>) {
          from_cache = r.ok() && r->from_cache;
        }
        trace::FinishOp(state->op, write, from_cache);
        bool expected = false;
        if (state->done.compare_exchange_strong(expected, true)) {
          state->promise.set_value(std::move(r));
        }
      });
    });
    if (future.wait_for(std::chrono::microseconds(kCallTimeout.ToMicros())) !=
        std::future_status::ready) {
      return leases::Error{leases::ErrorCode::kTimeout,
                           "blocking call timed out"};
    }
    Result<T> r = future.get();
    if (r.ok()) {
      uint64_t wall = NowNs() - start;
      trace::Sample(trace::kHandoff,
                    wall > state->op_ns ? wall - state->op_ns : 0);
    }
    return r;
  }

  void Stop() {
    if (udp_ != nullptr) {
      udp_->SetHandler(nullptr);
      udp_->Stop();
    }
    if (loop_ != nullptr && client_ != nullptr) {
      loop_->RunSync([this]() { client_.reset(); });
    }
    if (loop_ != nullptr) {
      loop_->Stop();
    }
    handler_.reset();
    out_.reset();
    udp_.reset();
    loop_.reset();
  }

  NodeId id_;
  NodeId server_;
  FileId root_;
  ClientParams params_;
  leases::SystemClock clock_;
  std::unique_ptr<leases::EventLoop> loop_;
  std::unique_ptr<leases::UdpTransport> udp_;
  std::unique_ptr<TracingTransport> out_;
  std::unique_ptr<CacheClient> client_;
  std::unique_ptr<TracingHandler> handler_;
};

// --- Reading the trace ---

struct Collected {
  std::vector<uint32_t> samples[trace::kNumNames];
  uint64_t count[trace::kNumNames] = {};
  double sum_ns[trace::kNumNames] = {};
  std::vector<trace::SpanRecord> spans;
  uint64_t counters[trace::kNumCounters] = {};
  std::vector<std::vector<uint8_t>> captured;

  double MedianUs(int name) const {
    return Quantile(samples[name], 0.5) / 1e3;
  }
};

Collected Collect() {
  Collected c;
  trace::Registry& reg = trace::TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& t : reg.threads) {
    for (int n = 0; n < trace::kNumNames; ++n) {
      const trace::Reservoir& r = t->names[n];
      c.samples[n].insert(c.samples[n].end(), r.samples.begin(),
                          r.samples.end());
      c.count[n] += r.count;
      c.sum_ns[n] += r.sum_ns;
    }
    c.spans.insert(c.spans.end(), t->spans.begin(), t->spans.end());
    for (int k = 0; k < trace::kNumCounters; ++k) {
      c.counters[k] += t->counters[k];
    }
    for (auto& bytes : t->captured) {
      c.captured.push_back(std::move(bytes));
    }
  }
  return c;
}

std::string NameOf(int name) {
  static const char* const kFixed[] = {
      "caller.read",     "caller.write",      "client.handoff",
      "client.op.read",  "client.op.write",   "client.local_read",
      "client.call.read", "client.call.write", "client.decode",
      "client.send",     "bench.callback",    "server.route",
      "server.decode",   "server.send",       "shard.flush",
      "journal.append",  "server.write_hold"};
  // Packet variant order (src/proto/messages.h).
  static const char* const kTypes[] = {
      "ReadRequest",      "ReadReply",        "WriteRequest",
      "WriteReply",       "ExtendRequest",    "ExtendReply",
      "ApproveRequest",   "ApproveReply",     "Relinquish",
      "InstalledExtend",  "Ping",             "Pong",
      "AuthorityPrepare", "AuthorityPromise", "AuthorityPropose",
      "AuthorityAccept"};
  static_assert(std::size(kFixed) == trace::kClientHandle);
  static_assert(std::size(kTypes) == std::variant_size_v<Packet>);
  if (name < trace::kClientHandle) {
    return kFixed[name];
  }
  bool server = name >= trace::kServerHandle;
  int type = name - (server ? trace::kServerHandle : trace::kClientHandle);
  return std::string(server ? "server.handle." : "client.handle.") +
         kTypes[type];
}

// Client round trip minus the server's residence (request handler start to
// reply sent) minus the client's own send: wire, kernel and queue time, per
// request type, over the sampled requests whose spans all joined.
std::unordered_map<uint8_t, std::vector<uint32_t>> QueueWaits(
    const std::vector<trace::SpanRecord>& spans) {
  struct Join {
    uint8_t type = trace::kNoType;
    uint64_t send_start = 0, send_end = 0, reply_start = 0;
    uint64_t handle_start = 0, reply_sent = 0;
  };
  std::unordered_map<uint64_t, Join> joins;
  for (const trace::SpanRecord& s : spans) {
    // Requests and their replies only; approvals carry write seqs.
    if (s.key == 0 || !(trace::IsRequest(s.type) || trace::IsReply(s.type))) {
      continue;
    }
    Join& j = joins[trace::JoinKey(s.node, s.key)];
    if (s.name == trace::kClientSend && trace::IsRequest(s.type)) {
      if (j.send_start == 0) {
        j.type = s.type;
        j.send_start = s.start_ns;
        j.send_end = s.end_ns;
      }
    } else if (s.name >= trace::kClientHandle &&
               s.name < trace::kServerHandle) {
      if (trace::IsReply(s.type) && j.reply_start == 0) {
        j.reply_start = s.start_ns;
      }
    } else if (s.name >= trace::kServerHandle) {
      if (trace::IsRequest(s.type) && j.handle_start == 0) {
        j.handle_start = s.start_ns;
      }
    } else if (s.name == trace::kServerSend && trace::IsReply(s.type) &&
               j.reply_sent == 0) {
      j.reply_sent = s.end_ns;
    }
  }
  std::unordered_map<uint8_t, std::vector<uint32_t>> waits;
  for (const auto& [key, j] : joins) {
    if (j.send_start == 0 || j.reply_start < j.send_end ||
        j.handle_start == 0 || j.reply_sent < j.handle_start) {
      continue;
    }
    int64_t wait = static_cast<int64_t>(j.reply_start - j.send_end) -
                   static_cast<int64_t>(j.reply_sent - j.handle_start);
    waits[j.type].push_back(static_cast<uint32_t>(std::max<int64_t>(wait, 0)));
  }
  return waits;
}

// Encode and decode cost over the captured message mix.
struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
  double bytes_per_msg = 0;
  size_t messages = 0;
};

CodecCost MeasureCodec(const std::vector<std::vector<uint8_t>>& captured) {
  CodecCost cost;
  std::vector<Packet> packets;
  double bytes = 0;
  for (const auto& datagram : captured) {
    std::optional<Packet> p = DecodePacket(datagram);
    if (p) {
      packets.push_back(std::move(*p));
      bytes += static_cast<double>(datagram.size());
    }
  }
  if (packets.empty()) {
    return cost;
  }
  cost.messages = packets.size();
  cost.bytes_per_msg = bytes / static_cast<double>(packets.size());
  constexpr uint64_t kBudgetNs = 100'000'000;
  uint64_t n = 0;
  uint64_t start = NowNs();
  do {
    for (const auto& datagram : captured) {
      std::optional<Packet> p = DecodePacket(datagram);
      asm volatile("" : : "r"(p.has_value()));
      ++n;
    }
  } while (NowNs() - start < kBudgetNs);
  cost.decode_ns = static_cast<double>(NowNs() - start) / static_cast<double>(n);
  std::vector<uint8_t> buffer;
  n = 0;
  start = NowNs();
  do {
    for (const Packet& p : packets) {
      buffer.clear();
      leases::EncodePacketInto(p, &buffer);
      asm volatile("" : : "r"(buffer.data()) : "memory");
      ++n;
    }
  } while (NowNs() - start < kBudgetNs);
  cost.encode_ns = static_cast<double>(NowNs() - start) / static_cast<double>(n);
  return cost;
}

void WriteSpans(const std::string& path, const Collected& c) {
  std::error_code ignored;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ignored);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "loopbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread,id,parent,name,node,key,start_ns,end_ns\n");
  for (const trace::SpanRecord& s : c.spans) {
    std::fprintf(f, "%u,%llu,%llu,%s,%u,%llu,%llu,%llu\n", s.thread,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 NameOf(s.name).c_str(), s.node,
                 static_cast<unsigned long long>(s.key),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fclose(f);
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

}  // namespace

HostFactory TracedHosts() {
  HostFactory f;
  f.server = [](const WorkloadSpec& spec,
                NodeId id) -> std::unique_ptr<ServerHost> {
    if (spec.shards > 1) {
      return std::make_unique<TracedShardedServer>(spec, id);
    }
    return std::make_unique<TracedPlainServer>(spec, id);
  };
  f.client = [](NodeId id, NodeId server, FileId root, ClientParams params) {
    return std::make_unique<TracedClient>(id, server, root, params);
  };
  return f;
}

std::vector<LayerMetric> ReportTrace(const WorkloadSpec& spec,
                                     const Options& options,
                                     const Measurement& traced,
                                     const Measurement& untraced,
                                     const ParallelismProbe& probe) {
  using namespace trace;  // NOLINT: names of spans
  Collected c = Collect();
  auto waits = QueueWaits(c.spans);
  std::vector<uint32_t> all_waits;
  for (const auto& [type, w] : waits) {
    all_waits.insert(all_waits.end(), w.begin(), w.end());
  }
  auto wait_us = [&waits](uint8_t type) {
    auto it = waits.find(type);
    return it == waits.end() ? 0.0 : Quantile(it->second, 0.5) / 1e3;
  };
  CodecCost codec = MeasureCodec(c.captured);
  const double ops = static_cast<double>(traced.completed());
  const double writes = static_cast<double>(traced.write_ns.size());
  const ClientStats& cs = traced.client;
  const ServerStats& ss = traced.server;
  const int read_handler = kServerHandle + kIndex<leases::ReadRequest>;
  const int write_handler = kServerHandle + kIndex<leases::WriteRequest>;

  // Per-layer metrics reported on every workload.
  std::vector<LayerMetric> out = {
      {"core.cache_client.hit_ratio",
       Ratio(static_cast<double>(cs.local_reads), static_cast<double>(cs.reads)),
       "ratio"},
      {"core.cache_client.local_read_us", c.MedianUs(kLocalRead), "us"},
      {"core.cache_client.extend_items_per_request",
       Ratio(static_cast<double>(cs.extend_items),
             static_cast<double>(cs.extend_requests)),
       "items"},
      {"core.cache_client.evictions_per_op",
       Ratio(static_cast<double>(cs.evictions), ops), "count"},
      {"core.cache_client.invalidations_per_write",
       Ratio(static_cast<double>(cs.invalidations), writes), "count"},
      {"core.lease_server.handler_us.read", c.MedianUs(read_handler), "us"},
      {"core.lease_server.handler_us.write", c.MedianUs(write_handler), "us"},
      {"core.lease_server.write_hold_us", c.MedianUs(kWriteHold), "us"},
      {"core.lease_server.deferred_write_ratio",
       Ratio(static_cast<double>(ss.writes_deferred),
             static_cast<double>(ss.writes_received)),
       "ratio"},
      {"runtime.udp.send_us", c.MedianUs(kServerSend), "us"},
      {"runtime.queue.wait_us", Quantile(all_waits, 0.5) / 1e3, "us"},
      {"proto.encode_ns", codec.encode_ns, "ns"},
      {"proto.decode_ns", codec.decode_ns, "ns"},
      {"proto.bytes_per_msg", codec.bytes_per_msg, "bytes"},
  };

  // The blocking path of the workload's headline operation, row by row.
  const bool writes_headline = spec.shared_writes;
  std::vector<std::pair<std::string, double>> rows;
  double headline_p50 = 0;
  if (spec.window == 0 && !writes_headline) {
    rows = {{"runtime.client.handoff_us", c.MedianUs(kHandoff)},
            {"core.cache_client.local_read_us", c.MedianUs(kLocalRead)}};
    headline_p50 = Quantile(traced.read_ns, 0.5) / 1e3;
  } else {
    const bool w = writes_headline;
    uint8_t request = w ? kIndex<leases::WriteRequest> : kIndex<leases::ReadRequest>;
    if (spec.window == 0) {
      rows.push_back({"runtime.client.handoff_us", c.MedianUs(kHandoff)});
    }
    rows.push_back({w ? "core.cache_client.call_us.write"
                      : "core.cache_client.call_us.read",
                    c.MedianUs(w ? kCallWrite : kCallRead)});
    rows.push_back({"runtime.udp.client_send_us", c.MedianUs(kClientSend)});
    // The wait runs from the request's send to the reply's handler, minus
    // the server's residence, so it already holds both decodes.
    rows.push_back({"runtime.queue.wait_us", wait_us(request)});
    if (w) {
      rows.push_back({"core.lease_server.write_hold_us", c.MedianUs(kWriteHold)});
    } else {
      rows.push_back({"core.lease_server.handler_us.read",
                      c.MedianUs(read_handler)});
      rows.push_back({"runtime.udp.send_us", c.MedianUs(kServerSend)});
    }
    rows.push_back({"core.cache_client.reply_us",
                    c.MedianUs(kClientHandle + ReplyTo(request))});
    headline_p50 = Quantile(w ? traced.write_ns : traced.read_ns, 0.5) / 1e3;
  }
  double row_sum = 0;
  for (const auto& [name, value] : rows) {
    row_sum += value;
  }
  // Scaled figures (reference.h), so a change of host speed between the two
  // runs does not read as tracing overhead.
  const double untraced_ops = Ratio(static_cast<double>(untraced.completed()),
                                    untraced.scaled_seconds);
  const double traced_ops = Ratio(ops, traced.scaled_seconds);
  const double untraced_p50 = Quantile(untraced.read_scaled_ns, 0.5);
  const double traced_p50 = Quantile(traced.read_scaled_ns, 0.5);
  out.push_back({"trace.ledger_share_pct", 100 * Ratio(row_sum, headline_p50),
                 "%"});
  out.push_back({"trace.overhead_ops_pct",
                 100 * (1 - Ratio(traced_ops, untraced_ops)), "%"});
  out.push_back({"trace.overhead_read_p50_pct",
                 100 * (Ratio(traced_p50, untraced_p50) - 1), "%"});
  out.push_back({"host.effective_parallelism", probe.effective, "cores"});

  std::printf("ledger: per-layer metrics (traced run, %.1f s window)\n",
              traced.seconds);
  for (const LayerMetric& m : out) {
    std::printf("  %-44s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Layers this workload may bypass: reported here with their sample count.
  const std::pair<const char*, int> bypassable[] = {
      {"runtime.client.handoff_us", kHandoff},
      {"core.lease_server.handler_us.extend",
       kServerHandle + kIndex<leases::ExtendRequest>},
      {"core.lease_server.handler_us.approve",
       kServerHandle + kIndex<leases::ApproveReply>},
      {"core.lease_server.handler_us.relinquish",
       kServerHandle + kIndex<leases::Relinquish>},
      {"runtime.shard.route_us", kServerRoute},
      {"runtime.shard.flush_us", kShardFlush},
      {"fs.journal.append_us", kJournalAppend},
  };
  for (const auto& [name, id] : bypassable) {
    if (c.count[id] == 0) {
      std::printf("  %-44s %14s    (bypassed: no samples)\n", name, "n/a");
    } else {
      std::printf("  %-44s %14.4f us (n=%llu)\n", name, c.MedianUs(id),
                  static_cast<unsigned long long>(c.count[id]));
    }
  }
  if (c.counters[kFlushes] == 0) {
    std::printf("  %-44s %14s    (bypassed: no batch flushes)\n",
                "runtime.shard.frames_per_flush", "n/a");
  } else {
    std::printf("  %-44s %14.4f frames (n=%llu flushes)\n",
                "runtime.shard.frames_per_flush",
                Ratio(static_cast<double>(c.counters[kFlushedFrames]),
                      static_cast<double>(c.counters[kFlushes])),
                static_cast<unsigned long long>(c.counters[kFlushes]));
  }
  // Fault counters read 0 in a fault-free run, and the journal is appended
  // only at start-up and when the maximum term grows, so these are report
  // text rather than metrics.
  const std::pair<const char*, uint64_t> counts[] = {
      {"core.cache_client.retransmits", cs.retransmits},
      {"core.lease_server.approval_retries", ss.approval_retries},
      {"runtime.udp.send_failures", ss.send_failures},
      {"runtime.shard.ring_drops", traced.ring_drops},
      {"fs.journal.appends (set-up included)", c.counters[kAppends]},
  };
  for (const auto& [name, value] : counts) {
    std::printf("  %-44s %14llu count\n", name,
                static_cast<unsigned long long>(value));
  }
  std::printf("ledger: blocking path of %s_p50 = %.2f us (traced)\n",
              writes_headline ? "write" : "read", headline_p50);
  for (const auto& [name, value] : rows) {
    std::printf("  %-44s %10.2f us  %5.1f%%\n", name.c_str(), value,
                100 * Ratio(value, headline_p50));
  }
  std::printf("  %-44s %10.2f us  %5.1f%% of the p50\n", "sum of rows", row_sum,
              100 * Ratio(row_sum, headline_p50));
  std::printf(
      "trace: overhead (scaled) ops_per_s %.0f -> %.0f (%.1f%%), read_p50_us "
      "%.2f -> %.2f; %zu spans kept, %zu datagrams in the codec mix, %zu "
      "joined requests\n",
      untraced_ops, traced_ops, 100 * (1 - Ratio(traced_ops, untraced_ops)),
      untraced_p50 / 1e3, traced_p50 / 1e3, c.spans.size(), codec.messages,
      all_waits.size());

  if (spec.shared_writes) {
    // Table 2 for loopback: the measured message times in the 3.1 model.
    double handled = 0;
    double handled_ns = c.sum_ns[kServerDecode];
    for (int n = kServerHandle; n < kNumNames; ++n) {
      handled += static_cast<double>(c.count[n]);
      handled_ns += c.sum_ns[n];
    }
    double m_prop_us = Quantile(all_waits, 0.5) / 2e3;
    double m_proc_us = Ratio(handled_ns, handled) / 1e3;
    leases::SystemParams params;
    params.sharing = 2;
    params.multicast_approvals = true;
    params.m_prop = leases::Duration::Micros(std::llround(m_prop_us));
    params.m_proc = leases::Duration::Micros(std::llround(m_proc_us));
    leases::LeaseModel model(params);
    std::printf(
        "model: Table 2 for loopback: m_prop=%.2f us (one-way wire+queue) "
        "m_proc=%.2f us (handler self time per message), rounded to whole us\n"
        "model: ApprovalTime (S=2) = %lld us vs measured write_p50_us %.2f; "
        "ExtensionDelay = %lld us vs measured read_p99_us %.2f (untraced)\n",
        m_prop_us, m_proc_us,
        static_cast<long long>(model.ApprovalTime().ToMicros()),
        Quantile(untraced.write_ns, 0.5) / 1e3,
        static_cast<long long>(model.ExtensionDelay().ToMicros()),
        Quantile(untraced.read_ns, 0.99) / 1e3);
  }
  if (!options.trace_out.empty()) {
    WriteSpans(options.trace_out, c);
    std::printf("trace: spans written to %s\n", options.trace_out.c_str());
  }
  return out;
}

}  // namespace loopbench
