// The three workloads, the public runtime hosts, and the load loops.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.h"
#include "checker.h"
#include "src/metrics/mem_probe.h"
#include "src/runtime/node.h"
#include "src/runtime/sharded_node.h"
#include "trace.h"

namespace loopbench {

using leases::Duration;
using leases::EngineConfig;
using leases::FileClass;

namespace {

constexpr uint32_t kServerId = 1;
constexpr uint32_t kFirstClientId = 100;
constexpr size_t kClients = 2;

// The `why` lines are the ones BENCHMARK.json records for each workload.
const std::vector<WorkloadSpec> kWorkloads = {
    {"read-hit",
     "plain engine, 2 s term, 2 blocking callers, 20:1 reads of 1024 shared "
     "256 B files (all cached) to writes of 32 private ones: reads hit, so "
     "the client host and CacheClient do the work",
     /*shards=*/1, /*term_s=*/2, /*durable=*/false, /*shared_files=*/1024,
     /*dirs=*/16, /*file_bytes=*/256, /*private_files=*/32,
     /*max_cached_files=*/0, /*warm_files=*/1024, /*window=*/0,
     /*write_fraction=*/1.0 / 21, /*shared_writes=*/false},
    {"grant-miss",
     "2-shard engine, 10 s term, 2 clients x 16 loop-issued ops, 64-file "
     "caches, uniform reads of 16384 256 B files (1:32 private writes): "
     "every read is a grant plus an eviction relinquish",
     /*shards=*/2, /*term_s=*/10, /*durable=*/false, /*shared_files=*/16384,
     /*dirs=*/64, /*file_bytes=*/256, /*private_files=*/16,
     /*max_cached_files=*/64, /*warm_files=*/64, /*window=*/16,
     /*write_fraction=*/1.0 / 32, /*shared_writes=*/false},
    {"write-share",
     "journaled plain engine, 10 s term, 2 blocking callers, 1:1 reads and "
     "4 KiB writes on 64 shared files: writes find the other client's "
     "lease, pay one approval round, and it refetches",
     /*shards=*/1, /*term_s=*/10, /*durable=*/true, /*shared_files=*/64,
     /*dirs=*/1, /*file_bytes=*/4096, /*private_files=*/0,
     /*max_cached_files=*/0, /*warm_files=*/64, /*window=*/0,
     /*write_fraction=*/0.5, /*shared_writes=*/true},
};

class PublicPlainServer : public ServerHost {
 public:
  PublicPlainServer(const WorkloadSpec& spec, NodeId id)
      : server_(id, ConfigFor(spec)) {}
  FileStore& store() override { return server_.store(); }
  Status Start(const std::string& data_dir) override {
    return data_dir.empty() ? server_.Start() : server_.Start(data_dir);
  }
  uint16_t port() const override { return server_.port(); }
  void AddPeer(NodeId peer, uint16_t port) override {
    server_.AddPeer(peer, port);
  }
  ServerStats stats() override { return server_.stats(); }
  uint64_t ring_drops() const override { return 0; }

 private:
  leases::RuntimeServer server_;
};

class PublicShardedServer : public ServerHost {
 public:
  PublicShardedServer(const WorkloadSpec& spec, NodeId id)
      : server_(id, ConfigFor(spec)) {}
  FileStore& store() override { return server_.store(); }
  Status Start(const std::string& /*data_dir*/) override {
    return server_.Start();
  }
  uint16_t port() const override { return server_.port(); }
  void AddPeer(NodeId peer, uint16_t port) override {
    server_.AddPeer(peer, port);
  }
  ServerStats stats() override { return server_.stats(); }
  uint64_t ring_drops() const override { return server_.dropped(); }

 private:
  leases::ShardedRuntimeServer server_;
};

class PublicClient : public ClientHost {
 public:
  PublicClient(NodeId id, NodeId server, FileId root, ClientParams params)
      : client_(id, server, root, params) {}
  Status Start(uint16_t server_port) override {
    return client_.Start(server_port);
  }
  uint16_t port() const override { return client_.port(); }
  Result<ReadResult> Read(FileId file) override {
    return client_.Read(file, kCallTimeout);
  }
  Result<WriteResult> Write(FileId file, std::vector<uint8_t> data) override {
    return client_.Write(file, std::move(data), kCallTimeout);
  }
  void WithClient(std::function<void(CacheClient&)> fn) override {
    client_.WithClient(std::move(fn));
  }
  ClientStats stats() override { return client_.stats(); }
  NodeMessageStats transport_stats() override {
    return client_.transport().stats();
  }

 private:
  leases::RuntimeClient client_;
};

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "loopbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(2);
}

// splitmix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// One server, two clients and the files, set up and warmed.
struct Rig {
  const WorkloadSpec* spec = nullptr;
  std::string data_dir;
  std::unique_ptr<ServerHost> server;
  std::vector<std::unique_ptr<ClientHost>> clients;
  std::vector<FileId> files;  // shared files, then each client's private ones
  std::unique_ptr<Checker> checker;

  size_t PrivateIndex(size_t client, size_t i) const {
    return spec->shared_files + client * spec->private_files + i;
  }

  ~Rig() {
    clients.clear();  // clients first: the server outlives their traffic
    server.reset();
    if (!data_dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(data_dir, ignored);
    }
  }
};

void WarmRead(Rig& rig, size_t client, size_t file) {
  uint64_t floor = rig.checker->Floor(file);
  Result<ReadResult> r = rig.clients[client]->Read(rig.files[file]);
  if (!r.ok()) {
    Fatal("set-up read failed: " + r.error().ToString());
  }
  rig.checker->CheckRead(file, floor, r->version, r->data);
}

std::unique_ptr<Rig> BuildRig(const WorkloadSpec& spec, const Options& options,
                              const HostFactory& hosts, int index) {
  auto rig = std::make_unique<Rig>();
  rig->spec = &spec;
  rig->server = hosts.server(spec, NodeId(kServerId));
  FileStore& store = rig->server->store();
  const size_t total = spec.shared_files + kClients * spec.private_files;
  rig->files.resize(total);
  rig->checker = std::make_unique<Checker>(total);
  for (size_t i = 0; i < total; ++i) {
    std::string path;
    if (i < spec.shared_files) {
      path = "/d" + std::to_string(i % spec.dirs) + "/f" + std::to_string(i);
    } else {
      size_t p = i - spec.shared_files;
      path = "/c" + std::to_string(p / spec.private_files) + "/p" +
             std::to_string(p % spec.private_files);
    }
    uint64_t stamp = MakeStamp(0, i + 1);
    Result<FileId> id = store.CreatePath(path, FileClass::kNormal,
                                         MakeBlock(spec.file_bytes, stamp));
    if (!id.ok()) {
      Fatal("creating " + path + ": " + id.error().ToString());
    }
    rig->files[i] = *id;
    rig->checker->Seed(i, stamp);
  }
  if (spec.durable) {
    rig->data_dir = options.work_dir + "/journal-" + spec.name + "-" +
                    std::to_string(::getpid()) + "-" + std::to_string(index);
    std::error_code ignored;
    std::filesystem::remove_all(rig->data_dir, ignored);
  }
  Status started = rig->server->Start(rig->data_dir);
  if (!started.ok()) {
    Fatal("server start: " + started.ToString());
  }
  for (size_t c = 0; c < kClients; ++c) {
    ClientParams params;
    params.max_cached_files = spec.max_cached_files;
    NodeId id(kFirstClientId + static_cast<uint32_t>(c));
    rig->clients.push_back(
        hosts.client(id, NodeId(kServerId), store.root(), params));
    Status client_started = rig->clients[c]->Start(rig->server->port());
    if (!client_started.ok()) {
      Fatal("client start: " + client_started.ToString());
    }
    rig->server->AddPeer(id, rig->clients[c]->port());
  }
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < spec.private_files; ++i) {
      WarmRead(*rig, c, rig->PrivateIndex(c, i));
    }
    for (size_t i = 0; i < spec.warm_files; ++i) {
      WarmRead(*rig, c, i);
    }
  }
  return rig;
}

enum Phase : int { kWarm, kMeasure, kPause, kStop };

// One blocking caller thread, or one operation slot kept outstanding from a
// client's loop thread.
struct Worker {
  size_t client = 0;
  size_t slot = 0;
  uint32_t writer = 0;
  Rng rng{0};
  uint64_t seq = 0;
  std::vector<uint32_t> read_ns;
  std::vector<uint32_t> write_ns;
  // read_ns / write_ns sizes when the current segment began.
  size_t segment_reads = 0;
  size_t segment_writes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // In-flight operation of a loop-issued slot.
  CacheClient* cache = nullptr;
  bool in_window = false;
  bool is_write = false;
  bool issuing = false;
  bool completed_inline = false;
  size_t file = 0;
  uint64_t floor = 0;
  uint64_t stamp = 0;
  uint64_t start_ns = 0;
  trace::Op op;
};

struct LoadGen {
  const WorkloadSpec* spec = nullptr;
  Rig* rig = nullptr;
  std::atomic<int> phase{kWarm};
  std::atomic<int> outstanding{0};
  // Pausing: a worker that finds the phase kPause parks instead of issuing
  // its next operation. A caller thread waits for the next generation; a
  // loop-issued slot is set aside for Resume to issue again.
  std::mutex mu;
  std::condition_variable resumed;
  std::condition_variable parked_changed;
  size_t parked = 0;
  uint64_t generation = 0;
  std::vector<Worker*> parked_slots;

  void ParkCaller() {
    std::unique_lock<std::mutex> lock(mu);
    const uint64_t gen = generation;
    ++parked;
    parked_changed.notify_all();
    resumed.wait(lock, [&] { return generation != gen; });
  }

  void ParkSlot(Worker& w) {
    std::lock_guard<std::mutex> lock(mu);
    parked_slots.push_back(&w);
    ++parked;
    parked_changed.notify_all();
  }

  // Stops issuing and waits until all `workers` are parked, so no operation
  // is outstanding; false if they do not drain within 20 s.
  bool Pause(size_t workers) {
    phase.store(kPause);
    std::unique_lock<std::mutex> lock(mu);
    return parked_changed.wait_for(lock, std::chrono::seconds(20),
                                   [&] { return parked == workers; });
  }

  // Leaves a pause for `next` (kMeasure or kStop). Slots issue again on
  // their client's loop thread.
  void Resume(int next) {
    std::vector<Worker*> slots;
    {
      std::lock_guard<std::mutex> lock(mu);
      parked = 0;
      ++generation;
      phase.store(next);
      slots.swap(parked_slots);
    }
    resumed.notify_all();
    for (size_t c = 0; c < rig->clients.size(); ++c) {
      rig->clients[c]->WithClient([&](CacheClient&) {
        for (Worker* w : slots) {
          if (w->client == c) {
            Issue(*w);
          }
        }
      });
    }
  }

  // Picks the next operation for `w` into w.is_write / w.file.
  void Choose(Worker& w) {
    w.is_write = w.rng.Unit() < spec->write_fraction;
    if (!w.is_write) {
      w.file = w.rng.Below(spec->shared_files);
    } else if (spec->shared_writes) {
      w.file = w.rng.Below(spec->shared_files);
    } else if (spec->window > 0) {
      // One private file per slot: a client never has two writes to one
      // file in flight.
      w.file = rig->PrivateIndex(w.client, w.slot % spec->private_files);
    } else {
      w.file = rig->PrivateIndex(w.client, w.rng.Below(spec->private_files));
    }
  }

  void Record(Worker& w, bool ok, bool write, uint64_t ns) {
    if (!w.in_window) {
      return;
    }
    ++w.attempted;
    if (!ok) {
      ++w.failed;
      return;
    }
    uint32_t clamped = static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
    (write ? w.write_ns : w.read_ns).push_back(clamped);
  }

  void CallerLoop(Worker& w) {
    ClientHost& host = *rig->clients[w.client];
    for (;;) {
      const int now = phase.load(std::memory_order_relaxed);
      if (now == kStop) {
        return;
      }
      if (now == kPause) {
        ParkCaller();
        continue;
      }
      w.in_window = now == kMeasure;
      Choose(w);
      if (w.is_write) {
        uint64_t stamp = MakeStamp(w.writer, ++w.seq);
        std::vector<uint8_t> block = MakeBlock(spec->file_bytes, stamp);
        uint64_t start = NowNs();
        Result<WriteResult> r = host.Write(rig->files[w.file], std::move(block));
        uint64_t ns = NowNs() - start;
        if (r.ok()) {
          rig->checker->Acked(w.file, r->version, stamp);
        }
        Record(w, r.ok(), true, ns);
      } else {
        uint64_t floor = rig->checker->Floor(w.file);
        uint64_t start = NowNs();
        Result<ReadResult> r = host.Read(rig->files[w.file]);
        uint64_t ns = NowNs() - start;
        if (r.ok()) {
          rig->checker->CheckRead(w.file, floor, r->version, r->data);
        }
        Record(w, r.ok(), false, ns);
      }
    }
  }

  // Loop-issued slots: runs on the client's loop thread. A read served from
  // the cache completes inside the call; the loop below then issues the
  // next operation instead of recursing.
  void Issue(Worker& w) {
    for (;;) {
      const int now = phase.load(std::memory_order_relaxed);
      if (now == kStop) {
        outstanding.fetch_sub(1);
        return;
      }
      if (now == kPause) {
        ParkSlot(w);
        return;
      }
      w.in_window = now == kMeasure;
      Choose(w);
      w.issuing = true;
      w.completed_inline = false;
      if (w.is_write) {
        w.stamp = MakeStamp(w.writer, ++w.seq);
        std::vector<uint8_t> block = MakeBlock(spec->file_bytes, w.stamp);
        w.start_ns = NowNs();
        w.op = trace::Op{w.start_ns, w.writer, 0};
        trace::CallScope call(&w.op, /*write=*/true);
        w.cache->Write(rig->files[w.file], std::move(block),
                       [this, &w](Result<WriteResult> r) {
                         uint64_t ns = NowNs() - w.start_ns;
                         trace::FinishOp(w.op, /*write=*/true, false);
                         trace::Scope bench(trace::kBench);
                         if (r.ok()) {
                           rig->checker->Acked(w.file, r->version, w.stamp);
                         }
                         Record(w, r.ok(), true, ns);
                         Continue(w);
                       });
      } else {
        w.floor = rig->checker->Floor(w.file);
        w.start_ns = NowNs();
        w.op = trace::Op{w.start_ns, w.writer, 0};
        trace::CallScope call(&w.op, /*write=*/false);
        w.cache->Read(rig->files[w.file], [this, &w](Result<ReadResult> r) {
          uint64_t ns = NowNs() - w.start_ns;
          trace::FinishOp(w.op, /*write=*/false, r.ok() && r->from_cache);
          trace::Scope bench(trace::kBench);
          if (r.ok()) {
            rig->checker->CheckRead(w.file, w.floor, r->version, r->data);
          }
          Record(w, r.ok(), false, ns);
          Continue(w);
        });
      }
      w.issuing = false;
      if (!w.completed_inline) {
        return;
      }
    }
  }

  void Continue(Worker& w) {
    if (w.issuing) {
      w.completed_inline = true;
      return;
    }
    Issue(w);
  }
};

// Counter snapshot at a window edge.
struct Snapshot {
  uint64_t messages = 0;
  ClientStats client;
};

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void AddClientStats(ClientStats* into, const ClientStats& s, int sign) {
  auto add = [sign](uint64_t* a, uint64_t b) {
    *a = sign > 0 ? *a + b : *a - b;
  };
  add(&into->reads, s.reads);
  add(&into->local_reads, s.local_reads);
  add(&into->remote_fetches, s.remote_fetches);
  add(&into->extend_requests, s.extend_requests);
  add(&into->extend_items, s.extend_items);
  add(&into->writes, s.writes);
  add(&into->invalidations, s.invalidations);
  add(&into->approvals_granted, s.approvals_granted);
  add(&into->keys_relinquished, s.keys_relinquished);
  add(&into->evictions, s.evictions);
  add(&into->retransmits, s.retransmits);
  add(&into->timeouts, s.timeouts);
}

Snapshot Take(Rig& rig) {
  Snapshot snap;
  for (auto& client : rig.clients) {
    // The server talks only to these clients, so what they sent and
    // received is exactly what the server received and sent.
    NodeMessageStats t = client->transport_stats();
    for (int cls = 0; cls < leases::kNumMessageClasses; ++cls) {
      snap.messages += t.sent[cls] + t.received[cls];
    }
    AddClientStats(&snap.client, client->stats(), +1);
  }
  return snap;
}

// The host flips between fast and slow states several times a second, so
// the window is cut into short load segments with a short reference timing
// (about 2.5 ms) after each: many samples of the state, spread over the
// whole window, at about 2% of its length. Set-ups get longer timings
// (about 5 ms), as there are fewer of them.
constexpr double kSegmentSeconds = 0.2;
constexpr int kSegmentRoundTrips = 250;
constexpr int kSetupRoundTrips = 500;

double TimeReference(Reference& reference, int round_trips) {
  const double ns = reference.Measure(round_trips);
  if (!(ns > 0)) {
    Fatal("the reference round trip failed");
  }
  return ns;
}

uint32_t Scaled(uint32_t ns, double scale) {
  return static_cast<uint32_t>(
      std::min(static_cast<double>(UINT32_MAX), std::round(ns * scale)));
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() { return kWorkloads; }

EngineConfig ConfigFor(const WorkloadSpec& spec) {
  EngineConfig config;
  config.term = Duration::Seconds(spec.term_s);
  config.num_shards = spec.shards;
  return config;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

HostFactory PublicHosts() {
  HostFactory f;
  f.server = [](const WorkloadSpec& spec,
                NodeId id) -> std::unique_ptr<ServerHost> {
    if (spec.shards > 1) {
      return std::make_unique<PublicShardedServer>(spec, id);
    }
    return std::make_unique<PublicPlainServer>(spec, id);
  };
  f.client = [](NodeId id, NodeId server, FileId root, ClientParams params) {
    return std::make_unique<PublicClient>(id, server, root, params);
  };
  return f;
}

Measurement RunWorkload(const WorkloadSpec& spec, const Options& options,
                        const HostFactory& hosts, bool measure_setup) {
  Measurement m;
  Reference reference;
  if (!reference.ok()) {
    Fatal("cannot bind the reference sockets");
  }
  std::unique_ptr<Rig> rig;
  auto retire = [&m](Rig& old) {
    old.checker->Finish();
    m.checked_reads += old.checker->checked();
    m.stale_reads += old.checker->stale();
    m.unverified_reads += old.checker->unverified();
  };
  // Set up repeatedly and keep the last rig; setup_s is the median. The
  // host's speed drifts over seconds, so set-ups continue for a tenth of the
  // window (at most 2 s) and the median covers that stretch, not a moment.
  // Each set-up is scaled by the reference timed just before and after it.
  const int min_setups = measure_setup ? 3 : 1;
  const uint64_t budget_ns =
      measure_setup
          ? static_cast<uint64_t>(std::min(2.0, options.seconds / 10) * 1e9)
          : 0;
  const uint64_t first = NowNs();
  double ref_ns = TimeReference(reference, kSetupRoundTrips);
  for (int k = 0; k < min_setups || NowNs() - first < budget_ns; ++k) {
    if (rig != nullptr) {
      retire(*rig);
      rig.reset();
    }
    uint64_t start = NowNs();
    rig = BuildRig(spec, options, hosts, k);
    const double seconds = static_cast<double>(NowNs() - start) / 1e9;
    const double ref_after = TimeReference(reference, kSetupRoundTrips);
    m.setup_s.push_back(seconds);
    m.setup_scaled_s.push_back(seconds * 2 * kNominalRoundTripNs /
                               (ref_ns + ref_after));
    ref_ns = ref_after;
  }

  LoadGen load;
  load.spec = &spec;
  load.rig = rig.get();
  const size_t per_client = spec.window > 0 ? spec.window : 1;
  std::vector<Worker> workers(kClients * per_client);
  for (size_t i = 0; i < workers.size(); ++i) {
    Worker& w = workers[i];
    w.client = i / per_client;
    w.slot = i % per_client;
    w.writer = kFirstClientId + static_cast<uint32_t>(w.client);
    // Inputs come from the seed alone: one stream per worker.
    w.rng = Rng(options.seed * 0x100000001b3ULL + i);
    w.seq = static_cast<uint64_t>(w.slot) << 32;  // stamps unique per writer
  }

  std::vector<std::thread> callers;
  if (spec.window == 0) {
    for (Worker& w : workers) {
      callers.emplace_back([&load, &w]() { load.CallerLoop(w); });
    }
  } else {
    for (size_t c = 0; c < kClients; ++c) {
      rig->clients[c]->WithClient([&](CacheClient& cache) {
        for (size_t s = 0; s < per_client; ++s) {
          Worker& w = workers[c * per_client + s];
          w.cache = &cache;
          load.outstanding.fetch_add(1);
          load.Issue(w);
        }
      });
    }
  }

  // Untimed warm phase: caches fill and lazy set-up finishes.
  SleepSeconds(std::min(1.0, options.seconds / 10));
  if (!load.Pause(workers.size())) {
    Fatal("the warm-up operations did not drain");
  }
  // The hosts' footprint once set up and warm. Taken before the window, as
  // the benchmark's own latency samples and write log grow with throughput.
  m.peak_rss_mb = static_cast<double>(leases::PeakRssBytes()) / 1e6;

  // The window: short load segments, each followed by a pause in which
  // nothing is outstanding and the reference is timed. Every figure covers
  // every segment in full; its times are scaled segment by segment.
  const size_t segments = static_cast<size_t>(
      std::max(1L, std::lround(options.seconds / kSegmentSeconds)));
  const uint64_t segment_ns =
      static_cast<uint64_t>(options.seconds * 1e9) / segments;
  Snapshot begin = Take(*rig);
  ref_ns = TimeReference(reference, kSegmentRoundTrips);
  for (size_t k = 0; k < segments; ++k) {
    Segment seg;
    const uint64_t start = NowNs();
    const double cpu = ProcessCpuSeconds();
    load.Resume(kMeasure);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start + segment_ns)));
    if (!load.Pause(workers.size())) {
      Fatal("the operations of a segment did not drain");
    }
    seg.seconds = static_cast<double>(NowNs() - start) / 1e9;
    seg.cpu_s = ProcessCpuSeconds() - cpu;
    const double ref_after = TimeReference(reference, kSegmentRoundTrips);
    seg.ref_ns = (ref_ns + ref_after) / 2;
    ref_ns = ref_after;
    const double scale = seg.scale();
    for (Worker& w : workers) {
      seg.completed += w.read_ns.size() - w.segment_reads +
                       w.write_ns.size() - w.segment_writes;
      for (size_t i = w.segment_reads; i < w.read_ns.size(); ++i) {
        m.read_scaled_ns.push_back(Scaled(w.read_ns[i], scale));
      }
      for (size_t i = w.segment_writes; i < w.write_ns.size(); ++i) {
        m.write_scaled_ns.push_back(Scaled(w.write_ns[i], scale));
      }
      w.segment_reads = w.read_ns.size();
      w.segment_writes = w.write_ns.size();
    }
    m.seconds += seg.seconds;
    m.cpu_s += seg.cpu_s;
    m.scaled_seconds += seg.seconds * scale;
    m.scaled_cpu_s += seg.cpu_s * scale;
    m.segments.push_back(seg);
  }
  Snapshot end = Take(*rig);
  m.server = rig->server->stats();
  m.ring_drops = rig->server->ring_drops();

  load.Resume(kStop);
  for (std::thread& t : callers) {
    t.join();
  }
  if (load.outstanding.load() > 0) {
    std::fprintf(stderr, "loopbench: %d operations still outstanding\n",
                 load.outstanding.load());
  }

  m.messages = end.messages - begin.messages;
  m.client = end.client;
  AddClientStats(&m.client, begin.client, -1);
  for (Worker& w : workers) {
    m.read_ns.insert(m.read_ns.end(), w.read_ns.begin(), w.read_ns.end());
    m.write_ns.insert(m.write_ns.end(), w.write_ns.begin(), w.write_ns.end());
    m.attempted += w.attempted;
    m.failed += w.failed;
  }
  retire(*rig);
  rig.reset();  // before the workers: late callbacks still find them
  return m;
}

double Quantile(std::vector<uint32_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace loopbench
