// Google-benchmark micro-benchmarks for the building blocks: wire codec,
// lease table, simulator event throughput, file store commits, and a full
// simulated lease round-trip. These put absolute numbers on the claim that
// lease bookkeeping is cheap relative to message costs.
//
// `bench_micro --json [path]` skips the google-benchmark suite and instead
// writes BENCH_CORE.json (default path: ./BENCH_CORE.json): scheduler
// events/sec, ns/event, cancel throughput, and serial-vs-parallel sweep
// wall-clock. That file is committed per machine-generation so the perf
// trajectory of the discrete-event core stays machine-readable across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/shard_bench.h"
#include "bench/sweep_runner.h"
#include "src/core/lease_table.h"
#include "src/core/swarm_cluster.h"
#include "src/net/sim_network.h"
#include "src/core/sim_cluster.h"
#include "src/fs/file_store.h"
#include "src/metrics/mem_probe.h"
#include "src/proto/messages.h"
#include "src/sim/simulator.h"
#include "src/workload/v_config.h"

namespace leases {
namespace {

void BM_EncodeReadReply(benchmark::State& state) {
  ReadReply reply;
  reply.req = RequestId(42);
  reply.file = FileId(7);
  reply.version = 99;
  reply.lease = LeaseGrant{LeaseKey(7), Duration::Seconds(10)};
  reply.data = std::vector<uint8_t>(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodePacket(Packet(reply)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeReadReply)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DecodeReadReply(benchmark::State& state) {
  ReadReply reply;
  reply.req = RequestId(42);
  reply.file = FileId(7);
  reply.data = std::vector<uint8_t>(static_cast<size_t>(state.range(0)), 0xAB);
  std::vector<uint8_t> bytes = EncodePacket(Packet(reply));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodePacket(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeReadReply)->Arg(64)->Arg(1024)->Arg(16384);

void BM_LeaseTableGrant(benchmark::State& state) {
  LeaseTable table;
  TimePoint now;
  uint64_t i = 0;
  for (auto _ : state) {
    LeaseKey key(i % 1000 + 1);
    NodeId node(static_cast<uint32_t>(i % 64 + 1));
    table.Grant(key, node, now + Duration::Seconds(10));
    ++i;
  }
}
BENCHMARK(BM_LeaseTableGrant);

// grant-miss's churn: two clients with 64-lease caches read uniformly over
// 16384 files, so each grant adds a key and the eviction's relinquish drops
// an older one.
void BM_LeaseTableGrantAndEvict(benchmark::State& state) {
  LeaseTable table;
  const TimePoint expiry = TimePoint() + Duration::Seconds(10);
  std::vector<uint64_t> cached(128, 0);  // the ring of both caches
  uint64_t file = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    const NodeId node(static_cast<uint32_t>(1 + i % 2));
    uint64_t& slot = cached[i % cached.size()];
    if (slot != 0) {
      table.Remove(LeaseKey(slot), node);
    }
    file = (file + 7919) % 16384;  // a stride prime to the file count
    slot = file + 1;
    table.Grant(LeaseKey(slot), node, expiry);
    ++i;
  }
}
BENCHMARK(BM_LeaseTableGrantAndEvict);

void BM_LeaseTableActiveHolders(benchmark::State& state) {
  LeaseTable table;
  TimePoint now;
  for (uint32_t n = 1; n <= static_cast<uint32_t>(state.range(0)); ++n) {
    table.Grant(LeaseKey(1), NodeId(n), now + Duration::Seconds(10));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.ActiveHolders(LeaseKey(1), now));
  }
}
BENCHMARK(BM_LeaseTableActiveHolders)->Arg(1)->Arg(10)->Arg(100);

// Self-rescheduling chain functors. These are the allocation-free idiom the
// scheduler's inline-callable path is built for (every call site in src/
// passes a lambda straight to ScheduleAfter); going through std::function
// instead would benchmark std::function's heap-allocating copy constructor,
// not the scheduler.
struct ChainTick {
  Simulator* sim;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) {
      sim->ScheduleAfter(Duration::Micros(10), ChainTick{sim, remaining});
    }
  }
};

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    int remaining = 10000;
    sim.ScheduleAfter(Duration::Micros(10), ChainTick{&sim, &remaining});
    state.ResumeTiming();
    sim.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// Throughput with a deep pending queue: `range` self-rescheduling chains are
// in flight at once, which is what a large cluster's timer population looks
// like. This exercises heap sifts and (at 10 s periods) the timer wheel.
struct DeepTick {
  Simulator* sim;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) {
      sim->ScheduleAfter(Duration::Micros(10 + *remaining % 977),
                         DeepTick{sim, remaining});
    }
  }
};

void BM_SimulatorDeepQueue(benchmark::State& state) {
  const int kChains = static_cast<int>(state.range(0));
  const int kEventsPerChain = 1000;
  int64_t total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    int remaining = kChains * kEventsPerChain;
    for (int c = 0; c < kChains; ++c) {
      sim.ScheduleAfter(Duration::Micros(c + 1), DeepTick{&sim, &remaining});
    }
    state.ResumeTiming();
    sim.RunUntilIdle();
    total += kChains * kEventsPerChain;
  }
  state.SetItemsProcessed(total);
}
BENCHMARK(BM_SimulatorDeepQueue)->Arg(64)->Arg(1024);

// The lease-expiry pattern: schedule a far-future timer, cancel it before it
// fires (an extension rescheds the expiry), repeat. Exercises O(1) cancel
// and the timer wheel's park-without-heap-traffic property.
void BM_SimulatorScheduleCancel(benchmark::State& state) {
  Simulator sim;
  for (auto _ : state) {
    EventId id = sim.ScheduleAfter(Duration::Seconds(10), []() {});
    benchmark::DoNotOptimize(sim.Cancel(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorScheduleCancel);

void BM_FileStoreApply(benchmark::State& state) {
  FileStore store;
  FileId file = *store.CreatePath("/bench", FileClass::kNormal,
                                  std::vector<uint8_t>(256, 1));
  const SharedBytes data(std::vector<uint8_t>(256, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Apply(file, data, NodeId()));
  }
}
BENCHMARK(BM_FileStoreApply);

// Fills a directory with range(0) names, one Create each; the time per
// item is one Create into a directory of, on average, half that size.
void BM_FileStoreCreate(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  std::vector<std::string> names;
  for (int i = 0; i < entries; ++i) {
    names.push_back("f");
    names.back() += std::to_string(i);
  }
  for (auto _ : state) {
    FileStore store;
    FileId dir = *store.Mkdir(store.root(), "d", NodeId());
    for (const std::string& name : names) {
      benchmark::DoNotOptimize(store.Create(dir, name, FileClass::kNormal, {},
                                            kModeRead | kModeWrite, NodeId()));
    }
  }
  state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_FileStoreCreate)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

// One Lookup per item in a directory of range(0) names, cycling through
// them all.
void BM_FileStoreLookup(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  FileStore store;
  FileId dir = *store.Mkdir(store.root(), "d", NodeId());
  std::vector<std::string> names;
  for (int i = 0; i < entries; ++i) {
    names.push_back("f");
    names.back() += std::to_string(i);
    LEASES_CHECK(store
                     .Create(dir, names.back(), FileClass::kNormal, {},
                             kModeRead | kModeWrite, NodeId())
                     .ok());
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Lookup(dir, names[next]));
    next = next + 1 == names.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FileStoreLookup)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SimulatedLeaseRoundTrip(benchmark::State& state) {
  // Full protocol cost of one extension round-trip in virtual time,
  // measured in host CPU time: cache miss -> extension -> grant -> reply.
  ClusterOptions options = MakeVClusterOptions(Duration::Millis(1), 1);
  SimCluster cluster(options);
  FileId file =
      *cluster.store().CreatePath("/f", FileClass::kNormal, Bytes("x"));
  LEASES_CHECK(cluster.SyncRead(0, file).ok());
  for (auto _ : state) {
    cluster.RunFor(Duration::Millis(2));  // let the 1 ms lease lapse
    benchmark::DoNotOptimize(cluster.SyncRead(0, file));
  }
}
BENCHMARK(BM_SimulatedLeaseRoundTrip);

// --- BENCH_CORE.json ---

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Single-chain event churn: the same workload as BM_SimulatorEventThroughput
// (one self-rescheduling 10 us chain), scaled up. This is the headline
// events/sec figure, directly comparable across machine generations and
// against the seed implementation's bench_micro number.
double MeasureChainEventsPerSec(uint64_t* events_out) {
  const int kTotalEvents = 4'000'000;
  // Best of three: the measurement runs on shared machines, so a single rep
  // can eat a scheduling hiccup.
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Simulator sim;
    int remaining = kTotalEvents;
    sim.ScheduleAfter(Duration::Micros(10), ChainTick{&sim, &remaining});
    auto start = std::chrono::steady_clock::now();
    sim.RunUntilIdle();
    double elapsed = SecondsSince(start);
    *events_out = sim.executed_events();
    double rate = static_cast<double>(sim.executed_events()) / elapsed;
    if (rate > best) {
      best = rate;
    }
  }
  return best;
}

// Mixed-horizon event churn: 1024 chains rescheduling at microsecond-to-
// second horizons, the shape the simulated cluster produces.
double MeasureMixedEventsPerSec(uint64_t* events_out) {
  const int kChains = 1024;
  const int kTotalEvents = 4'000'000;
  Simulator sim;
  int remaining = kTotalEvents;
  // Self-rescheduling POD functor: the allocation-free idiom real call sites
  // use. Horizons are spread across the heap (us..ms) and the wheel (s).
  struct MixedTick {
    Simulator* sim;
    int* remaining;
    void operator()() const {
      int r = --*remaining;
      if (r > 0) {
        int64_t us = 10 + (r % 7) * ((r % 13 == 0) ? 100'000 : 97);
        sim->ScheduleAfter(Duration::Micros(us), MixedTick{sim, remaining});
      }
    }
  };
  for (int c = 0; c < kChains; ++c) {
    sim.ScheduleAfter(Duration::Micros(c + 1), MixedTick{&sim, &remaining});
  }
  auto start = std::chrono::steady_clock::now();
  sim.RunUntilIdle();
  double elapsed = SecondsSince(start);
  *events_out = sim.executed_events();
  return static_cast<double>(sim.executed_events()) / elapsed;
}

double MeasureCancelOpsPerSec() {
  const int kOps = 2'000'000;
  Simulator sim;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    EventId id = sim.ScheduleAfter(Duration::Seconds(10 + i % 50), []() {});
    sim.Cancel(id);
  }
  double elapsed = SecondsSince(start);
  return 2.0 * kOps / elapsed;  // schedule + cancel are two ops
}

uint64_t SweepSignature(const std::vector<WorkloadReport>& reports) {
  uint64_t sig = 0;
  for (const WorkloadReport& r : reports) {
    sig = sig * 1000003 + r.server_consistency_msgs + r.reads + r.writes;
  }
  return sig;
}

// A scaled-down A6-style sweep, run serially and through the thread pool.
// The signatures must match: parallelism must not change a single message.
//
// Points are sized so each runs long enough (hundreds of milliseconds) to
// amortize pool startup, and the pool takes the machine's real thread count
// (honoring LEASES_SWEEP_THREADS): on a single-core container the runner
// skips thread spin-up entirely and runs inline, so the "parallel" pass
// measures pool overhead honestly instead of forcing two threads to fight
// over one CPU.
void MeasureSweep(double* serial_s, double* parallel_s, size_t* threads,
                  size_t* points, bool* identical, bool* degraded) {
  const std::vector<size_t> counts = {5, 10, 20, 40};
  const Duration kMeasure = Duration::Seconds(12000);
  auto point = [&counts, kMeasure](size_t i) {
    return RunVPoisson(Duration::Seconds(10), 1, 600 + counts[i], kMeasure,
                       counts[i]);
  };
  SweepRunner serial(1);
  SweepRunner pool(SweepRunner::DefaultThreads());

  // Untimed warmup over the full point set, so neither timed pass pays
  // first-touch costs (the 40-client point dominates the arena shape) and
  // both run against the same steady-state allocator.
  (void)serial.Map<WorkloadReport>(counts.size(), point);

  // ABBA ordering (serial, parallel, parallel, serial), repeated: each mode
  // occupies early and late positions equally, so linear clock/thermal drift
  // cancels out of the means instead of biasing whichever pass ran second.
  std::vector<WorkloadReport> serial_reports;
  std::vector<WorkloadReport> pool_reports;
  double serial_sum = 0.0;
  double parallel_sum = 0.0;
  constexpr int kRounds = 2;
  for (int round = 0; round < kRounds; ++round) {
    auto start = std::chrono::steady_clock::now();
    serial_reports = serial.Map<WorkloadReport>(counts.size(), point);
    serial_sum += SecondsSince(start);

    for (int rep = 0; rep < 2; ++rep) {
      start = std::chrono::steady_clock::now();
      pool_reports = pool.Map<WorkloadReport>(counts.size(), point);
      parallel_sum += SecondsSince(start);
    }

    start = std::chrono::steady_clock::now();
    serial_reports = serial.Map<WorkloadReport>(counts.size(), point);
    serial_sum += SecondsSince(start);
  }
  *serial_s = serial_sum / (2 * kRounds);
  *parallel_s = parallel_sum / (2 * kRounds);
  *threads = pool.threads();
  *points = counts.size();
  *identical = SweepSignature(serial_reports) == SweepSignature(pool_reports);
  // A one-thread pool cannot measure parallelism: the "speedup" it records
  // is pool overhead (historically reported as a meaningless 1.01x). Flag
  // it loudly instead of letting the number masquerade as a scaling result.
  *degraded = pool.threads() <= 1;
  if (*degraded) {
    std::fprintf(stderr,
                 "bench_micro: sweep DEGRADED -- pool has 1 thread "
                 "(hardware_concurrency or LEASES_SWEEP_THREADS); the "
                 "recorded speedup is overhead, not parallel scaling\n");
  }
}

// --- Protocol message-path metrics ---

// A node that pumps messages back and forth: on each arrival it produces a
// fresh reply packet while replies remain. The packet arrives without any
// codec work.
class PumpNode : public PacketHandler {
 public:
  static Packet MakeMessage() {
    ReadReply m;
    m.req = RequestId(1);
    m.file = FileId(7);
    m.version = 9;
    m.lease = LeaseGrant{LeaseKey(7), Duration::Seconds(10)};
    m.data = std::vector<uint8_t>(512, 0xAB);
    return m;
  }

  void HandleTyped(NodeId from, MessageClass /*cls*/,
                   const Packet& packet) override {
    benchmark::DoNotOptimize(packet);
    ++received;
    if (remaining > 0) {
      --remaining;
      transport->Send(from, MessageClass::kData, MakeMessage());
    }
  }

  Transport* transport = nullptr;
  int remaining = 0;
  uint64_t received = 0;
};

// Raw message-path throughput through SimNetwork: two nodes exchanging
// 512-byte ReadReplies.
double MeasurePumpMsgsPerSec(uint64_t* messages) {
  const int kMessages = 200'000;
  double best = 0;
  for (int rep = 0; rep < 2; ++rep) {
    Simulator sim;
    SimNetwork net(&sim, NetworkParams{});
    PumpNode a;
    PumpNode b;
    a.transport = net.AttachNode(NodeId(1), &a);
    b.transport = net.AttachNode(NodeId(2), &b);
    a.remaining = kMessages / 2;
    b.remaining = kMessages / 2;
    auto start = std::chrono::steady_clock::now();
    a.transport->Send(NodeId(2), MessageClass::kData, PumpNode::MakeMessage());
    sim.RunUntilIdle();
    double elapsed = SecondsSince(start);
    *messages = a.received + b.received;
    double rate = static_cast<double>(*messages) / elapsed;
    if (rate > best) {
      best = rate;
    }
  }
  return best;
}

// End-to-end protocol throughput: the standard 10-client V cluster under
// the Section 3.1 Poisson workload, measured as simulated lease operations
// (reads + writes) completed per host second.
double MeasureLeaseOpsPerSec(uint64_t* ops) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 10, 7);
  SimCluster cluster(options);
  PoissonOptions poisson;
  poisson.sharing = 5;
  poisson.seed = 7;
  poisson.measure = Duration::Seconds(4000);
  PoissonDriver driver(&cluster, poisson);
  driver.Setup();
  auto start = std::chrono::steady_clock::now();
  WorkloadReport report = driver.Run();
  double elapsed = SecondsSince(start);
  *ops = report.reads + report.writes;
  return static_cast<double>(*ops) / elapsed;
}

// Measured steady-state memory of one simulated swarm client: peak-RSS
// delta across building and exercising a 200k-member installed-lease swarm,
// divided by the member count. Must run before any other measurement so the
// process high-water mark is attributable to the swarm, not a sweep.
size_t MeasureBytesPerClient(uint32_t* clients_out) {
  const uint32_t kClients = 200'000;
  *clients_out = kClients;
  size_t before = PeakRssBytes();
  if (before == 0) {
    return 0;  // probe unavailable on this platform
  }
  SwarmClusterOptions options;
  options.num_members = kClients;
  options.num_servers = 2;
  options.net.proc_time = Duration::Micros(10);
  options.swarm.read_period = Duration::Seconds(10);
  SwarmCluster cluster(options);
  // Long enough for every member to fetch, hold a lease and be renewed by
  // multicast: the steady state the budget is defined over.
  cluster.RunFor(Duration::Seconds(30));
  size_t after = PeakRssBytes();
  return after > before ? (after - before) / kClients : 0;
}

int WriteBenchCore(const char* path) {
  uint32_t mem_clients = 0;
  size_t bytes_per_client = MeasureBytesPerClient(&mem_clients);

  uint64_t events = 0;
  uint64_t mixed_events = 0;
  double events_per_sec = MeasureChainEventsPerSec(&events);
  double mixed_per_sec = MeasureMixedEventsPerSec(&mixed_events);
  double cancel_ops = MeasureCancelOpsPerSec();

  uint64_t pump_messages = 0;
  double pump_typed = MeasurePumpMsgsPerSec(&pump_messages);
  uint64_t lease_ops = 0;
  double ops_typed = MeasureLeaseOpsPerSec(&lease_ops);

  double serial_s = 0;
  double parallel_s = 0;
  size_t threads = 0;
  size_t points = 0;
  bool identical = false;
  bool sweep_degraded = false;
  MeasureSweep(&serial_s, &parallel_s, &threads, &points, &identical,
               &sweep_degraded);
  long requested_threads = 0;
  if (const char* env = std::getenv("LEASES_SWEEP_THREADS")) {
    requested_threads = std::strtol(env, nullptr, 10);
  }

  // Shard-scaling row: the sharded grant plane's typed lease-op throughput
  // at 1 and 8 shards (bench_shard runs the full sweep). Degraded on
  // machines with fewer cores than shards, same semantics as the sweep.
  size_t hw = std::thread::hardware_concurrency();
  constexpr size_t kShardMax = 8;
  ShardBenchResult shard1 = RunShardBenchBest(1, 256, 100, /*reps=*/2);
  ShardBenchResult shard8 = RunShardBenchBest(kShardMax, 256, 100,
                                              /*reps=*/2);
  bool shard_degraded = hw < kShardMax;

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": 5,\n"
               "  \"memory\": {\n"
               "    \"swarm_clients\": %u,\n"
               "    \"bytes_per_client\": %zu\n"
               "  },\n"
               "  \"scheduler\": {\n"
               "    \"events\": %llu,\n"
               "    \"events_per_sec\": %.0f,\n"
               "    \"ns_per_event\": %.2f,\n"
               "    \"mixed_horizon_events_per_sec\": %.0f,\n"
               "    \"schedule_cancel_ops_per_sec\": %.0f\n"
               "  },\n"
               "  \"protocol\": {\n"
               "    \"pump_messages\": %llu,\n"
               "    \"pump_payload_bytes\": 512,\n"
               "    \"pump_typed_msgs_per_sec\": %.0f,\n"
               "    \"cluster_clients\": 10,\n"
               "    \"cluster_lease_ops\": %llu,\n"
               "    \"lease_ops_typed_per_sec\": %.0f\n"
               "  },\n"
               "  \"sweep\": {\n"
               "    \"points\": %zu,\n"
               "    \"threads\": %zu,\n"
               "    \"requested_threads\": %ld,\n"
               "    \"serial_wall_s\": %.3f,\n"
               "    \"parallel_wall_s\": %.3f,\n"
               "    \"speedup\": %.2f,\n"
               "    \"results_identical\": %s,\n"
               "    \"degraded\": %s\n"
               "  },\n"
               "  \"shard_scaling\": {\n"
               "    \"hw_threads\": %zu,\n"
               "    \"shards\": %zu,\n"
               "    \"ops_per_sec_1shard\": %.0f,\n"
               "    \"ops_per_sec_8shard\": %.0f,\n"
               "    \"speedup\": %.2f,\n"
               "    \"degraded\": %s\n"
               "  }\n"
               "}\n",
               mem_clients, bytes_per_client,
               static_cast<unsigned long long>(events), events_per_sec,
               1e9 / events_per_sec, mixed_per_sec, cancel_ops,
               static_cast<unsigned long long>(pump_messages), pump_typed,
               static_cast<unsigned long long>(lease_ops), ops_typed, points,
               threads, requested_threads, serial_s, parallel_s,
               serial_s / parallel_s, identical ? "true" : "false",
               sweep_degraded ? "true" : "false", hw, kShardMax,
               shard1.ops_per_sec, shard8.ops_per_sec,
               shard1.ops_per_sec > 0
                   ? shard8.ops_per_sec / shard1.ops_per_sec
                   : 0,
               shard_degraded ? "true" : "false");
  std::fclose(f);
  std::printf("  memory: %zu bytes/client over %u swarm clients\n",
              bytes_per_client, mem_clients);
  std::printf("wrote %s: %.1fM events/s (%.1f ns/event), %.1fM mixed-horizon "
              "events/s, %.1fM sched+cancel ops/s\n"
              "  protocol: pump %.2fM msgs/s, cluster %.0f lease ops/s\n"
              "  sweep %.2fs -> %.2fs (%zu threads, identical=%s%s)\n"
              "  shards: %.2fM -> %.2fM ops/s at 1 -> %zu shards "
              "(%.2fx%s)\n",
              path, events_per_sec / 1e6, 1e9 / events_per_sec,
              mixed_per_sec / 1e6, cancel_ops / 1e6, pump_typed / 1e6,
              ops_typed, serial_s, parallel_s, threads,
              identical ? "true" : "false",
              sweep_degraded ? ", DEGRADED" : "", shard1.ops_per_sec / 1e6,
              shard8.ops_per_sec / 1e6, kShardMax,
              shard1.ops_per_sec > 0
                  ? shard8.ops_per_sec / shard1.ops_per_sec
                  : 0,
              shard_degraded ? ", DEGRADED" : "");
  return identical ? 0 : 2;
}

}  // namespace
}  // namespace leases

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const char* path =
          (i + 1 < argc && argv[i + 1][0] != '-') ? argv[i + 1]
                                                  : "BENCH_CORE.json";
      return leases::WriteBenchCore(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
