// Typed lease-op throughput through the sharded grant plane.
//
// Measures the shard engine itself -- ShardLoop threads draining SPSC
// queues into per-shard LeaseServers -- with the UDP layer replaced by a
// per-shard counting transport, so the number is the typed cluster-lease-op
// benchmark of BENCH_CORE.json scaled across cores, not a socket benchmark.
// RuntimeServer no longer serves with this topology (its shards are its
// socket loop's work); only loopbench's traced sharded host still runs
// ShardLoop, and this bench goes when ShardLoop does.
//
// Workload: `files` files spread across the shards by the production hash,
// each driven by its own client with an alternating read (lease grant) /
// write (immediate commit) stream. Messages are pre-routed and pre-encoded
// as typed packets; one feeder thread per shard keeps the SPSC
// single-producer invariant while the shard threads run the protocol.
#ifndef BENCH_SHARD_BENCH_H_
#define BENCH_SHARD_BENCH_H_

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/clock/system_clock.h"
#include "src/core/shard_router.h"
#include "src/core/sharded_lease_server.h"
#include "src/core/term_policy.h"
#include "src/fs/file_store.h"
#include "src/runtime/shard_loop.h"

namespace leases {

// Swallows replies; one per shard so the reply path stays uncontended.
class ShardBenchTransport : public Transport {
 public:
  explicit ShardBenchTransport(NodeId self) : self_(self) {}

  NodeId local_node() const override { return self_; }
  void Send(NodeId, MessageClass, Packet) override { ++replies_; }
  void Multicast(std::span<const NodeId>, MessageClass, Packet) override {
    ++replies_;
  }
  uint64_t replies() const { return replies_; }

 private:
  NodeId self_;
  uint64_t replies_ = 0;
};

struct ShardBenchResult {
  size_t shards = 0;
  uint64_t ops = 0;
  double seconds = 0;
  double ops_per_sec = 0;
};

inline ShardBenchResult RunShardBench(size_t num_shards, size_t num_files,
                                      size_t ops_per_file) {
  struct Rig {
    std::unique_ptr<ShardLoop> loop;
    FileStore store;
    DurableMeta meta;
    std::unique_ptr<FixedTermPolicy> policy;
    std::unique_ptr<ShardBenchTransport> transport;
  };

  const NodeId server_id(1);
  SystemClock clock;
  FileStore ns;
  std::vector<FileId> files;
  std::vector<uint8_t> payload(64, 0x5A);
  for (size_t i = 0; i < num_files; ++i) {
    files.push_back(*ns.CreatePath("/bench/f" + std::to_string(i),
                                   FileClass::kNormal, payload));
  }

  std::vector<std::unique_ptr<Rig>> rigs;
  std::vector<ShardEnv> envs(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto rig = std::make_unique<Rig>();
    rig->loop = std::make_unique<ShardLoop>();
    rig->policy = std::make_unique<FixedTermPolicy>(Duration::Seconds(10));
    rig->transport = std::make_unique<ShardBenchTransport>(server_id);
    envs[s].store = &rig->store;
    envs[s].meta = &rig->meta;
    envs[s].clock = &clock;
    envs[s].timers = rig->loop.get();
    envs[s].transport = rig->transport.get();
    envs[s].policy = rig->policy.get();
    rigs.push_back(std::move(rig));
  }
  ShardedLeaseServer server(server_id, std::move(envs), ServerParams{},
                            /*oracle=*/nullptr);
  server.AdoptAll(ns);

  // Pre-route and pre-build the typed message stream: the timed section
  // measures protocol processing, not workload generation. Each file gets
  // one dedicated client, so its writes carry the holder's implicit
  // approval and commit immediately (the lock-free fast path end to end).
  std::vector<std::vector<ShardInbound>> stream(num_shards);
  uint64_t req = 1;
  for (size_t op = 0; op < ops_per_file; ++op) {
    for (size_t i = 0; i < files.size(); ++i) {
      FileId file = files[i];
      size_t shard = ShardIndexOf(file, num_shards);
      NodeId client(100 + i);
      if (op % 2 == 0) {
        ReadRequest m;
        m.req = RequestId(req++);
        m.file = file;
        stream[shard].push_back(
            {client, MessageClass::kData, Packet(std::move(m))});
      } else {
        WriteRequest m;
        m.req = RequestId(req++);
        m.file = file;
        m.data = SharedBytes(payload);
        stream[shard].push_back(
            {client, MessageClass::kData, Packet(std::move(m))});
      }
    }
  }
  uint64_t total = 0;
  for (const auto& s : stream) {
    total += s.size();
  }

  for (size_t s = 0; s < num_shards; ++s) {
    size_t index = s;
    rigs[s]->loop->Start(
        [&server, index](const ShardInbound& msg) {
          server.DeliverToShard(index, msg.from, msg.cls, msg.packet);
        },
        /*idle=*/[]() {});
  }

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> feeders;
  for (size_t s = 0; s < num_shards; ++s) {
    feeders.emplace_back([&stream, &rigs, s]() {
      for (ShardInbound& msg : stream[s]) {
        while (!rigs[s]->loop->Enqueue(std::move(msg))) {
          std::this_thread::yield();  // ring full: shard is saturated
        }
      }
    });
  }
  for (std::thread& t : feeders) {
    t.join();
  }
  uint64_t processed = 0;
  do {
    processed = 0;
    for (const auto& rig : rigs) {
      processed += rig->loop->processed();
    }
  } while (processed < total &&
           (std::this_thread::sleep_for(std::chrono::microseconds(100)),
            true));
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (auto& rig : rigs) {
    rig->loop->Stop();
  }

  ShardBenchResult result;
  result.shards = num_shards;
  result.ops = total;
  result.seconds = elapsed;
  result.ops_per_sec = elapsed > 0 ? static_cast<double>(total) / elapsed : 0;
  return result;
}

// Best-of-`reps` run (first rep doubles as warmup for allocator shape).
inline ShardBenchResult RunShardBenchBest(size_t num_shards, size_t num_files,
                                          size_t ops_per_file, int reps = 3) {
  ShardBenchResult best;
  for (int r = 0; r < reps; ++r) {
    ShardBenchResult result =
        RunShardBench(num_shards, num_files, ops_per_file);
    if (result.ops_per_sec > best.ops_per_sec) {
      best = result;
    }
  }
  return best;
}

}  // namespace leases

#endif  // BENCH_SHARD_BENCH_H_
