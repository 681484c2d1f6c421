// Loopback end-to-end benchmark: shared definitions.
//
// One process runs a lease server and two CacheClient hosts over loopback
// UDP, drives one of three closed-loop workloads against them, checks every
// read against the acknowledged writes, and reports client-observed costs.
// The load loops talk to the hosts through the small ServerHost/ClientHost
// interfaces below, so the same loops drive either the repository's public
// runtime hosts (RuntimeServer, ShardedRuntimeServer, RuntimeClient; the
// untraced run) or hosts assembled from the same parts with timing
// decorators (trace.h; the traced run).
#ifndef LOOPBENCH_BENCH_H_
#define LOOPBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cache_client.h"
#include "src/core/engine_config.h"
#include "src/core/lease_server.h"
#include "src/fs/file_store.h"
#include "src/net/message_stats.h"
#include "reference.h"

namespace loopbench {

using leases::CacheClient;
using leases::ClientParams;
using leases::ClientStats;
using leases::FileId;
using leases::FileStore;
using leases::NodeId;
using leases::NodeMessageStats;
using leases::ReadResult;
using leases::Result;
using leases::ServerStats;
using leases::Status;
using leases::WriteResult;

// Blocking calls give up after this long (a lost datagram costs one
// 2 s client retransmission).
inline constexpr leases::Duration kCallTimeout = leases::Duration::Seconds(5);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The shape of one workload. All workloads are closed loops: a caller (or a
// loop-issued slot) sends its next operation only after the previous one
// completed.
struct WorkloadSpec {
  const char* name;
  const char* why;
  size_t shards;            // 1: plain engine (RuntimeServer); >1: sharded
  double term_s;            // fixed lease term granted by the server
  bool durable;             // plain engine journaled under a fresh data dir
  size_t shared_files;      // files every client reads
  size_t dirs;              // directories the shared files are spread over
  size_t file_bytes;        // size of every file and every write
  size_t private_files;     // per client; written only by their owner
  size_t max_cached_files;  // ClientParams::max_cached_files (0: unbounded)
  size_t warm_files;        // shared files each client reads during set-up
  int window;               // 0: one blocking caller thread per client;
                            // n: n operations kept outstanding per client
                            //    from the client's own loop thread
  double write_fraction;    // share of operations that are writes
  bool shared_writes;       // writes go to shared files (else private ones)
};

const WorkloadSpec* FindWorkload(const std::string& name);
// The server configuration a workload runs: its term and shard count.
leases::EngineConfig ConfigFor(const WorkloadSpec& spec);
const std::vector<WorkloadSpec>& AllWorkloads();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";   // journals of durable workloads go here
  std::string trace_out;        // traced run: where the spans are written
};

// What the load loops need from a server host.
class ServerHost {
 public:
  virtual ~ServerHost() = default;
  // Namespace store; populated before Start.
  virtual FileStore& store() = 0;
  // Empty `data_dir`: in-memory recovery state; else journaled there.
  virtual Status Start(const std::string& data_dir) = 0;
  virtual uint16_t port() const = 0;
  virtual void AddPeer(NodeId peer, uint16_t port) = 0;
  virtual ServerStats stats() = 0;
  // Datagrams shed because a shard's inbound ring was full (0: no ring).
  virtual uint64_t ring_drops() const = 0;
};

// What the load loops need from a client host.
class ClientHost {
 public:
  virtual ~ClientHost() = default;
  virtual Status Start(uint16_t server_port) = 0;
  virtual uint16_t port() const = 0;
  // Blocking calls from a caller thread.
  virtual Result<ReadResult> Read(FileId file) = 0;
  virtual Result<WriteResult> Write(FileId file, std::vector<uint8_t> data) = 0;
  // Runs `fn` on the client's loop thread and waits for it.
  virtual void WithClient(std::function<void(CacheClient&)> fn) = 0;
  virtual ClientStats stats() = 0;
  virtual NodeMessageStats transport_stats() = 0;
};

struct HostFactory {
  std::function<std::unique_ptr<ServerHost>(const WorkloadSpec&, NodeId)>
      server;
  std::function<std::unique_ptr<ClientHost>(NodeId id, NodeId server,
                                            FileId root, ClientParams)>
      client;
};

// RuntimeServer / ShardedRuntimeServer / RuntimeClient (workloads.cc).
HostFactory PublicHosts();

// One stretch of load in the measured window. The window alternates load
// segments with pauses, in which no operation is outstanding and the host's
// reference round trip (reference.h) is timed.
struct Segment {
  double seconds = 0;  // from resuming the load to the last op draining
  double cpu_s = 0;    // process CPU time over the same stretch
  uint64_t completed = 0;
  double ref_ns = 0;   // mean of the reference timed before and after it
  double scale() const { return kNominalRoundTripNs / ref_ns; }
};

// Everything one run of a workload measured. The *_scaled fields are the
// same times scaled to the nominal host, set-up by set-up and segment by
// segment, with the reference timed next to them.
struct Measurement {
  std::vector<double> setup_s;         // one per set-up, in order
  std::vector<double> setup_scaled_s;  // the same, scaled
  double seconds = 0;                  // sum of the load segments
  double scaled_seconds = 0;
  uint64_t attempted = 0;       // operations issued in the window
  uint64_t failed = 0;          // of those, failed or timed out
  std::vector<uint32_t> read_ns;   // client-observed, successful reads
  std::vector<uint32_t> write_ns;  // client-observed, successful writes
  std::vector<uint32_t> read_scaled_ns;
  std::vector<uint32_t> write_scaled_ns;
  double cpu_s = 0;         // process CPU time over the load segments
  double scaled_cpu_s = 0;
  uint64_t messages = 0;  // datagrams the server sent plus received in it
  double peak_rss_mb = 0;
  // Output check, over every read of the run (set-up included).
  uint64_t checked_reads = 0;
  uint64_t stale_reads = 0;
  uint64_t unverified_reads = 0;  // version never acknowledged to a writer
  // Counter deltas over the window, summed over both clients.
  ClientStats client;
  ServerStats server;  // cumulative at the end of the window
  uint64_t ring_drops = 0;
  std::vector<Segment> segments;
  uint64_t completed() const {
    return read_ns.size() + write_ns.size();
  }
};

// With `measure_setup`, sets the workload up repeatedly for setup_s;
// otherwise once.
Measurement RunWorkload(const WorkloadSpec& spec, const Options& options,
                        const HostFactory& hosts, bool measure_setup);

// q-quantile (0..1) of `v` by rank, in the units of `v`; 0 when empty.
double Quantile(std::vector<uint32_t> v, double q);
double Median(std::vector<double> v);

}  // namespace loopbench

#endif  // LOOPBENCH_BENCH_H_
