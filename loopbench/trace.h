// Traced run of the loopback benchmark.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public interfaces: PacketHandler (server and clients),
// Transport::Send/Multicast, StorageBackend::Append, the shard batch-flush
// idle hook, and the CacheClient calls the load loops make. TracedHosts()
// assembles server and client hosts from the same public parts the runtime
// hosts use (EventLoop/ShardLoop, UdpTransport/UdpBatchSender,
// MakeServerEngine, CacheClient, DurableMeta over JournalBackend) with those
// decorators in place.
//
// Each span records its name, start, end, parent and the protocol request id
// (RequestId, or the write sequence of an approval), so client and server
// spans of one operation join up. A layer's self time is its span's duration
// minus its children's. Self times of every span feed per-name reservoirs;
// full span records are kept in memory for one request in 32 and written out
// when the run ends. With tracing off every hook is one relaxed load.
#ifndef LOOPBENCH_TRACE_H_
#define LOOPBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "probe.h"

namespace loopbench {
namespace trace {

// Span and sample names. Handler spans are per message type: the base plus
// the Packet variant index.
enum Name : uint16_t {
  kCallerRead,      // blocking Read on a caller thread
  kCallerWrite,     // blocking Write on a caller thread
  kHandoff,         // derived: blocking wall time minus the op's call->cb
  kOpRead,          // CacheClient::Read call -> callback
  kOpWrite,         // CacheClient::Write call -> callback
  kLocalRead,       // derived: call -> callback of a read served from cache
  kCallRead,        // the synchronous CacheClient::Read call
  kCallWrite,       // the synchronous CacheClient::Write call
  kClientDecode,
  kClientSend,      // Transport::Send on a client (encode + sendto)
  kBench,           // benchmark bookkeeping inside a callback
  kServerRoute,     // sharded receiver: decode + route + ring enqueue
  kServerDecode,
  kServerSend,      // Transport::Send/Multicast on the server
  kShardFlush,      // batch-flush idle hook (sendmmsg)
  kJournalAppend,   // StorageBackend::Append
  kWriteHold,       // derived: WriteRequest handled -> WriteReply sent
  kClientHandle,    // + variant index
  kServerHandle = kClientHandle + 16,  // + variant index
  kNumNames = kServerHandle + 16,
};

enum Counter : int {
  kFlushes,         // idle-hook flushes that had frames queued
  kFlushedFrames,
  kAppends,
  kNumCounters,
};

inline std::atomic<bool> g_on{false};
inline bool On() { return g_on.load(std::memory_order_relaxed); }

// Drops all recorded data and turns tracing on or off.
void Reset(bool on);

// A span on the calling thread's stack.
class Scope {
 public:
  explicit Scope(Name name, uint32_t node = 0, uint64_t key = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

// One client operation, from the CacheClient call to its callback.
struct Op {
  uint64_t start_ns = 0;
  uint32_t node = 0;  // the client
  uint64_t req = 0;   // request it sent, filled in by the client transport
};

// Times the synchronous CacheClient call and makes `op` the operation
// whose request the client transport links.
class CallScope {
 public:
  CallScope(Op* op, bool write);
  ~CallScope();
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  Scope scope_;
  Op* previous_ = nullptr;
  bool active_;
};

void FinishOp(const Op& op, bool write, bool from_cache);
void Sample(Name name, uint64_t ns);

}  // namespace trace

// Hosts built from the runtime's public parts with the decorators above.
HostFactory TracedHosts();

// Reads the recorded trace after a traced run: prints the per-layer ledger
// and the tracing overhead against `untraced`, writes the spans to
// `options.trace_out`, and returns the per-layer metrics.
struct LayerMetric {
  std::string name;
  double value;
  std::string unit;
};
std::vector<LayerMetric> ReportTrace(const WorkloadSpec& spec,
                                     const Options& options,
                                     const Measurement& traced,
                                     const Measurement& untraced,
                                     const ParallelismProbe& probe);

}  // namespace loopbench

#endif  // LOOPBENCH_TRACE_H_
