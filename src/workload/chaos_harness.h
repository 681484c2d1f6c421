// Chaos soak harness: randomized, replayable fault schedules against a full
// simulated cluster, with every read and write checked by the consistency
// Oracle.
//
// A chaos run is a pure function of ChaosOptions: the workload stream, the
// fault plan and the network's fault draws all derive from `seed`, so the
// same options reproduce the same run byte-for-byte. The report carries an
// FNV-1a digest over the deterministic event trace (op completions and fault
// applications in simulation order); two runs agree iff their digests agree,
// which is how the chaos_smoke test and `leases_chaos` prove replayability.
//
// On an Oracle violation the caller can shrink the schedule with
// MinimizePlan (greedy event removal, re-running the soak after each
// deletion) and print `seed + plan line` for a byte-exact repro.
#ifndef SRC_WORKLOAD_CHAOS_HARNESS_H_
#define SRC_WORKLOAD_CHAOS_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/fault_plan.h"
#include "src/core/sim_cluster.h"

namespace leases {

struct ChaosOptions {
  uint64_t seed = 1;
  size_t num_clients = 10;
  uint64_t total_ops = 10000;
  size_t num_files = 12;
  Duration term = Duration::Seconds(10);
  double write_fraction = 0.25;
  // Mean per-client operation rate (Poisson arrivals).
  double ops_per_sec = 60.0;

  // Client-cache tuning forwarded to the cluster verbatim. The default
  // value reproduces historical digests bit-for-bit; the jitter-pin test
  // flips extension_jitter here and asserts the digest moves only then.
  ClientParams client;

  // Baseline fault-plane rates, active for the whole run (a kRates plan
  // event overrides them until quiesce restores the baseline).
  double loss = 0.01;
  double dup = 0.01;
  double reorder = 0.01;
  double burst = 0.0;

  // Sharded grant plane: 0/1 keeps the single engine, n > 1 shards the
  // serving path by FileId (composes with num_replicas: the elected holder
  // then runs the sharded plane behind the virtual address).
  size_t num_shards = 0;
  // Replicated authority plane: 0 keeps the historical single server,
  // n > 1 runs the soak against n authority replicas (crash-server plan
  // events then fell the current holder, restart-server revives every
  // downed replica). Optional per-replica clock models ride along.
  size_t num_replicas = 0;
  std::vector<ClockModel> replica_clocks;
  // Replica-plane hardening knobs, forwarded to EngineConfig::replica.
  // durable_acceptors persists promises/accepts so a crash-restarted
  // replica rejoins without the warm-up wait; standby_reads lets
  // non-holder replicas answer reads under the holder's delegated bound.
  bool durable_acceptors = false;
  bool standby_reads = false;
  // Scripted holder isolation (replicated runs only): at `at`, partition
  // whichever replica currently holds the authority lease from its peers
  // for `span` (its grants keep flowing to clients until it steps down --
  // the modeled danger window), then heal. Zero `at` disables.
  Duration partition_holder_at = Duration::Zero();
  Duration partition_holder_span = Duration::Seconds(3);

  // Clock-health plane: wrap the server's term policy in
  // UncertaintyAwareTermPolicy so terms shrink (ultimately to zero) as the
  // measured drift bound degrades. `uncertainty.epsilon` is overwritten
  // with the engine epsilon by the cluster; tune the rest here.
  bool uncertainty_terms = false;
  UncertaintyAwareTermPolicy::Options uncertainty;

  // When true (and `plan` is empty), a RandomFaultPlan drawn from the seed
  // is layered on top of the baseline rates.
  bool random_plan = true;
  RandomPlanOptions plan_options;
  // Explicit plan; when non-empty it is used instead of a random one.
  FaultPlan plan;

  bool collect_trace = false;
  // Safety net against a wedged run; generously above any sane soak.
  Duration max_sim_time = Duration::Seconds(1200);
};

struct ChaosReport {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t ops_failed = 0;  // timeouts etc. -- expected under faults
  uint64_t violations = 0;
  uint64_t digest = 0;  // FNV-1a over the deterministic event trace
  std::string plan_line;
  std::vector<std::string> violation_log;
  std::vector<std::string> trace;  // only when collect_trace
  Duration sim_time;
  bool hit_time_cap = false;

  // The final server stats, merged across shards and replicas (zero when
  // the server is down at the end). The journal counters are cumulative
  // across the run (the storage backend outlives crashes); the authority
  // counters count election activity, and recovery_window is the merged
  // write-hold window -- for a replicated run the inherited grant bound the
  // successors imposed instead of the max-granted-term recovery wait.
  ServerStats server;

  // Summed over surviving clients.
  uint64_t unavailable_retries = 0;
  // The highest committed member-set epoch any replica reached (0 = no
  // reconfiguration committed).
  uint64_t membership_epoch = 0;

  // Clock-health plane: the uncertainty_* counters are zero unless
  // uncertainty_terms was set. extend_requests (summed over surviving
  // clients) is the load metric the adaptive-vs-fixed comparison uses.
  uint64_t uncertainty_capped_grants = 0;
  uint64_t uncertainty_zero_grants = 0;
  uint64_t extend_requests = 0;
};

// Runs one soak to completion. Deterministic per options.
ChaosReport RunChaos(const ChaosOptions& options);

// Greedily shrinks `failing` (a plan whose run shows violations) by removing
// events one at a time while the violation persists; bounded by `max_runs`
// re-executions. Returns the smallest still-failing plan found.
FaultPlan MinimizePlan(const ChaosOptions& options, const FaultPlan& failing,
                       int max_runs = 64);

}  // namespace leases

#endif  // SRC_WORKLOAD_CHAOS_HARNESS_H_
