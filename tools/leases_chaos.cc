// leases_chaos: Oracle-checked chaos soaks against a full simulated cluster.
//
// Each run draws a random fault plan (crashes, restarts, partitions, rate
// storms, clock drift) from its seed, layers it over baseline
// loss/duplication/reorder rates, and drives a Poisson read/write workload
// while the Oracle checks every operation for stale or regressing reads.
//
//   leases_chaos --runs 20 --seed 1              # 20 seeds, 10x2000 ops each
//   leases_chaos --seed 7 --ops 10000 --trace    # one soak, print the trace
//   leases_chaos --plan "@1.000000 crash-server;@3.000000 restart-server"
//   leases_chaos --storage --seed 3              # plans include power cuts
//                                                # with journal tail damage
//   leases_chaos --smoke                         # bounded CI self-check
//   leases_chaos --clock --runs 10               # plans may drift the server
//                                                # clock; terms come from the
//                                                # measured drift bound
//   leases_chaos --drift-ramp 6 --rate 5 --write_fraction 0.1
//                                                # scripted all-client drift
//                                                # ramp, 6 spans at peak
//
// On a violation the tool greedily minimizes the failing plan and prints a
// `FAILING seed=N plan=...` line; re-running with that --seed and --plan
// reproduces the run byte-exactly (same trace digest).
#include <algorithm>
#include <cstdio>
#include <string>

#include "src/common/logging.h"
#include "src/metrics/metrics.h"
#include "src/workload/chaos_harness.h"
#include "tools/flags.h"

namespace leases {
namespace {

ChaosOptions OptionsFromFlags(const Flags& flags) {
  ChaosOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.num_clients = static_cast<size_t>(flags.GetInt("clients", 10));
  options.total_ops = static_cast<uint64_t>(flags.GetInt("ops", 2000));
  options.num_files = static_cast<size_t>(flags.GetInt("files", 12));
  options.term = Duration::Seconds(flags.GetDouble("term", 10));
  options.write_fraction = flags.GetDouble("write_fraction", 0.25);
  options.ops_per_sec = flags.GetDouble("rate", 60.0);
  options.loss = flags.GetDouble("loss", 0.01);
  options.dup = flags.GetDouble("dup", 0.01);
  options.reorder = flags.GetDouble("reorder", 0.01);
  options.burst = flags.GetDouble("burst", 0.0);
  options.random_plan = !flags.GetBool("no-plan", false);
  options.collect_trace = flags.GetBool("trace", false);
  options.plan_options.allow_storage_fault = flags.GetBool("storage", false);
  options.num_replicas = static_cast<size_t>(flags.GetInt("replicas", 0));
  options.partition_holder_at =
      Duration::Seconds(flags.GetDouble("isolate-holder-at", 0.0));
  // Replica hardening plane: --membership lets random plans grow/shrink the
  // committed member set mid-soak; --durable-acceptors persists acceptor
  // promises so crash-restarted replicas skip the warm-up wait;
  // --standby-reads serves reads from non-holder replicas under the
  // holder's delegated bound.
  options.plan_options.allow_membership = flags.GetBool("membership", false);
  options.durable_acceptors = flags.GetBool("durable-acceptors", false);
  options.standby_reads = flags.GetBool("standby-reads", false);
  // Clock-health plane: --clock lets random plans drift the server's own
  // clock and wraps the term policy in the measured-bound decorator (the
  // combination the clock soak wants: drift happens, terms shrink to match).
  bool clock = flags.GetBool("clock", false);
  options.plan_options.allow_server_drift = clock;
  options.uncertainty_terms = flags.GetBool("uncertainty", clock);
  return options;
}

// The drift-ramp plan the clock soak uses: every client ramps slow while
// the server ramps fast, then both dwell at peak magnitude. Mirrors the
// DriftRampChaosTest acceptance runs.
FaultPlan AllClientDriftRamp(size_t num_clients, int hold_spans) {
  FaultPlan plan;
  for (uint32_t c = 0; c < num_clients; ++c) {
    DriftRampOptions ramp;
    ramp.target = c;
    ramp.server = (c == 0);
    ramp.hold_spans = hold_spans;
    FaultPlan per_client = DriftRampPlan(ramp);
    plan.events.insert(plan.events.end(), per_client.events.begin(),
                       per_client.events.end());
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

void PrintReport(const ChaosOptions& options, const ChaosReport& report) {
  std::printf(
      "run seed=%llu ops=%llu reads=%llu writes=%llu failed=%llu "
      "violations=%llu digest=0x%016llx sim=%.1fs\n",
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(report.reads + report.writes +
                                      report.ops_failed),
      static_cast<unsigned long long>(report.reads),
      static_cast<unsigned long long>(report.writes),
      static_cast<unsigned long long>(report.ops_failed),
      static_cast<unsigned long long>(report.violations),
      static_cast<unsigned long long>(report.digest),
      report.sim_time.ToSeconds());
  if (!report.plan_line.empty()) {
    std::printf("  plan: %s\n", report.plan_line.c_str());
  }
  // Durability plane: only chatty when storage actually did something
  // (recoveries, tail repairs, shed writes) -- zero counters stay silent.
  const ServerStats& server = report.server;
  CounterBag storage;
  storage.Set("journal_appends", server.journal_appends);
  storage.Set("journal_replays", server.journal_replays);
  storage.Set("truncated_tails", server.journal_truncated_tails);
  storage.Set("corrupt_dropped", server.journal_corrupt_dropped);
  storage.Set("shed_writes", server.recovery_shed_writes);
  storage.Set("unavailable_retries", report.unavailable_retries);
  // The cluster's initial Reopen counts as one replay; anything beyond it
  // is a real crash recovery.
  if (server.journal_replays > 1) {
    std::printf("  storage: %s\n", storage.Summary().c_str());
  }
  if (options.num_replicas > 1) {
    std::printf("  authority: acquisitions=%llu stepdowns=%llu "
                "warmup_waits=%llu cap_hits=%llu write_hold=%.3fs "
                "(term %.1fs)\n",
                static_cast<unsigned long long>(server.authority_acquisitions),
                static_cast<unsigned long long>(server.authority_stepdowns),
                static_cast<unsigned long long>(server.authority_warmup_waits),
                static_cast<unsigned long long>(server.grant_cap_hits),
                server.recovery_window.ToSeconds(),
                options.term.ToSeconds());
    if (report.membership_epoch > 0 || server.standby_reads_served > 0) {
      std::printf("  hardening: member_epoch=%llu standby_reads=%llu\n",
                  static_cast<unsigned long long>(report.membership_epoch),
                  static_cast<unsigned long long>(server.standby_reads_served));
    }
  }
  if (options.uncertainty_terms) {
    std::printf("  clock: samples=%llu capped=%llu zero=%llu extends=%llu\n",
                static_cast<unsigned long long>(server.clock_samples),
                static_cast<unsigned long long>(
                    report.uncertainty_capped_grants),
                static_cast<unsigned long long>(report.uncertainty_zero_grants),
                static_cast<unsigned long long>(report.extend_requests));
  }
  if (report.hit_time_cap) {
    std::printf("  WARNING: hit simulated-time cap before all ops drained\n");
  }
  for (const std::string& line : report.trace) {
    std::printf("  %s\n", line.c_str());
  }
}

// Runs one soak; on violation minimizes and prints the repro line.
// Returns 0 on a clean run.
int RunOne(const ChaosOptions& options) {
  ChaosReport report = RunChaos(options);
  PrintReport(options, report);
  if (report.violations == 0) {
    return 0;
  }
  for (const std::string& line : report.violation_log) {
    std::printf("  violation: %s\n", line.c_str());
  }
  FaultPlan failing = FaultPlan::Parse(report.plan_line).value_or(FaultPlan{});
  FaultPlan minimized = MinimizePlan(options, failing);
  std::printf("FAILING seed=%llu plan=%s\n",
              static_cast<unsigned long long>(options.seed),
              minimized.ToLine().c_str());
  std::printf("replay: leases_chaos --seed %llu --ops %llu --clients %zu "
              "--loss %.4f --dup %.4f --reorder %.4f --burst %.4f "
              "--plan \"%s\"\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.total_ops),
              options.num_clients, options.loss, options.dup, options.reorder,
              options.burst, minimized.ToLine().c_str());
  return 1;
}

// Bounded self-check for CI: a few fixed seeds at small scale, plus a
// same-seed-twice digest comparison proving replayability.
int RunSmoke() {
  ChaosOptions options;
  options.num_clients = 4;
  options.total_ops = 300;
  options.num_files = 6;
  options.ops_per_sec = 40.0;
  options.dup = 0.02;
  options.reorder = 0.02;
  options.burst = 0.01;
  options.plan_options.horizon = Duration::Seconds(6);

  for (uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    options.seed = seed;
    int rc = RunOne(options);
    if (rc != 0) {
      return rc;
    }
  }
  options.seed = 7;
  ChaosReport a = RunChaos(options);
  ChaosReport b = RunChaos(options);
  if (a.digest != b.digest || a.plan_line != b.plan_line) {
    std::printf("SMOKE FAIL: same seed diverged (0x%016llx vs 0x%016llx)\n",
                static_cast<unsigned long long>(a.digest),
                static_cast<unsigned long long>(b.digest));
    return 1;
  }
  std::printf("smoke ok: replay digest stable 0x%016llx\n",
              static_cast<unsigned long long>(a.digest));

  // Storage-fault pass: plans may now power-cut the server with journal
  // tail damage; recovery replays from the (in-memory) journal and the
  // oracle still demands zero violations. Fresh seeds so the pinned
  // digests above are untouched.
  options.plan_options.allow_storage_fault = true;
  for (uint64_t seed : {3ULL, 21ULL}) {
    options.seed = seed;
    int rc = RunOne(options);
    if (rc != 0) {
      return rc;
    }
  }
  options.seed = 21;
  ChaosReport c = RunChaos(options);
  ChaosReport d = RunChaos(options);
  if (c.digest != d.digest || c.plan_line != d.plan_line) {
    std::printf(
        "SMOKE FAIL: storage seed diverged (0x%016llx vs 0x%016llx)\n",
        static_cast<unsigned long long>(c.digest),
        static_cast<unsigned long long>(d.digest));
    return 1;
  }
  std::printf("smoke ok: storage-fault digest stable 0x%016llx\n",
              static_cast<unsigned long long>(c.digest));

  // Replicated-authority pass: three replicas under drifting clocks take a
  // holder crash at 1.5 s and a holder isolation at 8 s. The acceptance
  // bar: zero violations, at least the three expected acquisitions (seed,
  // post-crash, post-isolation), and a failover write hold far below the
  // 10 s max-granted-term wait a single server would impose.
  ChaosOptions replicated;
  replicated.num_clients = 4;
  replicated.total_ops = 900;
  replicated.num_files = 6;
  replicated.ops_per_sec = 20.0;
  replicated.dup = 0.02;
  replicated.reorder = 0.02;
  replicated.num_replicas = 3;
  replicated.replica_clocks = {ClockModel::Drifting(1.0004),
                               ClockModel::Drifting(0.9996),
                               ClockModel::Skewed(Duration::Millis(40))};
  replicated.random_plan = false;
  replicated.plan = FaultPlan::Parse(
                        "@1.500000 crash-server;@6.000000 restart-server")
                        .value();
  replicated.partition_holder_at = Duration::Seconds(8);
  for (uint64_t seed : {5ULL, 11ULL}) {
    replicated.seed = seed;
    int rc = RunOne(replicated);
    if (rc != 0) {
      return rc;
    }
  }
  replicated.seed = 11;
  ChaosReport e = RunChaos(replicated);
  ChaosReport f = RunChaos(replicated);
  if (e.digest != f.digest) {
    std::printf(
        "SMOKE FAIL: replicated seed diverged (0x%016llx vs 0x%016llx)\n",
        static_cast<unsigned long long>(e.digest),
        static_cast<unsigned long long>(f.digest));
    return 1;
  }
  if (e.server.authority_acquisitions < 3) {
    std::printf("SMOKE FAIL: expected >= 3 authority acquisitions, saw %llu\n",
                static_cast<unsigned long long>(
                    e.server.authority_acquisitions));
    return 1;
  }
  const double hold_s = e.server.recovery_window.ToSeconds();
  if (hold_s > replicated.term.ToSeconds() * 0.5) {
    std::printf(
        "SMOKE FAIL: failover write hold %.3fs not << max granted term %.1fs\n",
        hold_s, replicated.term.ToSeconds());
    return 1;
  }
  std::printf("smoke ok: replicated failover digest stable 0x%016llx "
              "(write hold %.3fs vs %.1fs term)\n",
              static_cast<unsigned long long>(e.digest), hold_s,
              replicated.term.ToSeconds());

  // Replica-hardening pass: durable acceptors + standby reads + a scripted
  // membership change sequence (grow to four, shrink away replica 0, then
  // crash whichever replica holds the authority) under the same drifting
  // replica clocks. The bar: zero violations, at least two committed
  // member-set epochs (the add and the remove), standby replicas actually
  // answering reads through the holder outage, and a stable replay digest.
  ChaosOptions hardened = replicated;
  hardened.total_ops = 1600;
  hardened.ops_per_sec = 25.0;
  hardened.durable_acceptors = true;
  hardened.standby_reads = true;
  hardened.partition_holder_at = Duration::Zero();
  hardened.plan = FaultPlan::Parse(
                      "@2.000000 add-replica;@7.000000 remove-replica 0;"
                      "@11.000000 crash-server;@14.000000 restart-server")
                      .value();
  for (uint64_t seed : {13ULL, 29ULL}) {
    hardened.seed = seed;
    int rc = RunOne(hardened);
    if (rc != 0) {
      return rc;
    }
  }
  hardened.seed = 29;
  ChaosReport m1 = RunChaos(hardened);
  ChaosReport m2 = RunChaos(hardened);
  if (m1.digest != m2.digest) {
    std::printf(
        "SMOKE FAIL: membership seed diverged (0x%016llx vs 0x%016llx)\n",
        static_cast<unsigned long long>(m1.digest),
        static_cast<unsigned long long>(m2.digest));
    return 1;
  }
  if (m1.membership_epoch < 2) {
    std::printf("SMOKE FAIL: expected >= 2 membership epochs, saw %llu\n",
                static_cast<unsigned long long>(m1.membership_epoch));
    return 1;
  }
  if (m1.server.standby_reads_served == 0) {
    std::printf("SMOKE FAIL: standby replicas never served a read\n");
    return 1;
  }
  std::printf("smoke ok: membership digest stable 0x%016llx "
              "(epoch=%llu standby_reads=%llu warmup_waits=%llu)\n",
              static_cast<unsigned long long>(m1.digest),
              static_cast<unsigned long long>(m1.membership_epoch),
              static_cast<unsigned long long>(m1.server.standby_reads_served),
              static_cast<unsigned long long>(
                  m1.server.authority_warmup_waits));

  // Random-membership pass: plans may now grow and shrink the member set
  // on their own (plus the usual crashes and partitions); the oracle bar
  // stays absolute. Fresh seeds keep earlier pinned digests untouched.
  ChaosOptions member_chaos = replicated;
  member_chaos.random_plan = true;
  member_chaos.plan = FaultPlan{};
  member_chaos.partition_holder_at = Duration::Zero();
  member_chaos.plan_options.allow_membership = true;
  member_chaos.plan_options.horizon = Duration::Seconds(10);
  for (uint64_t seed : {17ULL, 23ULL}) {
    member_chaos.seed = seed;
    int rc = RunOne(member_chaos);
    if (rc != 0) {
      return rc;
    }
  }
  std::printf("smoke ok: random membership plans clean\n");

  // Clock-health pass: a bounded drift ramp (all clients slow, server
  // fast, short dwell at peak) under the measured-bound term policy. The
  // bar: zero violations, the degradation ladder actually engaged (capped
  // and zero-term grants both nonzero), and a stable replay digest. Fresh
  // seeds again so earlier pinned digests stay untouched.
  ChaosOptions clocked;
  clocked.num_clients = 4;
  clocked.total_ops = 1600;
  clocked.num_files = 8;
  clocked.ops_per_sec = 5.0;
  clocked.write_fraction = 0.1;
  clocked.client.batch_extensions = false;
  clocked.random_plan = false;
  clocked.plan = AllClientDriftRamp(clocked.num_clients, /*hold_spans=*/2);
  clocked.uncertainty_terms = true;
  for (uint64_t seed : {9ULL, 31ULL}) {
    clocked.seed = seed;
    int rc = RunOne(clocked);
    if (rc != 0) {
      return rc;
    }
  }
  clocked.seed = 31;
  ChaosReport g = RunChaos(clocked);
  ChaosReport h = RunChaos(clocked);
  if (g.digest != h.digest) {
    std::printf("SMOKE FAIL: clock seed diverged (0x%016llx vs 0x%016llx)\n",
                static_cast<unsigned long long>(g.digest),
                static_cast<unsigned long long>(h.digest));
    return 1;
  }
  if (g.uncertainty_capped_grants == 0 || g.uncertainty_zero_grants == 0) {
    std::printf("SMOKE FAIL: degradation ladder never engaged "
                "(capped=%llu zero=%llu)\n",
                static_cast<unsigned long long>(g.uncertainty_capped_grants),
                static_cast<unsigned long long>(g.uncertainty_zero_grants));
    return 1;
  }
  std::printf("smoke ok: drift-ramp digest stable 0x%016llx "
              "(capped=%llu zero=%llu)\n",
              static_cast<unsigned long long>(g.digest),
              static_cast<unsigned long long>(g.uncertainty_capped_grants),
              static_cast<unsigned long long>(g.uncertainty_zero_grants));
  return 0;
}

int Run(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf(
        "usage: leases_chaos [--runs n] [--seed n] [--ops n] [--clients n]\n"
        "                    [--files n] [--term s] [--rate ops/s]\n"
        "                    [--write_fraction f] [--loss p] [--dup p]\n"
        "                    [--reorder p] [--burst p] [--plan \"...\"]\n"
        "                    [--no-plan] [--storage] [--trace] [--smoke]\n"
        "                    [--replicas n] [--isolate-holder-at s]\n"
        "                    [--membership] [--durable-acceptors]\n"
        "                    [--standby-reads]\n"
        "                    [--clock] [--uncertainty] [--drift-ramp n]\n");
    return 0;
  }
  if (flags.Has("log")) {
    std::string level = flags.GetString("log", "warn");
    Logger::Get().set_level(level == "trace"  ? LogLevel::kTrace
                            : level == "debug" ? LogLevel::kDebug
                            : level == "info"  ? LogLevel::kInfo
                                               : LogLevel::kWarn);
  }
  if (flags.GetBool("smoke", false)) {
    return RunSmoke();
  }

  ChaosOptions options = OptionsFromFlags(flags);
  // --drift-ramp N: replace the random plan with the scripted all-client
  // drift ramp, dwelling N hold spans at peak magnitude.
  if (flags.Has("drift-ramp")) {
    options.random_plan = false;
    options.plan = AllClientDriftRamp(
        options.num_clients,
        static_cast<int>(flags.GetInt("drift-ramp", 3)));
    options.uncertainty_terms = flags.GetBool("uncertainty", true);
  }
  if (flags.Has("plan")) {
    std::optional<FaultPlan> plan = FaultPlan::Parse(flags.GetString("plan", ""));
    if (!plan.has_value()) {
      std::fprintf(stderr, "malformed --plan line\n");
      return 1;
    }
    options.plan = *plan;
  }

  int runs = static_cast<int>(flags.GetInt("runs", 1));
  for (int r = 0; r < runs; ++r) {
    int rc = RunOne(options);
    if (rc != 0) {
      return rc;
    }
    ++options.seed;
  }
  return 0;
}

}  // namespace
}  // namespace leases

int main(int argc, char** argv) { return leases::Run(argc, argv); }
