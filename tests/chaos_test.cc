// Chaos plane tests: FaultPlan text round-trips, random-plan determinism,
// chaos-harness replayability, the Oracle-checked soak acceptance runs, and
// pinned regressions for the protocol bugs the chaos runner exposed.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/fault_plan.h"
#include "src/workload/chaos_harness.h"

namespace leases {
namespace {

// --- FaultPlan text form --------------------------------------------------

FaultPlan SampleOfEveryOp() {
  FaultPlan plan;
  FaultEvent ev;
  ev.at = Duration::Millis(500);
  ev.op = FaultOp::kCrashServer;
  plan.events.push_back(ev);
  ev.at = Duration::Seconds(1.25);
  ev.op = FaultOp::kRestartServer;
  plan.events.push_back(ev);
  ev.at = Duration::Seconds(2);
  ev.op = FaultOp::kCrashClient;
  ev.target = 3;
  plan.events.push_back(ev);
  ev.op = FaultOp::kRestartClient;
  ev.at = Duration::Seconds(2.5);
  plan.events.push_back(ev);
  ev.op = FaultOp::kPartition;
  ev.at = Duration::Seconds(3);
  ev.target = 1;
  ev.on = true;
  plan.events.push_back(ev);
  ev.op = FaultOp::kHeal;
  ev.at = Duration::Seconds(4);
  plan.events.push_back(ev);
  ev.op = FaultOp::kRates;
  ev.at = Duration::Seconds(5);
  ev.loss = 0.05;
  ev.dup = 0.02;
  ev.reorder = 0.1;
  ev.burst = 0.01;
  plan.events.push_back(ev);
  ev.op = FaultOp::kDrift;
  ev.at = Duration::Seconds(6);
  ev.target = 0;
  ev.rate = 1.005;
  ev.span = Duration::Seconds(2);
  plan.events.push_back(ev);
  ev.op = FaultOp::kDriftServer;
  ev.at = Duration::Seconds(6.5);
  ev.target = 0;
  ev.rate = 1.02;
  ev.span = Duration::Seconds(1);
  plan.events.push_back(ev);
  ev = FaultEvent{};
  ev.op = FaultOp::kStorage;
  ev.at = Duration::Seconds(7);
  ev.mode = 1;  // torn journal tail
  plan.events.push_back(ev);
  ev.at = Duration::Seconds(7.5);
  ev.op = FaultOp::kRestartServer;
  plan.events.push_back(ev);
  return plan;
}

TEST(FaultPlanTest, ToLineParseRoundTripsEveryOp) {
  FaultPlan plan = SampleOfEveryOp();
  std::string line = plan.ToLine();
  std::optional<FaultPlan> parsed = FaultPlan::Parse(line);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->events.size(), plan.events.size());
  // Canonical: re-serializing the parse reproduces the same bytes.
  EXPECT_EQ(parsed->ToLine(), line);
}

TEST(FaultPlanTest, EndIncludesDriftSpan) {
  FaultPlan plan = SampleOfEveryOp();
  EXPECT_EQ(plan.End(), Duration::Seconds(8));  // drift at 6s + 2s span
}

TEST(FaultPlanTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(FaultPlan::Parse("crash-server").has_value());  // missing '@'
  EXPECT_FALSE(FaultPlan::Parse("@1.0 explode").has_value());
  EXPECT_FALSE(FaultPlan::Parse("@1.0 crash-client").has_value());
  EXPECT_FALSE(FaultPlan::Parse("@1.0 partition 2 sideways").has_value());
  EXPECT_FALSE(FaultPlan::Parse("@1.0 rates loss=0.1").has_value());
  EXPECT_FALSE(FaultPlan::Parse("@1.0 storage-crash").has_value());
  EXPECT_FALSE(
      FaultPlan::Parse("@1.0 storage-crash mode=shredded").has_value());
  EXPECT_TRUE(FaultPlan::Parse("").has_value());  // empty plan is valid
}

TEST(FaultPlanTest, StorageCrashTextFormIsCanonical) {
  std::optional<FaultPlan> plan = FaultPlan::Parse(
      "@1.000000 storage-crash mode=torn;@1.500000 restart-server;"
      "@2.000000 storage-crash mode=corrupt;@2.500000 restart-server;"
      "@3.000000 storage-crash mode=clean;@3.500000 restart-server");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events.size(), 6u);
  EXPECT_EQ(plan->events[0].mode, 1u);
  EXPECT_EQ(plan->events[2].mode, 2u);
  EXPECT_EQ(plan->events[4].mode, 0u);
  EXPECT_EQ(FaultPlan::Parse(plan->ToLine())->ToLine(), plan->ToLine());
}

TEST(FaultPlanTest, DriftServerTextFormIsCanonical) {
  // Byte-exact pin of the server-drift op's serialization: a failing soak
  // prints `seed + plan line`, so this text form is a replay interface.
  FaultPlan plan;
  FaultEvent ev;
  ev.at = Duration::Seconds(1.5);
  ev.op = FaultOp::kDriftServer;
  ev.target = 2;
  ev.rate = 1.015;
  ev.span = Duration::Seconds(3);
  plan.events.push_back(ev);
  EXPECT_EQ(plan.ToLine(),
            "@1.500000 drift-server 2 rate=1.015000 span=3.000000");
  std::optional<FaultPlan> parsed = FaultPlan::Parse(plan.ToLine());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->events.size(), 1u);
  EXPECT_EQ(parsed->events[0].op, FaultOp::kDriftServer);
  EXPECT_EQ(parsed->events[0].target, 2u);
  EXPECT_DOUBLE_EQ(parsed->events[0].rate, 1.015);
  EXPECT_EQ(parsed->events[0].span, Duration::Seconds(3));
  EXPECT_EQ(parsed->ToLine(), plan.ToLine());
  // End() counts the server-drift restoration, like client drift.
  EXPECT_EQ(plan.End(), Duration::Seconds(4.5));
}

TEST(FaultPlanTest, ServerDriftOnlyWhenOptedIn) {
  RandomPlanOptions plain;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    for (const FaultEvent& ev : RandomFaultPlan(rng, plain).events) {
      EXPECT_NE(ev.op, FaultOp::kDriftServer);
    }
  }
  RandomPlanOptions drifty;
  drifty.allow_server_drift = true;
  int server_drifts = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    for (const FaultEvent& ev : RandomFaultPlan(rng, drifty).events) {
      if (ev.op == FaultOp::kDriftServer) {
        ++server_drifts;
        EXPECT_LE(std::abs(ev.rate - 1.0), drifty.drift_magnitude + 1e-12);
        EXPECT_LE(ev.span, drifty.drift_span_max);
      }
    }
  }
  EXPECT_GT(server_drifts, 0);
}

TEST(FaultPlanTest, DriftRampSweepsToEndMagnitude) {
  DriftRampOptions ramp;
  ramp.server = true;
  FaultPlan plan = DriftRampPlan(ramp);
  ASSERT_FALSE(plan.events.empty());
  // Pairs of (client, server) steps; magnitudes multiply by step_factor and
  // the final step is pinned exactly at end_magnitude.
  ASSERT_EQ(plan.events.size() % 2, 0u);
  double prev = 0.0;
  int plateau_steps = 0;
  for (size_t i = 0; i < plan.events.size(); i += 2) {
    const FaultEvent& client = plan.events[i];
    const FaultEvent& server = plan.events[i + 1];
    EXPECT_EQ(client.op, FaultOp::kDrift);
    EXPECT_EQ(server.op, FaultOp::kDriftServer);
    EXPECT_EQ(client.at, server.at);
    double m = 1.0 - client.rate;               // client runs slow
    EXPECT_NEAR(server.rate, 1.0 + m, 1e-12);   // server runs fast
    EXPECT_GE(m, prev);
    EXPECT_LE(m, ramp.end_magnitude + 1e-12);
    if (m >= ramp.end_magnitude - 1e-12) {
      ++plateau_steps;
    } else {
      EXPECT_GT(m, prev);
    }
    prev = m;
  }
  EXPECT_NEAR(prev, ramp.end_magnitude, 1e-12);
  // The ramp dwells at the top for hold_spans extra spans.
  EXPECT_EQ(plateau_steps, ramp.hold_spans + 1);
  // The ramp round-trips through the replay text form byte-exactly.
  EXPECT_EQ(FaultPlan::Parse(plan.ToLine())->ToLine(), plan.ToLine());
}

TEST(FaultPlanTest, StorageFaultsOnlyWhenOptedIn) {
  // Default options never draw a storage fault (pre-existing seeds stay
  // byte-identical); with the opt-in, some seed does, and every storage
  // crash is paired with a later server restart.
  RandomPlanOptions plain;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    for (const FaultEvent& ev : RandomFaultPlan(rng, plain).events) {
      EXPECT_NE(ev.op, FaultOp::kStorage);
    }
  }
  RandomPlanOptions storage;
  storage.allow_storage_fault = true;
  int storage_events = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    FaultPlan plan = RandomFaultPlan(rng, storage);
    for (size_t i = 0; i < plan.events.size(); ++i) {
      const FaultEvent& ev = plan.events[i];
      if (ev.op != FaultOp::kStorage) {
        continue;
      }
      ++storage_events;
      EXPECT_GE(ev.mode, 1u);  // random plans always wound the tail
      EXPECT_LE(ev.mode, 2u);
      bool restarted = false;
      for (size_t j = i + 1; j < plan.events.size(); ++j) {
        if (plan.events[j].op == FaultOp::kRestartServer &&
            plan.events[j].at > ev.at) {
          restarted = true;
        }
      }
      EXPECT_TRUE(restarted) << "unpaired storage crash, seed " << seed;
    }
  }
  EXPECT_GT(storage_events, 0);
}

TEST(FaultPlanTest, RandomPlanIsDeterministicPerSeed) {
  RandomPlanOptions options;
  Rng a(77);
  Rng b(77);
  EXPECT_EQ(RandomFaultPlan(a, options).ToLine(),
            RandomFaultPlan(b, options).ToLine());
  Rng c(78);
  // Overwhelmingly likely to differ; equality would indicate the plan
  // ignores its rng.
  EXPECT_NE(RandomFaultPlan(a, options).ToLine(),
            RandomFaultPlan(c, options).ToLine());
}

TEST(FaultPlanTest, RandomPlanPairsDisruptionWithRecovery) {
  RandomPlanOptions options;
  options.max_disruptions = 6;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    FaultPlan plan = RandomFaultPlan(rng, options);
    int server_crash = 0, server_restart = 0;
    int client_crash = 0, client_restart = 0;
    int part_on = 0, part_off = 0;
    for (const FaultEvent& ev : plan.events) {
      switch (ev.op) {
        case FaultOp::kCrashServer: ++server_crash; break;
        case FaultOp::kRestartServer: ++server_restart; break;
        case FaultOp::kCrashClient: ++client_crash; break;
        case FaultOp::kRestartClient: ++client_restart; break;
        case FaultOp::kPartition: (ev.on ? ++part_on : ++part_off); break;
        default: break;
      }
      EXPECT_LE(ev.at, plan.End());
    }
    EXPECT_EQ(server_crash, server_restart);
    EXPECT_EQ(client_crash, client_restart);
    EXPECT_EQ(part_on, part_off);
  }
}

// --- Chaos harness --------------------------------------------------------

ChaosOptions SmokeOptions(uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.num_clients = 4;
  options.total_ops = 250;
  options.num_files = 6;
  options.ops_per_sec = 40.0;
  options.dup = 0.02;
  options.reorder = 0.02;
  options.burst = 0.01;
  options.plan_options.horizon = Duration::Seconds(6);
  return options;
}

TEST(ChaosHarnessTest, SameSeedReproducesTheSameDigest) {
  ChaosReport a = RunChaos(SmokeOptions(5));
  ChaosReport b = RunChaos(SmokeOptions(5));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.plan_line, b.plan_line);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  ChaosReport c = RunChaos(SmokeOptions(6));
  EXPECT_NE(a.digest, c.digest);
}

TEST(ChaosHarnessTest, SmokeSeedsRunCleanUnderFaultsAndRandomPlans) {
  for (uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    ChaosReport report = RunChaos(SmokeOptions(seed));
    EXPECT_EQ(report.violations, 0u) << "seed " << seed << " plan "
                                     << report.plan_line;
    EXPECT_FALSE(report.hit_time_cap);
    EXPECT_GT(report.reads + report.writes, 0u);
  }
}

TEST(ChaosHarnessTest, ExplicitPlanOverridesRandomPlan) {
  ChaosOptions options = SmokeOptions(5);
  FaultPlan plan =
      FaultPlan::Parse("@1.000000 partition 0 on;@2.000000 partition 0 off")
          .value();
  options.plan = plan;
  ChaosReport report = RunChaos(options);
  EXPECT_EQ(report.plan_line, plan.ToLine());
  EXPECT_EQ(report.violations, 0u);
}

// Acceptance soak from the issue: 10 clients, 10k ops, duplication +
// reorder + burst loss all >= 1%, random crash/partition/drift plans --
// zero Oracle violations.
TEST(ChaosHarnessTest, AcceptanceSoakTenClientsTenThousandOps) {
  ChaosOptions options;
  options.seed = 20260806;
  options.num_clients = 10;
  options.total_ops = 10000;
  options.loss = 0.01;
  options.dup = 0.01;
  options.reorder = 0.01;
  options.burst = 0.01;
  ChaosReport report = RunChaos(options);
  EXPECT_EQ(report.violations, 0u) << report.plan_line;
  EXPECT_FALSE(report.hit_time_cap);
  EXPECT_GT(report.reads, 1000u);
  EXPECT_GT(report.writes, 1000u);
}

// Acceptance soak for the durable storage plane: server power cuts with
// journal tail damage layered over the usual crash/partition/drift plans.
// Recovery must replay the damaged journal and the Oracle still demands
// zero violations across >= 10k operations.
TEST(ChaosHarnessTest, StorageFaultSoakTenThousandOps) {
  ChaosOptions options;
  options.seed = 20260807;
  options.num_clients = 10;
  options.total_ops = 10000;
  options.loss = 0.01;
  options.dup = 0.01;
  options.reorder = 0.01;
  options.burst = 0.01;
  options.plan_options.allow_storage_fault = true;
  ChaosReport report = RunChaos(options);
  EXPECT_EQ(report.violations, 0u) << report.plan_line;
  EXPECT_FALSE(report.hit_time_cap);
  EXPECT_GE(report.reads + report.writes + report.ops_failed, 10000u);
}

// --- Pinned regressions for bugs the chaos plane exposed ------------------

// A delayed Read/Extend reply must not date its lease term from receipt:
// the client anchors the expiry at the *first* send of the request, so a
// grant that arrives more than `term` after the request was first issued
// establishes no usable lease and the next read revalidates remotely.
// (Found by the chaos runner as a stale-read window under reorder jitter.)
TEST(ChaosRegressionTest, ReplyDelayedPastTermEstablishesNoLease) {
  ClusterOptions options;
  options.num_clients = 1;
  options.term = Duration::Seconds(2);
  SimCluster cluster(options);
  Result<FileId> file =
      cluster.store().CreatePath("/f", FileClass::kNormal, Bytes("x"));
  ASSERT_TRUE(file.ok());

  // Hold the first fetch on the wire for 5s (> term): the request is
  // retried across the partition, but the lease anchor stays at the first
  // send, so the grant the eventual reply carries is already expired.
  cluster.PartitionClient(0, true);
  cluster.sim().ScheduleAfter(Duration::Seconds(5),
                              [&]() { cluster.PartitionClient(0, false); });
  Result<ReadResult> first = cluster.SyncRead(0, *file);
  ASSERT_TRUE(first.ok());
  Result<ReadResult> second = cluster.SyncRead(0, *file);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cluster.client(0).stats().local_reads, 0u);
  EXPECT_GE(cluster.client(0).stats().remote_fetches +
                cluster.client(0).stats().extend_requests,
            2u);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

// Each server incarnation draws write seqs from a disjoint range (durable
// boot counter in the high 32 bits), so a duplicate-delayed ApproveReply
// from before a crash can never be mistaken for an answer to a write issued
// after the restart.
TEST(ChaosRegressionTest, WriteSeqRangesAreDisjointAcrossRestarts) {
  ClusterOptions options;
  options.num_clients = 1;
  SimCluster cluster(options);
  uint64_t first_boot = cluster.server().next_write_seq() >> 32;
  cluster.CrashServer();
  cluster.RunFor(Duration::Seconds(1));
  cluster.RestartServer();
  uint64_t second_boot = cluster.server().next_write_seq() >> 32;
  EXPECT_EQ(second_boot, first_boot + 1);
  EXPECT_EQ(cluster.server().next_write_seq() & 0xffffffffu, 0u);
}

// An ApproveRequest that overtakes the ReadReply carrying a client's lease
// grant must not let the client install that grant after approving (and
// relinquishing the key): the server dropped the holdership when it
// processed the relinquish, so the client would serve cached reads no write
// ever consults it about. Pinned from a chaos run (seed 104) that caught a
// stale read 10+ seconds after the fault window closed.
TEST(ChaosRegressionTest, OvertakenGrantAfterRelinquishStaysSuspect) {
  ChaosOptions options;
  options.seed = 104;
  options.num_clients = 10;
  options.total_ops = 10000;
  options.loss = 0.01;
  options.dup = 0.01;
  options.reorder = 0.01;
  options.burst = 0.01;
  options.random_plan = false;
  options.plan = FaultPlan::Parse(
                     "@0.654736 crash-server;@1.893745 restart-server;"
                     "@2.921292 crash-client 7;@4.476737 restart-client 7")
                     .value();
  ChaosReport report = RunChaos(options);
  EXPECT_EQ(report.violations, 0u)
      << "overtaken-grant race regressed: " << report.plan_line;
}

// A standby answers reads from the file's shard partition, where the holder
// commits writes. Served from the namespace store, whose data copy stops
// following writes once there are two partitions, these reads returned
// stale versions after the holder crash (this seed's plan).
TEST(ChaosRegressionTest, ShardedStandbyReadsServeThePartition) {
  ChaosOptions options;
  options.seed = 3;
  options.total_ops = 2000;
  options.num_shards = 2;
  options.num_replicas = 3;
  options.standby_reads = true;
  options.durable_acceptors = true;
  ChaosReport report = RunChaos(options);
  EXPECT_GT(report.server.standby_reads_served, 0u);
  EXPECT_EQ(report.violations, 0u) << report.plan_line;
}

// Dial reorder jitter high enough and approvals routinely overtake grants;
// the poisoned-grant counter proves the defense actually fires while the
// Oracle proves it suffices.
TEST(ChaosRegressionTest, HeavyReorderExercisesPoisonedGrants) {
  ChaosOptions options = SmokeOptions(11);
  options.total_ops = 1500;
  options.reorder = 0.25;
  ChaosReport report = RunChaos(options);
  EXPECT_EQ(report.violations, 0u) << report.plan_line;
}

// With every fault rate at zero the harness reduces to the plain workload:
// two runs agree, proving the fault plane's RNG stream stays untouched.
TEST(ChaosHarnessTest, ZeroFaultRatesStayDeterministic) {
  ChaosOptions options = SmokeOptions(3);
  options.loss = 0.0;
  options.dup = 0.0;
  options.reorder = 0.0;
  options.burst = 0.0;
  options.random_plan = false;
  ChaosReport a = RunChaos(options);
  ChaosReport b = RunChaos(options);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.violations, 0u);
  EXPECT_EQ(a.ops_failed, 0u);  // nothing to fail without faults
}

// --- Extension-jitter determinism pin -------------------------------------

// The de-synchronized extension scheduling (ClientParams::extension_jitter)
// derives each tick's offset from a hash of (client id, tick counter) and
// consumes no RNG stream, so it must be invisible until actually enabled:
// zero-fault digests stay bit-identical with the parameter at its default
// and with jitter set but anticipation off. Once anticipation is on, the
// jitter moves the extension traffic through the server's processing queue
// and the (time-mixed) trace digest must change -- while remaining
// deterministic per configuration.
TEST(ChaosHarnessTest, ExtensionJitterChangesDigestsOnlyWhenEnabled) {
  auto zero_fault = []() {
    ChaosOptions options = SmokeOptions(9);
    options.loss = 0.0;
    options.dup = 0.0;
    options.reorder = 0.0;
    options.burst = 0.0;
    options.random_plan = false;
    options.num_clients = 8;
    options.total_ops = 1500;
    options.ops_per_sec = 80.0;
    options.term = Duration::Seconds(3);
    return options;
  };

  ChaosReport base = RunChaos(zero_fault());
  EXPECT_EQ(base.violations, 0u);

  // Jitter without anticipatory extension is inert: no timer consults it.
  ChaosOptions inert = zero_fault();
  inert.client.extension_jitter = Duration::Millis(400);
  EXPECT_EQ(RunChaos(inert).digest, base.digest);

  ChaosOptions anticipate = zero_fault();
  anticipate.client.anticipatory_extension = true;
  anticipate.client.anticipation_lead = Duration::Seconds(1);
  ChaosReport lockstep = RunChaos(anticipate);
  EXPECT_EQ(RunChaos(anticipate).digest, lockstep.digest);

  ChaosOptions jittered = anticipate;
  jittered.client.extension_jitter = Duration::Millis(400);
  ChaosReport moved = RunChaos(jittered);
  EXPECT_EQ(RunChaos(jittered).digest, moved.digest);
  EXPECT_NE(moved.digest, lockstep.digest);
  EXPECT_EQ(lockstep.violations, 0u);
  EXPECT_EQ(moved.violations, 0u);
}

// --- Golden digests -----------------------------------------------------

// Absolute trace digests for a few seeds of every engine shape the chaos
// plane drives. The other digest pins compare two runs of one build; these
// compare against fixed values, so a change that moves any event of a run
// -- an extra timer, a reordered send, a re-registered client -- fails here
// even when it is deterministic. A change that is meant to alter behaviour
// re-pins the table and says why.
ChaosOptions GoldenOptions(uint64_t seed) {
  ChaosOptions options;  // the leases_chaos defaults
  options.seed = seed;
  options.total_ops = 2000;
  return options;
}

struct GoldenShape {
  const char* name;
  void (*apply)(ChaosOptions*);
  uint64_t digests[3];  // seeds 1, 2, 3
};

const GoldenShape kGoldenShapes[] = {
    {"plain",
     [](ChaosOptions*) {},
     {0x6300c79709142985, 0x245fe1d1d8b10774, 0xf300e99f47c67d72}},
    {"storage",
     [](ChaosOptions* o) { o->plan_options.allow_storage_fault = true; },
     {0xee9bc0502885fd61, 0x5a6a4fc002f81f0c, 0x82651246c85627bc}},
    {"shards2",
     [](ChaosOptions* o) { o->num_shards = 2; },
     {0xb6df301f23f9d101, 0x245fe1d1d8b10774, 0x42d0468d5240c883}},
    {"replicas3",
     [](ChaosOptions* o) { o->num_replicas = 3; },
     {0xa753daa090efd1a3, 0x1a3f15d6b43b1f42, 0xdfd2ef84975fc5a4}},
    {"shards2_replicas3",
     [](ChaosOptions* o) {
       o->num_shards = 2;
       o->num_replicas = 3;
     },
     {0xa753daa090efd1a3, 0x1a3f15d6b43b1f42, 0xdfd2ef84975fc5a4}},
    {"clock",
     [](ChaosOptions* o) {
       o->plan_options.allow_server_drift = true;
       o->uncertainty_terms = true;
     },
     {0xf51c381aa1529b97, 0x28a85239a8acc5de, 0xef5c5a5f008b1b44}},
};

TEST(ChaosGoldenDigestTest, EveryShapeReproducesItsPinnedDigests) {
  for (const GoldenShape& shape : kGoldenShapes) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ChaosOptions options = GoldenOptions(seed);
      shape.apply(&options);
      ChaosReport report = RunChaos(options);
      EXPECT_EQ(report.violations, 0u) << shape.name << " seed " << seed;
      EXPECT_EQ(report.digest, shape.digests[seed - 1])
          << shape.name << " seed " << seed << ": got 0x" << std::hex
          << report.digest;
    }
  }
}

}  // namespace
}  // namespace leases
