// Replicated lease authority: failover correctness and the single-replica
// differential.
//
// The load-bearing pins:
//   * a 1-replica ReplicatedLeaseAuthority is behaviorally identical to the
//     plain server (same stats, same file bytes, same oracle verdicts) over
//     a seeded workload that includes a crash/restart cycle;
//   * a holder crash fails over to a standby far faster than the plain
//     server's max-granted-term recovery wait, with zero oracle violations
//     even with writes in flight and drifting replica clocks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/sim_cluster.h"
#include "src/workload/chaos_harness.h"
#include "src/workload/v_config.h"

namespace leases {
namespace {

ClusterOptions ReplicatedOptions(size_t num_replicas, size_t num_clients = 3,
                                 uint64_t seed = 1) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10),
                                               num_clients, seed);
  options.replica.num_replicas = num_replicas;
  return options;
}

// Runs one deterministic scripted workload (with a mid-script server
// crash/restart) and returns the cluster for inspection.
struct ScriptResult {
  ServerStats stats;
  uint64_t violations = 0;
  std::vector<std::string> contents;
  size_t failed_ops = 0;
};

ScriptResult RunScript(ClusterOptions options) {
  SimCluster cluster(options);
  std::vector<FileId> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back(*cluster.store().CreatePath(
        "/f" + std::to_string(i), FileClass::kNormal, Bytes("v0")));
  }
  ScriptResult out;
  auto track = [&out](bool ok) { out.failed_ops += ok ? 0 : 1; };
  for (FileId f : files) {
    track(cluster.SyncRead(0, f).ok());
    track(cluster.SyncRead(1, f).ok());
  }
  track(cluster.SyncWrite(1, files[0], Bytes("a")).ok());
  track(cluster.SyncWrite(2, files[1], Bytes("b")).ok());
  cluster.RunFor(Duration::Seconds(2));
  cluster.CrashServer();
  cluster.RunFor(Duration::Seconds(1));
  cluster.RestartServer();
  // The restarted server holds writes for the recovery window; generous
  // timeouts ride it out.
  track(cluster.SyncWrite(0, files[2], Bytes("c")).ok());
  for (FileId f : files) {
    track(cluster.SyncRead(2, f).ok());
  }
  track(cluster.SyncWrite(1, files[3], Bytes("d")).ok());
  cluster.RunFor(Duration::Seconds(2));
  out.stats = cluster.server_stats();
  out.violations = cluster.oracle().violations();
  for (FileId f : files) {
    out.contents.push_back(Text(cluster.store().Find(f)->data));
  }
  return out;
}

// --- Single-replica differential -------------------------------------

TEST(ReplicaDifferentialTest, OneReplicaMatchesPlainServerExactly) {
  ClusterOptions plain = MakeVClusterOptions(Duration::Seconds(10), 3, 1);
  ScriptResult a = RunScript(plain);
  ScriptResult b = RunScript(ReplicatedOptions(1));

  EXPECT_EQ(a.violations, 0u);
  EXPECT_EQ(b.violations, 0u);
  EXPECT_EQ(a.failed_ops, b.failed_ops);
  EXPECT_EQ(a.contents, b.contents);

  // The full protocol-counter surface must match: the shell adds no
  // traffic, no capping, no authority rounds.
  EXPECT_EQ(a.stats.reads_served, b.stats.reads_served);
  EXPECT_EQ(a.stats.not_modified_replies, b.stats.not_modified_replies);
  EXPECT_EQ(a.stats.extension_requests, b.stats.extension_requests);
  EXPECT_EQ(a.stats.leases_granted, b.stats.leases_granted);
  EXPECT_EQ(a.stats.writes_received, b.stats.writes_received);
  EXPECT_EQ(a.stats.writes_committed, b.stats.writes_committed);
  EXPECT_EQ(a.stats.writes_deferred, b.stats.writes_deferred);
  EXPECT_EQ(a.stats.write_wait_total.ToMicros(),
            b.stats.write_wait_total.ToMicros());
  EXPECT_EQ(a.stats.approval_rounds, b.stats.approval_rounds);
  EXPECT_EQ(a.stats.relinquishes, b.stats.relinquishes);
  EXPECT_EQ(a.stats.recovery_held_writes, b.stats.recovery_held_writes);
  EXPECT_EQ(a.stats.recovery_window.ToMicros(),
            b.stats.recovery_window.ToMicros());
  EXPECT_EQ(b.stats.authority_rounds, 0u);
  EXPECT_EQ(b.stats.authority_acquisitions, 0u);
  EXPECT_EQ(b.stats.authority_stepdowns, 0u);
}

// --- Quorum bring-up --------------------------------------------------

TEST(ReplicaTest, SeedReplicaAcquiresOnColdBoot) {
  SimCluster cluster(ReplicatedOptions(3));
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  auto read = cluster.SyncRead(0, f);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Text(read.value().data), "v0");
  EXPECT_EQ(cluster.holder_index(), 0);
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1")).ok());
  EXPECT_EQ(cluster.oracle().violations(), 0u);
  ServerStats stats = cluster.server_stats();
  EXPECT_GE(stats.authority_acquisitions, 1u);
  EXPECT_EQ(stats.authority_stepdowns, 0u);
}

TEST(ReplicaTest, HolderRenewsInsteadOfChurning) {
  SimCluster cluster(ReplicatedOptions(3));
  cluster.RunFor(Duration::Seconds(30));
  // One acquisition, then steady renewals; nobody else ever takes over.
  EXPECT_EQ(cluster.holder_index(), 0);
  ServerStats stats = cluster.server_stats();
  EXPECT_EQ(stats.authority_acquisitions, 1u);
  EXPECT_EQ(stats.authority_stepdowns, 0u);
  // ~30s / 400ms renew interval, minus slack for the bring-up.
  EXPECT_GE(stats.authority_renewals, 50u);
}

// --- Failover ----------------------------------------------------------

TEST(ReplicaTest, BasicFailoverServesAfterHolderCrash) {
  SimCluster cluster(ReplicatedOptions(3));
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  ASSERT_EQ(cluster.holder_index(), 0);

  cluster.CrashServer();  // fells the holder, replica 0
  TimePoint crashed = cluster.sim().Now();
  auto write = cluster.SyncWrite(1, f, Bytes("v1"),
                                 Duration::Seconds(30));
  ASSERT_TRUE(write.ok());
  Duration failover = cluster.sim().Now() - crashed;
  // The whole point: suspect + election + inherited-bound hold is a couple
  // of seconds, not the plain server's 10 s max-granted-term wait (which
  // it could not even begin until an operator restarted the process).
  EXPECT_LT(failover.ToSeconds(), 5.0);
  EXPECT_GT(cluster.holder_index(), 0);

  auto read = cluster.SyncRead(2, f);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Text(read.value().data), "v1");
  EXPECT_EQ(cluster.oracle().violations(), 0u);

  ServerStats stats = cluster.server_stats();
  EXPECT_GE(stats.authority_acquisitions, 2u);
}

TEST(ReplicaTest, FailoverInheritsGrantBoundBeforeApprovingWrites) {
  SimCluster cluster(ReplicatedOptions(3));
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  // Clients hold live read leases when the holder dies.
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  ASSERT_TRUE(cluster.SyncRead(2, f).ok());
  cluster.CrashServer();
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1"),
                                Duration::Seconds(30)).ok());
  EXPECT_EQ(cluster.oracle().violations(), 0u);

  int holder = cluster.holder_index();
  ASSERT_GT(holder, 0);
  // The successor seeded its recovery machinery from the promise quorum:
  // a real (but small) write-hold window, far below the 10 s lease term.
  ReplicaNode& node = cluster.replica(static_cast<size_t>(holder));
  EXPECT_GT(node.last_inherited_bound().ToMicros(), 0);
  EXPECT_LT(node.last_inherited_bound().ToSeconds(), 2.5);
  ASSERT_NE(node.sharded(), nullptr);
  EXPECT_GT(node.sharded()->stats().recovery_window.ToMicros(), 0);
}

TEST(ReplicaTest, RestartedHolderRejoinsAsStandby) {
  SimCluster cluster(ReplicatedOptions(3));
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  cluster.CrashServer();
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1"),
                                Duration::Seconds(30)).ok());
  int holder = cluster.holder_index();
  ASSERT_GT(holder, 0);

  cluster.RestartServer();  // replica 0 comes back
  cluster.RunFor(Duration::Seconds(10));
  // The restarted node warmed up, rejoined as acceptor/standby, and the
  // incumbent kept the lease -- no dueling authorities.
  EXPECT_EQ(cluster.holder_index(), holder);
  ASSERT_TRUE(cluster.SyncWrite(0, f, Bytes("v2")).ok());
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

// --- Partition and step-down ------------------------------------------

TEST(ReplicaTest, IsolatedHolderStepsDownAndStandbyTakesOver) {
  SimCluster cluster(ReplicatedOptions(3));
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  ASSERT_EQ(cluster.holder_index(), 0);

  cluster.PartitionReplica(0, true);
  // Until its confirmed authority lease lapses the isolated holder keeps
  // serving -- legitimately: no standby can win a quorum while the lease
  // is live at the acceptors. Past that window it must have stepped down
  // and a standby must have taken over.
  cluster.RunFor(Duration::Seconds(8));
  // The isolated ex-holder noticed it could not re-confirm a quorum and
  // destroyed its serving plane before the successor could win.
  EXPECT_GE(cluster.replica(0).stats().authority_stepdowns, 1u);
  EXPECT_FALSE(cluster.replica(0).is_holder());
  int holder = cluster.holder_index();
  EXPECT_GT(holder, 0);
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1"),
                                Duration::Seconds(30)).ok());

  cluster.PartitionReplica(0, false);
  cluster.RunFor(Duration::Seconds(5));
  EXPECT_EQ(cluster.holder_index(), holder);  // incumbent keeps the lease
  ASSERT_TRUE(cluster.SyncWrite(2, f, Bytes("v2")).ok());
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

// --- The chaos pin: leader crash during writes, drifting clocks --------

TEST(ReplicaTest, LeaderCrashDuringWriteWithDriftingClocksStaysConsistent) {
  ClusterOptions options = ReplicatedOptions(3, 4, 7);
  options.replica_clocks = {ClockModel::Drifting(1.0004),
                            ClockModel::Drifting(0.9996),
                            ClockModel::Skewed(Duration::Millis(40))};
  options.client_clocks = {ClockModel::Drifting(1.0003),
                           ClockModel::Drifting(0.9997)};
  SimCluster cluster(options);
  std::vector<FileId> files;
  for (int i = 0; i < 3; ++i) {
    files.push_back(*cluster.store().CreatePath(
        "/f" + std::to_string(i), FileClass::kNormal, Bytes("v0")));
  }
  for (FileId f : files) {
    ASSERT_TRUE(cluster.SyncRead(0, f).ok());
    ASSERT_TRUE(cluster.SyncRead(3, f).ok());
  }
  // Launch writes asynchronously, then fell the holder while they are in
  // flight: some land pre-crash, some must be re-driven against the
  // successor. Whatever happens, no client may observe a stale byte.
  size_t completed = 0;
  for (size_t i = 0; i < files.size(); ++i) {
    cluster.client(1).Write(files[i], Bytes("w" + std::to_string(i)),
                            [&completed](Result<WriteResult> r) {
                              completed += r.ok() ? 1 : 0;
                            });
  }
  cluster.RunFor(Duration::Millis(2));
  cluster.CrashServer();
  cluster.RunFor(Duration::Seconds(30));
  EXPECT_GT(cluster.holder_index(), 0);
  EXPECT_EQ(completed, files.size());

  // Fresh reads from every surviving client agree with the store.
  for (FileId f : files) {
    std::string durable = Text(cluster.store().Find(f)->data);
    for (size_t c : {0u, 2u, 3u}) {
      auto read = cluster.SyncRead(c, f);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(Text(read.value().data), durable);
    }
  }
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

// Repeated crash/failover cycles keep write sequence ranges disjoint and
// the oracle clean -- the ballot-seeded boot counter at work.
TEST(ReplicaTest, RepeatedFailoversStayConsistent) {
  SimCluster cluster(ReplicatedOptions(3, 3, 21));
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  int version = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(cluster.SyncRead(0, f).ok());
    ASSERT_TRUE(cluster.SyncWrite(1, f,
                                  Bytes("v" + std::to_string(++version)),
                                  Duration::Seconds(30)).ok());
    cluster.CrashServer();
    ASSERT_TRUE(cluster.SyncWrite(2, f,
                                  Bytes("v" + std::to_string(++version)),
                                  Duration::Seconds(30)).ok());
    cluster.RestartServer();
    cluster.RunFor(Duration::Seconds(5));
  }
  auto read = cluster.SyncRead(0, f);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Text(read.value().data), "v" + std::to_string(version));
  EXPECT_EQ(cluster.oracle().violations(), 0u);
  EXPECT_GE(cluster.server_stats().authority_acquisitions, 4u);
}

// --- Live membership change -------------------------------------------

TEST(MembershipTest, AddReplicaJoinsAsLearnerAndCommits) {
  SimCluster cluster(ReplicatedOptions(3));
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  ASSERT_EQ(cluster.holder_index(), 0);

  ASSERT_EQ(cluster.AddReplica(), 3);
  EXPECT_TRUE(cluster.replica(3).is_learner());
  // The joint config rides the next renewals; one authority term is ample.
  cluster.RunFor(Duration::Seconds(3));
  EXPECT_EQ(cluster.replica(0).member_addrs().size(), 4u);
  EXPECT_GE(cluster.replica(0).member_epoch(), 1u);
  EXPECT_FALSE(cluster.replica(3).is_learner());

  // The joined node is a real acceptor: clients keep reading and a holder
  // crash still elects a successor from the four-member set.
  cluster.CrashServer();
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1"),
                                Duration::Seconds(30)).ok());
  EXPECT_GT(cluster.holder_index(), 0);
  auto read = cluster.SyncRead(2, f);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Text(read.value().data), "v1");
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(MembershipTest, DuplicateAndMultiStepChangesAreRejected) {
  SimCluster cluster(ReplicatedOptions(3));
  cluster.RunFor(Duration::Seconds(1));
  ASSERT_EQ(cluster.holder_index(), 0);
  ReplicaNode& holder = cluster.replica(0);
  std::vector<NodeId> members = holder.member_addrs();
  ASSERT_EQ(members.size(), 3u);

  // A duplicate add collapses to a zero-delta set and is refused.
  std::vector<NodeId> dup = members;
  dup.push_back(members[0]);
  EXPECT_FALSE(holder.RequestReconfig(std::move(dup)).ok());
  // Two additions at once break the single-step joint-quorum argument.
  std::vector<NodeId> two = members;
  two.push_back(NodeId(950));
  two.push_back(NodeId(951));
  EXPECT_FALSE(holder.RequestReconfig(std::move(two)).ok());
  // Only the holder may reconfigure.
  EXPECT_FALSE(cluster.replica(1).RequestReconfig(members).ok());
  // While one change is in flight a second is refused.
  ASSERT_EQ(cluster.AddReplica(), 3);
  EXPECT_EQ(cluster.AddReplica(), -1);
  cluster.RunFor(Duration::Seconds(3));
  EXPECT_EQ(cluster.replica(0).member_addrs().size(), 4u);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(MembershipTest, RemovingTheHolderStepsDownAndReElects) {
  SimCluster cluster(ReplicatedOptions(3));
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  ASSERT_EQ(cluster.holder_index(), 0);

  ASSERT_TRUE(cluster.RemoveReplica(0).ok());
  cluster.RunFor(Duration::Seconds(10));
  // Committing a set without itself forced an orderly step-down, and a
  // remaining member won the following election.
  int holder = cluster.holder_index();
  EXPECT_GT(holder, 0);
  EXPECT_GE(cluster.replica(0).stats().authority_stepdowns, 1u);
  EXPECT_FALSE(cluster.replica(0).is_holder());
  EXPECT_EQ(cluster.replica(static_cast<size_t>(holder))
                .member_addrs().size(), 2u);
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1"),
                                Duration::Seconds(30)).ok());
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(MembershipTest, ShrinksToASingleMemberAndStillServes) {
  SimCluster cluster(ReplicatedOptions(3));
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  ASSERT_EQ(cluster.holder_index(), 0);

  ASSERT_TRUE(cluster.RemoveReplica(2).ok());
  cluster.RunFor(Duration::Seconds(3));
  ASSERT_TRUE(cluster.RemoveReplica(1).ok());
  cluster.RunFor(Duration::Seconds(3));
  EXPECT_EQ(cluster.holder_index(), 0);
  EXPECT_EQ(cluster.replica(0).member_addrs().size(), 1u);
  // A one-member set renews against itself and keeps serving.
  cluster.RunFor(Duration::Seconds(10));
  EXPECT_EQ(cluster.holder_index(), 0);
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1")).ok());
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(MembershipTest, MemberCrashMidReconfigStillCommits) {
  SimCluster cluster(ReplicatedOptions(3));
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  ASSERT_EQ(cluster.holder_index(), 0);

  ASSERT_EQ(cluster.AddReplica(), 3);
  cluster.CrashReplica(2);  // an old-set acceptor dies before the commit
  cluster.RunFor(Duration::Seconds(5));
  // Joint quorum held anyway: {0,1} is a majority of the old three and
  // {0,1,3} of the new four, so the expanded set committed.
  EXPECT_GE(cluster.replica(0).member_epoch(), 1u);
  EXPECT_EQ(cluster.replica(0).member_addrs().size(), 4u);

  cluster.RestartReplica(2);
  cluster.RunFor(Duration::Seconds(5));
  EXPECT_EQ(cluster.holder_index(), 0);
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1")).ok());
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(MembershipTest, ChangesAreRefusedWithoutAConfirmedHolder) {
  SimCluster cluster(ReplicatedOptions(3));
  cluster.RunFor(Duration::Seconds(1));
  ASSERT_EQ(cluster.holder_index(), 0);
  cluster.CrashServer();  // fells the holder; the election is in flight
  EXPECT_EQ(cluster.AddReplica(), -1);
  EXPECT_FALSE(cluster.RemoveReplica(1).ok());
}

// --- Durable acceptors -------------------------------------------------

TEST(ReplicaDurableTest, RestartedAcceptorSkipsWarmupAndVotes) {
  // Durable run: the restarted standby restores its acceptor promises from
  // the journal and rejoins with no warm-up wait.
  ClusterOptions durable = ReplicatedOptions(3);
  durable.replica.durable_acceptors = true;
  SimCluster cluster(durable);
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  cluster.RunFor(Duration::Seconds(2));
  cluster.CrashReplica(1);
  cluster.RunFor(Duration::Seconds(1));
  cluster.RestartReplica(1);
  EXPECT_EQ(cluster.replica(1).stats().authority_warmup_waits, 0u);
  // It votes immediately: fell the holder right away and failover
  // completes with the freshly-restarted acceptor in the quorum.
  cluster.CrashServer();
  TimePoint crashed = cluster.sim().Now();
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1"),
                                Duration::Seconds(30)).ok());
  EXPECT_LT((cluster.sim().Now() - crashed).ToSeconds(), 8.0);
  EXPECT_EQ(cluster.oracle().violations(), 0u);

  // Volatile control: the same schedule pays the one-term + 2eps warm-up.
  SimCluster control(ReplicatedOptions(3));
  FileId g = *control.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(control.SyncRead(0, g).ok());
  control.RunFor(Duration::Seconds(2));
  control.CrashReplica(1);
  control.RunFor(Duration::Seconds(1));
  control.RestartReplica(1);
  EXPECT_GE(control.replica(1).stats().authority_warmup_waits, 1u);
  EXPECT_EQ(control.oracle().violations(), 0u);
}

TEST(ReplicaDurableTest, TornAcceptorJournalRecoversSafely) {
  ClusterOptions options = ReplicatedOptions(3);
  options.replica.durable_acceptors = true;
  SimCluster cluster(options);
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  cluster.RunFor(Duration::Seconds(2));
  // Power-cut a standby with a torn journal tail: recovery replays the
  // acked prefix (persist-before-reply means no promise anyone acted on
  // is lost) and restores a conservative accepted-lease expiry.
  cluster.CrashReplica(1, TailDamage::kTorn);
  cluster.RunFor(Duration::Seconds(1));
  cluster.RestartReplica(1);
  cluster.RunFor(Duration::Seconds(2));
  // The recovered acceptor participates in a real election.
  cluster.CrashServer();
  ASSERT_TRUE(cluster.SyncWrite(1, f, Bytes("v1"),
                                Duration::Seconds(30)).ok());
  EXPECT_GT(cluster.holder_index(), 0);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(ReplicaDurableTest, NoCrashRunIsDigestIdenticalToVolatile) {
  // With no replica loss the durable path adds journal writes but changes
  // no message or timing decision: the chaos digest must be bit-identical.
  ChaosOptions options;
  options.num_clients = 4;
  options.total_ops = 400;
  options.num_files = 6;
  options.num_replicas = 3;
  options.random_plan = false;
  options.plan = FaultPlan::Parse(
                     "@2.000000 partition 1 on;@4.000000 partition 1 off")
                     .value();
  ChaosReport volatile_run = RunChaos(options);
  options.durable_acceptors = true;
  ChaosReport durable_run = RunChaos(options);
  EXPECT_EQ(volatile_run.digest, durable_run.digest);
  EXPECT_EQ(volatile_run.violations, 0u);
  EXPECT_EQ(durable_run.violations, 0u);
}

// --- Standby reads -----------------------------------------------------

TEST(StandbyReadTest, StandbyServesReadsThroughHolderOutage) {
  ClusterOptions options = ReplicatedOptions(3);
  options.replica.standby_reads = true;
  SimCluster cluster(options);
  FileId f = *cluster.store().CreatePath("/a", FileClass::kNormal,
                                         Bytes("v0"));
  ASSERT_TRUE(cluster.SyncRead(0, f).ok());
  ASSERT_EQ(cluster.holder_index(), 0);
  cluster.RunFor(Duration::Millis(500));  // renewals delegate the bound

  cluster.CrashServer();
  // A standby answers the read under the holder's delegated expiry, far
  // faster than the election that writes must wait for.
  TimePoint crashed = cluster.sim().Now();
  auto read = cluster.SyncRead(1, f, Duration::Seconds(5));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Text(read.value().data), "v0");
  EXPECT_LT((cluster.sim().Now() - crashed).ToSeconds(), 2.0);
  EXPECT_GE(cluster.server_stats().standby_reads_served, 1u);

  // Writes still wait for the next confirmed holder; nothing goes stale.
  ASSERT_TRUE(cluster.SyncWrite(2, f, Bytes("v1"),
                                Duration::Seconds(30)).ok());
  auto fresh = cluster.SyncRead(1, f);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(Text(fresh.value().data), "v1");
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

// --- Sharded x replicated ----------------------------------------------

TEST(ShardedReplicatedTest, ElectedHolderRunsShardsAndFailsOver) {
  ClusterOptions options = ReplicatedOptions(3, 4);
  options.num_shards = 4;
  SimCluster cluster(options);
  std::vector<FileId> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back(*cluster.store().CreatePath(
        "/f" + std::to_string(i), FileClass::kNormal, Bytes("v0")));
  }
  for (FileId f : files) {
    ASSERT_TRUE(cluster.SyncRead(0, f).ok());
    ASSERT_TRUE(cluster.SyncRead(3, f).ok());
  }
  ASSERT_EQ(cluster.holder_index(), 0);
  ASSERT_TRUE(cluster.SyncWrite(1, files[0], Bytes("v1")).ok());

  cluster.CrashServer();
  ASSERT_TRUE(cluster.SyncWrite(2, files[1], Bytes("v2"),
                                Duration::Seconds(30)).ok());
  EXPECT_GT(cluster.holder_index(), 0);
  // The successor's sharded plane serves every shard's files with the
  // last committed bytes (the shared partitions, not per-replica copies).
  const char* expected[] = {"v1", "v2", "v0", "v0"};
  for (size_t i = 0; i < files.size(); ++i) {
    auto read = cluster.SyncRead(3, files[i]);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(Text(read.value().data), expected[i]);
  }
  EXPECT_EQ(cluster.oracle().violations(), 0u);
  EXPECT_GE(cluster.server_stats().authority_acquisitions, 2u);
}

TEST(ShardedReplicatedTest, OneReplicaShardedMatchesPlainSharded) {
  ClusterOptions plain = MakeVClusterOptions(Duration::Seconds(10), 3, 1);
  plain.num_shards = 4;
  ScriptResult a = RunScript(plain);
  ClusterOptions one = ReplicatedOptions(1);
  one.num_shards = 4;
  ScriptResult b = RunScript(one);

  EXPECT_EQ(a.violations, 0u);
  EXPECT_EQ(b.violations, 0u);
  EXPECT_EQ(a.failed_ops, b.failed_ops);
  EXPECT_EQ(a.contents, b.contents);
  EXPECT_EQ(a.stats.reads_served, b.stats.reads_served);
  EXPECT_EQ(a.stats.leases_granted, b.stats.leases_granted);
  EXPECT_EQ(a.stats.writes_received, b.stats.writes_received);
  EXPECT_EQ(a.stats.writes_committed, b.stats.writes_committed);
  EXPECT_EQ(a.stats.approval_rounds, b.stats.approval_rounds);
  EXPECT_EQ(b.stats.authority_rounds, 0u);
  EXPECT_EQ(b.stats.grant_cap_hits, 0u);
}

}  // namespace
}  // namespace leases
