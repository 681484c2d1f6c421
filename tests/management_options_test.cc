// Tests for the remaining Section 4 management options: the server's
// wait-for-expiry alternative to approval callbacks, and the client's
// deliberate approval delay ("the combinations of these options give
// different trade-offs between load and response time").
#include <gtest/gtest.h>

#include "src/core/sim_cluster.h"
#include "src/workload/v_config.h"

namespace leases {
namespace {

TEST(WaitForExpiryTest, NoCallbacksWriteWaitsOutTheLease) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(5), 2);
  options.server.consult_holders = false;
  options.client.max_retries = 30;
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  ASSERT_TRUE(cluster.SyncRead(1, file).ok());
  cluster.RunFor(Duration::Seconds(2));

  TimePoint start = cluster.sim().Now();
  Result<WriteResult> w =
      cluster.SyncWrite(0, file, Bytes("v2"), Duration::Seconds(30));
  ASSERT_TRUE(w.ok());
  // Waited out the ~3 s remaining on the lease; no approval traffic at all.
  Duration waited = cluster.sim().Now() - start;
  EXPECT_GT(waited, Duration::Seconds(2));
  EXPECT_LT(waited, Duration::Seconds(6));
  EXPECT_EQ(cluster.server().stats().approval_rounds, 0u);
  EXPECT_EQ(cluster.server().stats().writes_expired_commit, 1u);
  // The holder's copy simply expired; its next read revalidates.
  Result<ReadResult> r = cluster.SyncRead(1, file);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Text(r->data), "v2");
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(WaitForExpiryTest, UnsharedWritesStillImmediate) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 2);
  options.server.consult_holders = false;
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  TimePoint start = cluster.sim().Now();
  ASSERT_TRUE(cluster.SyncWrite(0, file, Bytes("v2")).ok());
  EXPECT_LT(cluster.sim().Now() - start, Duration::Millis(20));
}

TEST(WaitForExpiryTest, StarvationGuardStillBlocksNewLeases) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(5), 3);
  options.server.consult_holders = false;
  options.client.max_retries = 30;
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  ASSERT_TRUE(cluster.SyncRead(1, file).ok());
  bool done = false;
  cluster.client(0).Write(file, Bytes("v2"),
                          [&](Result<WriteResult>) { done = true; });
  cluster.RunFor(Duration::Seconds(1));
  ASSERT_FALSE(done);
  // Readers during the wait get data but no lease (otherwise the write
  // would never drain).
  ASSERT_TRUE(cluster.SyncRead(2, file, Duration::Seconds(2)).ok());
  EXPECT_FALSE(cluster.client(2).HasValidLease(file));
  cluster.RunFor(Duration::Seconds(6));
  EXPECT_TRUE(done);
}

TEST(ApprovalDelayTest, WriteWaitsTheConfiguredHold) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 2);
  options.client.approval_delay = Duration::Seconds(2);
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  ASSERT_TRUE(cluster.SyncRead(1, file).ok());
  TimePoint start = cluster.sim().Now();
  ASSERT_TRUE(
      cluster.SyncWrite(0, file, Bytes("v2"), Duration::Seconds(30)).ok());
  Duration waited = cluster.sim().Now() - start;
  // Bounded below by the hold, above by the lease term.
  EXPECT_GT(waited, Duration::Seconds(2) - Duration::Millis(50));
  EXPECT_LT(waited, Duration::Seconds(3));
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(ApprovalDelayTest, HolderKeepsServingDuringTheHold) {
  // The point of deferring: the holder finishes its burst of local reads
  // before giving up its copy. Reads during the hold are still consistent
  // -- the write has not committed (or been acked).
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 2);
  options.client.approval_delay = Duration::Seconds(2);
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  ASSERT_TRUE(cluster.SyncRead(1, file).ok());
  bool write_done = false;
  cluster.client(0).Write(file, Bytes("v2"),
                          [&](Result<WriteResult>) { write_done = true; });
  cluster.RunFor(Duration::Seconds(1));
  ASSERT_FALSE(write_done);
  Result<ReadResult> during = cluster.SyncRead(1, file);
  ASSERT_TRUE(during.ok());
  EXPECT_TRUE(during->from_cache);
  EXPECT_EQ(Text(during->data), "v1");  // pre-commit: legal
  cluster.RunFor(Duration::Seconds(2));
  EXPECT_TRUE(write_done);
  EXPECT_FALSE(cluster.client(1).HasCached(file));
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(ApprovalDelayTest, ExpiryStillBoundsTheWriterDespiteTheHold) {
  // A hold longer than the lease term cannot delay the writer past expiry.
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(3), 2);
  options.client.approval_delay = Duration::Seconds(60);
  options.client.max_retries = 30;
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  ASSERT_TRUE(cluster.SyncRead(1, file).ok());
  TimePoint start = cluster.sim().Now();
  ASSERT_TRUE(
      cluster.SyncWrite(0, file, Bytes("v2"), Duration::Seconds(30)).ok());
  Duration waited = cluster.sim().Now() - start;
  EXPECT_LT(waited, Duration::Seconds(4));
  EXPECT_EQ(cluster.server().stats().writes_expired_commit, 1u);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(ApprovalDelayTest, DuplicateCallbacksDuringHoldAreIdempotent) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 2);
  options.client.approval_delay = Duration::Seconds(2);
  options.server.approval_retry_interval = Duration::Millis(200);
  options.net.loss_prob = 0.2;  // force retransmitted callbacks
  options.net.seed = 77;
  options.client.max_retries = 40;
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("v1"));
  ASSERT_TRUE(cluster.SyncRead(1, file, Duration::Seconds(30)).ok());
  Result<WriteResult> w =
      cluster.SyncWrite(0, file, Bytes("v2"), Duration::Seconds(30));
  ASSERT_TRUE(w.ok());
  // Exactly one approval despite retried callbacks during the hold.
  EXPECT_LE(cluster.client(1).stats().approvals_granted, 2u);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

}  // namespace
}  // namespace leases
