// Unit tests for the Section 6 baseline protocols and their failure modes:
// Andrew-style callbacks serve stale data exactly during partitions (bounded
// by the poll period); TTL hints serve stale data within the TTL; neither
// happens with leases.
#include <gtest/gtest.h>

#include <span>

#include "src/baseline/baseline_cluster.h"

namespace leases {
namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}
std::string T(std::span<const uint8_t> b) {
  return std::string(b.begin(), b.end());
}

BaselineOptions CallbackOptions(Duration poll = Duration::Seconds(60)) {
  BaselineOptions options;
  options.mode = BaselineMode::kCallbacks;
  options.poll_period = poll;
  options.num_clients = 2;
  return options;
}

TEST(CallbackBaselineTest, CachedReadsAreFreeAndConsistentWhenHealthy) {
  BaselineCluster cluster(CallbackOptions());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            B("v1"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  Result<ReadResult> again = cluster.SyncRead(0, file);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  EXPECT_EQ(cluster.server().stats().reads_served, 1u);

  // A write breaks the other client's callback before... no: concurrently;
  // but with a healthy network the break lands promptly.
  ASSERT_TRUE(cluster.SyncWrite(1, file, B("v2")).ok());
  cluster.RunFor(Duration::Millis(50));
  Result<ReadResult> fresh = cluster.SyncRead(0, file);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(T(fresh->data), "v2");
  EXPECT_EQ(cluster.client(0).stats().breaks_received, 1u);
}

TEST(CallbackBaselineTest, PartitionedClientServesStaleData) {
  // The paper's critique: "the server allows updates to proceed, possibly
  // leaving the client operating on stale data."
  BaselineCluster cluster(CallbackOptions());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            B("v1"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  cluster.PartitionClient(0, true);

  // The write succeeds IMMEDIATELY despite the unreachable holder...
  TimePoint start = cluster.sim().Now();
  ASSERT_TRUE(cluster.SyncWrite(1, file, B("v2")).ok());
  EXPECT_LT(cluster.sim().Now() - start, Duration::Millis(100));

  // ...and the partitioned client happily serves v1.
  Result<ReadResult> stale = cluster.SyncRead(0, file);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(T(stale->data), "v1");
  EXPECT_GT(cluster.oracle().stale_reads(), 0u);
}

TEST(CallbackBaselineTest, PollBoundsTheStaleWindow) {
  BaselineCluster cluster(CallbackOptions(Duration::Seconds(30)));
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            B("v1"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  cluster.PartitionClient(0, true);
  ASSERT_TRUE(cluster.SyncWrite(1, file, B("v2")).ok());
  cluster.PartitionClient(0, false);  // heal; the break was already lost

  // Until the poll, client 0 is stale...
  Result<ReadResult> stale = cluster.SyncRead(0, file);
  EXPECT_EQ(T(stale->data), "v1");
  // ...after the poll period it has refreshed.
  cluster.RunFor(Duration::Seconds(35));
  Result<ReadResult> fresh = cluster.SyncRead(0, file);
  EXPECT_EQ(T(fresh->data), "v2");
  EXPECT_GT(cluster.client(0).stats().refreshed, 0u);
}

TEST(CallbackBaselineTest, ValidationReestablishesCallback) {
  BaselineCluster cluster(CallbackOptions(Duration::Seconds(5)));
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            B("v1"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  // Lose the callback via a partitioned write, heal, poll re-registers.
  cluster.PartitionClient(0, true);
  ASSERT_TRUE(cluster.SyncWrite(1, file, B("v2")).ok());
  cluster.PartitionClient(0, false);
  cluster.RunFor(Duration::Seconds(6));  // poll fires, re-registers
  // The next write breaks client 0 again.
  ASSERT_TRUE(cluster.SyncWrite(1, file, B("v3")).ok());
  cluster.RunFor(Duration::Millis(50));
  EXPECT_FALSE(cluster.client(0).HasCached(file));
}

TEST(TtlBaselineTest, StaleWithinTtlFreshAfter) {
  BaselineOptions options;
  options.mode = BaselineMode::kStateless;
  options.ttl = Duration::Seconds(10);
  options.num_clients = 2;
  BaselineCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            B("v1"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  ASSERT_TRUE(cluster.SyncWrite(1, file, B("v2")).ok());

  // Within the TTL: stale, and no message is even sent.
  uint64_t served = cluster.server().stats().reads_served;
  Result<ReadResult> stale = cluster.SyncRead(0, file);
  EXPECT_EQ(T(stale->data), "v1");
  EXPECT_TRUE(stale->from_cache);
  EXPECT_EQ(cluster.server().stats().reads_served, served);
  EXPECT_GT(cluster.oracle().stale_reads(), 0u);

  // Past the TTL the client revalidates and refreshes.
  cluster.RunFor(Duration::Seconds(11));
  Result<ReadResult> fresh = cluster.SyncRead(0, file);
  EXPECT_EQ(T(fresh->data), "v2");
}

TEST(TtlBaselineTest, RevalidationUsesNotModifiedWhenCurrent) {
  BaselineOptions options;
  options.mode = BaselineMode::kStateless;
  options.ttl = Duration::Seconds(5);
  options.num_clients = 1;
  BaselineCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            B("v1"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  cluster.RunFor(Duration::Seconds(6));
  Result<ReadResult> again = cluster.SyncRead(0, file);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(T(again->data), "v1");
  EXPECT_EQ(cluster.client(0).stats().validations, 1u);
  // No data was refreshed: the version matched.
  EXPECT_EQ(cluster.client(0).stats().refreshed, 0u);
}

TEST(BaselineTest, WritesAreImmediateInBothModes) {
  for (BaselineMode mode :
       {BaselineMode::kCallbacks, BaselineMode::kStateless}) {
    BaselineOptions options;
    options.mode = mode;
    options.num_clients = 3;
    BaselineCluster cluster(options);
    FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                              B("v1"));
    ASSERT_TRUE(cluster.SyncRead(1, file).ok());
    ASSERT_TRUE(cluster.SyncRead(2, file).ok());
    TimePoint start = cluster.sim().Now();
    ASSERT_TRUE(cluster.SyncWrite(0, file, B("v2")).ok());
    // No approval protocol: a single request-response.
    EXPECT_LT(cluster.sim().Now() - start, Duration::Millis(20));
  }
}

TEST(BaselineTest, RetransmissionRecoversFromLoss) {
  BaselineOptions options;
  options.mode = BaselineMode::kCallbacks;
  options.num_clients = 1;
  options.net.loss_prob = 0.3;
  options.net.seed = 5;
  BaselineCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            B("v1"));
  Result<ReadResult> read = cluster.SyncRead(0, file, Duration::Seconds(60));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(T(read->data), "v1");
}

}  // namespace
}  // namespace leases
