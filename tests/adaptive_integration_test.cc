// Integration test for the adaptive term policy running inside a live
// cluster (Section 4's dynamic term selection).
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "src/core/sim_cluster.h"
#include "src/core/term_policy.h"
#include "src/sim/rng.h"
#include "src/workload/v_config.h"

namespace leases {
namespace {

TEST(AdaptiveIntegration, HotReadFileGetsLeasesColdWriteFileDoesNot) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 4);
  AdaptiveTermPolicy* policy = nullptr;
  options.make_policy = [&policy]() {
    auto p = std::make_unique<AdaptiveTermPolicy>();
    policy = p.get();
    return p;
  };
  SimCluster cluster(options);
  FileId doc = *cluster.store().CreatePath("/doc", FileClass::kNormal,
                                           Bytes("d"));
  FileId counter = *cluster.store().CreatePath("/ctr", FileClass::kNormal,
                                               Bytes("0"));

  Rng rng(3);
  uint64_t tick = 0;
  std::function<void(size_t)> traffic = [&](size_t c) {
    cluster.sim().ScheduleAfter(rng.NextExponentialDuration(2.0), [&, c]() {
      cluster.client(c).Read(doc, [](Result<ReadResult>) {});
      if (rng.NextBernoulli(0.6)) {
        cluster.client(c).Write(counter, Bytes(std::to_string(++tick)),
                                [](Result<WriteResult>) {});
      } else {
        cluster.client(c).Read(counter, [](Result<ReadResult>) {});
      }
      traffic(c);
    });
  };
  for (size_t c = 0; c < 4; ++c) {
    traffic(c);
  }
  cluster.RunFor(Duration::Seconds(600));

  ASSERT_NE(policy, nullptr);
  // The read-mostly file earns a healthy term; the write-shared counter is
  // driven to zero ("a heavily write-shared file might be given a lease
  // term of zero").
  EXPECT_GT(policy->Alpha(doc), 1.0);
  EXPECT_GT(policy->TermFor(doc, FileClass::kNormal, NodeId(2)),
            Duration::Seconds(1));
  EXPECT_LE(policy->Alpha(counter), 1.2);
  // And nothing went stale while the policy adapted.
  EXPECT_EQ(cluster.oracle().violations(), 0u);

  // Behavioural check: doc reads are mostly local, counter writes are
  // mostly immediate (no holders to consult).
  uint64_t local = 0;
  uint64_t reads = 0;
  for (size_t c = 0; c < 4; ++c) {
    local += cluster.client(c).stats().local_reads;
    reads += cluster.client(c).stats().reads;
  }
  EXPECT_GT(static_cast<double>(local) / static_cast<double>(reads), 0.4);
}

TEST(AdaptiveIntegration, AdaptsWhenAccessPatternShifts) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 2);
  AdaptiveTermPolicy* policy = nullptr;
  options.make_policy = [&policy]() {
    AdaptiveTermPolicy::Options popts;
    popts.half_life = Duration::Seconds(20);  // adapt quickly for the test
    auto p = std::make_unique<AdaptiveTermPolicy>(popts);
    policy = p.get();
    return p;
  };
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));

  // Phase 1: read-mostly.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.SyncRead(0, file).ok());
    cluster.RunFor(Duration::Millis(500));
  }
  Duration term_read_phase =
      policy->TermFor(file, FileClass::kNormal, NodeId(2));
  EXPECT_GT(term_read_phase, Duration::Seconds(1));

  // Phase 2: both clients write-hammer the file.
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(cluster.SyncRead(1, file, Duration::Seconds(30)).ok());
    ASSERT_TRUE(cluster
                    .SyncWrite(i % 2, file, Bytes(std::to_string(i)),
                               Duration::Seconds(30))
                    .ok());
    cluster.RunFor(Duration::Millis(700));
  }
  Duration term_write_phase =
      policy->TermFor(file, FileClass::kNormal, NodeId(2));
  EXPECT_LT(term_write_phase, term_read_phase);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

}  // namespace
}  // namespace leases
