// Determinism: identical seeds must reproduce entire simulations
// bit-for-bit -- the property the benches, the property tests and the
// EXPERIMENTS.md numbers all rely on.
#include <gtest/gtest.h>

#include "src/workload/compile_trace.h"
#include "src/workload/poisson_driver.h"
#include "src/workload/v_config.h"

namespace leases {
namespace {

struct RunSignature {
  uint64_t reads;
  uint64_t writes;
  uint64_t server_consistency;
  uint64_t server_total;
  uint64_t executed_events;
  double read_delay_sum;

  bool operator==(const RunSignature&) const = default;
};

RunSignature RunOnce(uint64_t seed, double loss, bool conformance = false) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 10,
                                               seed);
  options.net.loss_prob = loss;
  SimCluster cluster(options);
  cluster.network().set_codec_conformance(conformance);
  PoissonOptions poisson;
  poisson.sharing = 5;
  poisson.seed = seed;
  poisson.measure = Duration::Seconds(500);
  PoissonDriver driver(&cluster, poisson);
  driver.Setup();
  WorkloadReport report = driver.Run();
  return RunSignature{report.reads,
                      report.writes,
                      report.server_consistency_msgs,
                      report.server_total_msgs,
                      cluster.sim().executed_events(),
                      report.read_delay.sum()};
}

TEST(DeterminismTest, SameSeedSameWorldExactly) {
  RunSignature a = RunOnce(42, 0.1);
  RunSignature b = RunOnce(42, 0.1);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, TypedFastPathMatchesWirePathExactly) {
  // On a lossless network any divergence can only come from the message
  // path itself: the in-memory hand-off and the wire round trip of
  // conformance mode must give the same timings, the same event count and
  // the same protocol outcomes, for more than one workload.
  for (uint64_t seed : {7u, 42u}) {
    RunSignature typed = RunOnce(seed, 0.0);
    RunSignature wire = RunOnce(seed, 0.0, /*conformance=*/true);
    EXPECT_EQ(typed, wire) << "seed " << seed;
  }
}

TEST(DeterminismTest, ConformanceModeDoesNotPerturbTheRun) {
  // Conformance mode round-trips every packet through the wire codec and
  // delivers the decoded packet. It must be observationally identical to
  // the in-memory hand-off: same timings, same event count, same protocol
  // outcomes -- including under loss, where both must consume the loss RNG
  // identically.
  RunSignature typed = RunOnce(42, 0.1);
  RunSignature conf = RunOnce(42, 0.1, /*conformance=*/true);
  EXPECT_EQ(typed, conf);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  RunSignature a = RunOnce(42, 0.1);
  RunSignature b = RunOnce(43, 0.1);
  EXPECT_NE(a, b);
}

TEST(DeterminismTest, TraceGenerationIsPure) {
  CompileTraceOptions options;
  options.length = Duration::Seconds(900);
  std::string a = SerializeTrace(CompileTraceGenerator(options).Generate());
  std::string b = SerializeTrace(CompileTraceGenerator(options).Generate());
  EXPECT_EQ(a, b);
  options.seed += 1;
  std::string c = SerializeTrace(CompileTraceGenerator(options).Generate());
  EXPECT_NE(a, c);
}

TEST(DeterminismTest, FaultInjectionRepeatsExactly) {
  auto run = []() {
    ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 3, 7);
    SimCluster cluster(options);
    FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                              Bytes("v"));
    (void)cluster.SyncRead(0, file);
    (void)cluster.SyncRead(1, file);
    cluster.CrashServer();
    cluster.RunFor(Duration::Seconds(1));
    cluster.RestartServer();
    (void)cluster.SyncWrite(2, file, Bytes("w"), Duration::Seconds(30));
    (void)cluster.SyncRead(1, file);
    return cluster.sim().executed_events();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace leases
