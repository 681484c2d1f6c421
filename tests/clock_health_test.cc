// Clock-health plane tests: the measured clock-error estimator, the
// uncertainty-aware term policy's degradation ladder (long leases -> short
// leases -> zero-term), its composition with the replicated authority's
// CappedTermPolicy, epsilon validation, and the drift-ramp chaos
// acceptance runs that prove the measured bound where the assumed constant
// fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "src/clock/clock_error_estimator.h"
#include "src/core/sim_cluster.h"
#include "src/core/term_policy.h"
#include "src/replica/authority.h"
#include "src/workload/chaos_harness.h"
#include "src/workload/v_config.h"

namespace leases {
namespace {

TimePoint At(double seconds) {
  return TimePoint::Epoch() + Duration::Seconds(seconds);
}

// Feeds `estimator` stamps from a node whose clock runs at `rate`, one
// sample every `gap` seconds over [from, to).
void FeedRate(ClockErrorEstimator& estimator, NodeId node, double rate,
              double from, double to, double gap = 0.5) {
  for (double t = from; t < to; t += gap) {
    int64_t remote = static_cast<int64_t>(rate * t * 1e6);
    estimator.OnSample(node, remote, At(t));
  }
}

// --- ClockErrorEstimator --------------------------------------------------

TEST(ClockErrorEstimatorTest, UnknownNodeReportsPrior) {
  ClockErrorEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.DriftBound(NodeId(1), At(0)),
                   estimator.options().prior_bound);
  EXPECT_DOUBLE_EQ(estimator.WorstBound(At(0)),
                   estimator.options().prior_bound);
  EXPECT_FALSE(estimator.View(NodeId(1)).known);
  EXPECT_EQ(estimator.tracked_nodes(), 0u);
}

TEST(ClockErrorEstimatorTest, FirstSampleAloneStaysAtPrior) {
  // One stamp gives no rate; the node must demonstrate its clock first.
  ClockErrorEstimator estimator;
  estimator.OnSample(NodeId(1), 0, At(0));
  EXPECT_TRUE(estimator.View(NodeId(1)).known);
  EXPECT_FALSE(estimator.View(NodeId(1)).has_rate);
  EXPECT_NEAR(estimator.DriftBound(NodeId(1), At(0)),
              estimator.options().prior_bound, 1e-9);
}

TEST(ClockErrorEstimatorTest, ConvergesToTrueDriftRate) {
  ClockErrorEstimator estimator;
  FeedRate(estimator, NodeId(1), 1.002, 0.0, 30.0);
  ClockErrorEstimator::NodeView v = estimator.View(NodeId(1));
  ASSERT_TRUE(v.has_rate);
  EXPECT_NEAR(v.measured_rate, 1.002, 2e-4);
  // Bound = |rate-1| + pair noise; the prior has long since decayed.
  double bound = estimator.DriftBound(NodeId(1), At(30));
  EXPECT_GE(bound, 0.002);
  EXPECT_LE(bound, 0.006);
}

TEST(ClockErrorEstimatorTest, HealthyClockSettlesNearNoiseFloor) {
  ClockErrorEstimator estimator;
  FeedRate(estimator, NodeId(1), 1.0, 0.0, 60.0);
  double bound = estimator.DriftBound(NodeId(1), At(60));
  // 2 * noise_bound / max_window = 2*3ms/6s = 1e-3 is the resolution limit.
  EXPECT_GE(bound, estimator.options().floor_bound);
  EXPECT_LE(bound, 2e-3);
}

TEST(ClockErrorEstimatorTest, LocksOnToDriftImmediatelyForgivesSlowly) {
  ClockErrorEstimator estimator;
  FeedRate(estimator, NodeId(1), 1.0, 0.0, 20.0);
  double healthy = estimator.DriftBound(NodeId(1), At(20));
  // Drift excursion: the node's clock jumps to 5% fast. Keep the remote
  // timeline continuous across the rate change.
  double base_remote = 1.0 * 20.0;
  for (double t = 20.0; t < 30.0; t += 0.5) {
    int64_t remote =
        static_cast<int64_t>((base_remote + 1.05 * (t - 20.0)) * 1e6);
    estimator.OnSample(NodeId(1), remote, At(t));
  }
  double during = estimator.DriftBound(NodeId(1), At(30));
  EXPECT_GT(during, 0.03);  // locked on within the sample window
  // Back to perfect; the worst-case memory decays with forgive_half_life,
  // it does not vanish the moment the measurement improves.
  base_remote += 1.05 * 10.0;
  for (double t = 30.0; t < 32.0; t += 0.5) {
    int64_t remote =
        static_cast<int64_t>((base_remote + 1.0 * (t - 30.0)) * 1e6);
    estimator.OnSample(NodeId(1), remote, At(t));
  }
  EXPECT_GT(estimator.DriftBound(NodeId(1), At(32)), 0.01);
  for (double t = 32.0; t < 62.0; t += 0.5) {
    int64_t remote =
        static_cast<int64_t>((base_remote + 1.0 * (t - 30.0)) * 1e6);
    estimator.OnSample(NodeId(1), remote, At(t));
  }
  double forgiven = estimator.DriftBound(NodeId(1), At(62));
  EXPECT_LT(forgiven, 0.005);
  EXPECT_GE(forgiven, healthy * 0.5);
}

TEST(ClockErrorEstimatorTest, SilenceGrowsBoundTowardCeiling) {
  ClockErrorEstimator estimator;
  FeedRate(estimator, NodeId(1), 1.0, 0.0, 30.0);
  double fresh = estimator.DriftBound(NodeId(1), At(30));
  // Within the grace window nothing changes.
  EXPECT_DOUBLE_EQ(estimator.DriftBound(NodeId(1), At(31)), fresh);
  // Past it the bound grows: silence is not evidence of health.
  double stale = estimator.DriftBound(NodeId(1), At(75));
  EXPECT_GT(stale, fresh + 0.1);
  EXPECT_DOUBLE_EQ(estimator.DriftBound(NodeId(1), At(300)),
                   estimator.options().ceiling_bound);
}

TEST(ClockErrorEstimatorTest, BackwardsLocalTimeReanchors) {
  // A replica failover rebases the estimator's own clock; the old sample
  // pairs are meaningless against the new timeline.
  ClockErrorEstimator estimator;
  FeedRate(estimator, NodeId(1), 1.0, 0.0, 20.0);
  ASSERT_TRUE(estimator.View(NodeId(1)).has_rate);
  estimator.OnSample(NodeId(1), static_cast<int64_t>(20.0 * 1e6), At(5));
  ClockErrorEstimator::NodeView v = estimator.View(NodeId(1));
  EXPECT_TRUE(v.known);
  EXPECT_FALSE(v.has_rate);
  EXPECT_NEAR(estimator.DriftBound(NodeId(1), At(5)),
              estimator.options().prior_bound, 1e-9);
}

TEST(ClockErrorEstimatorTest, LongGapReanchors) {
  ClockErrorEstimator estimator;
  FeedRate(estimator, NodeId(1), 1.1, 0.0, 10.0);
  ASSERT_TRUE(estimator.View(NodeId(1)).has_rate);
  // reset_gap (30s) of silence: the node re-enters at the prior.
  estimator.OnSample(NodeId(1), static_cast<int64_t>(100.0 * 1e6), At(50));
  EXPECT_FALSE(estimator.View(NodeId(1)).has_rate);
}

TEST(ClockErrorEstimatorTest, EpsilonBoundScalesWithHorizon) {
  ClockErrorEstimator estimator;
  FeedRate(estimator, NodeId(1), 1.002, 0.0, 30.0);
  double worst = estimator.WorstBound(At(30));
  Duration eps = estimator.EpsilonBound(Duration::Seconds(10), At(30));
  Duration expected = Duration::Micros(static_cast<int64_t>(worst * 10e6)) +
                      estimator.options().noise_bound;
  EXPECT_EQ(eps, expected);
  EXPECT_EQ(estimator.EpsilonBound(Duration::Zero(), At(30)),
            estimator.options().noise_bound);
  EXPECT_TRUE(
      estimator.EpsilonBound(Duration::Infinite(), At(30)).IsInfinite());
}

TEST(ClockErrorEstimatorTest, WorstBoundCoversEveryTrackedNode) {
  ClockErrorEstimator estimator;
  FeedRate(estimator, NodeId(1), 1.0, 0.0, 20.0);
  FeedRate(estimator, NodeId(2), 1.05, 0.0, 20.0);
  EXPECT_GE(estimator.WorstBound(At(20)), 0.04);
  EXPECT_LT(estimator.DriftBound(NodeId(1), At(20)), 0.01);
  EXPECT_EQ(estimator.tracked_nodes(), 2u);
}

// --- UncertaintyAwareTermPolicy degradation ladder ------------------------

TEST(UncertaintyPolicyTest, TightSyncPassesInnerTermThrough) {
  UncertaintyAwareTermPolicy policy(
      std::make_unique<FixedTermPolicy>(Duration::Seconds(10)));
  // Demonstrate a healthy clock: bound ~1e-3 -> cap ~40s > 10s.
  for (double t = 0; t < 30.0; t += 0.5) {
    policy.OnClockSample(NodeId(1), static_cast<int64_t>(t * 1e6), At(t));
  }
  EXPECT_EQ(policy.TermFor(FileId(1), FileClass::kNormal, NodeId(1)),
            Duration::Seconds(10));
  EXPECT_EQ(policy.capped_grants(), 0u);
  EXPECT_EQ(policy.degraded_zero_grants(), 0u);
}

TEST(UncertaintyPolicyTest, UnknownClientIsCappedAtThePrior) {
  // prior 5e-3 with headroom 2.5 and epsilon 100ms -> cap = 8s: a fresh
  // client's first leases are short until its clock demonstrates itself
  // (the paper's 10s ballpark falls out of the defaults here).
  UncertaintyAwareTermPolicy policy(
      std::make_unique<FixedTermPolicy>(Duration::Seconds(60)));
  Duration term = policy.TermFor(FileId(1), FileClass::kNormal, NodeId(7));
  EXPECT_GT(term, Duration::Seconds(7.9));
  EXPECT_LT(term, Duration::Seconds(8.1));
  EXPECT_EQ(policy.capped_grants(), 1u);
}

TEST(UncertaintyPolicyTest, MeasuredDriftShortensTerms) {
  UncertaintyAwareTermPolicy policy(
      std::make_unique<FixedTermPolicy>(Duration::Seconds(60)));
  // 2% drift -> cap = 0.1/(2.5*~0.02) ~ 2s: degraded but still useful.
  for (double t = 0; t < 30.0; t += 0.5) {
    policy.OnClockSample(NodeId(1), static_cast<int64_t>(1.02 * t * 1e6),
                         At(t));
  }
  Duration term = policy.TermFor(FileId(1), FileClass::kNormal, NodeId(1));
  EXPECT_GE(term, Duration::Seconds(1));
  EXPECT_LE(term, Duration::Seconds(3));
  EXPECT_EQ(policy.capped_grants(), 1u);
  EXPECT_EQ(policy.degraded_zero_grants(), 0u);
}

TEST(UncertaintyPolicyTest, BlownSyncDegradesToZeroTerm) {
  UncertaintyAwareTermPolicy policy(
      std::make_unique<FixedTermPolicy>(Duration::Seconds(60)));
  // 20% drift -> cap = 0.2s < min_useful_term: zero-term degraded mode.
  for (double t = 0; t < 30.0; t += 0.5) {
    policy.OnClockSample(NodeId(1), static_cast<int64_t>(1.2 * t * 1e6),
                         At(t));
  }
  EXPECT_EQ(policy.TermFor(FileId(1), FileClass::kNormal, NodeId(1)),
            Duration::Zero());
  EXPECT_EQ(policy.degraded_zero_grants(), 1u);
}

TEST(UncertaintyPolicyTest, SilenceDegradesToZeroTermToo) {
  UncertaintyAwareTermPolicy policy(
      std::make_unique<FixedTermPolicy>(Duration::Seconds(10)));
  for (double t = 0; t < 30.0; t += 0.5) {
    policy.OnClockSample(NodeId(1), static_cast<int64_t>(t * 1e6), At(t));
  }
  ASSERT_EQ(policy.TermFor(FileId(1), FileClass::kNormal, NodeId(1)),
            Duration::Seconds(10));
  // 40s of silence: staleness growth blows the bound; the policy tracks
  // time through the hooks the server always calls before granting.
  policy.OnRead(FileId(1), At(70));
  EXPECT_EQ(policy.TermFor(FileId(1), FileClass::kNormal, NodeId(1)),
            Duration::Zero());
}

TEST(UncertaintyPolicyTest, ZeroInnerTermStaysZeroWithoutCounting) {
  UncertaintyAwareTermPolicy policy(ZeroTermPolicy());
  EXPECT_EQ(policy.TermFor(FileId(1), FileClass::kNormal, NodeId(1)),
            Duration::Zero());
  EXPECT_EQ(policy.capped_grants(), 0u);
  EXPECT_EQ(policy.degraded_zero_grants(), 0u);
}

TEST(UncertaintyPolicyTest, RecoversAfterDriftEnds) {
  UncertaintyAwareTermPolicy policy(
      std::make_unique<FixedTermPolicy>(Duration::Seconds(10)));
  double remote = 0.0;
  double t = 0.0;
  for (; t < 20.0; t += 0.5, remote += 1.2 * 0.5) {
    policy.OnClockSample(NodeId(1), static_cast<int64_t>(remote * 1e6),
                         At(t));
  }
  ASSERT_EQ(policy.TermFor(FileId(1), FileClass::kNormal, NodeId(1)),
            Duration::Zero());
  // 60s of demonstrated-healthy samples: forgiveness decays the bound and
  // terms come back.
  for (; t < 80.0; t += 0.5, remote += 0.5) {
    policy.OnClockSample(NodeId(1), static_cast<int64_t>(remote * 1e6),
                         At(t));
  }
  EXPECT_GT(policy.TermFor(FileId(1), FileClass::kNormal, NodeId(1)),
            Duration::Seconds(5));
}

// --- Composition with the replicated authority ----------------------------

struct RecordingPolicy : TermPolicy {
  Duration TermFor(FileId, FileClass, NodeId) override {
    return Duration::Seconds(1);
  }
  void OnClockSample(NodeId client, int64_t remote, TimePoint) override {
    ++samples;
    last_client = client;
    last_remote = remote;
  }
  int samples = 0;
  NodeId last_client;
  int64_t last_remote = 0;
};

TEST(CappedTermPolicyTest, ForwardsClockSamplesToInner) {
  // The replica plane wraps the real policy in CappedTermPolicy; stamps
  // must still reach the estimator underneath or failover kills the
  // clock-health plane silently.
  RecordingPolicy inner;
  CappedTermPolicy capped(&inner, [] { return Duration::Infinite(); });
  capped.OnClockSample(NodeId(9), 1234567, At(1));
  EXPECT_EQ(inner.samples, 1);
  EXPECT_EQ(inner.last_client, NodeId(9));
  EXPECT_EQ(inner.last_remote, 1234567);
}

// --- Epsilon unification / validation -------------------------------------

TEST(ClusterValidateTest, AcceptsTheVDefaults) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 1);
  EXPECT_TRUE(options.Validate().ok());
}

TEST(ClusterValidateTest, RejectsNegativeEpsilon) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 1);
  options.epsilon = Duration::Millis(-1);
  options.client.epsilon = options.epsilon;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ClusterValidateTest, RejectsEpsilonNotSmallerThanTerm) {
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 1);
  options.epsilon = Duration::Seconds(10);
  options.client.epsilon = options.epsilon;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ClusterValidateTest, RejectsClientServerEpsilonMismatch) {
  // One authoritative epsilon: a client shortening by less than the engine
  // assumes would silently void the Section 5 safety argument.
  ClusterOptions options = MakeVClusterOptions(Duration::Seconds(10), 1);
  options.client.epsilon = options.epsilon + Duration::Millis(1);
  EXPECT_FALSE(options.Validate().ok());
}

// --- Drift-ramp chaos acceptance ------------------------------------------

ChaosOptions RampSoakOptions() {
  ChaosOptions options;
  options.seed = 7;
  options.num_clients = 6;
  options.total_ops = 7000;
  options.num_files = 12;
  options.term = Duration::Seconds(10);
  // The workload must let leases ride unrenewed into the danger window
  // (the interval where the fast server has expired a lease the slow
  // client still believes in, at the tail of a full term). Two knobs make
  // that reachable: writes are rare per file (a write consults holders,
  // which invalidates and so restarts the lease cycle with a fresh grant),
  // and batched extension is off (with it on, any remote fetch renews the
  // client's whole cohort, so no lease ever ages near its term).
  options.write_fraction = 0.1;
  options.ops_per_sec = 5.0;
  options.client.batch_extensions = false;
  options.random_plan = false;
  // Every client ramps slow while the server ramps fast: each client gets
  // the full two-sided divergence, and the long plateau holds peak drift
  // across several complete lease cycles.
  for (uint32_t c = 0; c < options.num_clients; ++c) {
    DriftRampOptions ramp;
    ramp.target = c;
    ramp.server = (c == 0);  // one server ramp is enough
    ramp.hold_spans = 20;
    FaultPlan per_client = DriftRampPlan(ramp);
    options.plan.events.insert(options.plan.events.end(),
                               per_client.events.begin(),
                               per_client.events.end());
  }
  std::stable_sort(options.plan.events.begin(), options.plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return options;
}

TEST(DriftRampChaosTest, AdaptiveTermsSurviveTheRampWithZeroViolations) {
  // The tentpole acceptance run: drift ramps from 0.1% to 5% -- far past
  // what the constant 100ms epsilon covers over a 10s term -- while the
  // measured bound shortens terms step for step and finally degrades to
  // zero-term. Correctness must hold the whole way down the ladder.
  ChaosOptions options = RampSoakOptions();
  options.uncertainty_terms = true;
  ChaosReport report = RunChaos(options);
  EXPECT_EQ(report.violations, 0u) << report.plan_line;
  EXPECT_FALSE(report.hit_time_cap);
  EXPECT_GT(report.server.clock_samples, 0u);
  // The ladder was actually exercised: grants were capped below the inner
  // term, and the deep end of the ramp reached zero-term degraded mode.
  EXPECT_GT(report.uncertainty_capped_grants, 0u);
  EXPECT_GT(report.uncertainty_zero_grants, 0u);
}

TEST(DriftRampChaosTest, FixedEpsilonViolatesOnTheSameRamp) {
  // The same ramp under the historical FixedTermPolicy + constant epsilon:
  // this run MUST show stale reads. It pins the negative result that
  // motivates the whole clock-health plane; if it ever stops violating,
  // the adaptive run above is no longer proving anything.
  ChaosOptions options = RampSoakOptions();
  options.uncertainty_terms = false;
  ChaosReport report = RunChaos(options);
  EXPECT_GT(report.violations, 0u) << report.plan_line;
}

TEST(DriftRampChaosTest, RampSoakIsReplayableByteExact) {
  ChaosOptions options = RampSoakOptions();
  options.total_ops = 1500;
  DriftRampOptions short_ramp;
  short_ramp.server = true;
  short_ramp.end_magnitude = 0.01;
  options.plan = DriftRampPlan(short_ramp);
  options.uncertainty_terms = true;
  ChaosReport a = RunChaos(options);
  ChaosReport b = RunChaos(options);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.plan_line, b.plan_line);
}

}  // namespace
}  // namespace leases
