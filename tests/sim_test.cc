#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/queueing/mdc.h"
#include "src/sim/simulator.h"

namespace faro {
namespace {

// Policy that pins every job at a fixed replica count (no autoscaling).
class FixedPolicy : public AutoscalingPolicy {
 public:
  explicit FixedPolicy(std::vector<uint32_t> replicas, std::vector<double> drops = {})
      : replicas_(std::move(replicas)), drops_(std::move(drops)) {}
  std::string name() const override { return "Fixed"; }
  ScalingAction Decide(double now_s, const std::vector<JobSpec>& job_specs,
                       const std::vector<JobMetrics>& metrics,
                       const ClusterResources& resources) override {
    ScalingAction action;
    action.replicas = replicas_;
    action.drop_rates = drops_;
    return action;
  }

 private:
  std::vector<uint32_t> replicas_;
  std::vector<double> drops_;
};

SimJobConfig MakeJob(double rate_per_min, size_t minutes, uint32_t initial = 1,
                     double p = 0.180, double slo = 0.720) {
  SimJobConfig job;
  job.spec.name = "job";
  job.spec.processing_time = p;
  job.spec.slo = slo;
  job.arrival_rate_per_min = Series(std::vector<double>(minutes, rate_per_min));
  job.initial_replicas = initial;
  return job;
}

SimConfig MakeConfig(double capacity, uint64_t seed = 1) {
  SimConfig config;
  config.resources = ClusterResources{capacity, capacity};
  config.seed = seed;
  return config;
}

TEST(SimulatorTest, ConservationAndShapes) {
  const size_t minutes = 30;
  FixedPolicy policy({4});
  const auto result = RunSimulation(MakeConfig(32.0), {MakeJob(600.0, minutes, 4)}, policy);
  ASSERT_EQ(result.jobs.size(), 1u);
  const JobRunStats& job = result.jobs[0];
  EXPECT_GT(job.arrivals, 0u);
  EXPECT_LE(job.drops, job.arrivals);
  EXPECT_LE(job.violations, job.arrivals);
  EXPECT_EQ(job.minute_utility.size(), minutes);
  EXPECT_EQ(result.cluster_utility_timeline.size(), minutes);
  for (const double u : job.minute_utility) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(SimulatorTest, PoissonArrivalsMatchTraceRate) {
  const size_t minutes = 60;
  const double rate = 300.0;
  FixedPolicy policy({8});
  const auto result = RunSimulation(MakeConfig(32.0), {MakeJob(rate, minutes, 8)}, policy);
  const double observed =
      static_cast<double>(result.jobs[0].arrivals) / static_cast<double>(minutes);
  EXPECT_NEAR(observed, rate, 0.05 * rate);
}

TEST(SimulatorTest, MeasuredTailMatchesMdcModel) {
  // Steady Poisson load on a fixed pool: the measured p99 sojourn time should
  // sit near the M/D/c analytic estimate (the whole premise of §3.3).
  const double rate_per_min = 1200.0;  // 20 req/s
  const double p = 0.150;
  const uint32_t replicas = 5;         // rho = 0.6
  FixedPolicy policy({replicas});
  SimJobConfig job = MakeJob(rate_per_min, 60, replicas, p, 10.0);
  const auto result = RunSimulation(MakeConfig(32.0), {job}, policy);
  const double analytic = MdcLatencyPercentile(replicas, rate_per_min / 60.0, p, 0.99);
  // Average the per-minute p99s over the steady run.
  double measured = 0.0;
  for (const double v : result.jobs[0].minute_p99) {
    measured += v;
  }
  measured /= static_cast<double>(result.jobs[0].minute_p99.size());
  // The half-M/M/c approximation is coarse; agreement within 35% validates
  // both the simulator and the estimator.
  EXPECT_NEAR(measured, analytic, 0.35 * analytic);
}

TEST(SimulatorTest, OverloadCausesTailDropsAndViolations) {
  // 1 replica, 0.18 s service => capacity ~5.5 req/s; offer 20 req/s.
  FixedPolicy policy({1});
  const auto result = RunSimulation(MakeConfig(32.0), {MakeJob(1200.0, 20, 1)}, policy);
  const JobRunStats& job = result.jobs[0];
  EXPECT_GT(job.drops, 0u);
  EXPECT_GT(job.slo_violation_rate, 0.5);
  EXPECT_LT(job.avg_utility, 0.5);
}

TEST(SimulatorTest, AdequateCapacityMeetsSlo) {
  // 10 req/s on 4 replicas (rho = 0.45): negligible violations.
  FixedPolicy policy({4});
  const auto result = RunSimulation(MakeConfig(32.0), {MakeJob(600.0, 30, 4)}, policy);
  EXPECT_LT(result.jobs[0].slo_violation_rate, 0.01);
  EXPECT_GT(result.jobs[0].avg_utility, 0.99);
}

TEST(SimulatorTest, ExplicitDropRateHonoured) {
  FixedPolicy policy({8}, {0.3});
  const auto result = RunSimulation(MakeConfig(32.0), {MakeJob(600.0, 40, 8)}, policy);
  const JobRunStats& job = result.jobs[0];
  const double drop_rate =
      static_cast<double>(job.drops) / static_cast<double>(job.arrivals);
  EXPECT_NEAR(drop_rate, 0.3, 0.03);
}

TEST(SimulatorTest, DroppedRequestsCountAsViolations) {
  FixedPolicy policy({8}, {0.5});
  const auto result = RunSimulation(MakeConfig(32.0), {MakeJob(600.0, 20, 8)}, policy);
  // Drops get infinite latency: violations at least the drop count.
  EXPECT_GE(result.jobs[0].violations, result.jobs[0].drops);
}

TEST(SimulatorTest, ColdStartDelaysScaleUp) {
  // Jump from 1 to 10 replicas at t=0; with a 60 s cold start the first
  // minute must still be overloaded, later minutes fine.
  FixedPolicy policy({10});
  SimConfig config = MakeConfig(32.0);
  config.cold_start_s = 60.0;
  const auto result = RunSimulation(config, {MakeJob(1800.0, 15, 1)}, policy);
  const auto& p99 = result.jobs[0].minute_p99;
  ASSERT_GE(p99.size(), 10u);
  EXPECT_GT(p99[0], 0.720);             // pre-cold-start minute suffers
  EXPECT_LT(p99[p99.size() - 1], 0.720);  // steady state healthy
}

// A target the nodes can never place must not snowball. The policy
// re-publishes it on every reactive tick, and its metrics count Pending pods
// as starting replicas; measuring each generation's scale-up from ready +
// starting alone re-requested every Pending pod on every publish, so pending
// placements grew without bound.
TEST(SimulatorTest, UnplaceableTargetKeepsPendingPlacementsBounded) {
  class ReassertTarget : public AutoscalingPolicy {
   public:
    std::string name() const override { return "ReassertTarget"; }
    ScalingAction Decide(double, const std::vector<JobSpec>&,
                         const std::vector<JobMetrics>&,
                         const ClusterResources&) override {
      ScalingAction action;
      action.replicas = {target};
      return action;
    }
    std::optional<ScalingAction> FastReact(double, const std::vector<JobSpec>&,
                                           const std::vector<JobMetrics>& metrics,
                                           const ClusterResources& resources) override {
      ++ticks;
      max_committed = std::max(max_committed, metrics[0].ready_replicas +
                                                  metrics[0].starting_replicas);
      return Decide(0.0, {}, metrics, resources);
    }
    uint32_t target = 10;
    uint32_t max_committed = 0;
    size_t ticks = 0;
  };
  ReassertTarget policy;
  SimConfig config = MakeConfig(32.0);
  config.nodes = {Node{"n0", 3.0, 3.0}};  // room for 3 of the 10 replicas
  const auto result = RunSimulation(config, {MakeJob(600.0, 20, 1)}, policy);
  EXPECT_GT(policy.ticks, 100u);
  EXPECT_GE(policy.max_committed, 3u);
  EXPECT_LE(policy.max_committed, policy.target);
  EXPECT_GT(result.jobs[0].arrivals, 0u);
}

TEST(SimulatorTest, DeterministicForSameSeed) {
  FixedPolicy policy_a({3});
  FixedPolicy policy_b({3});
  const auto a = RunSimulation(MakeConfig(32.0, 77), {MakeJob(400.0, 20, 3)}, policy_a);
  const auto b = RunSimulation(MakeConfig(32.0, 77), {MakeJob(400.0, 20, 3)}, policy_b);
  EXPECT_EQ(a.jobs[0].arrivals, b.jobs[0].arrivals);
  EXPECT_EQ(a.jobs[0].violations, b.jobs[0].violations);
  EXPECT_DOUBLE_EQ(a.cluster_avg_utility, b.cluster_avg_utility);
}

TEST(SimulatorTest, SeedChangesRealisation) {
  FixedPolicy policy_a({3});
  FixedPolicy policy_b({3});
  const auto a = RunSimulation(MakeConfig(32.0, 1), {MakeJob(400.0, 20, 3)}, policy_a);
  const auto b = RunSimulation(MakeConfig(32.0, 2), {MakeJob(400.0, 20, 3)}, policy_b);
  EXPECT_NE(a.jobs[0].arrivals, b.jobs[0].arrivals);
}

TEST(SimulatorTest, MultiJobClusterAggregates) {
  FixedPolicy policy({4, 4});
  std::vector<SimJobConfig> jobs{MakeJob(600.0, 20, 4), MakeJob(600.0, 20, 4)};
  jobs[1].spec.name = "job2";
  const auto result = RunSimulation(MakeConfig(32.0), jobs, policy);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_NEAR(result.cluster_avg_utility,
              result.jobs[0].avg_utility + result.jobs[1].avg_utility, 1e-9);
  EXPECT_NEAR(result.cluster_lost_utility, 2.0 - result.cluster_avg_utility, 1e-9);
}

TEST(SimulatorTest, ProcessingJitterChangesLatencyNoise) {
  SimConfig noisy = MakeConfig(32.0);
  noisy.processing_jitter = 0.2;
  FixedPolicy policy_a({4});
  FixedPolicy policy_b({4});
  const auto clean = RunSimulation(MakeConfig(32.0), {MakeJob(800.0, 20, 4)}, policy_a);
  const auto jittered = RunSimulation(noisy, {MakeJob(800.0, 20, 4)}, policy_b);
  // Both runs complete and produce sane metrics; jitter raises the tail.
  EXPECT_GE(jittered.jobs[0].minute_p99[10], clean.jobs[0].minute_p99[10] * 0.8);
}

TEST(SimulatorTest, ReactivePolicyIsInvoked) {
  // A policy that upscales via FastReact only: violations early, healthy by
  // the end of the run.
  class ReactiveOnly : public AutoscalingPolicy {
   public:
    std::string name() const override { return "ReactiveOnly"; }
    ScalingAction Decide(double, const std::vector<JobSpec>&,
                         const std::vector<JobMetrics>& metrics,
                         const ClusterResources&) override {
      ScalingAction action;
      for (const auto& m : metrics) {
        action.replicas.push_back(m.ready_replicas + m.starting_replicas);
      }
      return action;
    }
    std::optional<ScalingAction> FastReact(double, const std::vector<JobSpec>&,
                                           const std::vector<JobMetrics>& metrics,
                                           const ClusterResources&) override {
      if (metrics[0].overloaded_for >= 30.0) {
        ScalingAction action;
        action.replicas = {metrics[0].ready_replicas + metrics[0].starting_replicas + 1};
        return action;
      }
      return std::nullopt;
    }
  };
  ReactiveOnly policy;
  const auto result = RunSimulation(MakeConfig(32.0), {MakeJob(1200.0, 30, 1)}, policy);
  const auto& replicas = result.jobs[0].minute_replicas;
  EXPECT_GT(replicas.back(), replicas.front());
  EXPECT_LT(result.jobs[0].minute_p99.back(), 0.720);
}

// Property sweep: across utilisations, the simulator's measured p99 stays
// within a constant factor of the analytic M/D/c estimate -- the matched-
// simulator premise, parameterised.
class DesVsMdcTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DesVsMdcTest, TailTracksAnalyticEstimate) {
  const uint32_t replicas = GetParam();
  const double p = 0.150;
  const double rate_per_min = 1500.0;  // 25 req/s; rho = 3.75 / replicas
  FixedPolicy policy({replicas});
  SimJobConfig job = MakeJob(rate_per_min, 45, replicas, p, 30.0);
  const auto result = RunSimulation(MakeConfig(64.0), {job}, policy);
  const double analytic = MdcLatencyPercentile(replicas, rate_per_min / 60.0, p, 0.99);
  double measured = 0.0;
  size_t counted = 0;
  // Skip the warm-up minutes.
  for (size_t t = 5; t < result.jobs[0].minute_p99.size(); ++t) {
    measured += result.jobs[0].minute_p99[t];
    ++counted;
  }
  measured /= static_cast<double>(counted);
  EXPECT_GT(measured, 0.5 * analytic) << "replicas=" << replicas;
  EXPECT_LT(measured, 1.6 * analytic) << "replicas=" << replicas;
}

// rho = 0.75, 0.625, 0.54, 0.47.
INSTANTIATE_TEST_SUITE_P(Utilisations, DesVsMdcTest, ::testing::Values(5u, 6u, 7u, 8u));

// The simulator is a valid M/M/c reference too when service is jittered
// heavily? No -- jitter is truncated-normal, not exponential. Instead check a
// structural property: doubling the replica count never increases the tail.
TEST(SimulatorPropertyTest, MoreReplicasNeverWorse) {
  double previous = 1e18;
  for (const uint32_t replicas : {2u, 4u, 8u}) {
    FixedPolicy policy({replicas});
    const auto result =
        RunSimulation(MakeConfig(32.0), {MakeJob(900.0, 30, replicas)}, policy);
    EXPECT_LE(result.jobs[0].slo_violation_rate, previous + 0.02);
    previous = result.jobs[0].slo_violation_rate;
  }
}

TEST(SimulatorPropertyTest, ViolationRateMonotoneInLoad) {
  double previous = -1.0;
  for (const double rate : {300.0, 900.0, 1500.0, 2100.0}) {
    FixedPolicy policy({4});
    const auto result = RunSimulation(MakeConfig(32.0), {MakeJob(rate, 25, 4)}, policy);
    EXPECT_GE(result.jobs[0].slo_violation_rate, previous - 0.02) << "rate=" << rate;
    previous = result.jobs[0].slo_violation_rate;
  }
}

}  // namespace
}  // namespace faro
