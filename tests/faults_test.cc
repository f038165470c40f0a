// Chaos-injection layer: plan validation, named scenarios, and the injected
// fault paths through the simulator -- node crash/recover, correlated bursts,
// actuation faults, cold-start stragglers, Pending-placement retry, and the
// recovery metrics every path feeds.

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/faults/faultplan.h"
#include "src/faults/injector.h"
#include "src/sim/simulator.h"

namespace faro {
namespace {

class FixedPolicy : public AutoscalingPolicy {
 public:
  explicit FixedPolicy(std::vector<uint32_t> replicas) : replicas_(std::move(replicas)) {}
  std::string name() const override { return "Fixed"; }
  ScalingAction Decide(double, const std::vector<JobSpec>&, const std::vector<JobMetrics>&,
                       const ClusterResources&) override {
    ScalingAction action;
    action.replicas = replicas_;
    return action;
  }

 private:
  std::vector<uint32_t> replicas_;
};

SimJobConfig MakeJob(double rate_per_min, size_t minutes, uint32_t initial = 1,
                     const std::string& name = "job") {
  SimJobConfig job;
  job.spec.name = name;
  job.spec.processing_time = 0.180;
  job.spec.slo = 0.720;
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

// --- FaultPlan ------------------------------------------------------------

TEST(FaultPlanTest, DefaultPlanIsInactiveAndValid) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_EQ(plan.Validate(), "");
}

TEST(FaultPlanTest, AnyKnobActivates) {
  FaultPlan scheduled;
  scheduled.events.push_back({10.0, FaultKind::kNodeCrash, "n1"});
  EXPECT_TRUE(scheduled.active());
  FaultPlan burst;
  burst.burst_mtbf_s = 100.0;
  EXPECT_TRUE(burst.active());
  FaultPlan straggler;
  straggler.straggler_fraction = 0.1;
  EXPECT_TRUE(straggler.active());
  FaultPlan actuation;
  actuation.actuation_drop_prob = 0.1;
  EXPECT_TRUE(actuation.active());
}

TEST(FaultPlanTest, ValidateCatchesBadEvents) {
  FaultPlan plan;
  plan.events.push_back({-1.0, FaultKind::kNodeCrash, "n1"});
  EXPECT_NE(plan.Validate(), "");

  plan.events.assign({FaultEvent{10.0, FaultKind::kNodeCrash, ""}});
  EXPECT_NE(plan.Validate(), "");

  FaultEvent burst;
  burst.time_s = 10.0;
  burst.kind = FaultKind::kReplicaBurst;
  burst.fraction = 1.5;
  plan.events.assign({burst});
  EXPECT_NE(plan.Validate(), "");

  burst.fraction = 0.0;
  burst.count = 0;  // neither a fraction nor a count
  plan.events.assign({burst});
  EXPECT_NE(plan.Validate(), "");
}

TEST(FaultPlanTest, ValidateCatchesBadKnobs) {
  FaultPlan plan;
  plan.actuation_drop_prob = 0.7;
  plan.actuation_delay_prob = 0.7;  // sums above 1
  EXPECT_NE(plan.Validate(), "");

  FaultPlan straggler;
  straggler.straggler_fraction = 0.5;
  straggler.straggler_multiplier = 0.5;  // shrinks the cold start
  EXPECT_NE(straggler.Validate(), "");
}

TEST(FaultPlanTest, ActuationProbabilitySumBoundaryIsInclusive) {
  // Probabilities summing to exactly 1.0 are legal (every op draws a fault)...
  FaultPlan saturated;
  saturated.actuation_drop_prob = 0.5;
  saturated.actuation_delay_prob = 0.25;
  saturated.actuation_delay_s = 30.0;
  saturated.actuation_partial_prob = 0.25;
  EXPECT_EQ(saturated.Validate(), "");
  // ...anything above the boundary is not.
  saturated.actuation_partial_prob = 0.25 + 1e-9;
  EXPECT_NE(saturated.Validate(), "");

  // A negative probability is rejected even when the sum stays under 1.
  FaultPlan negative;
  negative.actuation_drop_prob = -0.1;
  negative.actuation_delay_prob = 0.5;
  negative.actuation_delay_s = 30.0;
  EXPECT_NE(negative.Validate(), "");
}

TEST(FaultPlanTest, ActuationDelayDurationEdges) {
  // Delays enabled with a zero (or negative) duration are rejected: a
  // zero-second "delay" would silently behave like a clean apply.
  FaultPlan zero_delay;
  zero_delay.actuation_delay_prob = 0.2;
  zero_delay.actuation_delay_s = 0.0;
  EXPECT_NE(zero_delay.Validate(), "");
  zero_delay.actuation_delay_s = -5.0;
  EXPECT_NE(zero_delay.Validate(), "");

  // With delays disabled the duration knob is unread: zero is fine and the
  // plan stays inactive.
  FaultPlan no_delay;
  no_delay.actuation_delay_s = 0.0;
  EXPECT_EQ(no_delay.Validate(), "");
  EXPECT_FALSE(no_delay.active());
}

TEST(FaultPlanTest, NamedScenariosAreValidAndActive) {
  const std::vector<std::string> nodes{"n0", "n1", "n2", "n3"};
  for (const std::string& name : FaultScenarioNames()) {
    const FaultPlan plan = MakeFaultScenario(name, 3600.0, nodes);
    EXPECT_TRUE(plan.active()) << name;
    EXPECT_EQ(plan.Validate(), "") << name;
  }
  EXPECT_FALSE(MakeFaultScenario("no-such-scenario", 3600.0, nodes).active());
}

// --- injector -------------------------------------------------------------

TEST(FaultInjectorTest, InactivePlanDrawsNothing) {
  FaultInjector injector(FaultPlan{}, 42);
  EXPECT_FALSE(injector.active());
  EXPECT_EQ(injector.DrawActuation(), ActuationOutcome::kApply);
  EXPECT_FALSE(injector.DrawBurst(10.0));
  EXPECT_EQ(injector.StretchColdStart(60.0), 60.0);
  EXPECT_EQ(injector.stats().cold_start_stragglers, 0u);
}

TEST(FaultInjectorTest, ScheduledEventsSortedByTime) {
  FaultPlan plan;
  plan.events.push_back({200.0, FaultKind::kNodeRecover, "n1"});
  plan.events.push_back({100.0, FaultKind::kNodeCrash, "n1"});
  FaultInjector injector(plan, 42);
  ASSERT_EQ(injector.scheduled().size(), 2u);
  EXPECT_EQ(injector.scheduled()[0].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(injector.scheduled()[1].kind, FaultKind::kNodeRecover);
}

TEST(FaultInjectorTest, ActuationOutcomesMatchProbabilities) {
  FaultPlan plan;
  plan.actuation_drop_prob = 0.25;
  plan.actuation_delay_prob = 0.25;
  plan.actuation_partial_prob = 0.25;
  FaultInjector injector(plan, 42);
  int counts[4] = {0, 0, 0, 0};
  const int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<int>(injector.DrawActuation())];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.25, 0.05);
  }
  EXPECT_EQ(injector.stats().actuation_drops,
            static_cast<uint64_t>(counts[static_cast<int>(ActuationOutcome::kDrop)]));
}

// --- simulator integration ------------------------------------------------

TEST(ChaosSimTest, NodeCrashKillsPlacedReplicasAndShrinksCapacity) {
  SimConfig config = MakeConfig(8.0);
  config.nodes = {{"n0", 4.0, 4.0}, {"n1", 4.0, 4.0}};
  config.faults.events.push_back({300.0, FaultKind::kNodeCrash, "n0"});
  FixedPolicy policy({8});
  // 30 req/s: fine on 8 replicas (rho 0.675), overloaded on the 4 that
  // survive the crash (rho 1.35) -- utility cannot reconverge.
  const auto result = RunSimulation(config, {MakeJob(1800.0, 20, 8)}, policy);
  EXPECT_EQ(result.faults.node_crashes, 1u);
  EXPECT_GT(result.faults.replicas_killed, 0u);
  EXPECT_GT(result.jobs[0].injected_failures, 0u);
  EXPECT_GT(result.jobs[0].capacity_seconds_lost, 0.0);
  ASSERT_FALSE(result.fault_log.empty());
  EXPECT_EQ(result.fault_log[0].what, "node_crash");
  EXPECT_EQ(result.fault_log[0].target, "n0");
  // The node never recovers, the cluster holds only 4 of the 8 wanted
  // replicas, and the pre-crash target is never reached again.
  EXPECT_EQ(result.jobs[0].utility_reconverge_s, -1.0);
}

TEST(ChaosSimTest, NodeRecoveryRestoresCapacity) {
  SimConfig config = MakeConfig(8.0);
  config.nodes = {{"n0", 4.0, 4.0}, {"n1", 4.0, 4.0}};
  config.faults.events.push_back({300.0, FaultKind::kNodeDrain, "n0"});
  config.faults.events.push_back({420.0, FaultKind::kNodeRecover, "n0"});
  FixedPolicy policy({8});
  const auto result = RunSimulation(config, {MakeJob(600.0, 30, 8)}, policy);
  EXPECT_EQ(result.faults.node_drains, 1u);
  EXPECT_EQ(result.faults.node_recoveries, 1u);
  // The fixed policy re-issues its 8-replica target every decision, so after
  // recovery the fleet is rebuilt and the deficit clock stops.
  EXPECT_GT(result.jobs[0].recovery_seconds, 0.0);
  EXPECT_LT(result.jobs[0].recovery_seconds, 25.0 * 60.0);
  EXPECT_NEAR(result.jobs[0].minute_replicas.back(), 8.0, 0.5);
}

TEST(ChaosSimTest, ScheduledBurstKillsFractionAndRecovers) {
  SimConfig config = MakeConfig(16.0);
  FaultEvent burst;
  burst.time_s = 600.0;
  burst.kind = FaultKind::kReplicaBurst;
  burst.fraction = 0.5;
  config.faults.events.push_back(burst);
  FixedPolicy policy({8});
  const auto result = RunSimulation(config, {MakeJob(600.0, 30, 8)}, policy);
  EXPECT_EQ(result.faults.bursts, 1u);
  EXPECT_EQ(result.faults.replicas_killed, 4u);
  EXPECT_EQ(result.jobs[0].injected_failures, 4u);
  // The live pool sat below its pre-burst count until replacements came up.
  EXPECT_GT(result.jobs[0].recovery_seconds, 0.0);
  ASSERT_EQ(result.fault_log.size(), 1u);
  EXPECT_EQ(result.fault_log[0].what, "replica_burst");
  EXPECT_EQ(result.fault_log[0].count, 4u);
  // The fixed policy restores the target within a cold start or two.
  EXPECT_GE(result.jobs[0].utility_reconverge_s, 0.0);
}

TEST(ChaosSimTest, ActuationDropsSuppressScaleUps) {
  SimConfig config = MakeConfig(32.0);
  config.faults.actuation_drop_prob = 1.0;  // every scale-up silently dropped
  FixedPolicy policy({8});
  const auto result = RunSimulation(config, {MakeJob(600.0, 10, 1)}, policy);
  EXPECT_GT(result.faults.actuation_drops, 0u);
  // The job can never grow past its initial replica.
  for (const double r : result.jobs[0].minute_replicas) {
    EXPECT_LE(r, 1.0 + 1e-9);
  }
}

TEST(ChaosSimTest, ActuationDelayAppliesLater) {
  SimConfig config = MakeConfig(32.0);
  config.faults.actuation_delay_prob = 1.0;
  config.faults.actuation_delay_s = 120.0;
  FixedPolicy policy({6});
  const auto result = RunSimulation(config, {MakeJob(600.0, 15, 1)}, policy);
  EXPECT_GT(result.faults.actuation_delays, 0u);
  // Replicas do arrive eventually (delay + cold start), just late.
  EXPECT_NEAR(result.jobs[0].minute_replicas.back(), 6.0, 0.5);
}

TEST(ChaosSimTest, ColdStartStragglersAreCountedAndSlow) {
  SimConfig base = MakeConfig(32.0);
  base.cold_start_s = 60.0;
  SimConfig chaotic = base;
  chaotic.faults.straggler_fraction = 1.0;
  chaotic.faults.straggler_multiplier = 4.0;
  FixedPolicy policy_a({8});
  FixedPolicy policy_b({8});
  const auto clean = RunSimulation(base, {MakeJob(1200.0, 12, 1)}, policy_a);
  const auto slow = RunSimulation(chaotic, {MakeJob(1200.0, 12, 1)}, policy_b);
  EXPECT_EQ(clean.faults.cold_start_stragglers, 0u);
  EXPECT_GT(slow.faults.cold_start_stragglers, 0u);
  // Every cold start takes 4x as long (60 s -> 240 s), so during minute 2 the
  // straggling cluster still serves 20 req/s on one replica while the clean
  // one has been fully up for a minute.
  EXPECT_LT(slow.jobs[0].minute_utility[2], clean.jobs[0].minute_utility[2] - 0.2);
}

TEST(ChaosSimTest, PendingPlacementRetriesAfterNodeRecovery) {
  // Satellite: replicas that cannot be placed stay Pending and are retried
  // each reactive tick. Crash one of two nodes, ask for more replicas than
  // the survivor holds, then recover -- the pending replicas must land.
  SimConfig config = MakeConfig(8.0);
  config.nodes = {{"n0", 4.0, 4.0}, {"n1", 4.0, 4.0}};
  config.faults.events.push_back({120.0, FaultKind::kNodeCrash, "n0"});
  config.faults.events.push_back({600.0, FaultKind::kNodeRecover, "n0"});
  FixedPolicy policy({8});
  const auto result = RunSimulation(config, {MakeJob(600.0, 25, 8)}, policy);
  // While n0 is down only 4 replicas fit; after recovery the full 8 return.
  double mid = result.jobs[0].minute_replicas[8];
  EXPECT_LE(mid, 4.5);
  EXPECT_NEAR(result.jobs[0].minute_replicas.back(), 8.0, 0.5);
}

TEST(ChaosSimTest, InactivePlanReportsAllZeros) {
  FixedPolicy policy({4});
  const auto result = RunSimulation(MakeConfig(16.0), {MakeJob(600.0, 20, 4)}, policy);
  EXPECT_EQ(result.faults.replicas_killed, 0u);
  EXPECT_EQ(result.faults.bursts, 0u);
  EXPECT_TRUE(result.fault_log.empty());
  EXPECT_EQ(result.jobs[0].injected_failures, 0u);
  EXPECT_EQ(result.jobs[0].capacity_seconds_lost, 0.0);
  EXPECT_EQ(result.jobs[0].recovery_seconds, 0.0);
  EXPECT_EQ(result.jobs[0].utility_reconverge_s, 0.0);
}

// --- SimConfig validation (satellite) --------------------------------------

TEST(ValidateSimConfigTest, AcceptsDefaults) {
  EXPECT_EQ(ValidateSimConfig(MakeConfig(16.0)), "");
}

TEST(ValidateSimConfigTest, RejectsBadFieldsWithClearMessages) {
  SimConfig negative_cold = MakeConfig(16.0);
  negative_cold.cold_start_s = -1.0;
  EXPECT_NE(ValidateSimConfig(negative_cold).find("cold_start_s"), std::string::npos);

  SimConfig zero_queue = MakeConfig(16.0);
  zero_queue.router_queue_limit = 0;
  EXPECT_NE(ValidateSimConfig(zero_queue).find("router_queue_limit"), std::string::npos);

  SimConfig bad_node = MakeConfig(16.0);
  bad_node.nodes = {{"n0", 0.0, 4.0}};
  EXPECT_NE(ValidateSimConfig(bad_node), "");

  SimConfig unknown_node = MakeConfig(16.0);
  unknown_node.nodes = {{"n0", 4.0, 4.0}};
  unknown_node.faults.events.push_back({10.0, FaultKind::kNodeCrash, "missing"});
  EXPECT_NE(ValidateSimConfig(unknown_node).find("missing"), std::string::npos);

  SimConfig bad_plan = MakeConfig(16.0);
  bad_plan.faults.actuation_drop_prob = 2.0;
  EXPECT_NE(ValidateSimConfig(bad_plan), "");
}

TEST(ValidateSimConfigTest, RunSimulationThrowsOnInvalidConfig) {
  SimConfig config = MakeConfig(16.0);
  config.reactive_interval_s = 0.0;
  FixedPolicy policy({4});
  std::vector<SimJobConfig> jobs{MakeJob(600.0, 5, 4)};
  EXPECT_THROW(RunSimulation(config, jobs, policy), std::invalid_argument);
}

}  // namespace
}  // namespace faro
