// Tests for the node-placement layer and the no-downscale baseline variants
// (Table 6's INFaaS* / Cocktail* asterisks).

#include <gtest/gtest.h>

#include "src/baselines/baselines.h"
#include "src/sim/placement.h"
#include "src/sim/simulator.h"

namespace faro {
namespace {

std::vector<Node> TwoNodes(double cpu = 4.0, double mem = 8.0) {
  return {{"node-a", cpu, mem, 0.0, 0.0}, {"node-b", cpu, mem, 0.0, 0.0}};
}

JobSpec OneCpuJob(const std::string& name) {
  JobSpec spec;
  spec.name = name;
  spec.cpu_per_replica = 1.0;
  spec.mem_per_replica = 1.0;
  return spec;
}

TEST(PlacementTest, FirstFitFillsInOrder) {
  PlacementTracker tracker(TwoNodes(), PlacementStrategy::kFirstFit);
  const JobSpec job = OneCpuJob("a");
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tracker.PlaceReplica(job).value(), 0u);
  }
  EXPECT_EQ(tracker.PlaceReplica(job).value(), 1u);  // node-a full
  EXPECT_EQ(tracker.PlacedReplicas("a"), 5u);
}

TEST(PlacementTest, SpreadBalancesNodes) {
  PlacementTracker tracker(TwoNodes(), PlacementStrategy::kSpread);
  const JobSpec job = OneCpuJob("a");
  (void)tracker.PlaceReplica(job);
  (void)tracker.PlaceReplica(job);
  EXPECT_DOUBLE_EQ(tracker.nodes()[0].cpu_used, 1.0);
  EXPECT_DOUBLE_EQ(tracker.nodes()[1].cpu_used, 1.0);
}

TEST(PlacementTest, BestFitPacksTightest) {
  std::vector<Node> nodes{{"big", 8.0, 8.0, 0.0, 0.0}, {"small", 2.0, 8.0, 0.0, 0.0}};
  PlacementTracker tracker(std::move(nodes), PlacementStrategy::kBestFit);
  const JobSpec job = OneCpuJob("a");
  // Best fit picks the node with the least remaining CPU: "small".
  EXPECT_EQ(tracker.PlaceReplica(job).value(), 1u);
}

TEST(PlacementTest, PendingWhenNoNodeFits) {
  PlacementTracker tracker(TwoNodes(1.0, 1.0), PlacementStrategy::kFirstFit);
  JobSpec fat = OneCpuJob("fat");
  fat.cpu_per_replica = 2.0;  // larger than any node
  EXPECT_FALSE(tracker.PlaceReplica(fat).has_value());
}

TEST(PlacementTest, FragmentationLimitsPlaceable) {
  // Aggregate free capacity is 4 vCPU but split 2+2: a 3-vCPU replica cannot
  // be placed anywhere even though "the cluster" has room.
  PlacementTracker tracker(TwoNodes(4.0, 8.0), PlacementStrategy::kFirstFit);
  const JobSpec filler = OneCpuJob("filler");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tracker.PlaceReplica(filler).has_value());
  }
  // nodes now at 2+2 used (spread by first-fit: 4 on node-a). Rebuild: node-a
  // full, node-b empty -> place 2 more on b.
  JobSpec fat = OneCpuJob("fat");
  fat.cpu_per_replica = 3.0;
  fat.mem_per_replica = 1.0;
  // First-fit put all 4 on node-a; node-b has 4 free -> one 3-vCPU fits.
  EXPECT_EQ(tracker.PlaceableReplicas(fat), 1u);
  EXPECT_DOUBLE_EQ(tracker.TotalCapacity().cpu, 8.0);
}

TEST(PlacementTest, RemoveFreesCapacity) {
  PlacementTracker tracker(TwoNodes(), PlacementStrategy::kFirstFit);
  const JobSpec job = OneCpuJob("a");
  ASSERT_TRUE(tracker.PlaceReplica(job).has_value());
  ASSERT_TRUE(tracker.PlaceReplica(job).has_value());
  EXPECT_TRUE(tracker.RemoveReplica(job));
  EXPECT_EQ(tracker.PlacedReplicas("a"), 1u);
  EXPECT_DOUBLE_EQ(tracker.nodes()[0].cpu_used, 1.0);
  EXPECT_FALSE(tracker.RemoveReplica(OneCpuJob("unknown")));
}

TEST(PlacementTest, PlaceableSimulationDoesNotMutate) {
  PlacementTracker tracker(TwoNodes(), PlacementStrategy::kFirstFit);
  const JobSpec job = OneCpuJob("a");
  EXPECT_EQ(tracker.PlaceableReplicas(job), 8u);
  EXPECT_DOUBLE_EQ(tracker.nodes()[0].cpu_used, 0.0);
}

// --- no-downscale baseline variants -----------------------------------------------

TEST(NoDownscaleTest, AiadVariantNeverScalesDown) {
  AiadPolicy policy(/*allow_downscale=*/false);
  EXPECT_EQ(policy.name(), "AIAD-NoDown");
  std::vector<JobSpec> specs(1);
  JobMetrics m;
  m.ready_replicas = 6;
  m.p99_latency = 0.01;
  m.underloaded_for = 10000.0;
  m.processing_time = 0.18;
  EXPECT_FALSE(
      policy.FastReact(0.0, specs, {m}, ClusterResources{32.0, 32.0}).has_value());
}

TEST(NoDownscaleTest, CocktailKeepsItsReplicas) {
  MarkPolicy policy(nullptr, 0.8, /*allow_downscale=*/false);
  EXPECT_EQ(policy.name(), "Cocktail-NoDown");
  std::vector<JobSpec> specs(1);
  specs[0].processing_time = 0.18;
  JobMetrics m;
  m.ready_replicas = 12;        // previously upscaled
  m.arrival_rate = 1.0;         // load has collapsed
  m.processing_time = 0.18;
  m.arrival_history.assign(10, 1.0);
  const auto action = policy.Decide(0.0, specs, {m}, ClusterResources{32.0, 32.0});
  EXPECT_EQ(action.replicas[0], 12u);  // never relinquishes
  // The downscaling variant would shrink to ~1.
  MarkPolicy normal(nullptr, 0.8, /*allow_downscale=*/true);
  EXPECT_LE(normal.Decide(0.0, specs, {m}, ClusterResources{32.0, 32.0}).replicas[0], 2u);
}

// --- placement-aware simulator ------------------------------------------------

class StepUpPolicy : public AutoscalingPolicy {
 public:
  std::string name() const override { return "StepUp"; }
  double decision_interval_s() const override { return 60.0; }
  ScalingAction Decide(double now_s, const std::vector<JobSpec>&,
                       const std::vector<JobMetrics>&, const ClusterResources&) override {
    ScalingAction action;
    action.replicas = {now_s < 1.0 ? 2u : 6u};  // jump to 6 at the second tick
    return action;
  }
};

TEST(PlacementSimTest, FragmentedNodesDelayButDoNotLoseScaleUps) {
  SimJobConfig job;
  job.spec.name = "svc";
  job.spec.processing_time = 0.1;
  job.spec.slo = 0.4;
  job.spec.cpu_per_replica = 2.0;
  job.spec.mem_per_replica = 1.0;
  job.arrival_rate_per_min = Series(std::vector<double>(12, 300.0));
  job.initial_replicas = 2;

  SimConfig config;
  config.resources = ClusterResources{16.0, 16.0};
  // Three 4-vCPU nodes: at 2 vCPU per replica only 6 replicas fit in total.
  config.nodes = {{"n1", 4.0, 16.0, 0.0, 0.0},
                  {"n2", 4.0, 16.0, 0.0, 0.0},
                  {"n3", 4.0, 16.0, 0.0, 0.0}};
  StepUpPolicy policy;
  const RunResult result = RunSimulation(config, {job}, policy);
  // The target of 6 exceeds node capacity: at most 6 replicas placed
  // (2 per node); the run completes and replicas never exceed placement room.
  for (const double r : result.jobs[0].minute_replicas) {
    EXPECT_LE(r, 6.0 + 1e-9);
  }
  EXPECT_GE(result.jobs[0].minute_replicas.back(), 5.0);
}

TEST(PlacementSimTest, NodeModelOffByDefault) {
  SimJobConfig job;
  job.spec.processing_time = 0.1;
  job.spec.slo = 0.4;
  job.arrival_rate_per_min = Series(std::vector<double>(5, 60.0));
  SimConfig config;
  config.resources = ClusterResources{8.0, 8.0};
  StepUpPolicy policy;
  const RunResult result = RunSimulation(config, {job}, policy);
  EXPECT_GE(result.jobs[0].minute_replicas.back(), 6.0);  // unconstrained
}

}  // namespace
}  // namespace faro
