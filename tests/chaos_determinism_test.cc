// Chaos determinism: the same FaultPlan and seed must yield bit-identical
// fault schedules, applied-fault logs, and RunResults when the autoscaler's
// solve fan-out runs on 1, 2, or 8 threads. The injector draws from its own
// RNG stream advanced in simulation-event order, so thread count -- which
// only affects the solver -- can never perturb the chaos.
//
// These tests run under TSan in CI (cmake -DFARO_SANITIZE=thread, then
// ctest -R Determinism) to prove the combination is also race-free.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/faults/faultplan.h"
#include "src/sim/harness.h"
#include "src/sim/report.h"

namespace faro {
namespace {

// Force the shared pool to 4 threads before its first use, so parallelism is
// real even on single-core CI machines.
const bool kForcePoolSize = [] {
  setenv("FARO_THREADS", "4", /*overwrite=*/0);
  return true;
}();

ExperimentSetup ChaosSetup(const std::string& scenario) {
  ExperimentSetup setup;
  setup.num_jobs = 4;
  setup.right_size_replicas = 14.0;
  setup.capacity = 12.0;
  setup.processing_jitter = 0.05;
  setup.cold_start_jitter_s = 10.0;
  // 4 three-replica nodes so node scenarios bite.
  std::vector<std::string> node_names;
  for (int n = 0; n < 4; ++n) {
    const std::string name = "node" + std::to_string(n);
    node_names.push_back(name);
    setup.nodes.push_back(Node{name, 3.0, 3.0});
  }
  setup.faults = MakeFaultScenario(scenario, 360.0 * 60.0, node_names);
  return setup;
}

// The SLO-attribution bit-exactness invariant (src/obs/attribution.h): in
// every metrics window, the left-to-right (enum-order) sum of the seven cause
// buckets reconstructs that window's lost utility exactly.
void ExpectAttributionExact(const RunResult& result, const std::string& label) {
  for (size_t j = 0; j < result.jobs.size(); ++j) {
    const JobRunStats& job = result.jobs[j];
    ASSERT_EQ(job.minute_lost_by_cause[0].size(), job.minute_utility.size())
        << label << " job " << j;
    for (size_t w = 0; w < job.minute_utility.size(); ++w) {
      const double lost = std::max(0.0, 1.0 - job.minute_utility[w]);
      double sum = 0.0;
      for (size_t c = 0; c < kNumLossCauses; ++c) {
        sum += job.minute_lost_by_cause[c][w];
      }
      ASSERT_EQ(sum, lost) << label << " job " << j << " window " << w;
    }
  }
}

void ExpectRunsIdentical(const RunResult& a, const RunResult& b, const std::string& label) {
  // Fault schedule and log, entry by entry.
  ASSERT_EQ(a.fault_log.size(), b.fault_log.size()) << label;
  for (size_t i = 0; i < a.fault_log.size(); ++i) {
    EXPECT_EQ(a.fault_log[i], b.fault_log[i]) << label << " fault " << i;
  }
  EXPECT_EQ(a.faults.replicas_killed, b.faults.replicas_killed) << label;
  // Scheduler growth is a pure function of the event stream.
  EXPECT_EQ(a.peak_event_set_size, b.peak_event_set_size) << label;
  EXPECT_EQ(a.peak_arrival_batch_size, b.peak_arrival_batch_size) << label;
  EXPECT_EQ(a.faults.node_crashes, b.faults.node_crashes) << label;
  EXPECT_EQ(a.faults.bursts, b.faults.bursts) << label;
  EXPECT_EQ(a.faults.actuation_drops, b.faults.actuation_drops) << label;
  EXPECT_EQ(a.faults.actuation_delays, b.faults.actuation_delays) << label;
  EXPECT_EQ(a.faults.actuation_partials, b.faults.actuation_partials) << label;
  EXPECT_EQ(a.faults.cold_start_stragglers, b.faults.cold_start_stragglers) << label;
  // Simulation outcomes, bitwise.
  EXPECT_EQ(a.cluster_lost_utility, b.cluster_lost_utility) << label;
  EXPECT_EQ(a.cluster_slo_violation_rate, b.cluster_slo_violation_rate) << label;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  for (size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].arrivals, b.jobs[j].arrivals) << label << " job " << j;
    EXPECT_EQ(a.jobs[j].injected_failures, b.jobs[j].injected_failures)
        << label << " job " << j;
    EXPECT_EQ(a.jobs[j].capacity_seconds_lost, b.jobs[j].capacity_seconds_lost)
        << label << " job " << j;
    EXPECT_EQ(a.jobs[j].recovery_seconds, b.jobs[j].recovery_seconds)
        << label << " job " << j;
    EXPECT_EQ(a.jobs[j].utility_reconverge_s, b.jobs[j].utility_reconverge_s)
        << label << " job " << j;
    // SLO ledger and causal attribution, bitwise.
    for (size_t c = 0; c < kNumLossCauses; ++c) {
      EXPECT_EQ(a.jobs[j].lost_by_cause[c], b.jobs[j].lost_by_cause[c])
          << label << " job " << j << " cause " << LossCauseName(c);
      ASSERT_EQ(a.jobs[j].minute_lost_by_cause[c], b.jobs[j].minute_lost_by_cause[c])
          << label << " job " << j << " cause " << LossCauseName(c);
    }
    EXPECT_EQ(a.jobs[j].error_budget_consumed, b.jobs[j].error_budget_consumed)
        << label << " job " << j;
    EXPECT_EQ(a.jobs[j].burn_alerts_fast, b.jobs[j].burn_alerts_fast) << label << " job " << j;
    EXPECT_EQ(a.jobs[j].burn_alerts_slow, b.jobs[j].burn_alerts_slow) << label << " job " << j;
    EXPECT_EQ(a.jobs[j].first_burn_alert_s, b.jobs[j].first_burn_alert_s)
        << label << " job " << j;
    ASSERT_EQ(a.jobs[j].minute_burn_fast, b.jobs[j].minute_burn_fast) << label << " job " << j;
    ASSERT_EQ(a.jobs[j].minute_burn_slow, b.jobs[j].minute_burn_slow) << label << " job " << j;
    ASSERT_EQ(a.jobs[j].minute_violations, b.jobs[j].minute_violations)
        << label << " job " << j;
    ASSERT_EQ(a.jobs[j].minute_p99.size(), b.jobs[j].minute_p99.size())
        << label << " job " << j;
    for (size_t t = 0; t < a.jobs[j].minute_p99.size(); ++t) {
      ASSERT_EQ(a.jobs[j].minute_p99[t], b.jobs[j].minute_p99[t])
          << label << " job " << j << " minute " << t;
    }
  }
  for (size_t c = 0; c < kNumLossCauses; ++c) {
    EXPECT_EQ(a.cluster_lost_by_cause[c], b.cluster_lost_by_cause[c])
        << label << " cause " << LossCauseName(c);
  }
  EXPECT_EQ(a.cluster_burn_alerts_fast, b.cluster_burn_alerts_fast) << label;
  EXPECT_EQ(a.cluster_burn_alerts_slow, b.cluster_burn_alerts_slow) << label;
}

TEST(ChaosDeterminismTest, BitIdenticalAcrossSolverThreadCounts) {
  ASSERT_TRUE(kForcePoolSize);
  for (const std::string& scenario : FaultScenarioNames()) {
    const ExperimentSetup setup = ChaosSetup(scenario);
    const PreparedWorkload workload = PrepareWorkload(setup);
    std::vector<RunResult> runs;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      FaroConfig overrides;
      overrides.solve_parallelism = threads;
      auto policy = MakePolicy("Faro-FairSum", nullptr, &overrides);
      runs.push_back(RunPolicy(setup, workload, *policy, setup.seed + 1000));
    }
    ExpectRunsIdentical(runs[0], runs[1], scenario + " 1v2");
    ExpectRunsIdentical(runs[0], runs[2], scenario + " 1v8");
    // The chaos actually fired (the scenarios are not vacuous), and both
    // scheduler peaks were measured.
    EXPECT_FALSE(runs[0].fault_log.empty()) << scenario;
    EXPECT_GT(runs[0].peak_event_set_size, 0u) << scenario;
    EXPECT_GT(runs[0].peak_arrival_batch_size, 0u) << scenario;
    // Bucket sums reconstruct each window's lost utility bit for bit, and the
    // exported attribution CSV is byte-identical at every thread count.
    ExpectAttributionExact(runs[0], scenario);
    std::vector<std::string> csvs;
    for (size_t i = 0; i < runs.size(); ++i) {
      const std::string path = testing::TempDir() + "slo_" + scenario + "_" +
                               std::to_string(i) + ".csv";
      ASSERT_TRUE(WriteSloCsv(path, runs[i])) << path;
      std::ifstream in(path);
      csvs.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>{});
    }
    EXPECT_EQ(csvs[0], csvs[1]) << scenario;
    EXPECT_EQ(csvs[0], csvs[2]) << scenario;
  }
}

TEST(ChaosDeterminismTest, AttributionExactFaultFree) {
  ExperimentSetup setup = ChaosSetup("node-crash");
  setup.faults = FaultPlan{};  // fault-free: same cluster, no chaos
  const PreparedWorkload workload = PrepareWorkload(setup);
  auto policy = MakePolicy("Faro-FairSum", nullptr);
  const RunResult result = RunPolicy(setup, workload, *policy, setup.seed + 1000);
  ExpectAttributionExact(result, "fault-free");
  // Without injected faults the fault-capacity bucket must stay empty.
  EXPECT_EQ(result.cluster_lost_by_cause[CauseIndex(LossCause::kFaultCapacity)], 0.0);
}

TEST(ChaosDeterminismTest, SameSeedSameSchedule) {
  const ExperimentSetup setup = ChaosSetup("replica-burst");
  const PreparedWorkload workload = PrepareWorkload(setup);
  auto policy_a = MakePolicy("Faro-FairSum", nullptr);
  auto policy_b = MakePolicy("Faro-FairSum", nullptr);
  const RunResult a = RunPolicy(setup, workload, *policy_a, 4242);
  const RunResult b = RunPolicy(setup, workload, *policy_b, 4242);
  ExpectRunsIdentical(a, b, "same-seed");
}

TEST(ChaosDeterminismTest, PlanSeedChangesStochasticSchedule) {
  ExperimentSetup setup = ChaosSetup("flaky-api");
  const PreparedWorkload workload = PrepareWorkload(setup);
  auto policy_a = MakePolicy("Faro-FairSum", nullptr);
  const RunResult a = RunPolicy(setup, workload, *policy_a, 4242);
  setup.faults.seed ^= 0xdecafbadull;
  auto policy_b = MakePolicy("Faro-FairSum", nullptr);
  const RunResult b = RunPolicy(setup, workload, *policy_b, 4242);
  // A different plan seed re-rolls the actuation/straggler draws.
  EXPECT_NE(a.fault_log, b.fault_log);
}

}  // namespace
}  // namespace faro
