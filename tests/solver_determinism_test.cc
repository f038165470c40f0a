// Determinism contract of the multi-start Stage-2 solve driver: for a fixed
// `FaroConfig::seed`, Decide() returns a bit-identical ScalingAction (replicas
// AND drop rates) at every `solve_parallelism` setting, for both the flat and
// the hierarchical (grouped) paths, across multiple cycles (exercising the
// cross-cycle warm-start cache). The suite name contains "Determinism" so the
// TSan CI job (`ctest -R Determinism` under FARO_SANITIZE=thread) picks it up.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/autoscaler.h"

namespace faro {
namespace {

// Make sure the shared pool actually has workers even on constrained CI
// machines, so parallel settings exercise real cross-thread execution.
const bool kThreadsEnvSet = [] {
  setenv("FARO_THREADS", "8", /*overwrite=*/0);
  return true;
}();

std::vector<JobSpec> MakeSpecs(size_t n) {
  std::vector<JobSpec> specs(n);
  for (size_t i = 0; i < n; ++i) {
    specs[i].name = "job" + std::to_string(i);
    specs[i].slo = 0.720;
    specs[i].processing_time = 0.180;
  }
  return specs;
}

JobMetrics MakeMetrics(double rate, uint32_t replicas) {
  JobMetrics m;
  m.arrival_rate = rate;
  m.processing_time = 0.180;
  m.ready_replicas = replicas;
  m.arrival_history.assign(15, rate);
  return m;
}

// Runs `cycles` long-term decisions with evolving loads and returns every
// action, so warm-start reuse across cycles is part of what is compared.
// The solver's telemetry after the last cycle goes to `telemetry` if given.
std::vector<ScalingAction> RunCycles(const FaroConfig& config, size_t num_jobs,
                                     double capacity, size_t cycles,
                                     SolverTelemetry* telemetry = nullptr) {
  FaroAutoscaler faro(config);
  const auto specs = MakeSpecs(num_jobs);
  const ClusterResources resources{capacity, capacity};
  std::vector<ScalingAction> actions;
  std::vector<uint32_t> current(num_jobs, 1);
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    std::vector<JobMetrics> metrics;
    for (size_t i = 0; i < num_jobs; ++i) {
      // Deterministic per-job, per-cycle load ramp: heavy hitters and light
      // jobs, drifting over time so successive solves differ.
      const double rate = 4.0 + 3.0 * static_cast<double>((i * 7 + cycle * 5) % 11);
      metrics.push_back(MakeMetrics(rate, current[i]));
    }
    ScalingAction action =
        faro.Decide(300.0 * static_cast<double>(cycle + 1), specs, metrics, resources);
    current = action.replicas;
    actions.push_back(std::move(action));
  }
  if (telemetry != nullptr) {
    *telemetry = faro.solver_telemetry();
  }
  return actions;
}

void ExpectIdenticalActions(const std::vector<ScalingAction>& a,
                            const std::vector<ScalingAction>& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].replicas.size(), b[c].replicas.size()) << label << " cycle " << c;
    for (size_t i = 0; i < a[c].replicas.size(); ++i) {
      EXPECT_EQ(a[c].replicas[i], b[c].replicas[i])
          << label << " cycle " << c << " job " << i;
    }
    ASSERT_EQ(a[c].drop_rates.size(), b[c].drop_rates.size()) << label << " cycle " << c;
    for (size_t i = 0; i < a[c].drop_rates.size(); ++i) {
      // Bitwise equality: drop rates feed back into the next solve.
      EXPECT_EQ(a[c].drop_rates[i], b[c].drop_rates[i])
          << label << " cycle " << c << " job " << i;
    }
  }
}

void CheckAcrossParallelism(FaroConfig config, size_t num_jobs, double capacity,
                            const std::string& label) {
  config.solve_parallelism = 1;
  SolverTelemetry serial_work;
  const std::vector<ScalingAction> serial =
      RunCycles(config, num_jobs, capacity, 4, &serial_work);
  EXPECT_GT(serial_work.cobyla_subproblems, 0u) << label;
  EXPECT_GT(serial_work.cobyla_model_fits, 0u) << label;
  for (const size_t parallelism : {size_t{2}, size_t{8}}) {
    config.solve_parallelism = parallelism;
    SolverTelemetry parallel_work;
    const std::vector<ScalingAction> parallel =
        RunCycles(config, num_jobs, capacity, 4, &parallel_work);
    const std::string where = label + " parallelism=" + std::to_string(parallelism);
    ExpectIdenticalActions(serial, parallel, where);
    // COBYLA's work counts are deterministic too: the same solves ran.
    EXPECT_EQ(serial_work.objective_evaluations, parallel_work.objective_evaluations) << where;
    EXPECT_EQ(serial_work.cobyla_subproblems, parallel_work.cobyla_subproblems) << where;
    EXPECT_EQ(serial_work.cobyla_model_fits, parallel_work.cobyla_model_fits) << where;
  }
}

TEST(SolverDeterminismTest, FlatSolveBitIdenticalAcrossThreadCounts) {
  FaroConfig config;  // defaults: multi-start on, warm cache on, early exit on
  CheckAcrossParallelism(config, /*num_jobs=*/10, /*capacity=*/36.0, "flat");
}

TEST(SolverDeterminismTest, FlatPenaltyDropRatesBitIdentical) {
  // Penalty objectives add drop-rate coordinates to the solve vector; the
  // determinism contract covers them too.
  FaroConfig config;
  config.objective = ObjectiveKind::kPenaltyFairSum;
  CheckAcrossParallelism(config, /*num_jobs=*/8, /*capacity=*/24.0, "flat-penalty");
}

TEST(SolverDeterminismTest, HierarchicalSolveBitIdenticalAcrossThreadCounts) {
  // Force grouping at a small job count so the test stays fast while the
  // parallel per-group fan-out (shuffle, group solves, polish) is exercised.
  FaroConfig config;
  config.hierarchical_threshold = 0;
  config.hierarchical_groups = 4;
  CheckAcrossParallelism(config, /*num_jobs=*/12, /*capacity=*/40.0, "hierarchical");
}

TEST(SolverDeterminismTest, SameSeedSameActionsDifferentSeedUsuallyDiffers) {
  FaroConfig config;
  const std::vector<ScalingAction> a = RunCycles(config, 10, 36.0, 3);
  const std::vector<ScalingAction> b = RunCycles(config, 10, 36.0, 3);
  ExpectIdenticalActions(a, b, "same-seed");
}

}  // namespace
}  // namespace faro
