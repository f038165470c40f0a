// The parallel harness's non-negotiable invariant: RunTrials / RunAllPolicies
// on N threads produce byte-identical results to a forced single-thread run.
// Each trial owns its RNG stream (seed + 1000 * (trial + 1)) and every
// floating-point reduction happens serially in trial order, so this is exact
// equality, not tolerance-based comparison.
//
// These tests run under TSan in CI (cmake -DFARO_SANITIZE=thread, then
// ctest -R Determinism) to prove the fan-out is also race-free.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/parallel.h"
#include "src/faults/faultplan.h"
#include "src/forecast/adapter.h"
#include "src/sim/harness.h"

namespace faro {
namespace {

// Force the shared pool to 4 threads before its first use, so the parallel
// path is real even on single-core CI machines (static initialisation runs
// before main, and the pool is created lazily on first ParallelFor).
const bool kForcePoolSize = [] {
  setenv("FARO_THREADS", "4", /*overwrite=*/0);
  return true;
}();

ExperimentSetup SmallSetup() {
  ExperimentSetup setup;
  setup.num_jobs = 4;
  setup.right_size_replicas = 14.0;
  setup.capacity = 12.0;
  setup.trials = 3;
  setup.processing_jitter = 0.05;
  setup.cold_start_jitter_s = 10.0;
  return setup;
}

void ExpectAggregatesIdentical(const TrialAggregate& serial, const TrialAggregate& parallel) {
  EXPECT_EQ(serial.policy, parallel.policy);
  EXPECT_EQ(serial.lost_utility_mean, parallel.lost_utility_mean);
  EXPECT_EQ(serial.lost_utility_sd, parallel.lost_utility_sd);
  EXPECT_EQ(serial.violation_rate_mean, parallel.violation_rate_mean);
  EXPECT_EQ(serial.violation_rate_sd, parallel.violation_rate_sd);
  EXPECT_EQ(serial.lost_effective_utility_mean, parallel.lost_effective_utility_mean);
  EXPECT_EQ(serial.lost_effective_utility_sd, parallel.lost_effective_utility_sd);
  ASSERT_EQ(serial.per_job_lost_utility.size(), parallel.per_job_lost_utility.size());
  for (size_t i = 0; i < serial.per_job_lost_utility.size(); ++i) {
    EXPECT_EQ(serial.per_job_lost_utility[i], parallel.per_job_lost_utility[i])
        << "job " << i;
  }
}

TEST(DeterminismTest, ParallelRunTrialsBitIdenticalToSerial) {
  ASSERT_TRUE(kForcePoolSize);
  const ExperimentSetup base = SmallSetup();
  const PreparedWorkload workload = PrepareWorkload(base);
  // Two cheap baselines plus two Faro variants (the satellite requirement is
  // "at least two policies including one Faro variant").
  for (const std::string& name :
       {std::string("Faro-FairSum"), std::string("Faro-PenaltySum"), std::string("AIAD"),
        std::string("FairShare")}) {
    ExperimentSetup serial_setup = base;
    serial_setup.threads = 1;
    ExperimentSetup parallel_setup = base;
    parallel_setup.threads = 0;  // shared pool (4 threads via FARO_THREADS)
    const TrialAggregate serial = RunTrials(serial_setup, workload, name, nullptr);
    const TrialAggregate parallel = RunTrials(parallel_setup, workload, name, nullptr);
    ExpectAggregatesIdentical(serial, parallel);
  }
}

TEST(DeterminismTest, MinuteP99TimelinesBitIdentical) {
  const ExperimentSetup setup = SmallSetup();
  const PreparedWorkload workload = PrepareWorkload(setup);
  for (const std::string& name : {std::string("Faro-Sum"), std::string("Oneshot")}) {
    // Serial reference: trial loop in index order on this thread.
    std::vector<RunResult> serial;
    for (size_t trial = 0; trial < setup.trials; ++trial) {
      auto policy = MakePolicy(name, nullptr);
      serial.push_back(RunPolicy(setup, workload, *policy, setup.seed + 1000 * (trial + 1)));
    }
    // Parallel fan-out over the shared pool.
    const std::vector<RunResult> parallel = ParallelMap(setup.trials, [&](size_t trial) {
      auto policy = MakePolicy(name, nullptr);
      return RunPolicy(setup, workload, *policy, setup.seed + 1000 * (trial + 1));
    });
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t trial = 0; trial < serial.size(); ++trial) {
      ASSERT_EQ(serial[trial].jobs.size(), parallel[trial].jobs.size());
      for (size_t j = 0; j < serial[trial].jobs.size(); ++j) {
        const std::vector<double>& a = serial[trial].jobs[j].minute_p99;
        const std::vector<double>& b = parallel[trial].jobs[j].minute_p99;
        ASSERT_EQ(a.size(), b.size()) << name << " trial " << trial << " job " << j;
        for (size_t t = 0; t < a.size(); ++t) {
          ASSERT_EQ(a[t], b[t]) << name << " trial " << trial << " job " << j << " minute " << t;
        }
      }
      EXPECT_EQ(serial[trial].cluster_lost_utility, parallel[trial].cluster_lost_utility);
    }
  }
}

TEST(DeterminismTest, RunAllPoliciesMatchesPerPolicyRunTrials) {
  ExperimentSetup setup = SmallSetup();
  setup.trials = 2;
  const PreparedWorkload workload = PrepareWorkload(setup);
  const std::vector<std::string> names = {"FairShare", "Oneshot", "Faro-Sum"};
  const std::vector<TrialAggregate> swept = RunAllPolicies(setup, workload, nullptr, names);
  ASSERT_EQ(swept.size(), names.size());
  ExperimentSetup serial_setup = setup;
  serial_setup.threads = 1;
  for (size_t p = 0; p < names.size(); ++p) {
    const TrialAggregate individual = RunTrials(serial_setup, workload, names[p], nullptr);
    ExpectAggregatesIdentical(individual, swept[p]);
  }
}

TEST(DeterminismTest, RacedPoliciesBitIdenticalAcrossThreads) {
  // Trial racing draws trial k for every active arm before trial k+1 and
  // merges lost-utility observations serially in arm order, so the raced
  // sweep inherits the full sweep's bit-identical contract: same winner,
  // same per-arm aggregates, same telemetry at any thread count.
  ExperimentSetup base = SmallSetup();
  base.race.enabled = true;
  const PreparedWorkload workload = PrepareWorkload(base);
  const std::vector<std::string> names = {"FairShare", "Oneshot", "AIAD"};
  ExperimentSetup serial_setup = base;
  serial_setup.threads = 1;
  ExperimentSetup parallel_setup = base;
  parallel_setup.threads = 0;  // shared pool (4 threads via FARO_THREADS)
  RaceReport serial_report;
  RaceReport parallel_report;
  const std::vector<TrialAggregate> serial =
      RunAllPolicies(serial_setup, workload, nullptr, names, nullptr, &serial_report);
  const std::vector<TrialAggregate> parallel =
      RunAllPolicies(parallel_setup, workload, nullptr, names, nullptr, &parallel_report);
  ASSERT_EQ(serial.size(), names.size());
  ASSERT_EQ(parallel.size(), names.size());
  EXPECT_TRUE(serial_report.raced);
  EXPECT_TRUE(parallel_report.raced);
  EXPECT_EQ(serial_report.winner, parallel_report.winner);
  EXPECT_EQ(serial_report.winner_policy, parallel_report.winner_policy);
  EXPECT_EQ(serial_report.telemetry.rounds, parallel_report.telemetry.rounds);
  EXPECT_EQ(serial_report.telemetry.arms_pruned, parallel_report.telemetry.arms_pruned);
  EXPECT_EQ(serial_report.telemetry.evaluations_spent,
            parallel_report.telemetry.evaluations_spent);
  for (size_t p = 0; p < names.size(); ++p) {
    EXPECT_EQ(serial[p].trials_run, parallel[p].trials_run) << names[p];
    ExpectAggregatesIdentical(serial[p], parallel[p]);
  }
}

TEST(DeterminismTest, RacedArmsAreTrialPrefixesAndWinnerMatchesFullSweep) {
  // Every raced arm's trials are the prefix 0..n-1 of the full sweep's trial
  // sequence (seeds depend only on the trial index), so re-running a plain
  // sweep capped at the arm's trial count reproduces its aggregate bitwise.
  // The race winner must also be the full sweep's argmin lost utility --
  // racing saves trials, never changes the answer.
  ExperimentSetup raced_setup = SmallSetup();
  raced_setup.race.enabled = true;
  const PreparedWorkload workload = PrepareWorkload(raced_setup);
  const std::vector<std::string> names = {"FairShare", "Oneshot", "AIAD"};
  RaceReport report;
  const std::vector<TrialAggregate> raced =
      RunAllPolicies(raced_setup, workload, nullptr, names, nullptr, &report);
  ASSERT_TRUE(report.raced);
  EXPECT_EQ(report.telemetry.evaluations_spent + report.telemetry.evaluations_saved,
            static_cast<uint64_t>(names.size()) * raced_setup.trials);

  ExperimentSetup full_setup = SmallSetup();
  full_setup.threads = 1;
  ASSERT_FALSE(full_setup.race.enabled);  // plain sweeps never race by default
  size_t best = 0;
  std::vector<TrialAggregate> full;
  for (size_t p = 0; p < names.size(); ++p) {
    full.push_back(RunTrials(full_setup, workload, names[p], nullptr));
    if (full[p].lost_utility_mean < full[best].lost_utility_mean) {
      best = p;
    }
    ExperimentSetup prefix_setup = full_setup;
    prefix_setup.trials = raced[p].trials_run;
    ASSERT_GE(raced[p].trials_run, raced_setup.race.min_trials) << names[p];
    const TrialAggregate prefix = RunTrials(prefix_setup, workload, names[p], nullptr);
    ExpectAggregatesIdentical(prefix, raced[p]);
  }
  EXPECT_EQ(report.winner, best);
  EXPECT_EQ(report.winner_policy, names[best]);
}

TEST(DeterminismTest, SharedTrainedPredictorIsRaceFreeAndDeterministic) {
  // The N-HiTS predictor is shared by every concurrently running trial; its
  // forward pass mutates scratch state and is serialised by a mutex. One
  // epoch on a 3-job workload keeps this fast while still exercising the
  // shared-model path (nullptr predictors would fall back to the stateless
  // damped average).
  ExperimentSetup setup = SmallSetup();
  setup.num_jobs = 3;
  setup.right_size_replicas = 10.0;
  setup.capacity = 9.0;
  const PreparedWorkload workload = PrepareWorkload(setup);
  const auto predictor = TrainPredictor(workload, setup.seed, /*epochs=*/1);
  ExperimentSetup serial_setup = setup;
  serial_setup.threads = 1;
  const TrialAggregate serial = RunTrials(serial_setup, workload, "Faro-FairSum", predictor);
  const TrialAggregate parallel = RunTrials(setup, workload, "Faro-FairSum", predictor);
  ExpectAggregatesIdentical(serial, parallel);
}

TEST(ForecastDeterminismTest, ParallelTrainingBitIdenticalToSerial) {
  // TrainPredictor trains the jobs' models concurrently on the shared pool
  // (4 threads here, one job each). A serial loop of TrainJob with the same
  // settings must give every job the same forecast bits.
  const ExperimentSetup setup = SmallSetup();
  const PreparedWorkload workload = PrepareWorkload(setup);
  const auto parallel = TrainPredictor(workload, setup.seed, /*epochs=*/1);

  NHitsConfig model_config;
  model_config.seed = setup.seed;
  TrainConfig train_config;
  train_config.epochs = 1;
  train_config.seed = setup.seed ^ 0x5eedull;
  NHitsWorkloadPredictor serial(model_config, train_config);
  for (size_t job = 0; job < workload.train_rates_per_s.size(); ++job) {
    serial.TrainJob(job, workload.train_rates_per_s[job]);
  }

  ASSERT_EQ(parallel->trained_jobs(), setup.num_jobs);
  ASSERT_EQ(serial.trained_jobs(), setup.num_jobs);
  for (size_t job = 0; job < setup.num_jobs; ++job) {
    const std::span<const double> train = workload.train_rates_per_s[job].values();
    const std::vector<double> history(train.end() - 15, train.end());
    for (const double q : {0.5, 0.9}) {
      const std::vector<double> a = parallel->PredictQuantile(job, history, 7, q);
      const std::vector<double> b = serial.PredictQuantile(job, history, 7, q);
      ASSERT_EQ(a.size(), b.size());
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(std::bit_cast<uint64_t>(a[k]), std::bit_cast<uint64_t>(b[k]))
            << "job " << job << " q " << q << " step " << k;
      }
    }
  }
}

// One single-trial AIAD run shape for the RunPolicy-level checks below.
ExperimentSetup SingleRunSetup() {
  ExperimentSetup setup;
  setup.num_jobs = 6;
  setup.capacity = 24.0;
  setup.right_size_replicas = 22.0;
  setup.days = 2;
  setup.trials = 1;
  setup.processing_jitter = 0.05;
  setup.cold_start_jitter_s = 10.0;
  return setup;
}

void ExpectRunsIdentical(const RunResult& a, const RunResult& b, const std::string& label) {
  EXPECT_EQ(a.events_processed, b.events_processed) << label;
  EXPECT_EQ(a.cluster_peak_replicas, b.cluster_peak_replicas) << label;
  EXPECT_EQ(a.cluster_lost_utility, b.cluster_lost_utility) << label;
  EXPECT_EQ(a.cluster_slo_violation_rate, b.cluster_slo_violation_rate) << label;
  EXPECT_EQ(a.fault_log.size(), b.fault_log.size()) << label;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  for (size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].arrivals, b.jobs[j].arrivals) << label << " job " << j;
    EXPECT_EQ(a.jobs[j].drops, b.jobs[j].drops) << label << " job " << j;
    EXPECT_EQ(a.jobs[j].violations, b.jobs[j].violations) << label << " job " << j;
    EXPECT_EQ(a.jobs[j].avg_utility, b.jobs[j].avg_utility) << label << " job " << j;
    EXPECT_EQ(a.jobs[j].avg_replicas, b.jobs[j].avg_replicas) << label << " job " << j;
    for (size_t c = 0; c < kNumLossCauses; ++c) {
      EXPECT_EQ(a.jobs[j].lost_by_cause[c], b.jobs[j].lost_by_cause[c])
          << label << " job " << j << " cause " << LossCauseName(c);
    }
    EXPECT_EQ(a.jobs[j].minute_p99, b.jobs[j].minute_p99) << label << " job " << j;
    EXPECT_EQ(a.jobs[j].minute_burn_fast, b.jobs[j].minute_burn_fast)
        << label << " job " << j;
  }
}

// An inactive chaos plan must draw nothing from any stream: the run is
// bit-identical to one with the default (empty) plan.
TEST(DeterminismTest, InactivePlanLeavesRunsUntouched) {
  ExperimentSetup setup = SingleRunSetup();
  const PreparedWorkload workload = PrepareWorkload(setup);
  auto policy_a = MakePolicy("AIAD", nullptr);
  const RunResult a = RunPolicy(setup, workload, *policy_a, 777);
  setup.faults = FaultPlan{};
  setup.faults.seed ^= 0xabcdefull;  // inactive: the seed must not matter
  auto policy_b = MakePolicy("AIAD", nullptr);
  const RunResult b = RunPolicy(setup, workload, *policy_b, 777);
  ExpectRunsIdentical(a, b, "inactive-plan");
  EXPECT_TRUE(a.fault_log.empty());
}

// record_minute_series=false keeps memory flat; the running-sum averages
// must match the recorded-series averages bit-for-bit (same additions in the
// same order), and the per-minute vectors come back empty.
TEST(DeterminismTest, RunningSumsMatchRecordedSeries) {
  ExperimentSetup setup = SingleRunSetup();
  const PreparedWorkload workload = PrepareWorkload(setup);
  auto policy_a = MakePolicy("AIAD", nullptr);
  const RunResult recorded = RunPolicy(setup, workload, *policy_a, 555);
  setup.record_minute_series = false;
  auto policy_b = MakePolicy("AIAD", nullptr);
  const RunResult summed = RunPolicy(setup, workload, *policy_b, 555);

  EXPECT_EQ(recorded.events_processed, summed.events_processed);
  ASSERT_EQ(recorded.jobs.size(), summed.jobs.size());
  for (size_t j = 0; j < recorded.jobs.size(); ++j) {
    EXPECT_EQ(recorded.jobs[j].arrivals, summed.jobs[j].arrivals) << j;
    EXPECT_EQ(recorded.jobs[j].avg_utility, summed.jobs[j].avg_utility) << j;
    EXPECT_EQ(recorded.jobs[j].avg_effective_utility,
              summed.jobs[j].avg_effective_utility)
        << j;
    EXPECT_EQ(recorded.jobs[j].avg_replicas, summed.jobs[j].avg_replicas) << j;
    EXPECT_TRUE(summed.jobs[j].minute_p99.empty()) << j;
    EXPECT_TRUE(summed.jobs[j].minute_utility.empty()) << j;
    // Attribution averages come from running totals, so they are independent
    // of whether the per-window series were recorded.
    for (size_t c = 0; c < kNumLossCauses; ++c) {
      EXPECT_EQ(recorded.jobs[j].lost_by_cause[c], summed.jobs[j].lost_by_cause[c])
          << j << " cause " << LossCauseName(c);
      EXPECT_TRUE(summed.jobs[j].minute_lost_by_cause[c].empty()) << j;
    }
    EXPECT_EQ(recorded.jobs[j].error_budget_consumed, summed.jobs[j].error_budget_consumed)
        << j;
    EXPECT_EQ(recorded.jobs[j].burn_alerts_fast, summed.jobs[j].burn_alerts_fast) << j;
  }
  // The cluster average folds the same per-job means in a different
  // (mathematically equal) order; allow FP slack there only.
  EXPECT_NEAR(recorded.cluster_avg_utility, summed.cluster_avg_utility, 1e-9);
  EXPECT_TRUE(summed.cluster_utility_timeline.empty());
}

}  // namespace
}  // namespace faro
