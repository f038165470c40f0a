// Table 9 (extension): hyperscale engine throughput. The paper stops at 100
// jobs / 320 replicas (Table 8); ROADMAP's north star is the claimed
// deployment scale of thousands of jobs. This bench drives the event engine
// with a synthetic diurnal fleet -- 5000 jobs, >100k provisioned replicas,
// ~10^8 requests per simulated day under AIAD -- and reports wall-clock,
// event throughput, and peak memory alongside the quality metrics, so engine
// regressions show up as numbers rather than vibes.
//
// The workload is synthesized directly (no trace files, no predictor
// training): per-job sinusoidal diurnal rates with deterministic per-job
// base rate and phase. AIAD is the policy -- O(jobs) per decision, so the
// bench measures the *engine*, not the solver.
//
// FARO_BENCH_FAST=1 shrinks to 500 jobs x 4 simulated hours (the CI
// perf-smoke shape). --bench-json writes BENCH_tab09_hyperscale.json.

#include <cmath>
#include <cstdio>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/harness.h"

namespace faro {
namespace {

constexpr double kServiceTimeS = 90.0;  // batch-ish inference, long services
constexpr double kSloS = 360.0;         // 4x service time at p99

// Deterministic per-job parameters (no RNG: reproducible by construction).
double BaseRatePerMin(size_t job) {
  return 8.0 + 16.0 * (static_cast<double>(job % 97) / 96.0);  // 8..24 req/min
}

double Phase(size_t job) { return static_cast<double>(job % 41) / 41.0; }

std::vector<SimJobConfig> BuildFleet(size_t num_jobs, size_t minutes) {
  std::vector<SimJobConfig> jobs;
  jobs.reserve(num_jobs);
  for (size_t j = 0; j < num_jobs; ++j) {
    SimJobConfig job;
    job.spec.name = "job" + std::to_string(j);
    job.spec.slo = kSloS;
    job.spec.processing_time = kServiceTimeS;
    job.spec.percentile = 0.99;
    const double base = BaseRatePerMin(j);
    std::vector<double> trace;
    trace.reserve(minutes);
    for (size_t m = 0; m < minutes; ++m) {
      const double day_frac = static_cast<double>(m) / 1440.0;
      const double diurnal =
          1.0 + 0.5 * std::sin(2.0 * M_PI * (day_frac + Phase(j)));
      trace.push_back(base * diurnal);
    }
    job.arrival_rate_per_min = Series(std::move(trace));
    // Right-size for the diurnal peak (1.5x base): Erlang load = rate/60 * p,
    // plus headroom so the run measures steady-state throughput, not a
    // cold-start avalanche. AIAD trims from here.
    const double peak_busy = base * 1.5 / 60.0 * kServiceTimeS;
    job.initial_replicas = static_cast<uint32_t>(std::ceil(peak_busy * 1.15)) + 1;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct BenchRun {
  double wall_s = 0.0;
  RunResult result;
  uint64_t requests = 0;
  double replicas_avg = 0.0;
};

BenchRun RunFleet(const std::vector<SimJobConfig>& jobs) {
  SimConfig config;
  double total_initial = 0.0;
  for (const SimJobConfig& job : jobs) {
    total_initial += static_cast<double>(job.initial_replicas);
  }
  config.resources = ClusterResources{1.25 * total_initial, 1.25 * total_initial};
  config.processing_jitter = 0.05;
  config.cold_start_jitter_s = 10.0;
  config.record_minute_series = false;  // flat memory at fleet scale
  config.seed = 20250808;
  // --metrics-out feeds the simulator's registry (event-set peaks included).
  config.obs_metrics = DefaultObsConfig().metrics_enabled();

  auto policy = MakePolicy("AIAD", nullptr);
  const auto start = std::chrono::steady_clock::now();
  BenchRun run;
  run.result = RunSimulation(config, jobs, *policy);
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                   .count();
  for (const JobRunStats& job : run.result.jobs) {
    run.requests += job.arrivals;
    run.replicas_avg += job.avg_replicas;
  }
  return run;
}

void PrintRun(const BenchRun& run) {
  const double events_per_sec =
      run.wall_s > 0.0 ? static_cast<double>(run.result.events_processed) / run.wall_s
                       : 0.0;
  std::printf("%8.2f s   %11llu events  %8.2f M ev/s  %9llu req  "
              "%8.0f avg / %8.0f peak replicas   lost utility %.3f\n",
              run.wall_s, static_cast<unsigned long long>(run.result.events_processed),
              events_per_sec / 1e6, static_cast<unsigned long long>(run.requests),
              run.replicas_avg, run.result.cluster_peak_replicas,
              run.result.cluster_lost_utility);
}

}  // namespace
}  // namespace faro

int main(int argc, char** argv) {
  faro::BenchObs obs(argc, argv);
  const bool fast = faro::FastBench();
  const size_t num_jobs = fast ? 500 : 5000;
  const size_t minutes = fast ? 240 : 1440;  // 4 hours vs one full day
  faro::PrintHeader("Table 9: hyperscale engine throughput");
  std::printf("%zu jobs, %zu simulated minutes, AIAD, record_minute_series=off\n\n",
              num_jobs, minutes);

  const std::vector<faro::SimJobConfig> jobs = faro::BuildFleet(num_jobs, minutes);
  const faro::BenchRun run = faro::RunFleet(jobs);
  faro::PrintRun(run);

  faro::BenchJson& json = obs.json();
  json.Set("jobs", static_cast<double>(num_jobs));
  json.Set("sim_minutes", static_cast<double>(minutes));
  json.Set("events", static_cast<double>(run.result.events_processed));
  json.Set("requests", static_cast<double>(run.requests));
  json.Set("replicas_avg", run.replicas_avg);
  json.Set("replicas_peak", run.result.cluster_peak_replicas);
  json.Set("lost_utility", run.result.cluster_lost_utility);
  json.Set("violation_rate", run.result.cluster_slo_violation_rate);
  return 0;
}
