#include "src/sim/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>

#include "src/baselines/baselines.h"
#include "src/baselines/cilantro.h"
#include "src/common/parallel.h"
#include "src/common/stats.h"
#include "src/obs/slo.h"
#include "src/workload/synthetic.h"

namespace faro {

const TrialRaceConfig& DefaultTrialRace() {
  static const TrialRaceConfig config = [] {
    TrialRaceConfig c;
    const char* env = std::getenv("FARO_RACE");
    c.enabled = env != nullptr && env[0] == '1';
    return c;
  }();
  return config;
}

JobSpec ResNet34Spec(const std::string& name) {
  JobSpec spec;
  spec.name = name;
  spec.processing_time = 0.180;
  spec.slo = 0.720;  // 4x the per-request processing time (§6)
  spec.percentile = 0.99;
  return spec;
}

JobSpec ResNet18Spec(const std::string& name) {
  JobSpec spec;
  spec.name = name;
  spec.processing_time = 0.100;
  spec.slo = 0.400;
  spec.percentile = 0.99;
  return spec;
}

PreparedWorkload PrepareWorkload(const ExperimentSetup& setup) {
  PreparedWorkload workload;
  const std::vector<Series> traces = StandardJobMix(setup.num_jobs, setup.seed);
  const size_t steps_per_day = 1440 / std::max<size_t>(setup.window_average, 1);

  // Heterogeneous peak demand across the mix: rescaling every job to the
  // same 1-1600 range would make FairShare's equal split trivially adequate;
  // real traces have heavy hitters and light jobs.
  static constexpr double kPeakWeight[10] = {1.0, 0.45, 0.8,  0.3, 0.6,
                                             0.25, 0.9,  0.5, 0.35, 0.7};

  std::vector<Series> compressed(setup.num_jobs);
  std::vector<JobSpec> specs(setup.num_jobs);
  for (size_t i = 0; i < setup.num_jobs; ++i) {
    specs[i] = (setup.mixed_models && i % 2 == 1) ? ResNet18Spec("job" + std::to_string(i))
                                                  : ResNet34Spec("job" + std::to_string(i));
    const Series weighted = traces[i].RescaledTo(1.0, 1600.0 * kPeakWeight[i % 10]);
    // Compress 4-minute windows first so train and eval share the time base.
    compressed[i] = weighted.WindowAveraged(setup.window_average);
  }

  // Calibrate the global scale so the peak total replica demand over the
  // evaluation day matches the right-sized cluster (§6: 36 replicas for the
  // 10-job mix). Demand is the exact per-job M/D/c sizing at the p99 SLO,
  // summed across jobs and maximised over the day; bisection finds the scale
  // because that sizing is nonlinear in the arrival rate.
  auto peak_total_required = [&](double scale) {
    uint32_t peak = 0;
    for (size_t t = 0; t < steps_per_day; ++t) {
      uint32_t demand = 0;
      for (size_t i = 0; i < setup.num_jobs; ++i) {
        const size_t eval_index = compressed[i].size() - steps_per_day + t;
        const double lambda = scale * compressed[i][eval_index] / 60.0;  // req/s
        demand += RequiredReplicasMdc(lambda, specs[i].processing_time, specs[i].slo,
                                      specs[i].percentile);
      }
      peak = std::max(peak, demand);
    }
    return static_cast<double>(peak);
  };
  double scale_lo = 1e-3;
  double scale_hi = 4.0;
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (scale_lo + scale_hi);
    if (peak_total_required(mid) <= setup.right_size_replicas) {
      scale_lo = mid;
    } else {
      scale_hi = mid;
    }
  }
  const double scale = scale_lo;

  for (size_t i = 0; i < setup.num_jobs; ++i) {
    std::vector<double>& values = compressed[i].mutable_values();
    for (double& v : values) {
      v = std::max(1.0, v * scale);
    }
    const TraceSplit split = SplitTrainEval(compressed[i], steps_per_day);

    SimJobConfig job;
    job.spec = specs[i];
    job.arrival_rate_per_min = split.eval;
    job.initial_replicas = 1;
    workload.jobs.push_back(std::move(job));

    // Predictors see per-second rates at runtime (router metric windows).
    std::vector<double> per_second(split.train.size());
    for (size_t t = 0; t < split.train.size(); ++t) {
      per_second[t] = split.train[t] / 60.0;
    }
    workload.train_rates_per_s.emplace_back(std::move(per_second));
  }
  return workload;
}

std::shared_ptr<NHitsWorkloadPredictor> TrainPredictor(const PreparedWorkload& workload,
                                                       uint64_t seed, size_t epochs) {
  NHitsConfig model_config;  // 15-min history -> 7-min window (§5)
  model_config.seed = seed;
  TrainConfig train_config;
  train_config.epochs = epochs;
  train_config.seed = seed ^ 0x5eedull;
  auto predictor = std::make_shared<NHitsWorkloadPredictor>(model_config, train_config);
  predictor->TrainJobs(workload.train_rates_per_s);
  return predictor;
}

const std::vector<std::string>& AllPolicyNames() {
  static const std::vector<std::string> kNames = {
      "Faro-Sum",  "Faro-Fair", "Faro-FairSum",          "Faro-PenaltySum",
      "Faro-PenaltyFairSum",    "MArk/Cocktail/Barista", "AIAD",
      "FairShare", "Oneshot"};
  return kNames;
}

std::unique_ptr<AutoscalingPolicy> MakePolicy(
    const std::string& name, std::shared_ptr<NHitsWorkloadPredictor> predictor,
    const FaroConfig* faro_overrides) {
  if (name == "FairShare") {
    return std::make_unique<FairSharePolicy>();
  }
  if (name == "Oneshot") {
    return std::make_unique<OneshotPolicy>();
  }
  if (name == "AIAD") {
    return std::make_unique<AiadPolicy>();
  }
  if (name == "MArk/Cocktail/Barista" || name == "MArk") {
    return std::make_unique<MarkPolicy>(predictor);
  }
  if (name == "Cilantro") {
    return std::make_unique<CilantroPolicy>();
  }
  FaroConfig config = faro_overrides != nullptr ? *faro_overrides : FaroConfig{};
  if (name == "Faro-Sum") {
    config.objective = ObjectiveKind::kSum;
  } else if (name == "Faro-Fair") {
    config.objective = ObjectiveKind::kFair;
  } else if (name == "Faro-FairSum") {
    config.objective = ObjectiveKind::kFairSum;
  } else if (name == "Faro-PenaltySum") {
    config.objective = ObjectiveKind::kPenaltySum;
  } else if (name == "Faro-PenaltyFairSum") {
    config.objective = ObjectiveKind::kPenaltyFairSum;
  } else if (name != "Faro") {
    return nullptr;
  }
  return std::make_unique<FaroAutoscaler>(config, std::move(predictor));
}

TraceSession StartRunTraceSession(const ExperimentSetup& setup, const std::string& label) {
  TraceSession session;
  if (Tracer* tracer = setup.obs.ResolveTracer()) {
    session.tracer = tracer;
    session.pid = tracer->NewProcess(label);
  }
  return session;
}

SimConfig BuildSimConfig(const ExperimentSetup& setup, uint64_t trial_seed,
                         const TraceSession& trace) {
  SimConfig config;
  config.resources = ClusterResources{setup.capacity, setup.capacity};
  config.processing_jitter = setup.processing_jitter;
  config.cold_start_jitter_s = setup.cold_start_jitter_s;
  config.seed = trial_seed;
  config.trace = trace;
  config.obs_metrics = setup.obs.metrics_enabled();
  config.nodes = setup.nodes;
  config.placement_strategy = setup.placement_strategy;
  config.faults = setup.faults;
  config.record_minute_series = setup.record_minute_series;
  return config;
}

RunResult RunPolicy(const ExperimentSetup& setup, const PreparedWorkload& workload,
                    AutoscalingPolicy& policy, uint64_t trial_seed,
                    const TraceSession& trace) {
  return RunSimulation(BuildSimConfig(setup, trial_seed, trace), workload.jobs, policy);
}

namespace {

// One trial: fresh policy, per-trial RNG stream, full simulation. Safe to run
// concurrently with other trials -- the workload is read-only and the shared
// predictor serialises its (pure) forward passes internally. Only the
// configured trace trial (default 0) opens a trace session: its sim-domain
// events are a pure function of the run, so the trace stays deterministic
// even when the surrounding trials fan out across the pool.
RunResult RunOneTrial(const ExperimentSetup& setup, const PreparedWorkload& workload,
                      const std::string& policy_name,
                      const std::shared_ptr<NHitsWorkloadPredictor>& predictor,
                      const FaroConfig* faro_overrides, size_t trial) {
  TraceSession session;
  if (setup.obs.tracing() && trial == setup.obs.trace_trial) {
    session = StartRunTraceSession(setup, policy_name + "/trial" + std::to_string(trial));
  }
  FaroConfig faro_config = faro_overrides != nullptr ? *faro_overrides : FaroConfig{};
  faro_config.trace = session;
  // Decision audit mirrors the trace-trial rule: only the configured trial of
  // each policy appends records, so the JSONL stays deterministic under the
  // parallel trial fan-out (AuditLog sorts by label before writing).
  if (setup.obs.auditing() && trial == setup.obs.trace_trial) {
    faro_config.audit = &GlobalAuditLog();
    faro_config.audit_label = policy_name + "/trial" + std::to_string(trial);
  }
  auto policy = MakePolicy(policy_name, predictor, &faro_config);
  return RunPolicy(setup, workload, *policy, setup.seed + 1000 * (trial + 1), session);
}

// Serial, trial-ordered reduction of per-trial results into the paper's
// metrics. Keeping every floating-point accumulation here (never in the
// workers) is what makes parallel and serial runs bit-identical.
TrialAggregate AggregateTrials(const std::string& policy_name, size_t num_jobs,
                               std::span<const RunResult> results) {
  TrialAggregate aggregate;
  aggregate.policy = policy_name;
  std::vector<double> lost;
  std::vector<double> violations;
  std::vector<double> eu_lost;
  aggregate.per_job_lost_utility.assign(num_jobs, 0.0);
  aggregate.trials_run = results.size();
  const double trials = static_cast<double>(results.size());
  for (const RunResult& result : results) {
    lost.push_back(result.cluster_lost_utility);
    violations.push_back(result.cluster_slo_violation_rate);
    eu_lost.push_back(result.cluster_lost_effective_utility);
    for (size_t i = 0; i < result.jobs.size(); ++i) {
      aggregate.per_job_lost_utility[i] += result.jobs[i].lost_utility / trials;
    }
    for (size_t c = 0; c < kNumLossCauses; ++c) {
      aggregate.lost_by_cause_mean[c] += result.cluster_lost_by_cause[c] / trials;
    }
    aggregate.burn_alerts_fast_mean +=
        static_cast<double>(result.cluster_burn_alerts_fast) / trials;
    aggregate.burn_alerts_slow_mean +=
        static_cast<double>(result.cluster_burn_alerts_slow) / trials;
  }
  aggregate.lost_utility_mean = Mean(lost);
  aggregate.lost_utility_sd = StdDev(lost);
  aggregate.violation_rate_mean = Mean(violations);
  aggregate.violation_rate_sd = StdDev(violations);
  aggregate.lost_effective_utility_mean = Mean(eu_lost);
  aggregate.lost_effective_utility_sd = StdDev(eu_lost);
  uint64_t cycles = 0;
  double solve_seconds = 0.0;
  uint64_t evals = 0;
  uint64_t starts = 0;
  uint64_t early_exits = 0;
  uint64_t warm_hits = 0;
  uint64_t race_rounds = 0;
  uint64_t race_saved = 0;
  uint64_t pruned = 0;
  for (const RunResult& result : results) {
    cycles += result.solver.cycles;
    solve_seconds += result.solver.solve_seconds_total;
    evals += result.solver.objective_evaluations;
    starts += result.solver.starts_launched;
    early_exits += result.solver.early_exits;
    warm_hits += result.solver.warm_start_hits;
    race_rounds += result.solver.race_rounds;
    race_saved += result.solver.race_evals_saved;
    pruned += result.solver.starts_pruned;
  }
  if (cycles > 0) {
    const double c = static_cast<double>(cycles);
    aggregate.solve_ms_per_cycle_mean = 1000.0 * solve_seconds / c;
    aggregate.solver_evals_per_cycle_mean = static_cast<double>(evals) / c;
    aggregate.solver_starts_per_cycle_mean = static_cast<double>(starts) / c;
    aggregate.early_exit_rate = static_cast<double>(early_exits) / c;
    aggregate.warm_start_rate = static_cast<double>(warm_hits) / c;
    aggregate.solver_race_rounds_per_cycle_mean = static_cast<double>(race_rounds) / c;
    aggregate.solver_race_evals_saved_per_cycle_mean = static_cast<double>(race_saved) / c;
    aggregate.solver_starts_pruned_per_cycle_mean = static_cast<double>(pruned) / c;
  }
  return aggregate;
}

}  // namespace

TrialAggregate RunTrials(const ExperimentSetup& setup, const PreparedWorkload& workload,
                         const std::string& policy_name,
                         std::shared_ptr<NHitsWorkloadPredictor> predictor,
                         const FaroConfig* faro_overrides) {
  const std::vector<RunResult> results = ParallelMap(
      setup.trials,
      [&](size_t trial) {
        return RunOneTrial(setup, workload, policy_name, predictor, faro_overrides, trial);
      },
      setup.threads);
  return AggregateTrials(policy_name, workload.jobs.size(), results);
}

std::vector<TrialAggregate> RunAllPolicies(const ExperimentSetup& setup,
                                           const PreparedWorkload& workload,
                                           std::shared_ptr<NHitsWorkloadPredictor> predictor,
                                           const std::vector<std::string>& policy_names,
                                           const FaroConfig* faro_overrides,
                                           RaceReport* race_report) {
  const std::vector<std::string>& names =
      policy_names.empty() ? AllPolicyNames() : policy_names;
  if (setup.race.enabled && names.size() >= 2) {
    return RacePolicies(setup, workload, predictor, names, faro_overrides, race_report);
  }
  if (race_report != nullptr) {
    *race_report = {};
  }
  // Flatten to policies x trials so small trial counts still fill the pool.
  const size_t trials = setup.trials;
  const std::vector<RunResult> results = ParallelMap(
      names.size() * trials,
      [&](size_t task) {
        return RunOneTrial(setup, workload, names[task / trials], predictor, faro_overrides,
                           task % trials);
      },
      setup.threads);
  std::vector<TrialAggregate> aggregates;
  aggregates.reserve(names.size());
  for (size_t p = 0; p < names.size(); ++p) {
    aggregates.push_back(AggregateTrials(
        names[p], workload.jobs.size(),
        std::span<const RunResult>(results).subspan(p * trials, trials)));
  }
  return aggregates;
}

std::vector<TrialAggregate> RacePolicies(const ExperimentSetup& setup,
                                         const PreparedWorkload& workload,
                                         std::shared_ptr<NHitsWorkloadPredictor> predictor,
                                         const std::vector<std::string>& policy_names,
                                         const FaroConfig* faro_overrides,
                                         RaceReport* race_report) {
  const std::vector<std::string>& names =
      policy_names.empty() ? AllPolicyNames() : policy_names;
  const size_t arms = names.size();
  const size_t cap =
      std::max<size_t>(1, setup.race.max_trials != 0 ? setup.race.max_trials : setup.trials);
  const size_t min_trials = std::clamp<size_t>(setup.race.min_trials, 1, cap);
  std::vector<std::vector<RunResult>> per_arm(arms);
  BaiRace race(arms);
  RaceReport report;
  report.raced = true;
  report.telemetry.races = 1;
  report.telemetry.arms_total = arms;
  // Round k draws trial index k for every arm still racing, so an arm's
  // trials are always the prefix 0..n-1 of the full run's trial sequence
  // (trial seeds depend only on the index). The round fan-out parallelises;
  // the stats merge below is serial in arm order -- same bit-identical
  // contract as the full sweep.
  for (size_t trial = 0; trial < cap; ++trial) {
    std::vector<size_t> batch;
    for (size_t a = 0; a < arms; ++a) {
      if (race.active(a)) {
        batch.push_back(a);
      }
    }
    if (batch.empty()) {
      break;
    }
    ++report.telemetry.rounds;
    const std::vector<RunResult> round = ParallelMap(
        batch.size(),
        [&](size_t i) {
          return RunOneTrial(setup, workload, names[batch[i]], predictor, faro_overrides,
                             trial);
        },
        setup.threads);
    for (size_t i = 0; i < batch.size(); ++i) {
      per_arm[batch[i]].push_back(round[i]);
      race.Add(batch[i], round[i].cluster_lost_utility);
      ++report.telemetry.evaluations_spent;
    }
    if (trial + 1 < min_trials) {
      continue;
    }
    report.telemetry.arms_pruned += race.PruneSeparated(setup.race.delta);
    if (race.Decided()) {
      break;  // the incumbent has separated every rival: stop drawing trials
    }
  }
  report.telemetry.evaluations_saved =
      static_cast<uint64_t>(arms) * cap - report.telemetry.evaluations_spent;
  const size_t leader = race.Leader();
  report.winner = leader < arms ? leader : 0;
  report.winner_policy = names[report.winner];
  if (race_report != nullptr) {
    *race_report = report;
  }
  std::vector<TrialAggregate> aggregates;
  aggregates.reserve(arms);
  for (size_t a = 0; a < arms; ++a) {
    aggregates.push_back(AggregateTrials(names[a], workload.jobs.size(), per_arm[a]));
  }
  return aggregates;
}

}  // namespace faro
