// Experiment harness: assembles the paper's evaluation setup (§6) end to end
// so benches and examples share one code path.
//
//  - the standard job mix: 9 Azure-like + 1 Twitter-like traces rescaled to
//    1-1600 req/min, 11 days, 4-minute window averaging, days 1-10 train /
//    day 11 eval;
//  - ResNet34-shaped jobs (p = 180 ms, SLO = 720 ms = 4p at p99), optionally
//    mixed with ResNet18-shaped jobs (p = 100 ms, SLO = 400 ms) for the
//    Fig. 14 experiment;
//  - per-job probabilistic N-HiTS predictor training;
//  - a policy factory covering every system in the evaluation;
//  - multi-trial runs with mean/SD aggregation of the paper's metrics.

#ifndef SRC_SIM_HARNESS_H_
#define SRC_SIM_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/autoscaler.h"
#include "src/forecast/adapter.h"
#include "src/obs/obs.h"
#include "src/optim/bai.h"
#include "src/sim/simulator.h"

namespace faro {

// Trial racing (BAI; see src/optim/bai.h): RunAllPolicies streams per-trial
// lost utility into per-policy arm statistics and stops drawing trials for a
// policy once the incumbent (lowest-mean arm) is statistically separated from
// it at the configured confidence. Rounds are barriers -- every arm still
// racing draws trial k before any arm draws trial k+1 -- and the stats merge
// is serial in arm order, so raced results are bit-identical at every thread
// count, and a raced arm's aggregate equals the full run's aggregate over its
// first n trials (trial seeds depend only on the trial index). Full-run mode
// stays the default for the committed tables; benches opt in with --race or
// FARO_RACE=1.
struct TrialRaceConfig {
  bool enabled = false;
  // Trials every arm draws before the stopping rule may stop it (the radius
  // is infinite below two observations anyway).
  size_t min_trials = 2;
  // Trial cap per arm; 0 = ExperimentSetup::trials.
  size_t max_trials = 0;
  // Stopping-rule confidence.
  double delta = 0.05;
};

// Process-wide default, read once from the FARO_RACE environment variable
// ("1" enables; BenchObs translates --race into it).
const TrialRaceConfig& DefaultTrialRace();

// Outcome of one raced sweep (see RunAllPolicies).
struct RaceReport {
  bool raced = false;
  RacingTelemetry telemetry;  // evaluations are trials here
  size_t winner = 0;          // index into the returned aggregates
  std::string winner_policy;
};

// Unread vestige of the deleted second engine; see ExperimentSetup::engine.
enum class SimEngine : uint8_t { kClassic };

struct ExperimentSetup {
  size_t num_jobs = 10;
  double capacity = 32.0;  // total replicas (1 vCPU / 1 GB each)
  size_t trials = 3;
  uint64_t seed = 42;
  // Fig. 14: even-indexed jobs ResNet34, odd-indexed ResNet18.
  bool mixed_models = false;
  // "Cluster mode" noise (Table 7): real deployments jitter service times and
  // cold starts; the clean simulator sets both to zero.
  double processing_jitter = 0.05;
  double cold_start_jitter_s = 10.0;
  // Trace compression: 4-minute windows averaged into one sim-minute (§6).
  size_t window_average = 4;
  size_t days = 11;
  // The workload is calibrated so the peak total replica demand over the
  // evaluation day is about this many replicas -- the paper's "right-sized"
  // cluster (36 for the 10-job mix; clusters below are oversubscribed, above
  // undersubscribed). Scales linearly with the job count by default.
  double right_size_replicas = 36.0;
  // Parallelism for RunTrials / RunAllPolicies: 0 = the shared pool's size
  // (FARO_THREADS env var, else hardware concurrency); 1 forces the serial
  // in-order path. Results are bit-identical at every setting -- each trial
  // owns its RNG stream (seed + 1000 * (trial + 1)) and aggregation always
  // runs serially in trial order.
  size_t threads = 0;
  // Observability sinks (src/obs/): defaults to the process-wide config that
  // bench --metrics-out / --trace-out flags install -- the null sink unless
  // asked for. Tracing records only trial `obs.trace_trial` of each policy
  // (deterministic on its own; see obs.h); metrics cover every trial.
  ObsConfig obs = DefaultObsConfig();
  // Optional node-level placement model and chaos plan (src/faults/), copied
  // verbatim into SimConfig. Empty `nodes` keeps the flat capacity-only
  // model; an inactive plan leaves runs bit-identical to a chaos-free build.
  std::vector<Node> nodes;
  PlacementStrategy placement_strategy = PlacementStrategy::kSpread;
  FaultPlan faults;
  // Unread: the simulator has one engine. Kept only because the benchmark
  // program (perfbench/faro_perfbench.cc) still assigns it; the next change
  // to the benchmark deletes that line, then this field and SimEngine.
  SimEngine engine = SimEngine::kClassic;
  // Copied verbatim into SimConfig: whether per-minute output series are
  // recorded (hyperscale runs turn them off to keep memory flat).
  bool record_minute_series = true;
  // Trial racing, defaulting from the process-wide --race / FARO_RACE switch
  // so existing benches inherit it without code changes.
  TrialRaceConfig race = DefaultTrialRace();
};

// Job specs plus train/eval traces, all in simulator units (traces are req
// per sim-minute; training series are req/s to match runtime histories).
struct PreparedWorkload {
  std::vector<SimJobConfig> jobs;        // spec + eval trace
  std::vector<Series> train_rates_per_s; // per-job predictor training series
};

PreparedWorkload PrepareWorkload(const ExperimentSetup& setup);

// ResNet34 / ResNet18 job specs as deployed in §6.
JobSpec ResNet34Spec(const std::string& name);
JobSpec ResNet18Spec(const std::string& name);

// Trains one probabilistic N-HiTS model per job, jobs in parallel on the
// shared pool (NHitsWorkloadPredictor::TrainJobs; bit-identical to training
// them one after another).
std::shared_ptr<NHitsWorkloadPredictor> TrainPredictor(const PreparedWorkload& workload,
                                                       uint64_t seed,
                                                       size_t epochs = 10);

// Policy factory. Known names: "FairShare", "Oneshot", "AIAD",
// "MArk/Cocktail/Barista", "Cilantro", "Faro-Sum", "Faro-Fair",
// "Faro-FairSum", "Faro-PenaltySum", "Faro-PenaltyFairSum". Faro policies
// take the shared trained predictor (may be nullptr for the damped-average
// fallback) and optional config overrides.
std::unique_ptr<AutoscalingPolicy> MakePolicy(
    const std::string& name, std::shared_ptr<NHitsWorkloadPredictor> predictor,
    const FaroConfig* faro_overrides = nullptr);

// Every policy name in the order Table 7 reports them.
const std::vector<std::string>& AllPolicyNames();

// Starts a trace session (one trace "process" named `label`) for a single
// run when `setup.obs` has tracing enabled; returns the null session
// otherwise. RunTrials does this per traced trial internally; direct
// RunPolicy callers opt in with this helper and pass the session both to the
// policy (FaroConfig::trace) and to RunPolicy.
TraceSession StartRunTraceSession(const ExperimentSetup& setup, const std::string& label);

// The exact SimConfig RunPolicy assembles from a setup. Exposed so live
// drivers (the faro_serve replay daemon) can build a bit-identical run from
// the same setup -- adding only a minute observer, which never perturbs the
// simulation -- and step it under a pacing clock.
SimConfig BuildSimConfig(const ExperimentSetup& setup, uint64_t trial_seed,
                         const TraceSession& trace = {});

// Runs one policy once over the prepared workload. `trace` (optional) binds
// the simulator's request-lifecycle spans to a session from
// StartRunTraceSession.
RunResult RunPolicy(const ExperimentSetup& setup, const PreparedWorkload& workload,
                    AutoscalingPolicy& policy, uint64_t trial_seed,
                    const TraceSession& trace = {});

// Paper metrics aggregated over `setup.trials` independent runs.
struct TrialAggregate {
  std::string policy;
  size_t trials_run = 0;  // trials behind the means (racing may stop early)
  double lost_utility_mean = 0.0;
  double lost_utility_sd = 0.0;
  double violation_rate_mean = 0.0;
  double violation_rate_sd = 0.0;
  double lost_effective_utility_mean = 0.0;
  double lost_effective_utility_sd = 0.0;
  // Per-job lost utility (averaged over trials), for the fairness box plots.
  std::vector<double> per_job_lost_utility;
  // Stage-2 solver telemetry, averaged over trials (zeros for baselines).
  // Wall-clock means are measurement, not simulation state: they vary run to
  // run and are excluded from the bit-identical determinism contract.
  double solve_ms_per_cycle_mean = 0.0;
  double solver_evals_per_cycle_mean = 0.0;
  double solver_starts_per_cycle_mean = 0.0;
  double early_exit_rate = 0.0;   // fraction of solves won by early exit
  double warm_start_rate = 0.0;   // fraction of solves reusing the cached solution
  // BAI racing inside the multi-start driver (zeros when racing is off).
  double solver_race_rounds_per_cycle_mean = 0.0;
  double solver_race_evals_saved_per_cycle_mean = 0.0;
  double solver_starts_pruned_per_cycle_mean = 0.0;
  // Cluster-level causal decomposition of lost utility (enum order from
  // src/obs/attribution.h), averaged over trials; SLO burn-alert onset totals
  // likewise.
  std::array<double, kNumLossCauses> lost_by_cause_mean{};
  double burn_alerts_fast_mean = 0.0;
  double burn_alerts_slow_mean = 0.0;
};

TrialAggregate RunTrials(const ExperimentSetup& setup, const PreparedWorkload& workload,
                         const std::string& policy_name,
                         std::shared_ptr<NHitsWorkloadPredictor> predictor,
                         const FaroConfig* faro_overrides = nullptr);

// Fans the full policy sweep out over policies x trials on the shared thread
// pool (the Table-7 / Fig. 10-13 shape) and returns one aggregate per policy,
// in `policy_names` order. Equivalent to -- and bit-identical with -- calling
// RunTrials once per name serially; an empty name list means AllPolicyNames().
// With `setup.race.enabled` (and at least two policies) the sweep is raced
// via RacePolicies instead; `race_report` (optional) receives the outcome
// either way (`raced = false` for a full run).
std::vector<TrialAggregate> RunAllPolicies(const ExperimentSetup& setup,
                                           const PreparedWorkload& workload,
                                           std::shared_ptr<NHitsWorkloadPredictor> predictor,
                                           const std::vector<std::string>& policy_names = {},
                                           const FaroConfig* faro_overrides = nullptr,
                                           RaceReport* race_report = nullptr);

// Trial racing entry point: rounds of one trial per still-active policy arm,
// stopping arms the incumbent has separated at `setup.race.delta` (see
// TrialRaceConfig above). Ignores `setup.race.enabled` -- callers that want
// the full sweep call RunAllPolicies with racing off.
std::vector<TrialAggregate> RacePolicies(const ExperimentSetup& setup,
                                         const PreparedWorkload& workload,
                                         std::shared_ptr<NHitsWorkloadPredictor> predictor,
                                         const std::vector<std::string>& policy_names = {},
                                         const FaroConfig* faro_overrides = nullptr,
                                         RaceReport* race_report = nullptr);

}  // namespace faro

#endif  // SRC_SIM_HARNESS_H_
