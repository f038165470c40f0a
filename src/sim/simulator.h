// Matched discrete-event simulator of the Ray Serve | Kubernetes stack (§6.4).
//
// The paper validates a "matched" simulator against its cluster deployment
// (Table 7) and uses it to extrapolate to larger and smaller clusters
// (Fig. 15, Table 8). This module is that simulator, built from scratch:
//
//  - one *subcluster* per job: a Router with a FIFO queue that tail-drops at a
//    configurable threshold (50 by default, §5) and a pool of replicas, each
//    serving one request at a time with (near-)deterministic service time;
//  - scale-up incurs a cold-start delay (~60 s); scale-down removes idle
//    replicas immediately and busy replicas after their in-flight request;
//  - a Poisson load generator driven by per-minute trace rates (dropped
//    requests are failed, not resent, §6);
//  - per-minute metric windows matching §6's definitions: p99 latency with
//    dropped requests counted as infinite, per-request SLO violation rates,
//    job utility via the inverse utility function, effective utility with the
//    drop penalty;
//  - hooks that drive any AutoscalingPolicy on the long-term and reactive
//    cadences.
//
// A small noise model (service-time and cold-start jitter) emulates real
// deployment variance: benches run "cluster mode" (noise on) vs "simulation
// mode" (noise off) to regenerate Table 7's matched comparison.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/actuate/reconciler.h"
#include "src/common/series.h"
#include "src/core/policy.h"
#include "src/faults/faultplan.h"
#include "src/obs/attribution.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/sim/placement.h"

namespace faro {

struct SimJobConfig {
  JobSpec spec;
  // Arrival rates per one-minute step (requests per minute).
  Series arrival_rate_per_min;
  uint32_t initial_replicas = 1;
};

// One job's closed metrics window, as delivered to a SimMinuteObserver the
// moment the window closes. Every field is computed by the shared
// CloseMetricsWindowCore, so the values match the batch minute series
// bit-for-bit; observing a run never perturbs it (no RNG draws, no state).
struct MinuteSnapshot {
  uint32_t job = 0;       // index into the run's job vector
  double end_s = 0.0;     // sim time of the window close
  double arrivals = 0.0;  // requests that arrived in the window
  double violations = 0.0;
  double drop_rate = 0.0;  // fraction of the window's arrivals
  double p99 = 0.0;
  double utility = 0.0;
  double replicas = 0.0;  // provisioned (ready + starting) at the close
  double burn_fast = 0.0;  // 1 h-window error-budget burn rate
  double burn_slow = 0.0;  // 6 h-window error-budget burn rate
  bool alert_fast = false;
  bool alert_slow = false;
  double budget_remaining_frac = 1.0;  // run-to-date; negative when overspent
};

// Streaming hook for live consumers (the faro_serve telemetry daemon). The
// engine invokes it serially, in job order, on the thread driving the run, so
// implementations need no locking against the simulation itself.
class SimMinuteObserver {
 public:
  virtual ~SimMinuteObserver() = default;
  virtual void OnMinute(const MinuteSnapshot& snapshot) = 0;
};

// Streaming hook for published desired states (the faro_serve live actuator).
// The engine invokes it on the thread driving the run, immediately after a
// decision is stamped with its generation and handed to the virtual-time
// reconciler. Observing never perturbs the
// run: no RNG draws, no simulation state, and the engine does not wait on
// anything the observer does with the copy.
class DesiredStateObserver {
 public:
  virtual ~DesiredStateObserver() = default;
  virtual void OnPublish(const DesiredState& desired) = 0;
};

struct SimConfig {
  ClusterResources resources;
  double cold_start_s = 60.0;
  // "Cluster mode" noise: cold starts are uniform in +-jitter around the
  // mean, service times get a lognormal-ish fractional jitter.
  double cold_start_jitter_s = 0.0;
  double processing_jitter = 0.0;
  size_t router_queue_limit = 50;
  // Optional node model: when non-empty, every replica must be *placed* on a
  // node (strategy below); replicas that do not fit stay Pending and are
  // retried each reactive tick -- fragmentation can delay scale-ups even when
  // aggregate capacity exists, exactly like the K8s scheduler underneath the
  // paper's stack.
  std::vector<Node> nodes;
  PlacementStrategy placement_strategy = PlacementStrategy::kSpread;
  // Chaos injection (src/faults/): scheduled node crash/drain/recover events,
  // correlated replica bursts, cold-start stragglers, and actuation faults.
  // The injector draws from its own RNG stream (seeded from this config's
  // seed and the plan's seed), so an inactive plan leaves the run bit-
  // identical to a build without the fault subsystem. A failing replica
  // drains its in-flight request and exits, so capacity (not requests) is
  // lost -- the autoscaler must notice and re-provision.
  FaultPlan faults;
  double reactive_interval_s = 10.0;
  uint64_t seed = 1;
  // Observability (src/obs/): request-lifecycle spans (queue-wait, cold
  // start, service, drops) are recorded against *sim time* into this session
  // when set, so the trace is deterministic; `obs_metrics` additionally feeds
  // the process-wide metrics registry. Both default off (null sink) and
  // neither perturbs the simulation -- no RNG draws, no FP changes.
  TraceSession trace;
  bool obs_metrics = false;
  // Per-minute output series (JobRunStats::minute_*, the cluster timelines).
  // Hyperscale runs switch this off to keep memory flat: averages are then
  // maintained as running sums and the timelines come back empty.
  bool record_minute_series = true;
  // Live per-window stream (see SimMinuteObserver above). Null (the default)
  // costs nothing; a non-null observer sees every job's window in job order
  // as it closes and must outlive the run.
  SimMinuteObserver* minute_observer = nullptr;
  // Live desired-state stream (see DesiredStateObserver above). Null costs
  // nothing; a non-null observer sees every published generation in order
  // and must outlive the run.
  DesiredStateObserver* desired_observer = nullptr;
  // Decision-audit sink for actuation records (one per converged generation,
  // label `audit_label + "/actuate"`). Null disables; the log must outlive
  // the run. Virtual-time fields only, so records are deterministic.
  AuditLog* audit = nullptr;
  std::string audit_label;
};

struct JobRunStats {
  std::string name;
  uint64_t arrivals = 0;
  uint64_t drops = 0;
  uint64_t violations = 0;  // requests exceeding the SLO (drops included)
  double slo_violation_rate = 0.0;
  double avg_utility = 0.0;            // mean over minutes of U(p99_minute)
  double lost_utility = 0.0;           // 1 - avg_utility
  double avg_effective_utility = 0.0;  // with the drop penalty (Eq. 2)
  double avg_replicas = 0.0;
  // --- fault / recovery accounting (zeros in fault-free runs) --------------
  // Replicas killed under this job by any injection path (node crash/drain,
  // correlated bursts).
  uint64_t injected_failures = 0;
  // Integral of the replica deficit (kill-time target minus live replicas)
  // over time: how much provisioned capacity the faults actually cost.
  double capacity_seconds_lost = 0.0;
  // Total time spent below the kill-time replica target (deficit > 0).
  double recovery_seconds = 0.0;
  // Minutes x 60 from the first fault until the job's per-minute utility
  // first returns to within 0.05 of its pre-fault mean (-1 if it never does,
  // 0 when no fault touched the job).
  double utility_reconverge_s = 0.0;
  // --- SLO ledger & causal attribution (src/obs/) ---------------------------
  // Per-cause lost utility, averaged over metric windows (enum order from
  // attribution.h). Their left-to-right sum matches lost_utility up to
  // floating-point reassociation; the bit-exact per-window invariant is
  // carried by minute_lost_by_cause.
  std::array<double, kNumLossCauses> lost_by_cause{};
  double error_budget_allowed = 0.0;        // allowance x arrivals
  double error_budget_consumed = 0.0;       // violating requests
  double error_budget_remaining_frac = 1.0;  // negative when overspent
  uint64_t burn_alerts_fast = 0;  // 1 h-window alert onsets (burn >= 14.4)
  uint64_t burn_alerts_slow = 0;  // 6 h-window alert onsets (burn >= 6)
  double first_burn_alert_s = -1.0;
  double max_burn_fast = 0.0;
  double max_burn_slow = 0.0;
  std::vector<double> minute_p99;
  std::vector<double> minute_utility;
  std::vector<double> minute_arrivals;   // requests per minute
  std::vector<double> minute_drop_rate;  // fraction of the minute's arrivals
  std::vector<double> minute_replicas;
  // Per-window attribution buckets: for every window w, the left-to-right
  // sum over causes is bit-identical to max(0, 1 - minute_utility[w]).
  std::array<std::vector<double>, kNumLossCauses> minute_lost_by_cause;
  std::vector<double> minute_violations;
  std::vector<double> minute_burn_fast;
  std::vector<double> minute_burn_slow;
};

struct RunResult {
  std::vector<JobRunStats> jobs;
  double cluster_avg_utility = 0.0;       // mean over minutes of sum_i U_i
  double cluster_lost_utility = 0.0;      // num_jobs - avg
  double cluster_avg_effective_utility = 0.0;
  double cluster_lost_effective_utility = 0.0;
  // §6: cluster SLO violation rate = average of per-job violation rates.
  double cluster_slo_violation_rate = 0.0;
  std::vector<double> cluster_utility_timeline;  // per minute
  std::vector<double> total_load_timeline;       // requests per minute
  // Stage-2 solver telemetry reported by the policy (zeros for baselines).
  SolverTelemetry solver;
  // What the chaos layer actually did (all-zero when the plan was inactive).
  FaultStats faults;
  // Chronological applied-fault log for reports and determinism checks.
  std::vector<AppliedFault> fault_log;
  // Cluster-level causal decomposition: per-cause sums of the jobs'
  // lost_by_cause averages (comparable to cluster_lost_utility).
  std::array<double, kNumLossCauses> cluster_lost_by_cause{};
  // Cluster burn-alert totals across jobs.
  uint64_t cluster_burn_alerts_fast = 0;
  uint64_t cluster_burn_alerts_slow = 0;
  // Engine telemetry: discrete events processed (arrivals, completions,
  // replica readies, ticks) and the peak per-minute provisioned replica
  // count summed across jobs. Measurement, not simulation state.
  uint64_t events_processed = 0;
  double cluster_peak_replicas = 0.0;
  // Scheduler growth: the largest future-event heap population (everything
  // but arrivals) and the largest one-minute arrival batch of the run.
  uint64_t peak_event_set_size = 0;
  uint64_t peak_arrival_batch_size = 0;
  // Reconciling-actuator convergence telemetry (src/actuate/).
  ReconcileTelemetry actuation;
};

// Empty string when `config` is well formed (fault plan included); otherwise
// a description of the first problem. RunSimulation throws invalid_argument
// with this message rather than silently misbehaving.
std::string ValidateSimConfig(const SimConfig& config);

// Runs the policy against the trace-driven cluster. The run length is the
// shortest job trace (in minutes).
RunResult RunSimulation(const SimConfig& config, const std::vector<SimJobConfig>& jobs,
                        AutoscalingPolicy& policy);

// Incremental run driver. MakeSimStepper primes a run (initial replicas,
// minute-0 arrivals, control ticks) and returns a stepper that processes
// events on demand; RunSimulation itself is implemented as
// StepUntil(+infinity) followed by Finish(), so a paced run -- stepping to
// successive wall-clock targets -- executes the *same* code over the same
// event order and produces bit-identical results to the batch call. Pacing
// only throttles delivery; it can never reorder events.
//
// Contract: `until_s` must be non-decreasing across calls. Finish() may be
// called once; the canonical sequence finishes after done() turns true
// (StepUntil past duration_s()), but an interrupted driver (the replay
// daemon winding down on SIGTERM) may finish early and gets the aggregation
// of everything processed so far. The config, jobs, and policy must outlive
// the stepper (they are referenced, not copied), matching RunSimulation's
// borrowing.
class SimStepper {
 public:
  virtual ~SimStepper() = default;

  // Sim end time: shortest job trace in minutes x 60.
  virtual double duration_s() const = 0;
  // Sim time reached so far (last processed event or step target).
  virtual double now_s() const = 0;
  // True once every event at or before duration_s() has been processed.
  virtual bool done() const = 0;
  // Processes every pending event with time <= min(until_s, duration_s()),
  // in exactly the order the batch loop would.
  virtual void StepUntil(double until_s) = 0;
  // Aggregates and returns the run result (the batch RunResult).
  virtual RunResult Finish() = 0;
};

// Validates `config` (throws std::invalid_argument like RunSimulation) and
// returns a primed stepper.
std::unique_ptr<SimStepper> MakeSimStepper(const SimConfig& config,
                                           const std::vector<SimJobConfig>& jobs,
                                           AutoscalingPolicy& policy);

}  // namespace faro

#endif  // SRC_SIM_SIMULATOR_H_
