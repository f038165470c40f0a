// Internal per-job state and helpers of the simulation engine (simulator.cc:
// one event loop, one RNG stream). Everything here is per-job arithmetic with
// no RNG draws: the router queue over the SoA request pool, metric-window
// bookkeeping, overload timers, and end-of-run stats finalisation.
//
// This header is private to src/sim/.

#ifndef SRC_SIM_SIM_INTERNAL_H_
#define SRC_SIM_SIM_INTERNAL_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/pool.h"
#include "src/common/stats.h"
#include "src/core/objectives.h"
#include "src/core/penalty.h"
#include "src/core/policy.h"
#include "src/core/utility.h"
#include "src/obs/attribution.h"
#include "src/obs/slo.h"
#include "src/sim/simulator.h"

namespace faro {
namespace sim_internal {

inline constexpr double kInfLatency = std::numeric_limits<double>::infinity();

// Per-job subcluster state. The engine owns a vector of these, one per job.
struct JobState {
  // --- replica pool -------------------------------------------------------
  uint32_t ready = 0;     // provisioned replicas (busy + idle)
  uint32_t busy = 0;      // replicas serving a request right now
  uint32_t starting = 0;  // replicas still cold-starting
  // Busy replicas slated for removal once their in-flight request finishes.
  uint32_t pending_removal = 0;
  // Cold starts that were cancelled by a later downscale; ReplicaReady events
  // for them are ignored.
  uint32_t cancelled_starts = 0;

  // --- router -------------------------------------------------------------
  // FIFO of queued requests; the per-request state (arrival time, link) lives
  // in the engine's struct-of-arrays RequestPool.
  RequestQueue queue;
  double explicit_drop_rate = 0.0;

  // --- rolling latency window for the reactive overload detector -----------
  std::deque<std::pair<double, double>> recent_latencies;  // (time, latency)

  // --- per-window accumulators ---------------------------------------------
  uint64_t window_arrivals = 0;
  uint64_t window_drops = 0;
  std::vector<double> window_latencies;
  RunningStats window_processing;

  // --- totals and history --------------------------------------------------
  uint64_t total_arrivals = 0;
  uint64_t total_drops = 0;
  uint64_t total_violations = 0;
  std::vector<double> arrival_history;  // req/s per completed window
  double last_window_rate = 0.0;        // req/s
  double last_window_drop_rate = 0.0;
  double last_p99 = 0.0;                // p99 of the last completed window
  double smoothed_processing = 0.0;
  double overloaded_for = 0.0;
  double underloaded_for = 0.0;

  // --- fault bookkeeping ----------------------------------------------------
  // Replicas killed under this job by any injection path.
  uint64_t injected_failures = 0;
  // Ready-replica count the job had when it was last hit; cleared once the
  // pool climbs back (or the autoscaler deliberately targets lower).
  uint32_t recover_target = 0;
  // pending_removal entries whose placement was already freed by a node
  // eviction; the completion handler consumes these instead of freeing again.
  uint32_t placement_credit = 0;
  double fault_first_s = -1.0;  // sim time of the first fault hitting this job
  double capacity_seconds_lost = 0.0;
  double recovery_seconds = 0.0;

  // --- SLO ledger & causal attribution (src/obs/slo.h, attribution.h) ------
  // Evidence weights for the open metrics window; reset on every close.
  double attr_wait_s = 0.0;        // queue wait of requests entering service
  double attr_cold_s = 0.0;        // cold-start delay incurred by provisions
  double attr_fault_s = 0.0;       // replica-seconds of fault-induced deficit
  double attr_act_units = 0.0;     // replicas denied/deferred by actuation
  double attr_ladder_units = 0.0;  // degraded autoscaler decisions
  // Run totals of the per-window buckets (enum order; see attribution.h).
  std::array<double, kNumLossCauses> attr_totals{};
  SloLedger slo_ledger;

  // --- per-minute outputs ---------------------------------------------------
  // Running sums are always maintained; the vectors fill only when
  // SimConfig::record_minute_series is set (hyperscale runs switch them off
  // to keep memory flat at thousands of jobs x thousands of minutes).
  size_t minute_count = 0;
  double utility_sum = 0.0;
  double eu_sum = 0.0;
  double replicas_sum = 0.0;
  std::vector<double> minute_p99;
  std::vector<double> minute_utility;
  std::vector<double> minute_eu;
  std::vector<double> minute_arrivals;
  std::vector<double> minute_drop_rate;
  std::vector<double> minute_replicas;
  std::array<std::vector<double>, kNumLossCauses> minute_lost_by_cause;
  std::vector<double> minute_violations;
  std::vector<double> minute_burn_fast;
  std::vector<double> minute_burn_slow;
};

// The degradation-ladder counters that mark a decision cycle as degraded for
// attribution (actuation retries have their own bucket via ApplyAction, and
// capacity re-solves are adaptive responses, not losses).
inline uint64_t LadderDegradations(const SolverTelemetry& t) {
  return t.deadline_misses + t.fallback_warm + t.fallback_heuristic +
         t.forecast_fallbacks;
}

// Sorted-copy percentile without allocating per call: `scratch` is reused
// across invocations by the engine.
inline double ScratchPercentile(std::vector<double>& scratch,
                                const std::vector<double>& values, double q) {
  scratch.assign(values.begin(), values.end());
  std::sort(scratch.begin(), scratch.end());
  return PercentileSorted(scratch, q);
}

// Closes one metrics window for one job: arrival-rate history, p99, utility,
// effective utility, replica gauge, SLO-ledger fold, lost-utility attribution;
// resets the window accumulators. Pure per-job arithmetic -- no RNG. `end_s`
// is the sim time of the close.
// When `snap` is non-null it is filled with the window's values (for
// SimMinuteObserver delivery) before the accumulators reset; filling it
// reads, never writes, the job state, so observed and unobserved runs are
// bit-identical.
inline void CloseMetricsWindowCore(JobState& js, const JobSpec& spec,
                                   double end_s, double window_s,
                                   size_t history_steps, bool record_series,
                                   std::vector<double>& scratch,
                                   MinuteSnapshot* snap = nullptr) {
  const double rate = static_cast<double>(js.window_arrivals) / window_s;  // req/s
  js.arrival_history.push_back(rate);
  if (js.arrival_history.size() > history_steps) {
    js.arrival_history.erase(js.arrival_history.begin());
  }
  js.last_window_rate = rate;
  js.last_window_drop_rate =
      js.window_arrivals > 0
          ? static_cast<double>(js.window_drops) / static_cast<double>(js.window_arrivals)
          : 0.0;
  if (js.window_processing.count() > 0) {
    js.smoothed_processing = js.window_processing.mean();
  }

  const double p99 = js.window_latencies.empty()
                         ? 0.0
                         : ScratchPercentile(scratch, js.window_latencies, spec.percentile);
  js.last_p99 = p99;
  const double utility = RelaxedUtility(p99, spec.slo);
  const double eu = StepPenaltyMultiplier(js.last_window_drop_rate) * utility;
  const double replicas = static_cast<double>(js.ready + js.starting);

  ++js.minute_count;
  js.utility_sum += utility;
  js.eu_sum += eu;
  js.replicas_sum += replicas;

  // --- SLO ledger + causal attribution. Everything below only reads the
  // window state and writes *new* fields, so pre-existing outputs (and
  // fault-free bit-identity across PRs) are untouched.
  uint64_t window_violations = 0;
  for (const double latency : js.window_latencies) {
    if (latency > spec.slo) {
      ++window_violations;
    }
  }
  js.slo_ledger.set_allowance(1.0 - spec.percentile);
  const SloLedger::Observation slo_obs =
      js.slo_ledger.Observe(end_s, static_cast<double>(js.window_arrivals),
                            static_cast<double>(window_violations));
  const double lost = std::max(0.0, 1.0 - utility);
  AttributionInputs attr_in;
  attr_in.arrivals = static_cast<double>(js.window_arrivals);
  attr_in.drops = static_cast<double>(js.window_drops);
  attr_in.wait_seconds = js.attr_wait_s;
  attr_in.cold_start_seconds = js.attr_cold_s;
  attr_in.fault_deficit_seconds = js.attr_fault_s;
  attr_in.actuation_units = js.attr_act_units;
  attr_in.ladder_units = js.attr_ladder_units;
  attr_in.window_s = window_s;
  attr_in.slo_s = spec.slo;
  const std::array<double, kNumLossCauses> buckets =
      AttributeLostUtility(lost, attr_in);
  for (size_t c = 0; c < kNumLossCauses; ++c) {
    js.attr_totals[c] += buckets[c];
  }

  if (record_series) {
    js.minute_p99.push_back(p99);
    js.minute_utility.push_back(utility);
    js.minute_eu.push_back(eu);
    js.minute_arrivals.push_back(static_cast<double>(js.window_arrivals));
    js.minute_drop_rate.push_back(js.last_window_drop_rate);
    js.minute_replicas.push_back(replicas);
    for (size_t c = 0; c < kNumLossCauses; ++c) {
      js.minute_lost_by_cause[c].push_back(buckets[c]);
    }
    js.minute_violations.push_back(static_cast<double>(window_violations));
    js.minute_burn_fast.push_back(slo_obs.burn_fast);
    js.minute_burn_slow.push_back(slo_obs.burn_slow);
  }

  if (snap != nullptr) {
    snap->end_s = end_s;
    snap->arrivals = static_cast<double>(js.window_arrivals);
    snap->violations = static_cast<double>(window_violations);
    snap->drop_rate = js.last_window_drop_rate;
    snap->p99 = p99;
    snap->utility = utility;
    snap->replicas = replicas;
    snap->burn_fast = slo_obs.burn_fast;
    snap->burn_slow = slo_obs.burn_slow;
    snap->alert_fast = slo_obs.alert_fast;
    snap->alert_slow = slo_obs.alert_slow;
    snap->budget_remaining_frac = js.slo_ledger.budget_remaining_frac();
  }

  js.window_arrivals = 0;
  js.window_drops = 0;
  js.window_latencies.clear();
  js.window_processing = RunningStats();
  js.attr_wait_s = 0.0;
  js.attr_cold_s = 0.0;
  js.attr_fault_s = 0.0;
  js.attr_act_units = 0.0;
  js.attr_ladder_units = 0.0;
}

// Advances one job's overload/underload timers from its rolling latency
// window (the reactive trigger signal shared by every policy).
inline void UpdateOverloadTimerCore(JobState& js, const JobSpec& spec, double now,
                                    double window_s, double reactive_interval_s,
                                    std::vector<double>& scratch) {
  const double horizon = now - window_s;
  while (!js.recent_latencies.empty() && js.recent_latencies.front().first < horizon) {
    js.recent_latencies.pop_front();
  }
  scratch.clear();
  for (const auto& [time, latency] : js.recent_latencies) {
    scratch.push_back(latency);
  }
  std::sort(scratch.begin(), scratch.end());
  const double p99 =
      scratch.empty() ? 0.0 : PercentileSorted(scratch, spec.percentile);
  if (p99 > spec.slo) {
    js.overloaded_for += reactive_interval_s;
    js.underloaded_for = 0.0;
  } else {
    js.overloaded_for = 0.0;
    js.underloaded_for += reactive_interval_s;
  }
}

// Fills one JobMetrics record from the job's state (what the router exports
// to the policy). `pending_placement` is the job's Pending-pod count.
inline void CollectJobMetrics(const JobState& js, const JobSpec& spec,
                              uint32_t pending_placement, JobMetrics& m) {
  m.arrival_rate = js.last_window_rate;
  m.processing_time =
      js.smoothed_processing > 0.0 ? js.smoothed_processing : spec.processing_time;
  m.p99_latency = js.minute_count == 0 ? 0.0 : js.last_p99;
  m.mean_latency = m.p99_latency;  // conservative: tail as proxy when idle
  m.drop_rate = js.last_window_drop_rate;
  m.ready_replicas = std::max<uint32_t>(js.ready, 1);
  m.starting_replicas = js.starting + pending_placement;
  m.arrival_history = js.arrival_history;
  m.overloaded_for = js.overloaded_for;
  m.underloaded_for = js.underloaded_for;
}

// Finalises one job's run-level stats. With `record_series` the per-minute
// vectors are moved into the result and the utility-reconvergence metric is
// computed from them; without, the running sums provide the averages and the
// reconvergence metric is reported as -1 ("not tracked") for fault-touched
// jobs.
inline void FinalizeJobStats(JobState& js, const std::string& name,
                             bool record_series, JobRunStats& stats) {
  stats.name = name;
  stats.arrivals = js.total_arrivals;
  stats.drops = js.total_drops;
  stats.violations = js.total_violations;
  stats.slo_violation_rate =
      js.total_arrivals > 0
          ? static_cast<double>(js.total_violations) / static_cast<double>(js.total_arrivals)
          : 0.0;
  if (record_series) {
    stats.avg_utility = Mean(js.minute_utility);
    stats.avg_effective_utility = Mean(js.minute_eu);
    stats.avg_replicas = Mean(js.minute_replicas);
  } else {
    const double n = js.minute_count > 0 ? static_cast<double>(js.minute_count) : 1.0;
    stats.avg_utility = js.utility_sum / n;
    stats.avg_effective_utility = js.eu_sum / n;
    stats.avg_replicas = js.replicas_sum / n;
  }
  stats.lost_utility = 1.0 - stats.avg_utility;
  stats.injected_failures = js.injected_failures;
  stats.capacity_seconds_lost = js.capacity_seconds_lost;
  stats.recovery_seconds = js.recovery_seconds;
  // Per-cause lost utility, averaged over windows so the causes sum to
  // (approximately, up to summation reassociation) stats.lost_utility. The
  // bit-exact invariant lives per window in minute_lost_by_cause.
  {
    const double n = js.minute_count > 0 ? static_cast<double>(js.minute_count) : 1.0;
    for (size_t c = 0; c < kNumLossCauses; ++c) {
      stats.lost_by_cause[c] = js.attr_totals[c] / n;
    }
  }
  stats.error_budget_allowed = js.slo_ledger.budget_allowed();
  stats.error_budget_consumed = js.slo_ledger.budget_consumed();
  stats.error_budget_remaining_frac = js.slo_ledger.budget_remaining_frac();
  stats.burn_alerts_fast = js.slo_ledger.alerts_fast();
  stats.burn_alerts_slow = js.slo_ledger.alerts_slow();
  stats.first_burn_alert_s = js.slo_ledger.first_alert_s();
  stats.max_burn_fast = js.slo_ledger.max_burn_fast();
  stats.max_burn_slow = js.slo_ledger.max_burn_slow();
  stats.minute_p99 = std::move(js.minute_p99);
  stats.minute_utility = std::move(js.minute_utility);
  stats.minute_arrivals = std::move(js.minute_arrivals);
  stats.minute_drop_rate = std::move(js.minute_drop_rate);
  stats.minute_replicas = std::move(js.minute_replicas);
  for (size_t c = 0; c < kNumLossCauses; ++c) {
    stats.minute_lost_by_cause[c] = std::move(js.minute_lost_by_cause[c]);
  }
  stats.minute_violations = std::move(js.minute_violations);
  stats.minute_burn_fast = std::move(js.minute_burn_fast);
  stats.minute_burn_slow = std::move(js.minute_burn_slow);

  // Utility reconvergence: time from the first fault until the per-minute
  // utility climbs back to within 0.05 of its pre-fault mean (up to five
  // minutes of pre-fault history; 1.0 when the fault hit before any full
  // minute elapsed). Needs the minute series; -1 (never observed) otherwise.
  if (js.fault_first_s >= 0.0) {
    if (!record_series) {
      stats.utility_reconverge_s = -1.0;
      return;
    }
    const size_t fault_minute = static_cast<size_t>(js.fault_first_s / 60.0);
    const size_t pre_begin = fault_minute >= 5 ? fault_minute - 5 : 0;
    double baseline = 1.0;
    if (fault_minute > pre_begin && pre_begin < stats.minute_utility.size()) {
      double sum = 0.0;
      size_t n = 0;
      for (size_t m = pre_begin; m < fault_minute && m < stats.minute_utility.size(); ++m) {
        sum += stats.minute_utility[m];
        ++n;
      }
      if (n > 0) {
        baseline = sum / static_cast<double>(n);
      }
    }
    stats.utility_reconverge_s = -1.0;
    for (size_t m = fault_minute + 1; m < stats.minute_utility.size(); ++m) {
      if (stats.minute_utility[m] >= baseline - 0.05) {
        stats.utility_reconverge_s =
            (static_cast<double>(m) + 1.0) * 60.0 - js.fault_first_s;
        break;
      }
    }
  }
}

}  // namespace sim_internal
}  // namespace faro

#endif  // SRC_SIM_SIM_INTERNAL_H_
