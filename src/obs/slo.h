// Per-job SLO attainment ledger and autoscaler decision audit log.
//
// SloLedger is an error-budget accountant in the SRE mold: the budget is the
// violation mass a job may spend per window (allowance = 1 - percentile, so
// 1% of arrivals for a p99 SLO), and burn rate is the trailing violation rate
// divided by that allowance. Two trailing windows are tracked -- a fast 1 h
// window alerting at burn >= 14.4 (budget gone in ~2 days) and a slow 6 h
// window alerting at burn >= 6 (budget gone in ~5 days), the multi-window
// thresholds from the SRE workbook. All clocks are *simulated* time, so every
// number the ledger produces is deterministic and bit-identical across
// thread counts.
//
// AuditLog collects one DecisionAuditRecord per autoscaler decision cycle
// (forecast in, solver outcome, degradation-ladder rung, telemetry deltas)
// and writes them as JSON Lines. Records are stable-sorted by (label, cycle)
// before writing, so the file is bit-identical no matter how trials or
// policies interleaved their appends. Only deterministic fields are recorded
// -- no wall-clock solve times -- matching the repo's determinism contract.

#ifndef SRC_OBS_SLO_H_
#define SRC_OBS_SLO_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace faro {

// Multi-window burn-rate parameters (SRE workbook defaults, in sim seconds).
struct SloLedgerConfig {
  double allowance = 0.01;        // violation budget per arrival (p99 -> 1%)
  double fast_window_s = 3600.0;  // 1 h
  double slow_window_s = 21600.0;  // 6 h
  double fast_threshold = 14.4;
  double slow_threshold = 6.0;
};

class SloLedger {
 public:
  struct Observation {
    double burn_fast = 0.0;
    double burn_slow = 0.0;
    bool alert_fast = false;
    bool alert_slow = false;
  };

  SloLedger() = default;
  explicit SloLedger(const SloLedgerConfig& config) : config_(config) {}

  // Idempotent per-job calibration (allowance = 1 - SLO percentile).
  void set_allowance(double allowance) { config_.allowance = allowance; }

  // Folds one closed metrics window into the ledger and returns the trailing
  // burn rates. `end_s` must be non-decreasing across calls.
  Observation Observe(double end_s, double arrivals, double violations);

  // Run totals.
  double budget_allowed() const { return config_.allowance * total_arrivals_; }
  double budget_consumed() const { return total_violations_; }
  // Fraction of the budget left; negative when overspent, 1 with no traffic.
  double budget_remaining_frac() const;
  uint64_t alerts_fast() const { return alerts_fast_; }
  uint64_t alerts_slow() const { return alerts_slow_; }
  double first_alert_s() const { return first_alert_s_; }  // -1 if never
  double max_burn_fast() const { return max_burn_fast_; }
  double max_burn_slow() const { return max_burn_slow_; }

  // Retained per-minute samples (everything inside the slow window).
  size_t window_samples() const { return count_; }

 private:
  struct Sample {
    double end_s;
    double arrivals;
    double violations;
  };

  // O(1)-per-Observe rolling evaluation over a ring buffer of the violation
  // series. The slow window is the whole retained ring; the fast window is
  // its trailing suffix (`fast_lag_` counts the retained-but-expired-for-fast
  // prefix). Sums are maintained incrementally by add-on-push and
  // subtract-on-evict; the simulator feeds integer request counts, whose
  // partial sums stay exact in doubles (< 2^53), so every burn rate -- and
  // every alert onset -- is bit-identical to a fresh front-to-back scan
  // (tests/obs_slo_test.cc cross-checks against a reference batch evaluator).
  const Sample& At(size_t logical) const {
    return ring_[(begin_ + logical) % ring_.size()];
  }
  void PushSample(const Sample& sample);
  void EvictExpired(double end_s);
  static double Burn(double violations, double arrivals, double allowance) {
    const double budget = allowance * arrivals;
    if (!(budget > 0.0)) {
      return 0.0;
    }
    return violations / budget;
  }

  SloLedgerConfig config_;
  std::vector<Sample> ring_;  // circular; grows only when a window overflows it
  size_t begin_ = 0;          // position of the oldest retained sample
  size_t count_ = 0;          // retained samples (== the slow-window set)
  size_t fast_lag_ = 0;       // oldest retained samples outside the fast window
  double slow_arrivals_ = 0.0;
  double slow_violations_ = 0.0;
  double fast_arrivals_ = 0.0;
  double fast_violations_ = 0.0;
  double total_arrivals_ = 0.0;
  double total_violations_ = 0.0;
  uint64_t alerts_fast_ = 0;
  uint64_t alerts_slow_ = 0;
  bool fast_firing_ = false;
  bool slow_firing_ = false;
  double first_alert_s_ = -1.0;
  double max_burn_fast_ = 0.0;
  double max_burn_slow_ = 0.0;
};

// One autoscaler decision cycle, deterministic fields only.
struct DecisionAuditRecord {
  std::string label;   // policy (and trial) identity; sort key with `cycle`
  double time_s = 0.0;  // sim time of the decision
  uint64_t cycle = 0;   // per-policy-instance decision counter
  uint64_t num_jobs = 0;
  double forecast_peak_total = 0.0;  // summed per-job forecast peak loads
  double forecast_mean_total = 0.0;  // summed per-job forecast mean loads
  std::string rung;  // "solve" | "warm_rescale" | "heuristic"
  bool hierarchical = false;
  bool forecast_fallback = false;  // forecast sanity guard tripped
  uint64_t starts = 0;             // multi-start launches this cycle
  uint64_t evaluations = 0;        // objective evaluations this cycle
  uint64_t deadline_misses = 0;    // this cycle
  double replicas_total = 0.0;     // summed decided replica targets
  double drop_rate_mean = 0.0;     // mean decided drop rate
  // --- reconciling actuator (src/actuate/) ---------------------------------
  // Filled by the engine's actuation records (label suffix "/actuate", one
  // per converged generation); zero/defaulted on plain decision records.
  uint64_t actuation_generation = 0;   // generation that converged
  double actuation_convergence_s = -1.0;  // publish-to-converge (sim seconds)
  uint64_t actuation_retries = 0;      // repair re-issues this generation
  uint64_t actuation_fenced = 0;       // cumulative stale publishes discarded
};

// Append-only, thread-safe decision log with a deterministic JSONL dump.
class AuditLog {
 public:
  void Append(DecisionAuditRecord record);
  size_t size() const;
  void Clear();
  // Stable-sorts a snapshot by (label, cycle) and writes one JSON object per
  // line. Returns false when the file cannot be opened.
  bool WriteJsonl(const std::string& path) const;
  std::string ToJsonl() const;

 private:
  mutable std::mutex mu_;
  std::vector<DecisionAuditRecord> records_;
};

// Leaked process-wide audit log, mirroring MetricsRegistry::Global(): bench
// mains point FaroConfig::audit here and WriteObsOutputs drains it.
AuditLog& GlobalAuditLog();

}  // namespace faro

#endif  // SRC_OBS_SLO_H_
