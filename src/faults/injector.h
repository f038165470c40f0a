// Runtime companion of FaultPlan: owns the private RNG stream, the fault
// counters, and the applied-fault log for one simulation run.
//
// The simulator asks the injector three kinds of question, always in
// simulation-event order so the stream is deterministic at any thread count:
//   - DrawBurst(dt): did a correlated burst fire during this reactive tick?
//   - StretchColdStart(nominal): is this provision a straggler, and if so how
//     long does it really take?
//   - DrawActuation(): what happens to this scale-up command?
// Every method short-circuits without touching the RNG when its knob is off,
// which is what keeps no-fault runs bit-identical to a build without faults.
// The engine calls it from the one thread driving the run, so the stream
// needs no locking (DeterminismTest.InactivePlanLeavesRunsUntouched pins the
// zero-draw property of an inactive plan).

#ifndef SRC_FAULTS_INJECTOR_H_
#define SRC_FAULTS_INJECTOR_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/faults/faultplan.h"

namespace faro {

enum class ActuationOutcome : uint8_t { kApply, kDrop, kDelay, kPartial };

class FaultInjector {
 public:
  // `sim_seed` is the simulator's seed; the injector stream is derived from
  // (sim_seed, plan.seed) so two runs differing only in plan seed diverge.
  FaultInjector(const FaultPlan& plan, uint64_t sim_seed)
      : plan_(plan), rng_(HashCombine(sim_seed, plan.seed)) {
    scheduled_ = plan_.events;
    // Stable sort: events at the same timestamp apply in plan order.
    std::stable_sort(scheduled_.begin(), scheduled_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.time_s < b.time_s;
                     });
  }

  bool active() const { return plan_.active(); }
  const FaultPlan& plan() const { return plan_; }

  // Scheduled events sorted by time (ties keep plan order).
  const std::vector<FaultEvent>& scheduled() const { return scheduled_; }

  // True when a correlated burst fires within a window of `dt` seconds.
  bool DrawBurst(double dt) {
    if (plan_.burst_mtbf_s <= 0.0) {
      return false;
    }
    return rng_.Uniform() < dt / plan_.burst_mtbf_s;
  }

  // Cold-start delay after straggler stretching (identity when off).
  double StretchColdStart(double nominal) {
    if (plan_.straggler_fraction <= 0.0) {
      return nominal;
    }
    if (rng_.Uniform() >= plan_.straggler_fraction) {
      return nominal;
    }
    ++stats_.cold_start_stragglers;
    return nominal * plan_.straggler_multiplier;
  }

  // Fate of one scale-up command. Counters are bumped here; the caller logs
  // the affected job itself (it knows the name and replica count).
  ActuationOutcome DrawActuation() {
    const double p_drop = plan_.actuation_drop_prob;
    const double p_delay = plan_.actuation_delay_prob;
    const double p_partial = plan_.actuation_partial_prob;
    if (p_drop <= 0.0 && p_delay <= 0.0 && p_partial <= 0.0) {
      return ActuationOutcome::kApply;
    }
    const double u = rng_.Uniform();
    if (u < p_drop) {
      ++stats_.actuation_drops;
      return ActuationOutcome::kDrop;
    }
    if (u < p_drop + p_delay) {
      ++stats_.actuation_delays;
      return ActuationOutcome::kDelay;
    }
    if (u < p_drop + p_delay + p_partial) {
      ++stats_.actuation_partials;
      return ActuationOutcome::kPartial;
    }
    return ActuationOutcome::kApply;
  }

  void Record(double time_s, std::string what, std::string target,
              uint32_t count) {
    log_.push_back(
        {time_s, std::move(what), std::move(target), count});
  }

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }
  std::vector<AppliedFault>& log() { return log_; }
  const std::vector<AppliedFault>& log() const { return log_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  std::vector<FaultEvent> scheduled_;
  FaultStats stats_;
  std::vector<AppliedFault> log_;
};

}  // namespace faro

#endif  // SRC_FAULTS_INJECTOR_H_
