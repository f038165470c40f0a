#include "src/actuate/reconciler.h"

#include <algorithm>

#include "src/common/rng.h"

namespace faro {

bool Reconciler::Publish(const DesiredState& desired, double now_s) {
  if (has_desired_ && desired.generation <= desired_.generation) {
    ++telemetry_.fence_rejections;
    return false;
  }
  if (has_desired_ && !converged_) {
    ++telemetry_.generations_superseded;
  }
  desired_ = desired;
  has_desired_ = true;
  first_pass_done_ = false;
  converged_ = false;
  generation_retries_ = 0;
  repair_.assign(desired_.replicas.size(), JobRepairState{});
  ++telemetry_.generations_published;
  return true;
}

double Reconciler::JitterStretch(uint64_t generation, size_t job,
                                 uint32_t attempt) const {
  if (config_.jitter_frac <= 0.0) {
    return 1.0;
  }
  uint64_t h = HashCombine(config_.seed, generation);
  h = HashCombine(h, static_cast<uint64_t>(job));
  h = HashCombine(h, static_cast<uint64_t>(attempt));
  // Top 53 bits -> uniform [0, 1); no RNG stream is consumed.
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return 1.0 + config_.jitter_frac * unit;
}

void Reconciler::CheckConvergence(ClusterPort& port, double now_s,
                                  ConvergenceEvent* event) {
  if (converged_) {
    return;
  }
  const size_t n = std::min(desired_.replicas.size(), port.num_jobs());
  for (size_t j = 0; j < n; ++j) {
    if (port.Fleet(j) < desired_.replicas[j]) {
      return;
    }
  }
  converged_ = true;
  ++telemetry_.generations_converged;
  const double convergence = std::max(0.0, now_s - desired_.published_s);
  telemetry_.convergence_s_total += convergence;
  telemetry_.convergence_s_max =
      std::max(telemetry_.convergence_s_max, convergence);
  if (event != nullptr) {
    event->generation = desired_.generation;
    event->converged_s = now_s;
    event->convergence_s = convergence;
    event->retries = generation_retries_;
  }
}

uint32_t Reconciler::Reconcile(ClusterPort& port, double now_s,
                               ConvergenceEvent* event) {
  if (!has_desired_) {
    return 0;
  }
  const size_t n = std::min(desired_.replicas.size(), port.num_jobs());
  uint32_t ops = 0;

  if (!first_pass_done_) {
    // First pass: the port's full actuation semantics, in job order (the
    // engine's historical apply order -- load-bearing for bit-identity).
    ++telemetry_.reconcile_passes;
    for (size_t j = 0; j < n; ++j) {
      ops += port.ApplyTarget(j, desired_.replicas[j], /*first_pass=*/true, now_s);
    }
    if (!desired_.drop_rates.empty()) {
      for (size_t j = 0; j < std::min(desired_.drop_rates.size(), n); ++j) {
        port.SetDropRate(j, desired_.drop_rates[j]);
      }
    }
    first_pass_done_ = true;
    first_pass_s_ = now_s;
    // Jobs become repair-eligible immediately: a deficit surviving the first
    // pass (an actuation fault ate the scale-up) may be repaired at the very
    // next control boundary, mirroring the retired autoscaler-side retry.
    for (size_t j = 0; j < repair_.size(); ++j) {
      repair_[j].next_attempt_s = now_s;
      repair_[j].backoff_s = config_.retry_backoff_s;
    }
    telemetry_.ops_issued += ops;
    CheckConvergence(port, now_s, event);
    return ops;
  }

  // Repair pass: level-triggered. Re-issue the missing delta for any job
  // whose committed fleet is short of target, gated by its backoff window.
  // Retries disabled (backoff 0) keeps the legacy fire-and-forget behaviour.
  // Repairs run strictly after the first pass's instant: a decision and a
  // repair tick landing on the same (virtual) timestamp must not re-issue a
  // just-faulted scale-up with zero elapsed time.
  if (config_.retry_backoff_s <= 0.0 || now_s <= first_pass_s_) {
    CheckConvergence(port, now_s, event);
    return 0;
  }
  bool inspected = false;
  for (size_t j = 0; j < n; ++j) {
    JobRepairState& rs = repair_[j];
    const uint32_t target = desired_.replicas[j];
    if (port.Fleet(j) >= target) {
      // Deficit closed (or never existed): reset so a later replica kill
      // re-opens repair promptly at base backoff.
      rs.deficit_since_s = -1.0;
      rs.backoff_s = config_.retry_backoff_s;
      continue;
    }
    if (rs.deficit_since_s < 0.0) {
      rs.deficit_since_s = now_s;
    }
    bool timed_out = false;
    if (config_.op_timeout_s > 0.0 &&
        now_s - rs.deficit_since_s >= config_.op_timeout_s) {
      // The outstanding operation is presumed lost: bypass the remaining
      // backoff window and count the timeout.
      timed_out = true;
    }
    if (!timed_out && now_s < rs.next_attempt_s) {
      continue;
    }
    inspected = true;
    // The attempt counts as a retry whether or not the port manages to issue
    // anything (an actuation fault can eat the re-issue too) -- matching the
    // semantics of the autoscaler-side counter this replaces.
    ++telemetry_.retries;
    ++generation_retries_;
    const uint32_t issued =
        port.ApplyTarget(j, target, /*first_pass=*/false, now_s);
    ++rs.attempts;
    if (timed_out) {
      ++telemetry_.op_timeouts;
      rs.deficit_since_s = now_s;  // restart the timeout window
    }
    const double stretch =
        JitterStretch(desired_.generation, j, rs.attempts);
    rs.next_attempt_s = now_s + rs.backoff_s * stretch;
    rs.backoff_s = std::min(rs.backoff_s * 2.0, config_.backoff_cap_s);
    ops += issued;
    telemetry_.ops_issued += issued;
  }
  if (inspected || ops > 0) {
    ++telemetry_.reconcile_passes;
  }
  CheckConvergence(port, now_s, event);
  return ops;
}

}  // namespace faro
