// Reconciler core: a Kubernetes-style desired-state control loop.
//
// The reconciler owns exactly one DesiredState at a time -- the newest
// generation that survived the fence -- and converges a cluster toward it
// through the ClusterPort interface. It is deliberately free of threads,
// clocks, and RNG streams so the same core drives both actuation modes:
//
//  - virtual-time mode: the simulation engine calls Reconcile() at control
//    boundaries (decision and reactive ticks), with sim time as `now_s`.
//    Every decision the reconciler makes is a pure function of (config,
//    published states, port observations, call times), so runs stay
//    bit-identical at any thread count;
//  - live mode: a dedicated actuator thread (src/actuate/async_actuator.h)
//    calls the same core against a mutable cluster model under a mutex,
//    racing the replay thread that publishes.
//
// Convergence contract. A generation's first reconcile pass executes the
// port's full actuation semantics (scale-ups with fault draws, scale-downs,
// drop rates). Later passes are level-triggered repair: any job whose
// committed fleet sits below its target -- because an actuation fault ate the
// scale-up, a replica was killed after convergence, or replicas that were
// draining when the target was set have since exited -- is re-issued the
// missing delta, gated by per-job exponential backoff with deterministic
// jitter. Scale-downs are one-shot per generation: draining replicas remain
// visible in the fleet until they finish, so re-issuing a downscale would
// double-drain; a fleet at or above target counts as converged. Partial
// failures therefore leave a consistent intermediate state (some jobs at
// target, some short) that the next pass repairs -- never a torn write.

#ifndef SRC_ACTUATE_RECONCILER_H_
#define SRC_ACTUATE_RECONCILER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/actuate/desired.h"

namespace faro {

struct ReconcilerConfig {
  // Base per-job retry backoff (seconds). After a generation's first pass a
  // job with an open deficit becomes retry-eligible immediately; each issued
  // retry doubles its backoff up to `backoff_cap_s`. 0 disables retries
  // entirely (first pass only -- the legacy fire-and-forget behaviour).
  double retry_backoff_s = 20.0;
  double backoff_cap_s = 300.0;
  // Deterministic jitter: each computed backoff is stretched by up to this
  // fraction, keyed on (seed, generation, job, attempt) -- no RNG stream is
  // consumed, so jitter never perturbs simulation draws.
  double jitter_frac = 0.1;
  // An issued scale-up that has not closed its deficit within this many
  // seconds is declared timed out: the job bypasses its remaining backoff at
  // the next pass and the timeout is counted. 0 disables the timeout.
  double op_timeout_s = 120.0;
  uint64_t seed = 0;
};

// Convergence telemetry, exported through RunResult, the obs registry, the
// decision-audit JSONL, and the /actuator endpoint.
struct ReconcileTelemetry {
  uint64_t generations_published = 0;  // publishes that passed the fence
  uint64_t generations_converged = 0;  // reached fleet >= target on all jobs
  uint64_t generations_superseded = 0; // replaced before converging
  uint64_t fence_rejections = 0;       // stale publishes discarded
  uint64_t reconcile_passes = 0;       // passes that inspected the cluster
  uint64_t ops_issued = 0;             // per-job apply operations issued
  uint64_t retries = 0;                // repair re-issues (attempt > 0)
  uint64_t op_timeouts = 0;            // deficits older than op_timeout_s
  double convergence_s_total = 0.0;    // sum of per-generation times
  double convergence_s_max = 0.0;      // worst single generation
};

// What the reconciler needs from a cluster. Implementations: the simulation
// engine itself (simulator.cc) and the live LiveClusterModel
// (async_actuator.h).
class ClusterPort {
 public:
  virtual ~ClusterPort() = default;

  virtual size_t num_jobs() const = 0;

  // Committed fleet for job `job`: every replica the cluster has accepted
  // responsibility for (ready + starting + pending placement). The
  // convergence criterion is Fleet(job) >= target for every job.
  virtual uint32_t Fleet(size_t job) const = 0;

  // Applies the per-job target. `first_pass` runs the port's full actuation
  // semantics for a fresh generation (scale-up with fault draws, scale-down);
  // repair passes only re-issue the missing scale-up delta. Returns the
  // number of replica operations issued (0 when the call was a no-op).
  virtual uint32_t ApplyTarget(size_t job, uint32_t target, bool first_pass,
                               double now_s) = 0;

  // Sets the router drop rate (first pass only; idempotent).
  virtual void SetDropRate(size_t job, double rate) = 0;
};

// Information about the most recently converged generation, captured at the
// reconcile pass that observed convergence (for audit records).
struct ConvergenceEvent {
  uint64_t generation = 0;
  double converged_s = 0.0;    // time of the observing pass
  double convergence_s = 0.0;  // converged_s - published_s
  uint64_t retries = 0;        // repair ops this generation needed
};

class Reconciler {
 public:
  explicit Reconciler(const ReconcilerConfig& config) : config_(config) {}

  // Accepts `desired` iff its generation is strictly newer than the current
  // one (the fence). Superseding a not-yet-converged generation is counted;
  // per-job retry state resets so the new generation gets a fresh first pass.
  // Returns false (and counts a fence rejection) for stale publishes.
  bool Publish(const DesiredState& desired, double now_s);

  // Runs one reconcile pass against `port` at time `now_s`. Returns the
  // number of operations issued. When the pass observes convergence for the
  // first time on the current generation, `event` (optional) is filled.
  uint32_t Reconcile(ClusterPort& port, double now_s,
                     ConvergenceEvent* event = nullptr);

  // Counts a stale in-flight command the caller discarded on the fence (a
  // delayed scale-up from a superseded generation finally landing).
  void FenceStale() { ++telemetry_.fence_rejections; }

  // True when a retry pass at `now_s` could issue work: there is a published
  // generation whose first pass ran, retries are enabled, and at least one
  // job's backoff gate is open. Engines use this to skip zero-draw passes
  // cheaply; callers may always just call Reconcile().
  bool has_desired() const { return has_desired_; }
  bool converged() const { return converged_; }
  uint64_t generation() const { return desired_.generation; }
  const DesiredState& desired() const { return desired_; }
  const ReconcileTelemetry& telemetry() const { return telemetry_; }

 private:
  struct JobRepairState {
    double next_attempt_s = 0.0;  // earliest time a repair may be issued
    double backoff_s = 0.0;       // next backoff to apply after an issue
    double deficit_since_s = -1.0;  // when the open deficit was first seen
    uint32_t attempts = 0;
  };

  // Deterministic jitter multiplier in [1, 1 + jitter_frac) for a given
  // (generation, job, attempt).
  double JitterStretch(uint64_t generation, size_t job, uint32_t attempt) const;

  void CheckConvergence(ClusterPort& port, double now_s, ConvergenceEvent* event);

  ReconcilerConfig config_;
  DesiredState desired_;
  bool has_desired_ = false;
  bool first_pass_done_ = false;
  double first_pass_s_ = 0.0;
  bool converged_ = false;
  uint64_t generation_retries_ = 0;  // repair ops for the current generation
  std::vector<JobRepairState> repair_;
  ReconcileTelemetry telemetry_;
};

}  // namespace faro

#endif  // SRC_ACTUATE_RECONCILER_H_
