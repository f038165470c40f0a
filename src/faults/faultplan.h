// Deterministic, seed-driven chaos injection for the matched simulator.
//
// The paper's premise is a *fixed-size on-prem cluster*: capacity lost to a
// failure cannot be bought back from a cloud provider, so the autoscaler has
// to notice, re-plan, and survive. A FaultPlan describes everything that can
// go wrong underneath the control plane:
//
//  - scheduled events: node crash / drain / recover (all replicas placed on
//    the node die and the schedulable capacity shrinks until recovery) and
//    correlated replica-failure bursts;
//  - seeded stochastic processes: Poisson-ish correlated bursts, cold-start
//    stragglers (a fraction of scale-ups taking k x the mean), and actuation
//    faults (scale-up commands dropped, delayed, or partially applied -- the
//    K8s API flakiness every operator knows).
//
// Determinism contract: every draw comes from the injector's own RNG stream,
// seeded from (sim seed, plan seed) and advanced in simulation-event order.
// The same plan and seed therefore yield bit-identical fault schedules at any
// thread count, and an *inactive* plan draws nothing at all -- no-fault runs
// are bit-identical to a build without this subsystem.

#ifndef SRC_FAULTS_FAULTPLAN_H_
#define SRC_FAULTS_FAULTPLAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace faro {

enum class FaultKind : uint8_t {
  kNodeCrash,     // node dies: replicas on it are lost, capacity shrinks
  kNodeDrain,     // node cordoned: replicas evicted gracefully, capacity shrinks
  kNodeRecover,   // node returns to the schedulable pool
  kReplicaBurst,  // correlated burst: a fraction of each job's replicas die
};

const char* FaultKindName(FaultKind kind);

// One scheduled fault. Node events name a node from SimConfig::nodes; burst
// events target one job by index (or every job with job = -1) and kill either
// a fraction of its ready replicas or an absolute count.
struct FaultEvent {
  double time_s = 0.0;
  FaultKind kind = FaultKind::kNodeCrash;
  std::string node;       // node events only
  int32_t job = -1;       // kReplicaBurst: job index, -1 = all jobs
  double fraction = 0.0;  // kReplicaBurst: fraction of ready replicas killed
  uint32_t count = 0;     // kReplicaBurst: absolute kill count when fraction == 0
};

struct FaultPlan {
  // Scheduled events, applied in (time, insertion-order) order.
  std::vector<FaultEvent> events;

  // --- Stochastic processes (all disabled at their zero defaults) ----------
  // Correlated replica-failure bursts: mean time between bursts (seconds);
  // each burst kills `burst_fraction` of every job's ready replicas at once
  // (a shared dependency failing -- image registry, storage, rack switch).
  double burst_mtbf_s = 0.0;
  double burst_fraction = 0.5;
  // Cold-start stragglers: this fraction of replica provisions takes
  // `straggler_multiplier` x the nominal cold start (image pulls, slow PVC
  // attach). 0 disables.
  double straggler_fraction = 0.0;
  double straggler_multiplier = 5.0;
  // Actuation faults, drawn once per scale-up command: the command is
  // silently dropped, applied after `actuation_delay_s`, or only half
  // applied. Probabilities must sum to <= 1; the remainder applies cleanly.
  double actuation_drop_prob = 0.0;
  double actuation_delay_prob = 0.0;
  double actuation_delay_s = 30.0;
  double actuation_partial_prob = 0.0;

  // Seed for the injector's private RNG stream (combined with the sim seed).
  uint64_t seed = 0x5eedfa17ull;

  // True when anything above can fire. An inactive plan costs zero RNG draws.
  bool active() const;

  // Empty string when the plan is well formed; otherwise a human-readable
  // description of the first problem found.
  std::string Validate() const;
};

// Counters of what the injector actually did during one run (zeros when the
// plan was inactive). Mirrored into RunResult so reports and tests can see
// the chaos that used to be invisible.
struct FaultStats {
  uint64_t replicas_killed = 0;  // every injection path
  uint64_t node_crashes = 0;
  uint64_t node_drains = 0;
  uint64_t node_recoveries = 0;
  uint64_t bursts = 0;  // scheduled + stochastic correlated bursts
  uint64_t actuation_drops = 0;
  uint64_t actuation_delays = 0;
  uint64_t actuation_partials = 0;
  uint64_t cold_start_stragglers = 0;
};

// One line of the applied-fault log: what fired, when, against what. String
// kinds keep the log directly CSV-able and extensible to actuation faults.
struct AppliedFault {
  double time_s = 0.0;
  std::string what;    // "node_crash", "replica_burst", "actuation_drop", ...
  std::string target;  // node name or job name
  uint32_t count = 0;  // replicas killed / delayed / dropped

  bool operator==(const AppliedFault&) const = default;
};

// --- Named chaos scenarios (bench_fig17_chaos, chaos-smoke CI) -------------
//
// Four fixed scenarios spanning the fault model, parameterised only by the
// run length and the node pool so benches and tests stay in sync:
//   "node-crash"    one node crashes a quarter into the run, recovers at the
//                   midpoint -- the canonical capacity-loss-and-return arc;
//   "rolling-drain" nodes are drained and recovered one after another, like a
//                   rolling kernel upgrade;
//   "replica-burst" two correlated bursts kill half of every job's replicas,
//                   plus a stochastic burst process in between;
//   "flaky-api"     no capacity loss, but scale-ups are dropped / delayed /
//                   partially applied and a quarter of cold starts straggle.
const std::vector<std::string>& FaultScenarioNames();

// Builds the named scenario for a run of `duration_s` over `node_names`
// (may be empty for scenarios that do not touch nodes). Unknown names return
// an inactive plan.
FaultPlan MakeFaultScenario(const std::string& name, double duration_s,
                            const std::vector<std::string>& node_names);

}  // namespace faro

#endif  // SRC_FAULTS_FAULTPLAN_H_
