// Multi-start Stage-2 solve driver (§3.4, §5).
//
// Faro's relaxed objective is solvable by a stock local solver, but COBYLA
// from any one start can still stall (fairness ridges, saturated clusters) or
// land infeasible. The driver runs COBYLA from K start points -- warm starts,
// a capacity-proportional heuristic, and seeded jittered variants -- and
// spends the evaluation budget on them by best-arm-identification racing
// (src/optim/bai.h).
//
// Tier caps: every start has an evaluation cap. The primary start (index 0)
// gets the full `cobyla.max_evaluations`; other incumbent-derived ("anchor")
// starts get max(300, max/4); heuristic and jittered starts are scouts at
// max(200, max/4). Scouts exist to reveal a basin change after a load shift,
// not to be polished.
//
// Racing contract:
//   - Anchors run first, serially in index order, each to its tier cap. The
//     primary may instead run a `racing_confirm_evals` confirmation prefix;
//     that result stands whether or not it clears the stability bar.
//   - An anchor result has "early-exit quality" iff it and its start point
//     are feasible within `feasibility_tolerance` and the solve improved on
//     the start's objective by at most `early_exit_improvement` x
//     (1 + |start value|). A tiny improvement from a feasible start means the
//     incumbent already sits on the optimum -- the common steady-state cycle.
//     Formal convergence is not required: on large problems COBYLA hits its
//     cap first, and failing to beat the bar under a full budget is the same
//     evidence of stability. Scouts never have exit quality: a scout failing
//     to improve on its own arbitrary start says nothing about the incumbent.
//     The first anchor with exit quality ends the solve; scouts never run.
//   - Otherwise every scout runs a probe solve (in parallel), then rounds
//     extend only the scout whose optimistic value (probe value minus the
//     predicted extension gain minus an unknown-variance confidence radius
//     over the observed gains) could still beat the leader. The rest are
//     pruned and never ranked. Extension is a re-run from the original start
//     at the tier cap: COBYLA's trajectory never consults `max_evaluations`
//     except to stop, so a capped run is an exact prefix of a longer one and
//     an extended scout's result is bit-identical to one run at its tier cap.
//     A probe that stops below its budget converged, so it is final as-is.
//   - Total evaluations never exceed the sum of the tier caps of the arms
//     that could run; once the next extension would, the remaining scouts
//     are pruned.
//   - Winner: among final results (arms 0..e after an early exit at anchor
//     e, else all), feasible beats infeasible, then lower violation among
//     infeasible results, then lower objective value, then lower start index.
//
// Determinism: the result is bit-identical at every `max_parallelism`. Each
// run is a pure function of its start index and budget; jitter draws from an
// Rng seeded by HashCombine(seed, jitter index); which arm extends in which
// round is a pure function of the round index and the arm statistics, merged
// serially in index order. Only the opt-in wall-clock deadline trades this
// contract for bounded decision latency.

#ifndef SRC_OPTIM_MULTISTART_H_
#define SRC_OPTIM_MULTISTART_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/obs/trace.h"
#include "src/optim/bai.h"
#include "src/optim/cobyla.h"
#include "src/optim/problem.h"

namespace faro {

// Provenance of a start point, reported as telemetry ("which start won").
enum class StartKind : uint8_t {
  kWarmCurrent = 0,   // the currently deployed allocation
  kPrevSolution = 1,  // previous cycle's continuous solution (warm-start cache)
  kHeuristic = 2,     // capacity-proportional heuristic point
  kJitter = 3,        // seeded perturbation of one of the above
};
const char* StartKindName(StartKind kind);

struct StartPoint {
  std::vector<double> x;
  StartKind kind = StartKind::kHeuristic;
};

struct MultiStartConfig {
  // Budgets are per start; `max_evaluations` is the primary start's tier cap.
  CobylaConfig cobyla;
  // A result counts as feasible when its max constraint violation (capacity
  // and box bounds) is at most this.
  double feasibility_tolerance = 1e-3;
  // End the solve at the first anchor with early-exit quality.
  bool early_exit = true;
  // Stability bar: an anchor only has exit quality when its improvement over
  // the start value is at most this fraction of (1 + |start value|). The
  // default matches the autoscaler's switch hysteresis: an improvement too
  // small to justify moving replicas is also too small to justify solving
  // more basins.
  double early_exit_improvement = 0.05;
  // Root seed for the jittered start variants.
  uint64_t seed = 0;
  // Relative amplitude of the multiplicative jitter applied per coordinate.
  double jitter = 0.35;
  // Thread cap for the scout probes: 0 = shared pool size, 1 = serial in
  // index order. Results are bit-identical at every setting.
  size_t max_parallelism = 0;
  // Wall-clock deadline (degradation ladder): arms that have not started when
  // the deadline passes are skipped and `deadline_hit` is reported; running
  // solves finish. Off by default -- a deadline makes which arms ran (and
  // hence the winner) depend on wall time.
  bool deadline_enabled = false;
  std::chrono::steady_clock::time_point deadline{};
  // Probe budget (objective evaluations) for each scout's first look.
  // 0 = auto: max(64, 2*dim + 24), clamped to the scout tier cap.
  int racing_probe_evals = 0;
  // When > 0 and below the primary tier cap, the primary start runs only
  // this confirmation prefix. If it passes the stability bar the solve ends
  // there (the common steady-state case); otherwise its result anchors the
  // race and the scouts decide whether another basin beats it.
  int racing_confirm_evals = 0;
  // Confidence for the stopping rule's radius over observed extension gains.
  double racing_delta = 0.05;
  // Observability: each solve records a wall-clock span (one trace track per
  // start index) into this session. Measurement only; spans are excluded
  // from the determinism contract.
  TraceSession trace;
};

struct MultiStartResult {
  OptimResult best;
  size_t winner_start = 0;  // index into the expanded start list
  StartKind winner_kind = StartKind::kHeuristic;
  size_t starts_total = 0;     // starts after jitter expansion
  size_t starts_launched = 0;  // starts that consumed any evaluations
  // Starts that did not run to their tier cap, by cause (disjoint): cancelled
  // by the early exit before starting, skipped by the wall-clock deadline, or
  // stopped by the BAI stopping rule (pruned arms ran a probe, so they also
  // count as launched).
  size_t starts_cancelled = 0;
  size_t starts_deadline_skipped = 0;
  size_t starts_pruned = 0;
  bool early_exit = false;   // winner came from the early-exit rule
  bool deadline_hit = false; // at least one start was skipped by the deadline
  int64_t evaluations = 0;   // objective evaluations across launched starts
  // COBYLA work across launched starts: OptimResult's counters, summed.
  int64_t subproblem_solves = 0;
  int64_t model_fits = 0;
  RacingTelemetry race;
};

// Appends `extra_jittered` seeded perturbations of the given starts, clips
// every start (all coordinates, drop rates included) into the problem's box
// bounds, races them (see above), and returns the deterministic winner.
// `starts` must be non-empty; an empty `best.x` means the deadline skipped
// every start before one ran.
MultiStartResult MultiStartSolve(const Problem& problem, std::vector<StartPoint> starts,
                                 size_t extra_jittered, const MultiStartConfig& config);

}  // namespace faro

#endif  // SRC_OPTIM_MULTISTART_H_
