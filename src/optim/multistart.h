// Parallel multi-start solve driver (§3.4, §5).
//
// Faro's sloppified objective is solvable by stock local solvers, but any one
// local solver from any one start can still stall (fairness ridges, saturated
// clusters) or land infeasible. The driver fans K deterministic-seeded start
// points -- warm starts, heuristics, and jittered variants -- across the
// shared thread pool, running COBYLA and optionally a NelderMead->AugLag
// chain from every start, then selects a winner deterministically.
//
// Determinism contract (same as the PR-1 harness): the result is bit-identical
// at every thread count. Each (start, solver) task is a pure function of its
// index; jitter draws from an Rng seeded by HashCombine(seed, start index);
// and the winner is chosen by a schedule-independent rule:
//
//   - A task is "early-exit quality" iff its start is incumbent-derived (not
//     a heuristic/jitter scout -- a scout failing to improve on its own
//     arbitrary start says nothing about the incumbent), its solve ended with
//     constraint violation <= feasibility_tolerance, its start point was
//     itself feasible within the tolerance, and the solve improved on the
//     start's objective by at most `early_exit_improvement` (relative). That
//     last condition is a stability bar: a tiny improvement from a feasible
//     start means the start was already sitting on the optimum -- the common
//     steady-state cycle -- so exploring more basins is wasted work. A large
//     improvement means the landscape moved, and the rest of the portfolio
//     runs. Formal solver convergence is not required: on large problems the
//     solver hits its evaluation cap first, and failing to beat the bar under
//     a full budget is the same evidence of stability. Whether a task has
//     exit quality depends only on its index, never on the schedule.
//   - With early exit enabled, a completed early-exit-quality task cancels
//     only *higher-indexed* tasks that have not started. Let e be the lowest
//     exit-quality index: every task at or below e always runs (cancelling
//     one would need a lower exit-quality index, contradicting minimality),
//     and the winner is the best-ranked result among tasks 0..e -- a
//     schedule-invariant candidate set, so the winner is the same under any
//     interleaving, including the fully serial one, where the cancellation
//     becomes a genuine early exit that skips the tail. Tasks above e may or
//     may not have started before the cancellation landed; their results are
//     schedule-dependent and never ranked.
//   - With no early-exit-quality task, every task runs and the winner is the
//     best feasible result (lowest objective; ties broken by task index, i.e.
//     by start index first and COBYLA before the alternate chain).
//
// Racing mode (`racing = true`, the production default via FaroConfig):
// instead of the static full/quarter budget tiers, the driver runs a
// best-arm-identification race (src/optim/bai.h). Non-scout ("anchor")
// starts keep their tier budgets and the early-exit stability bar; scout
// starts first run a cheap probe solve, then rounds extend only the scout
// whose optimistic value (probe value minus the predicted extension gain
// minus an unknown-variance confidence radius over the observed gains) could
// still beat the leader. Extension is a deterministic re-run from the
// original start point at the full tier cap: COBYLA's trajectory never
// consults `max_evaluations` except to stop, so a capped run is an exact
// prefix of a longer run and an extended scout's final result is
// bit-identical to the result the static-tier driver would have produced.
// Pruned scouts are never ranked (their probe results are discarded), so the
// raced winner differs from the static winner only when the rule prunes a
// scout that would have won at its full budget -- which the confidence
// radius makes deliberately rare. The schedule (which arm extends in which
// round) is a pure function of the round index and the accumulated arm
// statistics, never of thread interleaving, so racing keeps the bit-identical
// winner contract at every `max_parallelism`. Racing assumes the standard
// start layout (non-scout starts first); it currently races the COBYLA tasks
// only (`use_alternate` falls back to the static tiers).

#ifndef SRC_OPTIM_MULTISTART_H_
#define SRC_OPTIM_MULTISTART_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/obs/trace.h"
#include "src/optim/auglag.h"
#include "src/optim/bai.h"
#include "src/optim/cobyla.h"
#include "src/optim/neldermead.h"
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
  CobylaConfig cobyla;
  // The alternate per-start solver chain: NelderMead polish, then an
  // augmented-Lagrangian refinement of its simplex optimum. Budgets default
  // well below the solvers' own defaults so one alternate task costs about as
  // much as one COBYLA run (the chain is insurance, not the main path).
  NelderMeadConfig nelder_mead;
  AugLagConfig auglag;
  bool use_alternate = true;
  // A result counts as feasible when its max constraint violation (capacity
  // and box bounds) is at most this.
  double feasibility_tolerance = 1e-3;
  // Early exit on the lowest-indexed feasible converged task whose start was
  // already near-optimal (see the stability bar above).
  bool early_exit = true;
  // Stability bar: a task only has exit quality when its improvement over the
  // start value is at most this fraction of (1 + |start value|). The default
  // matches the autoscaler's switch hysteresis: an improvement too small to
  // justify moving replicas is also too small to justify solving more basins.
  double early_exit_improvement = 0.05;
  // Root seed for the jittered start variants.
  uint64_t seed = 0;
  // Relative amplitude of the multiplicative jitter applied per coordinate.
  double jitter = 0.35;
  // Thread cap for the fan-out: 0 = shared pool size, 1 = serial in task
  // order. Results are bit-identical at every setting.
  size_t max_parallelism = 0;
  // Wall-clock deadline for the fan-out (degradation ladder): tasks that have
  // not started when the deadline passes are skipped and `deadline_hit` is
  // reported; already-running tasks finish. Off by default -- a deadline
  // makes which tasks ran (and hence the winner) depend on wall time, trading
  // the bit-determinism contract for bounded decision latency.
  bool deadline_enabled = false;
  std::chrono::steady_clock::time_point deadline{};
  // --- BAI racing knobs (see the racing-mode comment above). Racing replaces
  // the static budget tiers with probe + adaptive-extension rounds; it only
  // engages when `use_alternate` is off (the race runs COBYLA arms).
  bool racing = false;
  // Probe budget (objective evaluations) for each scout arm's first look.
  // 0 = auto: max(64, 2*dim + 24), clamped below the scout tier cap.
  int racing_probe_evals = 0;
  // When > 0 and below the primary tier cap, the primary start first runs a
  // short confirmation solve; if it passes the early-exit stability bar the
  // cycle ends there (the common steady-state case, at a fraction of the
  // static cost). On failure the primary re-runs at its full tier when
  // `racing_confirm_rerun` is set (quality identical to static, at the cost
  // of the confirmation prefix), else the confirmation result stands and the
  // race decides whether a scout basin beats it.
  int racing_confirm_evals = 0;
  bool racing_confirm_rerun = true;
  // Confidence for the stopping rule's radius over observed extension gains.
  double racing_delta = 0.05;
  // Predicted extension gain = factor x the arm's observed probe improvement.
  double racing_extend_factor = 1.0;
  // Observability: each launched task records a wall-clock span (one trace
  // track per task index) into this session. Measurement only; whether a
  // task above the early-exit index ran at all is schedule-dependent, so
  // solver spans are excluded from the determinism contract.
  TraceSession trace;
};

struct MultiStartResult {
  OptimResult best;
  size_t winner_start = 0;  // index into the expanded start list
  StartKind winner_kind = StartKind::kHeuristic;
  bool winner_alternate = false;  // won by the NelderMead->AugLag chain
  size_t starts_total = 0;     // tasks in the fan-out (starts x solvers)
  size_t starts_launched = 0;  // tasks that consumed any evaluations
  // Tasks that did not run to their budget, by cause (disjoint): cancelled by
  // the early-exit rule before starting, skipped/abandoned by the wall-clock
  // deadline, or stopped by the BAI stopping rule (pruned arms ran a probe,
  // so they also count as launched).
  size_t starts_cancelled = 0;
  size_t starts_deadline_skipped = 0;
  size_t starts_pruned = 0;
  bool early_exit = false;   // winner came from the early-exit rule
  bool deadline_hit = false; // at least one task was skipped by the deadline
  bool raced = false;        // the BAI racing path produced this result
  int64_t evaluations = 0;   // objective evaluations across launched tasks
  // COBYLA work across launched tasks: OptimResult's counters, summed.
  int64_t subproblem_solves = 0;
  int64_t model_fits = 0;
  RacingTelemetry race;      // all-zero unless `raced`
};

// Appends `extra_jittered` seeded perturbations of the given starts, clips
// every start (all coordinates, drop rates included) into the problem's box
// bounds, fans (start x solver) tasks across the shared thread pool, and
// returns the deterministic winner. `starts` must be non-empty.
//
// Budget tiers: the primary start (index 0) runs on the full configured
// budgets; other non-scout starts get a quarter budget with a higher floor;
// heuristic and jittered starts are scouts at a quarter budget -- they exist
// to reveal a basin change after a load shift, not to be polished, and the
// tiering keeps them off both the wall-clock critical path and the total
// work bill on narrow machines.
MultiStartResult MultiStartSolve(const Problem& problem, std::vector<StartPoint> starts,
                                 size_t extra_jittered, const MultiStartConfig& config);

}  // namespace faro

#endif  // SRC_OPTIM_MULTISTART_H_
