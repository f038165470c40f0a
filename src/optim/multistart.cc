#include "src/optim/multistart.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/parallel.h"
#include "src/common/rng.h"

namespace faro {
namespace {

// Adds one finished solve's work to the multi-start totals.
void AddWork(const OptimResult& result, MultiStartResult& out) {
  out.evaluations += result.evaluations;
  out.subproblem_solves += result.subproblem_solves;
  out.model_fits += result.model_fits;
}

bool IsScout(StartKind kind) {
  return kind == StartKind::kHeuristic || kind == StartKind::kJitter;
}

// Evaluation cap for one start (see the header's tier caps). A fully extended
// arm is bit-identical to one COBYLA run at this cap (prefix property).
int TierCap(const std::vector<StartPoint>& starts, size_t s, const MultiStartConfig& config) {
  if (IsScout(starts[s].kind)) {
    return std::max(200, config.cobyla.max_evaluations / 4);
  }
  return s == 0 ? config.cobyla.max_evaluations
                : std::max(300, config.cobyla.max_evaluations / 4);
}

// Schedule-independent ranking: feasible beats infeasible, then lower
// objective value, then lower start index (the caller iterates in index order).
bool RanksBetter(const OptimResult& challenger, const OptimResult& incumbent,
                 double tolerance) {
  const bool c_ok = challenger.max_violation <= tolerance;
  const bool i_ok = incumbent.max_violation <= tolerance;
  if (c_ok != i_ok) {
    return c_ok;
  }
  if (!c_ok && challenger.max_violation != incumbent.max_violation) {
    return challenger.max_violation < incumbent.max_violation;
  }
  return challenger.value < incumbent.value;
}

// The BAI racing driver (see the header's racing contract). `starts` is
// already jitter-expanded and clipped.
MultiStartResult RaceSolve(const Problem& problem, const std::vector<StartPoint>& starts,
                           const MultiStartConfig& config) {
  MultiStartResult out;
  const size_t n = starts.size();
  out.starts_total = n;
  out.race.races = 1;
  out.race.arms_total = n;
  const double tol = config.feasibility_tolerance;

  struct Arm {
    OptimResult result;        // latest prefix run from the arm's start point
    double start_value = 0.0;  // objective at the start (for bar and gains)
    bool has_start_value = false;
    bool ran = false;
    bool rankable = false;  // result is final (tier cap, confirmation, or converged)
    bool pruned = false;
    bool deadline_skipped = false;
  };
  std::vector<Arm> arms(n);
  std::vector<int> cap(n);
  int64_t tier_budget = 0;  // sum of the caps of the arms that could run
  for (size_t s = 0; s < n; ++s) {
    cap[s] = TierCap(starts, s, config);
  }

  auto deadline_passed = [&] {
    return config.deadline_enabled && std::chrono::steady_clock::now() >= config.deadline;
  };
  // Deterministic prefix run: COBYLA from the original start at a budget.
  // Extension = re-run at a larger budget (exact superset of the trajectory).
  auto run_prefix = [&](size_t s, int evals) {
    CobylaConfig cobyla = config.cobyla;
    cobyla.max_evaluations = evals;
    const double task_start_us = config.trace.WallNowUs();
    OptimResult result = Cobyla(problem, starts[s].x, cobyla);
    if (config.trace.on()) {
      std::string label = StartKindName(starts[s].kind);
      label += '#';
      label += std::to_string(s);
      label += "@";
      label += std::to_string(evals);
      config.trace.WallSpanSince(kSolverTidBase + static_cast<uint32_t>(s), label,
                                 "solver", task_start_us);
    }
    return result;
  };
  // Feasibility-penalised scalar for the BAI math only; the final ranking
  // stays the exact lexicographic RanksBetter rule.
  auto merit = [&](const OptimResult& result) {
    return result.value + 1e3 * std::max(0.0, result.max_violation - tol);
  };
  auto start_value = [&](size_t s) {
    if (!arms[s].has_start_value) {
      arms[s].start_value = problem.Objective(starts[s].x);
      arms[s].has_start_value = true;
      out.evaluations += 1;
    }
    return arms[s].start_value;
  };
  // The early-exit stability bar (anchor start, feasible start and result,
  // improvement at most the bar).
  auto exit_quality = [&](size_t s, const OptimResult& result) {
    if (!config.early_exit || IsScout(starts[s].kind) || result.max_violation > tol) {
      return false;
    }
    const double sv = start_value(s);
    return problem.MaxViolation(starts[s].x) <= tol &&
           sv - result.value <= config.early_exit_improvement * (1.0 + std::abs(sv));
  };

  // --- Phase 1: anchors (non-scout starts) in index order. Serial by design:
  // the early-exit rule then degenerates to "lowest index wins", which is
  // trivially schedule-invariant, and production fans out at most two anchors.
  size_t exit_arm = n;
  bool anchors_deadlined = false;
  for (size_t s = 0; s < n && exit_arm == n; ++s) {
    if (IsScout(starts[s].kind)) {
      continue;
    }
    if (deadline_passed()) {
      anchors_deadlined = true;
      for (size_t r = s; r < n; ++r) {
        if (!IsScout(starts[r].kind)) {
          arms[r].deadline_skipped = true;
        }
      }
      break;
    }
    tier_budget += cap[s];
    const bool confirm = s == 0 && config.racing_confirm_evals > 0 &&
                         config.racing_confirm_evals < cap[s];
    arms[s].result = run_prefix(s, confirm ? config.racing_confirm_evals : cap[s]);
    arms[s].ran = true;
    AddWork(arms[s].result, out);
    arms[s].rankable = true;
    if (exit_quality(s, arms[s].result)) {
      exit_arm = s;
    }
  }

  // --- Phase 2: scout probes + racing rounds, only when no anchor exited.
  if (exit_arm == n && !anchors_deadlined) {
    std::vector<size_t> scouts;
    for (size_t s = 0; s < n; ++s) {
      if (IsScout(starts[s].kind)) {
        scouts.push_back(s);
        tier_budget += cap[s];
      }
    }
    if (!scouts.empty() && deadline_passed()) {
      for (size_t s : scouts) {
        arms[s].deadline_skipped = true;
      }
      scouts.clear();
    }
    if (!scouts.empty()) {
      const int dim = static_cast<int>(starts[0].x.size());
      const int auto_probe = std::max(64, 2 * dim + 24);
      const int probe =
          config.racing_probe_evals > 0 ? config.racing_probe_evals : auto_probe;
      // Probe round: every scout in parallel, each a pure function of its
      // index; the stats merge below runs serially in index order.
      ParallelFor(
          scouts.size(),
          [&](size_t i) {
            const size_t s = scouts[i];
            const int budget = std::min(probe, cap[s]);
            arms[s].result = run_prefix(s, budget);
            arms[s].ran = true;
            // A probe that stops below its budget hit COBYLA's rho_end: the
            // run converged, and an extension would replay the identical
            // trajectory to the same stop (prefix property). Final as-is.
            arms[s].rankable =
                budget >= cap[s] || arms[s].result.evaluations < budget;
          },
          config.max_parallelism);
      // Gain statistics: how much a scout improves from its start through the
      // probe, pooled across scouts. The unknown-variance radius over this
      // pool is the slack an arm gets before the rule may prune it.
      ArmStats gains;
      std::vector<double> probe_gain(n, 0.0);
      for (size_t s : scouts) {
        AddWork(arms[s].result, out);
        OptimResult start_point;
        start_point.value = start_value(s);
        start_point.max_violation = problem.MaxViolation(starts[s].x);
        probe_gain[s] = std::max(0.0, merit(start_point) - merit(arms[s].result));
        gains.Add(probe_gain[s]);
        out.race.rounds = 1;
      }
      // Racing rounds: prune what cannot beat the leader, extend the best
      // remaining challenger to its full tier cap, repeat. Leader, challenger
      // and prune decisions are pure functions of the accumulated stats.
      while (true) {
        size_t leader = n;
        for (size_t s = 0; s < n; ++s) {
          if (arms[s].rankable &&
              (leader == n || RanksBetter(arms[s].result, arms[leader].result, tol))) {
            leader = s;
          }
        }
        const double radius = ConfidenceRadius(gains, config.racing_delta);
        size_t challenger = n;
        double challenger_bound = 0.0;
        for (size_t s : scouts) {
          if (arms[s].rankable || arms[s].pruned || arms[s].deadline_skipped) {
            continue;
          }
          // The predicted extension gain is the arm's observed probe gain.
          const double optimistic = merit(arms[s].result) - probe_gain[s] -
                                    (std::isfinite(radius) ? radius : probe_gain[s]);
          if (leader != n && optimistic > merit(arms[leader].result)) {
            // Even an optimistic extension cannot beat the leader: stop.
            arms[s].pruned = true;
            ++out.race.arms_pruned;
            continue;
          }
          if (challenger == n || optimistic < challenger_bound) {
            challenger = s;
            challenger_bound = optimistic;
          }
        }
        if (challenger == n) {
          break;  // every scout is capped, pruned, or skipped
        }
        if (deadline_passed()) {
          for (size_t s : scouts) {
            if (!arms[s].rankable && !arms[s].pruned) {
              arms[s].deadline_skipped = true;
            }
          }
          break;
        }
        if (out.evaluations + cap[challenger] > tier_budget) {
          // Total-budget guard: racing never spends more than running every
          // arm to its tier cap would. Remaining arms stop at their probes.
          for (size_t s : scouts) {
            if (!arms[s].rankable && !arms[s].pruned && !arms[s].deadline_skipped) {
              arms[s].pruned = true;
              ++out.race.arms_pruned;
            }
          }
          break;
        }
        const double before = merit(arms[challenger].result);
        arms[challenger].result = run_prefix(challenger, cap[challenger]);
        AddWork(arms[challenger].result, out);
        arms[challenger].rankable = true;
        gains.Add(std::max(0.0, before - merit(arms[challenger].result)));
        ++out.race.rounds;
      }
    }
  }
  // (On an early exit, scouts never run, and the saved-evaluations ledger
  // compares against the tier caps of the arms that would have run.)

  // --- Ranking over final results. With an early exit at anchor e, only
  // arms 0..e are candidates (all of them ran, serially).
  out.early_exit = exit_arm < n;
  const size_t rank_limit = out.early_exit ? exit_arm : n - 1;
  size_t winner = n;
  for (size_t s = 0; s < n; ++s) {
    const Arm& arm = arms[s];
    if (arm.ran) {
      ++out.starts_launched;
    }
    if (arm.deadline_skipped) {
      ++out.starts_deadline_skipped;
      out.deadline_hit = true;
    } else if (arm.pruned) {
      ++out.starts_pruned;
    } else if (!arm.ran) {
      ++out.starts_cancelled;  // cancelled by the early exit
    }
    if (arm.rankable && s <= rank_limit &&
        (winner == n || RanksBetter(arm.result, arms[winner].result, tol))) {
      winner = s;
    }
  }
  out.race.evaluations_spent = static_cast<uint64_t>(std::max<int64_t>(0, out.evaluations));
  if (tier_budget > out.evaluations) {
    out.race.evaluations_saved = static_cast<uint64_t>(tier_budget - out.evaluations);
  }
  if (winner == n) {
    return out;  // deadline hit before any anchor ran; degradation ladder
  }
  out.winner_start = winner;
  out.winner_kind = starts[winner].kind;
  out.best = arms[winner].result;
  return out;
}

}  // namespace

const char* StartKindName(StartKind kind) {
  switch (kind) {
    case StartKind::kWarmCurrent:
      return "warm-current";
    case StartKind::kPrevSolution:
      return "prev-solution";
    case StartKind::kHeuristic:
      return "heuristic";
    case StartKind::kJitter:
      return "jitter";
  }
  return "unknown";
}

MultiStartResult MultiStartSolve(const Problem& problem, std::vector<StartPoint> starts,
                                 size_t extra_jittered, const MultiStartConfig& config) {
  MultiStartResult out;
  if (starts.empty()) {
    return out;
  }
  const size_t base = starts.size();
  for (size_t k = 0; k < extra_jittered; ++k) {
    Rng rng(HashCombine(config.seed, k + 1));
    StartPoint variant;
    variant.kind = StartKind::kJitter;
    variant.x = starts[k % base].x;
    for (double& v : variant.x) {
      v *= 1.0 + config.jitter * (2.0 * rng.Uniform() - 1.0);
    }
    starts.push_back(std::move(variant));
  }
  for (StartPoint& start : starts) {
    // Full-vector clip: replica *and* drop-rate coordinates land inside the
    // box before any solver sees them.
    problem.ClipToBounds(start.x);
  }

  return RaceSolve(problem, starts, config);
}

}  // namespace faro
