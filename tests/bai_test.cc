// Best-arm-identification core: closed-form checks of the unknown-variance
// stopping rule, BaiRace bookkeeping, and the multi-start racing driver's
// determinism and tier-cap equivalence contracts.
//
// The RacingDeterminismTest suite runs under TSan in CI (ctest -R
// Determinism) alongside the harness determinism tests: the scout-probe
// fan-out is the only parallel section of the racing driver, and the winner
// must be bit-identical at any max_parallelism.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/optim/bai.h"
#include "src/optim/cobyla.h"
#include "src/optim/multistart.h"

namespace faro {
namespace {

// --- ArmStats: Welford moments against hand-computed values ---

TEST(BaiStatsTest, MomentsMatchClosedForm) {
  ArmStats stats;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) {
    stats.Add(v);
  }
  EXPECT_EQ(stats.n, 4u);
  EXPECT_DOUBLE_EQ(stats.mean, 2.5);
  EXPECT_DOUBLE_EQ(stats.Variance(), 5.0 / 3.0);  // unbiased: m2 = 5, n-1 = 3
  EXPECT_DOUBLE_EQ(stats.Range(), 3.0);
}

TEST(BaiStatsTest, DegenerateCountsAreSafe) {
  ArmStats stats;
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Range(), 0.0);
  stats.Add(7.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);  // one sample says nothing
  EXPECT_DOUBLE_EQ(stats.Range(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean, 7.0);
}

// --- Stopping rule: beta, radius, separation against closed-form numbers ---

TEST(BaiStoppingTest, BetaMatchesClosedForm) {
  // beta(n, delta) = log(1/delta) + 2 log(1 + log2(n + 1)).
  // n=1,  d=0.05: log 20 + 2 log(1 + 1)         = 2.9957323 + 1.3862944
  // n=4,  d=0.05: log 20 + 2 log(1 + log2 5)    = 2.9957323 + 2.4011448
  // n=16, d=0.05: log 20 + 2 log(1 + log2 17)   = 2.9957323 + 3.2535586
  EXPECT_NEAR(BaiBeta(1, 0.05), 4.3820266, 1e-6);
  EXPECT_NEAR(BaiBeta(4, 0.05), 5.3968230, 1e-6);
  EXPECT_NEAR(BaiBeta(16, 0.05), 6.2492909, 1e-6);
  // Anytime-valid: beta grows with n (repeated looks) and with confidence.
  EXPECT_GT(BaiBeta(100, 0.05), BaiBeta(10, 0.05));
  EXPECT_GT(BaiBeta(10, 0.01), BaiBeta(10, 0.05));
}

TEST(BaiStoppingTest, RadiusMatchesClosedFormGaussianCase) {
  // 16 alternating +-0.5 observations: mean 0, m2 = 16 * 0.25 = 4,
  // Var = 4/15, Range = 1. With beta(16, 0.05) = 6.2492909:
  //   radius = sqrt(2 * (4/15) * beta / 16) + 3 * 1 * beta / 16
  //          = 0.4564096 + 1.1717420 = 1.6281516.
  ArmStats stats;
  for (int i = 0; i < 16; ++i) {
    stats.Add(i % 2 == 0 ? 0.5 : -0.5);
  }
  EXPECT_NEAR(stats.mean, 0.0, 1e-12);
  EXPECT_NEAR(stats.Variance(), 4.0 / 15.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.Range(), 1.0);
  EXPECT_NEAR(ConfidenceRadius(stats, 0.05), 1.6281516, 1e-4);
}

TEST(BaiStoppingTest, RadiusInfiniteBelowTwoObservations) {
  ArmStats stats;
  EXPECT_TRUE(std::isinf(ConfidenceRadius(stats, 0.05)));
  stats.Add(3.0);
  EXPECT_TRUE(std::isinf(ConfidenceRadius(stats, 0.05)));
  stats.Add(3.0);
  EXPECT_TRUE(std::isfinite(ConfidenceRadius(stats, 0.05)));
}

TEST(BaiStoppingTest, SeparatedRequiresDisjointIntervals) {
  // Radius 1.6281516 per arm (previous test): intervals are disjoint only
  // when the gap exceeds 2 * 1.6281516 = 3.2563. Gap 4 separates, gap 3
  // does not -- a direct closed-form check of the two-arm test.
  auto make = [](double center) {
    ArmStats stats;
    for (int i = 0; i < 16; ++i) {
      stats.Add(center + (i % 2 == 0 ? 0.5 : -0.5));
    }
    return stats;
  };
  const ArmStats low = make(0.0);
  EXPECT_TRUE(Separated(low, make(4.0), 0.05));
  EXPECT_FALSE(Separated(low, make(3.0), 0.05));
  // Zero-variance arms have radius 0: any mean gap separates.
  ArmStats tight_a;
  tight_a.Add(1.0);
  tight_a.Add(1.0);
  ArmStats tight_b;
  tight_b.Add(1.000001);
  tight_b.Add(1.000001);
  EXPECT_TRUE(Separated(tight_a, tight_b, 0.05));
  EXPECT_FALSE(Separated(tight_a, tight_a, 0.05));  // equal means: no verdict
}

// --- BaiRace: leader/challenger selection, pruning, bookkeeping ---

TEST(BaiRaceTest, LeaderTiesBreakToLowerIndexAndUnobservedRankLast) {
  BaiRace race(3);
  race.Add(0, 5.0);
  race.Add(1, 5.0);  // exact tie with arm 0
  EXPECT_EQ(race.Leader(), 0u);
  // Arm 2 unobserved: never the leader, even though arms 0/1 have data.
  race.Add(0, 5.0);
  race.Add(1, 5.0);
  EXPECT_EQ(race.Leader(), 0u);
  BaiRace fresh(2);
  fresh.Add(1, 3.0);
  EXPECT_EQ(fresh.Leader(), 1u);  // only observed arm leads
}

TEST(BaiRaceTest, ChallengerPrefersOptimisticWideArm) {
  BaiRace race(3);
  // Arm 0: tight leader at 1. Arm 1: tight at 2. Arm 2: mean 5.25 but huge
  // spread -> optimistic bound (mean - radius) far below arm 1's.
  race.Add(0, 1.0);
  race.Add(0, 1.1);
  race.Add(1, 2.0);
  race.Add(1, 2.01);
  race.Add(2, 10.0);
  race.Add(2, 0.5);
  EXPECT_EQ(race.Leader(), 0u);
  EXPECT_EQ(race.Challenger(), 2u);
}

TEST(BaiRaceTest, PruneSeparatedDropsOnlyClearLosers) {
  BaiRace race(3);
  for (int i = 0; i < 16; ++i) {
    const double noise = i % 2 == 0 ? 0.5 : -0.5;
    race.Add(0, 0.0 + noise);  // leader
    race.Add(1, 8.0 + noise);  // gap 8 > 2 * 1.628: separated
    race.Add(2, 2.0 + noise);  // gap 2 < 2 * 1.628: still in play
  }
  EXPECT_EQ(race.PruneSeparated(0.05), 1u);
  EXPECT_TRUE(race.active(0));
  EXPECT_FALSE(race.active(1));
  EXPECT_TRUE(race.active(2));
  EXPECT_FALSE(race.Decided());
  EXPECT_EQ(race.PruneSeparated(0.05), 0u);  // idempotent on the survivors
}

TEST(BaiRaceTest, SingleObservationArmIsNeverPruned) {
  BaiRace race(2);
  for (int i = 0; i < 16; ++i) {
    race.Add(0, i % 2 == 0 ? 0.5 : -0.5);
  }
  race.Add(1, 1e6);  // terrible, but one sample has an infinite radius
  EXPECT_EQ(race.PruneSeparated(0.05), 0u);
  EXPECT_TRUE(race.active(1));
}

TEST(BaiRaceTest, RetireAndLateAddsKeepArmInactive) {
  BaiRace race(2);
  race.Add(0, 1.0);
  race.Add(1, 2.0);
  race.Retire(1);
  EXPECT_FALSE(race.active(1));
  EXPECT_EQ(race.active_count(), 1u);
  EXPECT_TRUE(race.Decided());
  race.Add(1, 0.1);  // late result improves the estimate...
  EXPECT_EQ(race.stats(1).n, 2u);
  EXPECT_FALSE(race.active(1));  // ...but never re-activates
  EXPECT_EQ(race.Challenger(), race.arms());  // fewer than two active
}

TEST(BaiRaceTest, TelemetryMergesWithPlusEquals) {
  RacingTelemetry a;
  a.races = 1;
  a.rounds = 3;
  a.arms_total = 5;
  a.arms_pruned = 2;
  a.evaluations_spent = 700;
  a.evaluations_saved = 300;
  RacingTelemetry b = a;
  b += a;
  EXPECT_EQ(b.races, 2u);
  EXPECT_EQ(b.rounds, 6u);
  EXPECT_EQ(b.arms_total, 10u);
  EXPECT_EQ(b.arms_pruned, 4u);
  EXPECT_EQ(b.evaluations_spent, 1400u);
  EXPECT_EQ(b.evaluations_saved, 600u);
}

// --- Racing driver: determinism + equivalence with the tier-cap reference ---

// The convex quadratic the multi-start tests use: optimum (2, 2), f = 2 on
// the constraint x0 + x1 <= 4.
Problem MakeConstrainedQuadratic() {
  Problem p(2, [](std::span<const double> x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] - 3.0) * (x[1] - 3.0);
  });
  p.SetBounds({0.0, 0.0}, {10.0, 10.0});
  p.AddConstraint([](std::span<const double> x) { return 4.0 - x[0] - x[1]; });
  return p;
}

MultiStartConfig RacingConfig() {
  MultiStartConfig config;
  config.seed = 3;
  return config;
}

TEST(RacingDeterminismTest, WinnerBitIdenticalAcrossParallelism) {
  for (const bool early_exit : {true, false}) {
    std::vector<MultiStartResult> results;
    for (const size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
      const Problem p = MakeConstrainedQuadratic();
      MultiStartConfig config = RacingConfig();
      config.early_exit = early_exit;
      config.max_parallelism = parallelism;
      std::vector<StartPoint> starts;
      starts.push_back({{1.0, 1.0}, StartKind::kWarmCurrent});
      starts.push_back({{8.0, 8.0}, StartKind::kHeuristic});
      results.push_back(MultiStartSolve(p, starts, 4, config));
    }
    for (size_t k = 1; k < results.size(); ++k) {
      EXPECT_EQ(results[0].winner_start, results[k].winner_start);
      EXPECT_EQ(results[0].early_exit, results[k].early_exit);
      EXPECT_EQ(results[0].evaluations, results[k].evaluations);
      EXPECT_EQ(results[0].starts_pruned, results[k].starts_pruned);
      EXPECT_EQ(results[0].race.rounds, results[k].race.rounds);
      EXPECT_EQ(results[0].race.evaluations_spent, results[k].race.evaluations_spent);
      ASSERT_EQ(results[0].best.x.size(), results[k].best.x.size());
      for (size_t d = 0; d < results[0].best.x.size(); ++d) {
        EXPECT_EQ(results[0].best.x[d], results[k].best.x[d])
            << "early_exit=" << early_exit << " run=" << k << " dim=" << d;
      }
      EXPECT_EQ(results[0].best.value, results[k].best.value);
    }
  }
}

TEST(RacingDeterminismTest, RacedWinnerMatchesStaticTiers) {
  // The static-tier reference, built here without any driver code: expand
  // the jittered starts, clip every start into the box, run COBYLA once from
  // each at its tier cap, and rank by (feasible, value, index). On a problem
  // where no arm is pruned, a raced arm is either final at its probe or
  // extended to that same cap, so by COBYLA's prefix property the raced
  // winner -- index, x and value -- must be bit-identical to the reference.
  const Problem p = MakeConstrainedQuadratic();
  MultiStartConfig config = RacingConfig();
  config.early_exit = false;
  std::vector<StartPoint> starts;
  starts.push_back({{1.0, 1.0}, StartKind::kWarmCurrent});
  starts.push_back({{9.0, 0.5}, StartKind::kHeuristic});
  const size_t jittered = 4;

  std::vector<std::vector<double>> points;
  for (const StartPoint& start : starts) {
    points.push_back(start.x);
  }
  for (size_t k = 0; k < jittered; ++k) {
    Rng rng(HashCombine(config.seed, k + 1));
    std::vector<double> x = starts[k % starts.size()].x;
    for (double& v : x) {
      v *= 1.0 + config.jitter * (2.0 * rng.Uniform() - 1.0);
    }
    points.push_back(std::move(x));
  }
  const int full = config.cobyla.max_evaluations;
  size_t best = points.size();
  OptimResult best_result;
  for (size_t s = 0; s < points.size(); ++s) {
    p.ClipToBounds(points[s]);
    CobylaConfig cobyla = config.cobyla;
    cobyla.max_evaluations = s == 0 ? full : std::max(200, full / 4);  // scouts
    const OptimResult result = Cobyla(p, points[s], cobyla);
    const bool ok = result.max_violation <= config.feasibility_tolerance;
    const bool best_ok = best_result.max_violation <= config.feasibility_tolerance;
    if (best == points.size() || (ok && !best_ok) ||
        (ok == best_ok && result.value < best_result.value)) {
      best = s;
      best_result = result;
    }
  }

  // Auto probes converge below their budget (final as-is); 16-evaluation
  // probes are truncated, so every scout is extended to its cap: the probe
  // round plus one extension round per scout.
  const size_t scouts = points.size() - 1;
  for (const int probe : {0, 16}) {
    config.racing_probe_evals = probe;
    const MultiStartResult raced = MultiStartSolve(p, starts, jittered, config);
    ASSERT_EQ(raced.starts_total, points.size()) << "probe " << probe;
    EXPECT_EQ(raced.starts_pruned, 0u) << "probe " << probe;
    EXPECT_EQ(raced.race.rounds, probe == 0 ? 1u : 1u + scouts) << "probe " << probe;
    EXPECT_EQ(raced.race.arms_total, raced.starts_total) << "probe " << probe;
    EXPECT_EQ(raced.winner_start, best) << "probe " << probe;
    EXPECT_EQ(raced.best.value, best_result.value) << "probe " << probe;
    ASSERT_EQ(raced.best.x.size(), best_result.x.size());
    for (size_t d = 0; d < raced.best.x.size(); ++d) {
      EXPECT_EQ(raced.best.x[d], best_result.x[d]) << "probe " << probe << " dim " << d;
    }
  }
  EXPECT_NEAR(best_result.value, 2.0, 0.05);
}

TEST(RacingDeterminismTest, EarlyExitCancelsScoutsBeforeTheyRun) {
  // Warm start on the optimum: the anchor clears the stability bar, scouts
  // are cancelled unprobed, and the saved-evaluations ledger credits their
  // whole tier cap.
  const Problem p = MakeConstrainedQuadratic();
  MultiStartConfig config = RacingConfig();
  config.seed = 5;
  std::vector<StartPoint> starts;
  starts.push_back({{2.0, 2.0}, StartKind::kWarmCurrent});
  const MultiStartResult result = MultiStartSolve(p, starts, 5, config);
  EXPECT_TRUE(result.early_exit);
  EXPECT_EQ(result.winner_start, 0u);
  EXPECT_EQ(result.starts_launched, 1u);
  EXPECT_EQ(result.starts_cancelled, result.starts_total - 1);
  EXPECT_EQ(result.starts_pruned, 0u);
  EXPECT_GT(result.race.evaluations_saved, 0u);
}

TEST(RacingDeterminismTest, ConfirmShortcutKeepsWinnerWithFewerEvals) {
  // A short confirmation prefix from a stable warm start exits on the same
  // winner while spending no more than the unconfirmed full-tier run.
  const Problem p = MakeConstrainedQuadratic();
  std::vector<StartPoint> starts;
  starts.push_back({{2.0, 2.0}, StartKind::kWarmCurrent});
  MultiStartConfig config = RacingConfig();
  config.seed = 5;
  const MultiStartResult plain = MultiStartSolve(p, starts, 3, config);
  config.racing_confirm_evals = 20;
  const MultiStartResult confirmed = MultiStartSolve(p, starts, 3, config);
  EXPECT_TRUE(confirmed.early_exit);
  EXPECT_EQ(confirmed.winner_start, plain.winner_start);
  EXPECT_LE(confirmed.evaluations, plain.evaluations);
  EXPECT_LE(confirmed.best.max_violation, 1e-2);
}

}  // namespace
}  // namespace faro
