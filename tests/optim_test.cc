#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/optim/auglag.h"
#include "src/optim/cobyla.h"
#include "src/optim/de.h"
#include "src/optim/linalg.h"
#include "src/optim/multistart.h"
#include "src/optim/problem.h"

namespace faro {
namespace {

TEST(LinAlgTest, LuSolvesDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  std::vector<double> x;
  ASSERT_TRUE(LuSolve(a, std::vector<double>{2.0, 8.0}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LinAlgTest, LuSolvesWithPivoting) {
  // Leading zero forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  std::vector<double> x;
  ASSERT_TRUE(LuSolve(a, std::vector<double>{3.0, 5.0}, x));
  EXPECT_NEAR(x[0], 5.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinAlgTest, SingularDetected) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  std::vector<double> x;
  EXPECT_FALSE(LuSolve(a, std::vector<double>{1.0, 2.0}, x));
}

// The elimination LuSolve ran before factorisations were kept: one
// right-hand side eliminated alongside a copy of the matrix, whole rows
// swapped. Kept verbatim as the bit-equality reference for LuFactors.
// `swaps` counts the steps whose pivot row differed from the diagonal.
bool ReferenceLuSolve(const Matrix& a, std::span<const double> b, std::vector<double>& x,
                      size_t& swaps) {
  const size_t n = a.rows();
  if (n == 0 || a.cols() != n || b.size() != n) {
    return false;
  }
  Matrix lu = a;
  std::vector<double> rhs(b.begin(), b.end());
  swaps = 0;
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    double best = std::abs(lu(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(lu(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-14) {
      return false;
    }
    if (pivot != col) {
      ++swaps;
      for (size_t c = 0; c < n; ++c) {
        std::swap(lu(pivot, c), lu(col, c));
      }
      std::swap(rhs[pivot], rhs[col]);
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = lu(r, col) / lu(col, col);
      lu(r, col) = 0.0;
      for (size_t c = col + 1; c < n; ++c) {
        lu(r, c) -= factor * lu(col, c);
      }
      rhs[r] -= factor * rhs[col];
    }
  }
  x.assign(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double sum = rhs[ri];
    for (size_t c = ri + 1; c < n; ++c) {
      sum -= lu(ri, c) * x[c];
    }
    x[ri] = sum / lu(ri, ri);
  }
  return true;
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Solves every column of `b` (n x k) three ways -- the reference, LuSolve,
// and one multi-column LuFactors::Solve -- and expects identical bits.
// Returns the reference's pivot swap count.
size_t ExpectFactorOnceMatchesReference(const Matrix& a, const Matrix& b) {
  const size_t n = a.rows();
  LuFactors lu;
  EXPECT_TRUE(lu.Factor(a));
  Matrix solved = b;
  lu.Solve(solved.data());
  size_t swaps = 0;
  for (size_t j = 0; j < b.cols(); ++j) {
    std::vector<double> column(n);
    std::vector<double> got_column(n);
    for (size_t r = 0; r < n; ++r) {
      column[r] = b(r, j);
      got_column[r] = solved(r, j);
    }
    std::vector<double> want;
    std::vector<double> got;
    EXPECT_TRUE(ReferenceLuSolve(a, column, want, swaps));
    EXPECT_TRUE(LuSolve(a, column, got));
    EXPECT_TRUE(SameBits(got, want)) << "n=" << n << " rhs " << j << " via LuSolve";
    EXPECT_TRUE(SameBits(got_column, want)) << "n=" << n << " rhs " << j << " via Solve";
  }
  return swaps;
}

TEST(LinAlgTest, FactorOnceIsBitIdenticalToPerRhsElimination) {
  std::mt19937_64 rng(0xfa20u);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (size_t n = 1; n <= 24; ++n) {
    // Mixed magnitudes, and a shrunken diagonal so partial pivoting picks an
    // off-diagonal row at most columns.
    Matrix a(n, n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < n; ++c) {
        a(r, c) = unit(rng) * std::ldexp(1.0, static_cast<int>(rng() % 9) - 4);
      }
      a(r, r) /= 64.0;
    }
    Matrix b(n, 30);
    for (size_t r = 0; r < n; ++r) {
      for (size_t j = 0; j < b.cols(); ++j) {
        b(r, j) = unit(rng) * std::ldexp(1.0, static_cast<int>(rng() % 9) - 4);
      }
    }
    const size_t swaps = ExpectFactorOnceMatchesReference(a, b);
    if (n >= 4) {
      EXPECT_GE(swaps, n / 2) << "n=" << n << ": too few pivot changes to test";
    }
  }
}

TEST(LinAlgTest, PivotSwapKeepsEarlierMultipliersInPlace) {
  // Step 0 pivots on row 2 and leaves multipliers 0.5 (position 1) and 0.25
  // (position 2); step 1 pivots on position 2 again. Swapping the step-0
  // multipliers along with the rows would replay 0.25 on position 1 in the
  // forward pass: a wrong solution, not just different bits.
  Matrix a(3, 3);
  const double rows[3][3] = {{1.0, 2.0, 3.0}, {2.0, 1.0, 1.0}, {4.0, 1.0, 5.0}};
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      a(r, c) = rows[r][c];
    }
  }
  Matrix b(3, 1);
  b(0, 0) = 14.0;  // A * (1, 2, 3)
  b(1, 0) = 7.0;
  b(2, 0) = 21.0;
  EXPECT_EQ(ExpectFactorOnceMatchesReference(a, b), 2u);
  std::vector<double> x;
  ASSERT_TRUE(LuSolve(a, std::vector<double>{14.0, 7.0, 21.0}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(ProblemTest, MaxViolationIncludesBounds) {
  Problem p(2, [](std::span<const double> x) { return x[0]; });
  p.SetBounds({0.0, 0.0}, {1.0, 1.0});
  p.AddConstraint([](std::span<const double> x) { return x[0] + x[1] - 1.0; });
  const std::vector<double> x{-0.5, 2.0};
  EXPECT_NEAR(p.MaxViolation(x), 1.0, 1e-12);  // upper bound on x1 worst
  const std::vector<double> feasible{0.6, 0.6};
  EXPECT_DOUBLE_EQ(p.MaxViolation(feasible), 0.0);
}

// --- COBYLA on Powell's classic test problems ----------------------------

TEST(CobylaTest, UnconstrainedQuadratic) {
  Problem p(2, [](std::span<const double> x) {
    return 10.0 * (x[0] + 1.0) * (x[0] + 1.0) + (x[1] - 1.0) * (x[1] - 1.0);
  });
  CobylaConfig config;
  config.rho_begin = 1.0;
  config.rho_end = 1e-6;
  const auto result = Cobyla(p, std::vector<double>{0.0, 0.0}, config);
  EXPECT_NEAR(result.x[0], -1.0, 1e-2);
  EXPECT_NEAR(result.x[1], 1.0, 1e-2);
}

TEST(CobylaTest, PowellProblem2CircleConstraint) {
  // minimize x0 * x1  s.t.  1 - x0^2 - x1^2 >= 0.
  // Optimum: f = -1/2 at (±sqrt(2)/2, ∓sqrt(2)/2).
  Problem p(2, [](std::span<const double> x) { return x[0] * x[1]; });
  p.AddConstraint([](std::span<const double> x) { return 1.0 - x[0] * x[0] - x[1] * x[1]; });
  CobylaConfig config;
  config.rho_begin = 0.5;
  config.rho_end = 1e-6;
  const auto result = Cobyla(p, std::vector<double>{1.0, 1.0}, config);
  EXPECT_NEAR(result.value, -0.5, 5e-2);
  EXPECT_LE(result.max_violation, 1e-4);
}

TEST(CobylaTest, LinearProgramWithBounds) {
  // minimize x0 + x1 with x0 >= 1, x1 >= 2 -> 3.
  Problem p(2, [](std::span<const double> x) { return x[0] + x[1]; });
  p.SetBounds({1.0, 2.0}, {100.0, 100.0});
  CobylaConfig config;
  config.rho_begin = 2.0;
  config.rho_end = 1e-6;
  const auto result = Cobyla(p, std::vector<double>{50.0, 50.0}, config);
  EXPECT_NEAR(result.value, 3.0, 1e-2);
  EXPECT_LE(result.max_violation, 1e-4);
}

TEST(CobylaTest, ConstrainedQuadraticKnownOptimum) {
  // minimize (x0 - 2)^2 + (x1 - 1)^2  s.t.  x1 - x0^2 >= 0, 2 - x0 - x1 >= 0.
  // Optimum at (1, 1), f = 1.
  Problem p(2, [](std::span<const double> x) {
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] - 1.0) * (x[1] - 1.0);
  });
  p.AddConstraint([](std::span<const double> x) { return x[1] - x[0] * x[0]; });
  p.AddConstraint([](std::span<const double> x) { return 2.0 - x[0] - x[1]; });
  CobylaConfig config;
  config.rho_begin = 0.5;
  config.rho_end = 1e-6;
  config.max_evaluations = 5000;
  const auto result = Cobyla(p, std::vector<double>{0.0, 0.0}, config);
  EXPECT_NEAR(result.value, 1.0, 5e-2);
  EXPECT_LE(result.max_violation, 1e-3);
}

TEST(CobylaTest, Rosenbrock) {
  Problem p(2, [](std::span<const double> x) {
    const double a = x[1] - x[0] * x[0];
    const double b = 1.0 - x[0];
    return 100.0 * a * a + b * b;
  });
  CobylaConfig config;
  config.rho_begin = 0.5;
  config.rho_end = 1e-8;
  config.max_evaluations = 20000;
  const auto result = Cobyla(p, std::vector<double>{-1.2, 1.0}, config);
  EXPECT_LT(result.value, 1e-2);
}

TEST(CobylaTest, InfeasibleStartRecovers) {
  // Start far outside the feasible circle; COBYLA must pull the iterate in.
  Problem p(2, [](std::span<const double> x) { return x[0] + x[1]; });
  p.AddConstraint([](std::span<const double> x) {
    return 1.0 - (x[0] - 1.0) * (x[0] - 1.0) - (x[1] - 1.0) * (x[1] - 1.0);
  });
  CobylaConfig config;
  config.rho_begin = 1.0;
  config.rho_end = 1e-6;
  const auto result = Cobyla(p, std::vector<double>{8.0, 8.0}, config);
  EXPECT_LE(result.max_violation, 1e-3);
  // Optimum of x0 + x1 on that disk is 2 - sqrt(2).
  EXPECT_NEAR(result.value, 2.0 - std::numbers::sqrt2, 0.1);
}

TEST(CobylaTest, RespectsEvaluationBudget) {
  int evals = 0;
  Problem p(3, [&evals](std::span<const double> x) {
    ++evals;
    return x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
  });
  CobylaConfig config;
  config.max_evaluations = 50;
  Cobyla(p, std::vector<double>{5.0, 5.0, 5.0}, config);
  EXPECT_LE(evals, 55);  // small slack for the final bookkeeping
}

TEST(CobylaTest, TenDimensionalSeparableQuadratic) {
  // Shape of the Faro stage-2 problem: many variables, box bounds, one
  // coupling (capacity) constraint.
  const size_t n = 10;
  Problem p(n, [](std::span<const double> x) {
    double sum = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double target = 2.0 + static_cast<double>(i);
      sum += (x[i] - target) * (x[i] - target);
    }
    return sum;
  });
  std::vector<double> lo(n, 1.0);
  std::vector<double> hi(n, 100.0);
  p.SetBounds(lo, hi);
  p.AddConstraint([](std::span<const double> x) {
    double sum = 0.0;
    for (const double v : x) {
      sum += v;
    }
    return 200.0 - sum;  // non-binding at the optimum (sum of targets = 65)
  });
  CobylaConfig config;
  config.rho_begin = 2.0;
  config.rho_end = 1e-5;
  config.max_evaluations = 20000;
  const auto result = Cobyla(p, std::vector<double>(n, 1.0), config);
  EXPECT_LT(result.value, 0.5);
  EXPECT_LE(result.max_violation, 1e-4);
}

TEST(CobylaTest, RosenbrockConstrainedToDisk) {
  // min rosenbrock s.t. x^2 + y^2 <= 2; optimum at (1, 1) on the boundary.
  Problem p(2, [](std::span<const double> x) {
    const double a = x[1] - x[0] * x[0];
    const double b = 1.0 - x[0];
    return 100.0 * a * a + b * b;
  });
  p.AddConstraint([](std::span<const double> x) { return 2.0 - x[0] * x[0] - x[1] * x[1]; });
  CobylaConfig config;
  config.rho_begin = 0.5;
  config.rho_end = 1e-7;
  config.max_evaluations = 20000;
  const auto result = Cobyla(p, std::vector<double>{0.0, 0.0}, config);
  EXPECT_NEAR(result.x[0], 1.0, 0.05);
  EXPECT_NEAR(result.x[1], 1.0, 0.1);
  EXPECT_LE(result.max_violation, 1e-4);
}

TEST(CobylaTest, LinearObjectiveOnUnitDisk) {
  // max x0 + x1 on the unit disk -> (sqrt2/2, sqrt2/2), f = -sqrt2.
  Problem p(2, [](std::span<const double> x) { return -(x[0] + x[1]); });
  p.AddConstraint([](std::span<const double> x) { return 1.0 - x[0] * x[0] - x[1] * x[1]; });
  CobylaConfig config;
  config.rho_begin = 0.5;
  config.rho_end = 1e-6;
  const auto result = Cobyla(p, std::vector<double>{0.0, 0.0}, config);
  EXPECT_NEAR(result.value, -std::numbers::sqrt2, 0.02);
  EXPECT_LE(result.max_violation, 1e-4);
}

TEST(CobylaTest, ScipyDocExampleWithLinearConstraints) {
  // min (x0-1)^2 + (x1-2.5)^2 s.t. x0-2x1+2>=0, -x0-2x1+6>=0, -x0+2x1+2>=0,
  // x >= 0. Known optimum (1.4, 1.7).
  Problem p(2, [](std::span<const double> x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] - 2.5) * (x[1] - 2.5);
  });
  p.SetBounds({0.0, 0.0}, {10.0, 10.0});
  p.AddConstraint([](std::span<const double> x) { return x[0] - 2.0 * x[1] + 2.0; });
  p.AddConstraint([](std::span<const double> x) { return -x[0] - 2.0 * x[1] + 6.0; });
  p.AddConstraint([](std::span<const double> x) { return -x[0] + 2.0 * x[1] + 2.0; });
  CobylaConfig config;
  config.rho_begin = 1.0;
  config.rho_end = 1e-7;
  config.max_evaluations = 10000;
  const auto result = Cobyla(p, std::vector<double>{2.0, 0.0}, config);
  EXPECT_NEAR(result.x[0], 1.4, 0.05);
  EXPECT_NEAR(result.x[1], 1.7, 0.05);
}

TEST(CobylaTest, FiveDimSphereWithActiveLinearConstraint) {
  // min ||x||^2 s.t. sum x >= 5 -> x_i = 1 each, f = 5.
  Problem p(5, [](std::span<const double> x) {
    double sum = 0.0;
    for (const double v : x) {
      sum += v * v;
    }
    return sum;
  });
  p.AddConstraint([](std::span<const double> x) {
    double sum = 0.0;
    for (const double v : x) {
      sum += v;
    }
    return sum - 5.0;
  });
  CobylaConfig config;
  config.rho_begin = 1.0;
  config.rho_end = 1e-6;
  config.max_evaluations = 20000;
  const auto result = Cobyla(p, std::vector<double>(5, 3.0), config);
  EXPECT_NEAR(result.value, 5.0, 0.05);
  EXPECT_LE(result.max_violation, 1e-4);
}

TEST(CobylaTest, DeterministicAcrossRuns) {
  Problem p(3, [](std::span<const double> x) {
    return x[0] * x[0] + 2.0 * x[1] * x[1] + 3.0 * x[2] * x[2];
  });
  CobylaConfig config;
  const auto a = Cobyla(p, std::vector<double>{2.0, 2.0, 2.0}, config);
  const auto b = Cobyla(p, std::vector<double>{2.0, 2.0, 2.0}, config);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.x[i], b.x[i]);
  }
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// --- Differential Evolution ----------------------------------------------

TEST(DifferentialEvolutionTest, SolvesRosenbrock) {
  Problem p(2, [](std::span<const double> x) {
    const double a = x[1] - x[0] * x[0];
    const double b = 1.0 - x[0];
    return 100.0 * a * a + b * b;
  });
  p.SetBounds({-5.0, -5.0}, {5.0, 5.0});
  DeConfig config;
  config.generations = 400;
  const auto result = DifferentialEvolution(p, config);
  EXPECT_LT(result.value, 1e-3);
}

TEST(DifferentialEvolutionTest, EscapesPlateau) {
  // A step function ("precise utility" shape): local solvers see zero
  // gradient; DE's population sampling still finds the basin.
  Problem p(1, [](std::span<const double> x) {
    return x[0] < 3.0 ? 1.0 : (x[0] > 3.5 ? 1.0 : 0.0);
  });
  p.SetBounds({0.0}, {10.0});
  DeConfig config;
  config.generations = 100;
  const auto result = DifferentialEvolution(p, config);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
  EXPECT_GE(result.x[0], 3.0);
  EXPECT_LE(result.x[0], 3.5);
}

TEST(DifferentialEvolutionTest, DeterministicForSameSeed) {
  Problem p(2, [](std::span<const double> x) { return x[0] * x[0] + x[1] * x[1]; });
  p.SetBounds({-2.0, -2.0}, {2.0, 2.0});
  DeConfig config;
  config.seed = 99;
  config.generations = 50;
  const auto a = DifferentialEvolution(p, config);
  const auto b = DifferentialEvolution(p, config);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.x[i], b.x[i]);
  }
}

TEST(DifferentialEvolutionTest, HonoursConstraint) {
  Problem p(2, [](std::span<const double> x) { return x[0] * x[1]; });
  p.SetBounds({-2.0, -2.0}, {2.0, 2.0});
  p.AddConstraint([](std::span<const double> x) { return 1.0 - x[0] * x[0] - x[1] * x[1]; });
  DeConfig config;
  config.generations = 400;
  const auto result = DifferentialEvolution(p, config);
  EXPECT_NEAR(result.value, -0.5, 5e-2);
  EXPECT_LE(result.max_violation, 5e-2);
}

TEST(DifferentialEvolutionTest, StaysInBounds) {
  Problem p(3, [](std::span<const double> x) { return -(x[0] + x[1] + x[2]); });
  p.SetBounds({0.0, 0.0, 0.0}, {1.0, 2.0, 3.0});
  const auto result = DifferentialEvolution(p);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GE(result.x[i], 0.0);
    EXPECT_LE(result.x[i], static_cast<double>(i + 1) + 1e-12);
  }
  EXPECT_NEAR(result.value, -6.0, 1e-6);
}

// --- Augmented Lagrangian (SLSQP stand-in) --------------------------------

TEST(AugLagTest, UnconstrainedQuadratic) {
  Problem p(2, [](std::span<const double> x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 2.0) * (x[1] + 2.0);
  });
  const auto result = AugmentedLagrangian(p, std::vector<double>{0.0, 0.0});
  EXPECT_NEAR(result.x[0], 3.0, 1e-4);
  EXPECT_NEAR(result.x[1], -2.0, 1e-4);
}

TEST(AugLagTest, ActiveInequalityConstraint) {
  // minimize (x0 - 2)^2 + (x1 - 2)^2 s.t. x0 + x1 <= 2 -> optimum (1, 1).
  Problem p(2, [](std::span<const double> x) {
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] - 2.0) * (x[1] - 2.0);
  });
  p.AddConstraint([](std::span<const double> x) { return 2.0 - x[0] - x[1]; });
  const auto result = AugmentedLagrangian(p, std::vector<double>{0.0, 0.0});
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], 1.0, 1e-3);
  EXPECT_LE(result.max_violation, 1e-6);
}

TEST(AugLagTest, BoundsEnforced) {
  Problem p(1, [](std::span<const double> x) { return x[0]; });
  p.SetBounds({2.5}, {10.0});
  const auto result = AugmentedLagrangian(p, std::vector<double>{5.0});
  EXPECT_NEAR(result.x[0], 2.5, 1e-3);
}

// --- Cross-solver property: all solvers agree on a smooth convex problem ---

class SolverAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreementTest, ConvexQuadraticWithConstraint) {
  // minimize ||x - (3,3)||^2 s.t. x0 + x1 <= 4 -> optimum (2, 2), f = 2.
  Problem p(2, [](std::span<const double> x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] - 3.0) * (x[1] - 3.0);
  });
  p.SetBounds({0.0, 0.0}, {10.0, 10.0});
  p.AddConstraint([](std::span<const double> x) { return 4.0 - x[0] - x[1]; });
  const std::vector<double> x0{1.0, 1.0};
  OptimResult result;
  switch (GetParam()) {
    case 0: {
      CobylaConfig config;
      config.rho_begin = 1.0;
      config.rho_end = 1e-6;
      result = Cobyla(p, x0, config);
      break;
    }
    case 1: {
      result = DifferentialEvolution(p);
      break;
    }
    default: {
      result = AugmentedLagrangian(p, x0);
      break;
    }
  }
  EXPECT_NEAR(result.value, 2.0, 0.05);
  EXPECT_LE(result.max_violation, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SolverAgreementTest, ::testing::Values(0, 1, 2));

// The convex quadratic from SolverAgreementTest, reused by the multi-start
// driver tests: optimum (2, 2), f = 2 on the constraint x0 + x1 <= 4.
// RacingDeterminismTest (bai_test.cc) covers the single-round race at the
// default probe; the tests here add the multi-round and serial cases.
Problem MakeConstrainedQuadratic() {
  Problem p(2, [](std::span<const double> x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] - 3.0) * (x[1] - 3.0);
  });
  p.SetBounds({0.0, 0.0}, {10.0, 10.0});
  p.AddConstraint([](std::span<const double> x) { return 4.0 - x[0] - x[1]; });
  return p;
}

TEST(MultiStartTest, FindsConstrainedOptimum) {
  const Problem p = MakeConstrainedQuadratic();
  MultiStartConfig config;
  config.seed = 11;
  std::vector<StartPoint> starts;
  starts.push_back({{1.0, 1.0}, StartKind::kWarmCurrent});
  starts.push_back({{9.0, 0.5}, StartKind::kHeuristic});
  const MultiStartResult result = MultiStartSolve(p, starts, 2, config);
  EXPECT_NEAR(result.best.value, 2.0, 0.05);
  EXPECT_LE(result.best.max_violation, 1e-2);
  EXPECT_EQ(result.starts_total, 4u);  // 2 starts + 2 jittered
  EXPECT_EQ(result.starts_launched + result.starts_cancelled + result.starts_deadline_skipped,
            result.starts_total);
  EXPECT_GT(result.evaluations, 0);
}

TEST(MultiStartTest, BitIdenticalAcrossParallelism) {
  // A 16-evaluation probe truncates every scout, so the race runs extension
  // rounds; the winner must still not depend on how many workers raced it.
  for (const bool early_exit : {true, false}) {
    std::vector<MultiStartResult> results;
    for (const size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
      const Problem p = MakeConstrainedQuadratic();
      MultiStartConfig config;
      config.seed = 3;
      config.early_exit = early_exit;
      config.max_parallelism = parallelism;
      config.racing_probe_evals = 16;
      std::vector<StartPoint> starts;
      starts.push_back({{1.0, 1.0}, StartKind::kWarmCurrent});
      starts.push_back({{8.0, 8.0}, StartKind::kHeuristic});
      results.push_back(MultiStartSolve(p, starts, 4, config));
    }
    if (!early_exit) {
      EXPECT_GT(results[0].race.rounds, 1u);
    }
    for (size_t k = 1; k < results.size(); ++k) {
      EXPECT_EQ(results[0].winner_start, results[k].winner_start);
      EXPECT_EQ(results[0].early_exit, results[k].early_exit);
      EXPECT_EQ(results[0].evaluations, results[k].evaluations);
      EXPECT_EQ(results[0].race.rounds, results[k].race.rounds);
      ASSERT_EQ(results[0].best.x.size(), results[k].best.x.size());
      for (size_t d = 0; d < results[0].best.x.size(); ++d) {
        EXPECT_EQ(results[0].best.x[d], results[k].best.x[d])
            << "early_exit=" << early_exit << " run=" << k << " dim=" << d;
      }
      EXPECT_EQ(results[0].best.value, results[k].best.value);
    }
  }
}

TEST(MultiStartTest, SerialEarlyExitSkipsTailFromNearOptimalStart) {
  // Start 0 sits on the constrained optimum already: the solve converges
  // feasibly with ~no improvement, clearing the stability bar, so a serial
  // run must skip every later start and report the start-0 winner.
  const Problem p = MakeConstrainedQuadratic();
  MultiStartConfig config;
  config.seed = 5;
  config.max_parallelism = 1;
  std::vector<StartPoint> starts;
  starts.push_back({{2.0, 2.0}, StartKind::kWarmCurrent});
  const MultiStartResult result = MultiStartSolve(p, starts, 5, config);
  EXPECT_TRUE(result.early_exit);
  EXPECT_EQ(result.winner_start, 0u);
  EXPECT_EQ(result.starts_launched, 1u);
  EXPECT_EQ(result.starts_cancelled, result.starts_total - 1);
}

TEST(MultiStartTest, StabilityBarBlocksEarlyExitFromFarStart) {
  // Start 0 is feasible but far from the optimum: the solve improves a lot,
  // failing the stability bar, so every scout is raced and the best one wins.
  const Problem p = MakeConstrainedQuadratic();
  MultiStartConfig config;
  config.seed = 5;
  config.max_parallelism = 1;
  std::vector<StartPoint> starts;
  starts.push_back({{0.5, 0.5}, StartKind::kWarmCurrent});
  const MultiStartResult result = MultiStartSolve(p, starts, 3, config);
  EXPECT_FALSE(result.early_exit);
  EXPECT_EQ(result.starts_cancelled, 0u);
  EXPECT_EQ(result.starts_deadline_skipped, 0u);
  EXPECT_NEAR(result.best.value, 2.0, 0.05);
}

TEST(MultiStartTest, StartsAreClippedIntoBounds) {
  // A start far outside the box (both coordinates) must be clipped before the
  // solvers run; the solve still lands on the optimum.
  const Problem p = MakeConstrainedQuadratic();
  MultiStartConfig config;
  config.seed = 9;
  config.early_exit = false;
  std::vector<StartPoint> starts;
  starts.push_back({{-50.0, 400.0}, StartKind::kWarmCurrent});
  const MultiStartResult result = MultiStartSolve(p, starts, 0, config);
  EXPECT_NEAR(result.best.value, 2.0, 0.1);
  EXPECT_LE(result.best.max_violation, 1e-2);
}

}  // namespace
}  // namespace faro
