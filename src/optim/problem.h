// Nonlinear programming problem definition shared by all solvers.
//
// Convention (matching scipy.optimize / Powell's COBYLA):
//   minimize f(x)
//   subject to  c_i(x) >= 0   for every inequality constraint,
//               lo_j <= x_j <= hi_j  (optional box bounds).
//
// Faro's cluster objectives are *maximised*; callers negate them when
// constructing a Problem.

#ifndef SRC_OPTIM_PROBLEM_H_
#define SRC_OPTIM_PROBLEM_H_

#include <functional>
#include <limits>
#include <span>
#include <vector>

namespace faro {

using ObjectiveFn = std::function<double(std::span<const double>)>;
using ConstraintFn = std::function<double(std::span<const double>)>;

class Problem {
 public:
  Problem(size_t dimension, ObjectiveFn objective)
      : dimension_(dimension),
        objective_(std::move(objective)),
        lower_(dimension, -std::numeric_limits<double>::infinity()),
        upper_(dimension, std::numeric_limits<double>::infinity()) {}

  size_t dimension() const { return dimension_; }

  void AddConstraint(ConstraintFn c) { constraints_.push_back(std::move(c)); }
  size_t num_constraints() const { return constraints_.size(); }

  void SetBounds(std::vector<double> lower, std::vector<double> upper) {
    lower_ = std::move(lower);
    upper_ = std::move(upper);
  }
  std::span<const double> lower() const { return lower_; }
  std::span<const double> upper() const { return upper_; }
  bool has_finite_bounds() const;

  double Objective(std::span<const double> x) const { return objective_(x); }
  double Constraint(size_t i, std::span<const double> x) const { return constraints_[i](x); }

  // Evaluates all constraints into `out` (resized to num_constraints()).
  void Constraints(std::span<const double> x, std::vector<double>& out) const;

  // Largest constraint violation, i.e. max(0, -min_i c_i(x)), including box
  // bounds. Zero means feasible.
  double MaxViolation(std::span<const double> x) const;

  // Clips x into the box bounds in place.
  void ClipToBounds(std::span<double> x) const;

 private:
  size_t dimension_;
  ObjectiveFn objective_;
  std::vector<ConstraintFn> constraints_;
  std::vector<double> lower_;
  std::vector<double> upper_;
};

// Result of a solver run.
struct OptimResult {
  std::vector<double> x;
  double value = std::numeric_limits<double>::infinity();
  double max_violation = 0.0;
  int evaluations = 0;
  bool converged = false;
  // COBYLA work counts (zero for the other solvers): trust-region
  // subproblems solved and linear-model fits (one LU factorisation each).
  int subproblem_solves = 0;
  int model_fits = 0;
};

}  // namespace faro

#endif  // SRC_OPTIM_PROBLEM_H_
