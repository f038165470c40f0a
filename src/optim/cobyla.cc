#include "src/optim/cobyla.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/optim/linalg.h"

namespace faro {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Evaluation record for one simplex vertex: objective plus all constraint
// values (problem constraints first, then box-bound constraints).
struct Vertex {
  std::vector<double> x;
  double f = kInf;
  std::vector<double> c;
};

class CobylaSolver {
 public:
  CobylaSolver(const Problem& problem, std::span<const double> x0, const CobylaConfig& config)
      : problem_(problem), config_(config), n_(problem.dimension()) {
    // Box bounds become ordinary linear constraints so the interpolation
    // models capture them exactly.
    for (size_t j = 0; j < n_; ++j) {
      if (std::isfinite(problem_.lower()[j])) {
        bound_lo_.push_back(j);
      }
      if (std::isfinite(problem_.upper()[j])) {
        bound_hi_.push_back(j);
      }
    }
    m_ = problem_.num_constraints() + bound_lo_.size() + bound_hi_.size();
    start_.assign(x0.begin(), x0.end());
  }

  OptimResult Solve();

 private:
  void Evaluate(Vertex& v);
  double MaxViolationOf(const Vertex& v) const;
  double Merit(const Vertex& v) const { return v.f + mu_ * MaxViolationOf(v); }
  // Squared distance of simplex_[j] from simplex_[0].
  double SquaredDistanceToBase(size_t j) const;

  // Fits linear models around simplex_[0] from one factorisation of the
  // simplex displacements; returns false when the simplex is numerically
  // degenerate.
  bool FitModels();

  // One pass over the constraint models: model_c_[i] = c_i + g_i.step at
  // simplex_[0], each dot product summed in Dot's order. Returns the smallest
  // value (0 when m_ == 0) and its lowest index in `active`.
  double SweepConstraintModels(std::span<const double> step, size_t& active);

  // Solves min g.d + mu * max(0, -min_i(c_i + a_i.d)) over ||d|| <= rho via
  // two-phase projected subgradient. Returns the step in `d` and its model
  // merit as the return value.
  double SolveSubproblem(double rho, std::vector<double>& d);

  // Replaces the vertex farthest from the best with a fresh point at distance
  // rho along the least-covered coordinate direction, restoring geometry.
  void GeometryStep(double rho);

  const Problem& problem_;
  CobylaConfig config_;
  size_t n_;
  size_t m_ = 0;
  std::vector<size_t> bound_lo_;
  std::vector<size_t> bound_hi_;
  std::vector<double> start_;

  std::vector<Vertex> simplex_;
  // Linear models around simplex_[0].
  LuFactors lu_;
  std::vector<double> grad_f_;
  // n_ x m_, column i the gradient of constraint i: the m_ sums of a sweep
  // advance together along each row.
  Matrix grad_c_;
  std::vector<double> model_c_;  // last SweepConstraintModels() values
  double mu_ = 1.0;
  int evaluations_ = 0;
  int subproblem_solves_ = 0;
  int model_fits_ = 0;
  size_t geometry_coordinate_ = 0;
};

void CobylaSolver::Evaluate(Vertex& v) {
  v.f = problem_.Objective(v.x);
  problem_.Constraints(v.x, v.c);
  v.c.reserve(m_);
  for (const size_t j : bound_lo_) {
    v.c.push_back(v.x[j] - problem_.lower()[j]);
  }
  for (const size_t j : bound_hi_) {
    v.c.push_back(problem_.upper()[j] - v.x[j]);
  }
  ++evaluations_;
}

double CobylaSolver::MaxViolationOf(const Vertex& v) const {
  double violation = 0.0;
  for (const double c : v.c) {
    violation = std::max(violation, -c);
  }
  return violation;
}

bool CobylaSolver::FitModels() {
  ++model_fits_;
  Matrix displacements(n_, n_);
  for (size_t j = 0; j < n_; ++j) {
    for (size_t k = 0; k < n_; ++k) {
      displacements(j, k) = simplex_[j + 1].x[k] - simplex_[0].x[k];
    }
  }
  if (!lu_.Factor(displacements)) {
    return false;
  }
  grad_f_.resize(n_);
  grad_c_ = Matrix(n_, m_);
  for (size_t j = 0; j < n_; ++j) {
    grad_f_[j] = simplex_[j + 1].f - simplex_[0].f;
    for (size_t i = 0; i < m_; ++i) {
      grad_c_(j, i) = simplex_[j + 1].c[i] - simplex_[0].c[i];
    }
  }
  lu_.Solve(grad_f_);
  lu_.Solve(grad_c_.data());
  return true;
}

double CobylaSolver::SweepConstraintModels(std::span<const double> step, size_t& active) {
  model_c_.assign(m_, 0.0);
  for (size_t k = 0; k < n_; ++k) {
    const std::span<const double> g = grad_c_.row(k);
    const double s = step[k];
    for (size_t i = 0; i < m_; ++i) {
      model_c_[i] += g[i] * s;
    }
  }
  const std::vector<double>& base_c = simplex_[0].c;
  double worst = kInf;
  active = 0;
  for (size_t i = 0; i < m_; ++i) {
    model_c_[i] = base_c[i] + model_c_[i];
    if (model_c_[i] < worst) {
      worst = model_c_[i];
      active = i;
    }
  }
  return m_ == 0 ? 0.0 : worst;
}

double CobylaSolver::SolveSubproblem(double rho, std::vector<double>& d) {
  ++subproblem_solves_;
  auto sub_merit = [&](std::span<const double> step, double min_constraint) {
    return Dot(grad_f_, step) + mu_ * std::max(0.0, -min_constraint);
  };
  auto project = [&](std::vector<double>& step) {
    const double norm = Norm2(step);
    if (norm > rho) {
      const double scale = rho / norm;
      for (double& s : step) {
        s *= scale;
      }
    }
  };

  // `worst` and `active` always describe `current`: one sweep per step feeds
  // both the step's merit and the next step's subgradient.
  std::vector<double> current(n_, 0.0);
  size_t active = 0;
  double worst = SweepConstraintModels(current, active);
  std::vector<double> best = current;
  double best_merit = sub_merit(best, worst);
  std::vector<double> subgrad(n_);

  // Phase 1: if the base point violates the linearised constraints, descend
  // pure violation first so phase 2 starts from a (model-)feasible region.
  if (worst < 0.0) {
    for (int it = 1; it <= 40; ++it) {
      // Subgradient of -min_i c_hat_i: negative gradient of the active one.
      if (worst >= 0.0) {
        break;
      }
      for (size_t k = 0; k < n_; ++k) {
        subgrad[k] = -grad_c_(k, active);
      }
      const double norm = Norm2(subgrad);
      if (norm < 1e-14) {
        break;
      }
      const double step_len = rho / (2.0 * std::sqrt(static_cast<double>(it)));
      for (size_t k = 0; k < n_; ++k) {
        current[k] -= step_len * subgrad[k] / norm;
      }
      project(current);
      worst = SweepConstraintModels(current, active);
      const double merit = sub_merit(current, worst);
      if (merit < best_merit) {
        best_merit = merit;
        best = current;
      }
    }
    current = best;
    worst = SweepConstraintModels(current, active);
  }

  // Phase 2: projected subgradient on the merit model.
  const int iterations = 60 + static_cast<int>(10 * n_);
  for (int it = 1; it <= iterations; ++it) {
    // Subgradient of g.d + mu * max(0, -min_i c_hat_i).
    subgrad = grad_f_;
    if (worst < 0.0) {
      for (size_t k = 0; k < n_; ++k) {
        subgrad[k] -= mu_ * grad_c_(k, active);
      }
    }
    const double norm = Norm2(subgrad);
    if (norm < 1e-14) {
      break;
    }
    const double step_len = rho / std::sqrt(static_cast<double>(it));
    for (size_t k = 0; k < n_; ++k) {
      current[k] -= step_len * subgrad[k] / norm;
    }
    project(current);
    worst = SweepConstraintModels(current, active);
    const double merit = sub_merit(current, worst);
    if (merit < best_merit) {
      best_merit = merit;
      best = current;
    }
  }
  d = best;
  return best_merit;
}

double CobylaSolver::SquaredDistanceToBase(size_t j) const {
  double dist = 0.0;
  for (size_t k = 0; k < n_; ++k) {
    const double delta = simplex_[j].x[k] - simplex_[0].x[k];
    dist += delta * delta;
  }
  return dist;
}

void CobylaSolver::GeometryStep(double rho) {
  // Farthest vertex from the current best is the stalest model point.
  size_t farthest = 1;
  double max_dist = -1.0;
  for (size_t j = 1; j <= n_; ++j) {
    const double dist = SquaredDistanceToBase(j);
    if (dist > max_dist) {
      max_dist = dist;
      farthest = j;
    }
  }
  Vertex fresh;
  fresh.x = simplex_[0].x;
  const size_t coord = geometry_coordinate_ % n_;
  geometry_coordinate_++;
  fresh.x[coord] += rho;
  Evaluate(fresh);
  simplex_[farthest] = std::move(fresh);
}

OptimResult CobylaSolver::Solve() {
  double rho = config_.rho_begin;
  simplex_.resize(n_ + 1);
  simplex_[0].x = start_;
  Evaluate(simplex_[0]);
  for (size_t j = 0; j < n_; ++j) {
    simplex_[j + 1].x = start_;
    simplex_[j + 1].x[j] += rho;
    Evaluate(simplex_[j + 1]);
  }

  int stall_count = 0;
  bool converged = false;
  std::vector<double> d;
  while (evaluations_ < config_.max_evaluations) {
    // Keep the best (lowest merit) vertex at index 0.
    size_t best = 0;
    for (size_t j = 1; j <= n_; ++j) {
      if (Merit(simplex_[j]) < Merit(simplex_[best])) {
        best = j;
      }
    }
    if (best != 0) {
      std::swap(simplex_[0], simplex_[best]);
    }

    // Vertices far outside the trust region poison the linear models.
    double max_dist = 0.0;
    for (size_t j = 1; j <= n_; ++j) {
      max_dist = std::max(max_dist, std::sqrt(SquaredDistanceToBase(j)));
    }
    if (max_dist > 2.5 * rho || !FitModels()) {
      GeometryStep(rho);
      continue;
    }

    // Predicted merit reduction from the linear models.
    const double predicted_merit = SolveSubproblem(rho, d);
    const double step_norm = Norm2(d);

    const Vertex& base = simplex_[0];
    const double base_merit_excess = mu_ * MaxViolationOf(base);
    const double predicted_reduction = base_merit_excess - predicted_merit;

    if (step_norm < 0.1 * rho || predicted_reduction < 1e-12) {
      // Models say we are (locally) done at this resolution.
      if (rho <= config_.rho_end * 1.0001) {
        converged = true;
        break;
      }
      rho = std::max(0.5 * rho, config_.rho_end);
      continue;
    }

    Vertex candidate;
    candidate.x = base.x;
    for (size_t k = 0; k < n_; ++k) {
      candidate.x[k] += d[k];
    }
    Evaluate(candidate);

    // Penalty-parameter update (before acceptance, so the candidate is judged
    // with the corrected weight): if the step trades feasibility for
    // objective, mu must outweigh the exchange rate or the merit function
    // would reward walking ever deeper into the infeasible region.
    const double candidate_violation = MaxViolationOf(candidate);
    const double base_violation = MaxViolationOf(base);
    if (candidate_violation > base_violation + 1e-12) {
      const double objective_gain = base.f - candidate.f;
      if (objective_gain > 0.0) {
        const double needed = 2.0 * objective_gain / (candidate_violation - base_violation);
        if (needed > mu_) {
          mu_ = std::min(needed, 1e9);
        }
      }
    }

    // Replace the worst vertex when the candidate improves on it.
    size_t worst = 1;
    for (size_t j = 2; j <= n_; ++j) {
      if (Merit(simplex_[j]) > Merit(simplex_[worst])) {
        worst = j;
      }
    }
    if (Merit(candidate) < Merit(simplex_[worst])) {
      simplex_[worst] = std::move(candidate);
      if (Merit(simplex_[worst]) < Merit(simplex_[0])) {
        stall_count = 0;
      }
    } else {
      ++stall_count;
      if (stall_count >= 3) {
        stall_count = 0;
        if (rho <= config_.rho_end * 1.0001) {
          converged = true;
          break;
        }
        rho = std::max(0.5 * rho, config_.rho_end);
      }
    }
  }

  // Report the best vertex, preferring feasibility.
  OptimResult result;
  result.evaluations = evaluations_;
  result.subproblem_solves = subproblem_solves_;
  result.model_fits = model_fits_;
  result.converged = converged;
  size_t best = 0;
  bool best_feasible = MaxViolationOf(simplex_[0]) <= 1e-6;
  for (size_t j = 1; j <= n_; ++j) {
    const bool feasible = MaxViolationOf(simplex_[j]) <= 1e-6;
    const bool better_class = feasible && !best_feasible;
    const bool same_class = feasible == best_feasible;
    const double key_j = feasible ? simplex_[j].f : Merit(simplex_[j]);
    const double key_b = best_feasible ? simplex_[best].f : Merit(simplex_[best]);
    if (better_class || (same_class && key_j < key_b)) {
      best = j;
      best_feasible = feasible;
    }
  }
  result.x = simplex_[best].x;
  result.value = simplex_[best].f;
  result.max_violation = MaxViolationOf(simplex_[best]);
  return result;
}

}  // namespace

OptimResult Cobyla(const Problem& problem, std::span<const double> x0,
                   const CobylaConfig& config) {
  CobylaSolver solver(problem, x0, config);
  return solver.Solve();
}

}  // namespace faro
