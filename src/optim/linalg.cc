#include "src/optim/linalg.h"

#include <algorithm>

namespace faro {

bool LuFactors::Factor(const Matrix& a) {
  const size_t n = a.rows();
  if (n == 0 || a.cols() != n) {
    return false;
  }
  lu_ = a;
  pivot_.resize(n);
  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    size_t pivot = col;
    double best = std::abs(lu_(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-14) {
      return false;
    }
    pivot_[col] = pivot;
    if (pivot != col) {
      // Columns left of `col` hold earlier steps' multipliers. Solve() replays
      // them interleaved with the swaps, by position, so they stay put.
      std::swap_ranges(&lu_(col, col), &lu_(col, 0) + n, &lu_(pivot, col));
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) / lu_(col, col);
      lu_(r, col) = factor;
      for (size_t c = col + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(col, c);
      }
    }
  }
  return true;
}

void LuFactors::Solve(std::span<double> b) const {
  const size_t n = lu_.rows();
  const size_t k = b.size() / n;
  // Forward pass: the elimination's row swaps and updates, step by step.
  for (size_t col = 0; col < n; ++col) {
    if (pivot_[col] != col) {
      std::swap_ranges(b.data() + col * k, b.data() + (col + 1) * k, b.data() + pivot_[col] * k);
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col);
      for (size_t j = 0; j < k; ++j) {
        b[r * k + j] -= factor * b[col * k + j];
      }
    }
  }
  // Back substitution; each column's sum runs over c = ri+1..n-1 in order.
  for (size_t ri = n; ri-- > 0;) {
    for (size_t c = ri + 1; c < n; ++c) {
      const double u = lu_(ri, c);
      for (size_t j = 0; j < k; ++j) {
        b[ri * k + j] -= u * b[c * k + j];
      }
    }
    for (size_t j = 0; j < k; ++j) {
      b[ri * k + j] /= lu_(ri, ri);
    }
  }
}

bool LuSolve(const Matrix& a, std::span<const double> b, std::vector<double>& x) {
  LuFactors lu;
  if (b.size() != a.rows() || !lu.Factor(a)) {
    return false;
  }
  x.assign(b.begin(), b.end());
  lu.Solve(x);
  return true;
}

}  // namespace faro
