// Minimal dense linear algebra for the solvers: row-major matrices, LU
// factorisation with partial pivoting. Sizes here are tiny (tens to low
// hundreds), so a straightforward O(n^3) implementation is the right tool.
// Operation order is fixed (DESIGN.md, "Bit-identity rules for solver linear
// algebra"): COBYLA's trajectory depends on every rounding.

#ifndef SRC_OPTIM_LINALG_H_
#define SRC_OPTIM_LINALG_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace faro {

// Dense row-major matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  std::span<double> row(size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(size_t r) const { return {data_.data() + r * cols_, cols_}; }
  std::span<double> data() { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// LU factorisation with partial pivoting, kept so that any number of
// right-hand sides can be solved against one factorisation. Each solved
// column gets exactly the operations of eliminating it alongside the matrix.
class LuFactors {
 public:
  // Factors the square matrix `a`. Returns false if `a` is empty, not square
  // or numerically singular; Solve() must not be called then.
  bool Factor(const Matrix& a);

  // Overwrites `b`, k = b.size() / n right-hand sides as an n x k row-major
  // block, with the solutions of A X = B.
  void Solve(std::span<double> b) const;

 private:
  // U on and above the diagonal; below it, the multiplier of each elimination
  // step, stored by row *position* at that step.
  Matrix lu_;
  std::vector<size_t> pivot_;  // row swapped into position col at step col
};

// Solves A x = b (factor + solve). Returns false if A is numerically
// singular; `x` is then left untouched.
bool LuSolve(const Matrix& a, std::span<const double> b, std::vector<double>& x);

// Dot product of equal-length spans, summed left to right from 0.0.
inline double Dot(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

// Euclidean norm.
inline double Norm2(std::span<const double> a) { return std::sqrt(Dot(a, a)); }

}  // namespace faro

#endif  // SRC_OPTIM_LINALG_H_
