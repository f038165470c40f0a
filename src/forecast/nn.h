// Minimal neural-network substrate with hand-written backpropagation.
//
// The forecasting models in this library (N-HiTS, LSTM, DeepAR-style) are
// small -- tens of thousands of parameters -- so a dependency-free dense
// implementation with explicit gradients is simpler and faster to build than
// an autodiff graph, and every gradient is unit-tested against finite
// differences (tests/forecast_test.cc).

#ifndef SRC_FORECAST_NN_H_
#define SRC_FORECAST_NN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"

namespace faro {

using Vec = std::vector<double>;

// Fully-connected layer y = W x + b with accumulated gradients.
//
// The kernels restructure loops for speed but never the floating-point
// sums: y[r] is one left-to-right sum over c starting from b[r], each
// gradient element adds its samples in sample order, and dx[c] sums over r
// ascending from 0.0 (tests/forecast_golden_test.cc pins the bits).
class Linear {
 public:
  Linear() = default;
  Linear(size_t in, size_t out, Rng& rng);

  size_t in() const { return in_; }
  size_t out() const { return out_; }

  // y must hold out() values.
  void Forward(std::span<const double> x, std::span<double> y) const;
  void Forward(std::span<const double> x, Vec& y) const {
    y.resize(out_);
    Forward(x, std::span<double>(y));
  }

  // Backpropagates n samples at once, stored sample-major (x: n*in(),
  // dy: n*out()): adds every sample's dL/dW and dL/db in sample order and
  // writes dL/dx into dx (n*in(); empty to skip). The bits equal n
  // single-sample Backward calls; a batch reads each weight and gradient row
  // once instead of n times.
  void BackwardBatch(std::span<const double> x, std::span<const double> dy,
                     std::span<double> dx);

  // dy is dL/dy; accumulates dL/dW and dL/db, writes dL/dx into dx
  // (dx may be null to skip input-gradient computation for the first layer).
  void Backward(std::span<const double> x, std::span<const double> dy, Vec* dx);

  void ZeroGrad();

  // Parameter/gradient access for the optimizer (weights first, then bias).
  Vec& weights() { return w_; }
  Vec& bias() { return b_; }
  Vec& weight_grads() { return gw_; }
  Vec& bias_grads() { return gb_; }

 private:
  size_t in_ = 0;
  size_t out_ = 0;
  Vec w_;   // out x in, row-major
  Vec b_;   // out
  Vec gw_;
  Vec gb_;
};

// ReLU applied in place; Backward masks the gradient by the forward output.
void ReluForward(std::span<double> x);
void ReluBackward(std::span<const double> activated, std::span<double> grad);

// Numerically-stable softplus and its derivative (sigmoid).
double Softplus(double x);
double SoftplusPrime(double x);
double Sigmoid(double x);

// Inverse standard-normal CDF (Acklam's rational approximation, |err|<1e-9).
// Used to turn (mu, sigma) predictive distributions into quantile
// trajectories without sampling.
double InverseNormalCdf(double p);

// Adam optimizer over a fixed ordered set of (parameter, gradient) tensors.
// Register the same tensors in the same order every step.
class AdamOptimizer {
 public:
  explicit AdamOptimizer(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                         double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  // `grads` hold gradients summed over `batch` samples; each is divided by
  // `batch` as it is read, so the step sees the batch mean.
  void Step(std::span<Vec*> params, std::span<Vec*> grads, size_t batch = 1);

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  int t_ = 0;
  std::vector<Vec> m_;
  std::vector<Vec> v_;
};

// Max pooling with kernel == stride (multi-rate sampling in N-HiTS).
// Output length is ceil(n / kernel); ragged tails pool over fewer elements.
void MaxPoolForward(std::span<const double> x, size_t kernel, Vec& y,
                    std::vector<size_t>& argmax);
void MaxPoolBackward(std::span<const double> dy, std::span<const size_t> argmax, size_t n,
                     Vec& dx);

// Linear interpolation of `coeffs` (length m) onto a grid of length n
// (hierarchical interpolation in N-HiTS). For m == 1 the value is constant.
void InterpolateForward(std::span<const double> coeffs, size_t n, Vec& y);
// Transpose map: distributes dL/dy (length n) back onto dL/dcoeffs (length m).
void InterpolateBackward(std::span<const double> dy, size_t m, Vec& dcoeffs);

}  // namespace faro

#endif  // SRC_FORECAST_NN_H_
