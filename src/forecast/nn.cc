#include "src/forecast/nn.h"

#include <algorithm>
#include <cmath>

namespace faro {

Linear::Linear(size_t in, size_t out, Rng& rng) : in_(in), out_(out) {
  w_.resize(in * out);
  b_.assign(out, 0.0);
  gw_.assign(in * out, 0.0);
  gb_.assign(out, 0.0);
  // He initialisation (layers are ReLU-activated).
  const double scale = std::sqrt(2.0 / static_cast<double>(in));
  for (double& w : w_) {
    w = scale * rng.Normal();
  }
}

void Linear::Forward(std::span<const double> x, std::span<double> y) const {
  // Four rows at a time: four independent sums share each load of x[c].
  size_t r = 0;
  for (; r + 4 <= out_; r += 4) {
    const double* w0 = w_.data() + r * in_;
    const double* w1 = w0 + in_;
    const double* w2 = w1 + in_;
    const double* w3 = w2 + in_;
    double s0 = b_[r];
    double s1 = b_[r + 1];
    double s2 = b_[r + 2];
    double s3 = b_[r + 3];
    for (size_t c = 0; c < in_; ++c) {
      const double xc = x[c];
      s0 += w0[c] * xc;
      s1 += w1[c] * xc;
      s2 += w2[c] * xc;
      s3 += w3[c] * xc;
    }
    y[r] = s0;
    y[r + 1] = s1;
    y[r + 2] = s2;
    y[r + 3] = s3;
  }
  for (; r < out_; ++r) {
    const double* row = w_.data() + r * in_;
    double sum = b_[r];
    for (size_t c = 0; c < in_; ++c) {
      sum += row[c] * x[c];
    }
    y[r] = sum;
  }
}

void Linear::BackwardBatch(std::span<const double> x, std::span<const double> dy,
                           std::span<double> dx) {
  const size_t n = out_ == 0 ? 0 : dy.size() / out_;
  std::fill(dx.begin(), dx.end(), 0.0);
  // One pass over the rows: row r's weight gradient, bias gradient and
  // contribution to every sample's dx are finished before row r + 1, so the
  // gradient row stays in L1 while the samples stream past it.
  for (size_t r = 0; r < out_; ++r) {
    const double* row = w_.data() + r * in_;
    double* grow = gw_.data() + r * in_;
    for (size_t s = 0; s < n; ++s) {
      const double g = dy[s * out_ + r];
      const double* xs = x.data() + s * in_;
      gb_[r] += g;
      for (size_t c = 0; c < in_; ++c) {
        grow[c] += g * xs[c];
      }
      if (!dx.empty()) {
        double* dxs = dx.data() + s * in_;
        for (size_t c = 0; c < in_; ++c) {
          dxs[c] += g * row[c];
        }
      }
    }
  }
}

void Linear::Backward(std::span<const double> x, std::span<const double> dy, Vec* dx) {
  if (dx == nullptr) {
    BackwardBatch(x, dy, {});
    return;
  }
  dx->resize(in_);
  BackwardBatch(x, dy, *dx);
}

void Linear::ZeroGrad() {
  std::fill(gw_.begin(), gw_.end(), 0.0);
  std::fill(gb_.begin(), gb_.end(), 0.0);
}

void ReluForward(std::span<double> x) {
  for (double& v : x) {
    v = std::max(0.0, v);
  }
}

void ReluBackward(std::span<const double> activated, std::span<double> grad) {
  // A select rather than a conditional store, so the loop vectorizes.
  for (size_t i = 0; i < grad.size(); ++i) {
    grad[i] = activated[i] <= 0.0 ? 0.0 : grad[i];
  }
}

double Softplus(double x) {
  if (x > 30.0) {
    return x;
  }
  if (x < -30.0) {
    return std::exp(x);
  }
  return std::log1p(std::exp(x));
}

double Sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

double SoftplusPrime(double x) { return Sigmoid(x); }

double InverseNormalCdf(double p) {
  // Peter Acklam's rational approximation with one Halley refinement.
  p = std::clamp(p, 1e-12, 1.0 - 1e-12);
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  double x = 0.0;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley step sharpens the tail accuracy.
  const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

void AdamOptimizer::Step(std::span<Vec*> params, std::span<Vec*> grads, size_t batch) {
  if (m_.size() != params.size()) {
    m_.resize(params.size());
    v_.resize(params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      m_[i].assign(params[i]->size(), 0.0);
      v_[i].assign(params[i]->size(), 0.0);
    }
  }
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, t_);
  const double bias2 = 1.0 - std::pow(beta2_, t_);
  const double divisor = static_cast<double>(batch);
  for (size_t i = 0; i < params.size(); ++i) {
    Vec& p = *params[i];
    const Vec& g = *grads[i];
    Vec& m = m_[i];
    Vec& v = v_[i];
    for (size_t k = 0; k < p.size(); ++k) {
      const double gk = g[k] / divisor;
      m[k] = beta1_ * m[k] + (1.0 - beta1_) * gk;
      v[k] = beta2_ * v[k] + (1.0 - beta2_) * gk * gk;
      const double mhat = m[k] / bias1;
      const double vhat = v[k] / bias2;
      p[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void MaxPoolForward(std::span<const double> x, size_t kernel, Vec& y,
                    std::vector<size_t>& argmax) {
  kernel = std::max<size_t>(kernel, 1);
  const size_t n = x.size();
  const size_t m = (n + kernel - 1) / kernel;
  y.resize(m);
  argmax.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const size_t begin = i * kernel;
    const size_t end = std::min(begin + kernel, n);
    size_t best = begin;
    for (size_t k = begin + 1; k < end; ++k) {
      if (x[k] > x[best]) {
        best = k;
      }
    }
    y[i] = x[best];
    argmax[i] = best;
  }
}

void MaxPoolBackward(std::span<const double> dy, std::span<const size_t> argmax, size_t n,
                     Vec& dx) {
  dx.assign(n, 0.0);
  for (size_t i = 0; i < dy.size(); ++i) {
    dx[argmax[i]] += dy[i];
  }
}

void InterpolateForward(std::span<const double> coeffs, size_t n, Vec& y) {
  const size_t m = coeffs.size();
  y.resize(n);
  if (m == 0) {
    std::fill(y.begin(), y.end(), 0.0);
    return;
  }
  if (m == 1) {
    std::fill(y.begin(), y.end(), coeffs[0]);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const double pos = n == 1 ? 0.0
                              : static_cast<double>(i) * static_cast<double>(m - 1) /
                                    static_cast<double>(n - 1);
    const size_t lo = std::min(static_cast<size_t>(pos), m - 2);
    const double frac = pos - static_cast<double>(lo);
    y[i] = coeffs[lo] * (1.0 - frac) + coeffs[lo + 1] * frac;
  }
}

void InterpolateBackward(std::span<const double> dy, size_t m, Vec& dcoeffs) {
  const size_t n = dy.size();
  dcoeffs.assign(m, 0.0);
  if (m == 0) {
    return;
  }
  if (m == 1) {
    for (const double g : dy) {
      dcoeffs[0] += g;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const double pos = n == 1 ? 0.0
                              : static_cast<double>(i) * static_cast<double>(m - 1) /
                                    static_cast<double>(n - 1);
    const size_t lo = std::min(static_cast<size_t>(pos), m - 2);
    const double frac = pos - static_cast<double>(lo);
    dcoeffs[lo] += dy[i] * (1.0 - frac);
    dcoeffs[lo + 1] += dy[i] * frac;
  }
}

}  // namespace faro
