#include "src/forecast/lstm.h"

#include <algorithm>
#include <cmath>

namespace faro {

LstmCell::LstmCell(size_t input_dim, size_t hidden, Rng& rng)
    : input_dim_(input_dim), hidden_(hidden), gates_(input_dim + hidden, 4 * hidden, rng) {
  // Standard trick: positive forget-gate bias so memory persists early in
  // training.
  for (size_t k = hidden; k < 2 * hidden; ++k) {
    gates_.bias()[k] = 1.0;
  }
}

void LstmCell::Forward(std::span<const double> x, const Vec& h_prev, const Vec& c_prev,
                       StepCache& cache) const {
  const size_t h = hidden_;
  cache.xin.assign(input_dim_ + h, 0.0);
  std::copy(x.begin(), x.end(), cache.xin.begin());
  std::copy(h_prev.begin(), h_prev.end(), cache.xin.begin() + static_cast<ptrdiff_t>(input_dim_));
  cache.c_prev = c_prev;

  Vec z;
  gates_.Forward(cache.xin, z);
  cache.i.resize(h);
  cache.f.resize(h);
  cache.g.resize(h);
  cache.o.resize(h);
  cache.c.resize(h);
  cache.h.resize(h);
  cache.tanh_c.resize(h);
  for (size_t k = 0; k < h; ++k) {
    cache.i[k] = Sigmoid(z[k]);
    cache.f[k] = Sigmoid(z[h + k]);
    cache.g[k] = std::tanh(z[2 * h + k]);
    cache.o[k] = Sigmoid(z[3 * h + k]);
    cache.c[k] = cache.f[k] * c_prev[k] + cache.i[k] * cache.g[k];
    cache.tanh_c[k] = std::tanh(cache.c[k]);
    cache.h[k] = cache.o[k] * cache.tanh_c[k];
  }
}

void LstmCell::Backward(const StepCache& cache, const Vec& dh, const Vec& dc, Vec* dx,
                        Vec& dh_prev, Vec& dc_prev) {
  const size_t h = hidden_;
  Vec dz(4 * h);
  dc_prev.assign(h, 0.0);
  for (size_t k = 0; k < h; ++k) {
    const double d_o = dh[k] * cache.tanh_c[k];
    const double dct = dc[k] + dh[k] * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]);
    const double d_i = dct * cache.g[k];
    const double d_f = dct * cache.c_prev[k];
    const double d_g = dct * cache.i[k];
    dc_prev[k] = dct * cache.f[k];
    dz[k] = d_i * cache.i[k] * (1.0 - cache.i[k]);
    dz[h + k] = d_f * cache.f[k] * (1.0 - cache.f[k]);
    dz[2 * h + k] = d_g * (1.0 - cache.g[k] * cache.g[k]);
    dz[3 * h + k] = d_o * cache.o[k] * (1.0 - cache.o[k]);
  }
  Vec dxin;
  gates_.Backward(cache.xin, dz, &dxin);
  if (dx != nullptr) {
    dx->assign(dxin.begin(), dxin.begin() + static_cast<ptrdiff_t>(input_dim_));
  }
  dh_prev.assign(dxin.begin() + static_cast<ptrdiff_t>(input_dim_), dxin.end());
}

void LstmCell::CollectParams(std::vector<Vec*>& params, std::vector<Vec*>& grads) {
  params.push_back(&gates_.weights());
  grads.push_back(&gates_.weight_grads());
  params.push_back(&gates_.bias());
  grads.push_back(&gates_.bias_grads());
}

LstmModel::LstmModel(const LstmConfig& config) : config_(config) {
  Rng rng(config_.seed);
  cell_ = LstmCell(1, config_.hidden, rng);
  head_ = Linear(config_.hidden, config_.horizon, rng);
}

Vec LstmModel::Forward(std::span<const double> x) {
  steps_.assign(x.size(), {});
  Vec h(config_.hidden, 0.0);
  Vec c(config_.hidden, 0.0);
  for (size_t t = 0; t < x.size(); ++t) {
    const double xt = x[t];
    cell_.Forward({&xt, 1}, h, c, steps_[t]);
    h = steps_[t].h;
    c = steps_[t].c;
  }
  final_h_ = h;
  Vec y;
  head_.Forward(final_h_, y);
  return y;
}

void LstmModel::Backward(std::span<const double> dy) {
  Vec dh;
  head_.Backward(final_h_, dy, &dh);
  Vec dc(config_.hidden, 0.0);
  Vec dh_prev;
  Vec dc_prev;
  for (size_t t = steps_.size(); t-- > 0;) {
    cell_.Backward(steps_[t], dh, dc, nullptr, dh_prev, dc_prev);
    dh = dh_prev;
    dc = dc_prev;
  }
}

void LstmModel::ZeroGrad() {
  cell_.ZeroGrad();
  head_.ZeroGrad();
}

void LstmModel::CollectParams(std::vector<Vec*>& params, std::vector<Vec*>& grads) {
  cell_.CollectParams(params, grads);
  params.push_back(&head_.weights());
  grads.push_back(&head_.weight_grads());
  params.push_back(&head_.bias());
  grads.push_back(&head_.bias_grads());
}

double LstmModel::TrainOnSeries(const Series& train, const TrainConfig& train_config) {
  standardizer_ = Standardizer::Fit(train.values());
  WindowDataset dataset(train, config_.input_size, config_.horizon, standardizer_);
  if (dataset.size() == 0) {
    return 0.0;
  }
  Rng rng(train_config.seed);
  AdamOptimizer adam(train_config.learning_rate);
  std::vector<Vec*> params;
  std::vector<Vec*> grads;
  CollectParams(params, grads);

  Vec dy(config_.horizon);
  double epoch_loss = 0.0;
  for (size_t epoch = 0; epoch < train_config.epochs; ++epoch) {
    const std::vector<size_t> order = dataset.EpochOrder(rng);
    epoch_loss = 0.0;
    size_t in_batch = 0;
    ZeroGrad();
    for (const size_t w : order) {
      const Vec y = Forward(dataset.Input(w));
      const std::span<const double> target = dataset.Target(w);
      for (size_t i = 0; i < config_.horizon; ++i) {
        const double err = y[i] - target[i];
        epoch_loss += err * err / static_cast<double>(config_.horizon);
        dy[i] = 2.0 * err / static_cast<double>(config_.horizon);
      }
      Backward(dy);
      if (++in_batch == train_config.batch_size) {
        adam.Step(params, grads, in_batch);
        ZeroGrad();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      adam.Step(params, grads, in_batch);
      ZeroGrad();
    }
    epoch_loss /= static_cast<double>(dataset.size());
  }
  return epoch_loss;
}

std::vector<double> LstmModel::PredictRaw(std::span<const double> history) {
  Vec input(config_.input_size, 0.0);
  const double pad = history.empty() ? standardizer_.mean : history.front();
  for (size_t i = 0; i < config_.input_size; ++i) {
    const ptrdiff_t src =
        static_cast<ptrdiff_t>(history.size()) - static_cast<ptrdiff_t>(config_.input_size) +
        static_cast<ptrdiff_t>(i);
    const double raw = src >= 0 ? history[static_cast<size_t>(src)] : pad;
    input[i] = standardizer_.Transform(raw);
  }
  Vec y = Forward(input);
  std::vector<double> out(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    out[i] = std::max(0.0, standardizer_.Invert(y[i]));
  }
  return out;
}

}  // namespace faro
