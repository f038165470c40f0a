#include "src/forecast/nhits.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace faro {
namespace {

constexpr double kSigmaFloor = 1e-3;

size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / std::max<size_t>(b, 1); }

}  // namespace

size_t NHitsModel::ThetaBackcastLen(size_t block) const {
  return CeilDiv(config_.input_size, config_.downsample[StackOf(block)]);
}

size_t NHitsModel::ThetaForecastLen(size_t block) const {
  return CeilDiv(config_.horizon, config_.downsample[StackOf(block)]);
}

NHitsModel::NHitsModel(const NHitsConfig& config) : config_(config) {
  Rng rng(config_.seed);
  // Blocks are stored stack-major: stack s contributes blocks
  // [s*bps, (s+1)*bps), all sharing the stack's pool kernel and downsample.
  const size_t bps = std::max<size_t>(config_.blocks_per_stack, 1);
  const size_t num_blocks = config_.pool_kernels.size() * bps;
  stacks_.resize(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t pooled_len = CeilDiv(config_.input_size, config_.pool_kernels[StackOf(b)]);
    const size_t theta_len = ThetaBackcastLen(b) + num_channels() * ThetaForecastLen(b);
    std::vector<Linear>& mlp = stacks_[b];
    mlp.emplace_back(pooled_len, config_.hidden, rng);
    for (size_t h = 1; h < config_.hidden_layers; ++h) {
      mlp.emplace_back(config_.hidden, config_.hidden, rng);
    }
    mlp.emplace_back(config_.hidden, theta_len, rng);
  }
  single_ = Tile(*this, 1);
}

NHitsModel::Tile::Tile(const NHitsModel& model, size_t capacity) {
  const size_t in = model.config_.input_size;
  const size_t horizon = model.config_.horizon;
  size_t widest = 0;
  for (const std::vector<Linear>& mlp : model.stacks_) {
    std::vector<Vec>& block = acts.emplace_back(mlp.size() + 1);
    block[0].resize(capacity * mlp.front().in());
    argmax.emplace_back(capacity * mlp.front().in());
    for (size_t l = 0; l < mlp.size(); ++l) {
      block[l + 1].resize(capacity * mlp[l].out());
      widest = std::max({widest, mlp[l].in(), mlp[l].out()});
    }
  }
  input.resize(capacity * in);
  g_residual.resize(capacity * in);
  mu.resize(capacity * horizon);
  sigma_raw.resize(capacity * horizon);
  sigma.resize(capacity * horizon);
  dsigma_raw.resize(capacity * horizon);
  grad.resize(capacity * widest);
  grad_next.resize(capacity * widest);
}

void NHitsModel::ForwardTile(Tile& t, size_t windows) {
  const size_t in = config_.input_size;
  const size_t horizon = config_.horizon;
  std::fill_n(t.mu.begin(), windows * horizon, 0.0);
  std::fill_n(t.sigma_raw.begin(), windows * horizon, 0.0);
  for (size_t s = 0; s < stacks_.size(); ++s) {
    std::vector<Vec>& acts = t.acts[s];
    std::vector<Linear>& mlp = stacks_[s];
    const size_t pooled_len = mlp.front().in();
    for (size_t w = 0; w < windows; ++w) {
      MaxPoolForward({t.input.data() + w * in, in}, config_.pool_kernels[StackOf(s)], pooled_,
                     argmax_);
      std::copy(pooled_.begin(), pooled_.end(), acts[0].begin() + w * pooled_len);
      std::copy(argmax_.begin(), argmax_.end(), t.argmax[s].begin() + w * pooled_len);
    }

    // MLP: hidden layers ReLU-activated; the theta head is linear.
    for (size_t l = 0; l < mlp.size(); ++l) {
      const Linear& layer = mlp[l];
      for (size_t w = 0; w < windows; ++w) {
        layer.Forward({acts[l].data() + w * layer.in(), layer.in()},
                      {acts[l + 1].data() + w * layer.out(), layer.out()});
      }
      if (l + 1 < mlp.size()) {
        ReluForward({acts[l + 1].data(), windows * layer.out()});
      }
    }

    // Hierarchical interpolation: backcast + per-channel forecast.
    const size_t theta_len = mlp.back().out();
    const size_t bc = ThetaBackcastLen(s);
    const size_t fc = ThetaForecastLen(s);
    for (size_t w = 0; w < windows; ++w) {
      const double* theta = acts.back().data() + w * theta_len;
      double* residual = t.input.data() + w * in;
      double* mu = t.mu.data() + w * horizon;
      InterpolateForward({theta, bc}, in, interp_);
      for (size_t i = 0; i < in; ++i) {
        residual[i] -= interp_[i];
      }
      InterpolateForward({theta + bc, fc}, horizon, interp_);
      for (size_t i = 0; i < horizon; ++i) {
        mu[i] += interp_[i];
      }
      if (config_.gaussian) {
        double* sigma_raw = t.sigma_raw.data() + w * horizon;
        InterpolateForward({theta + bc + fc, fc}, horizon, interp_);
        for (size_t i = 0; i < horizon; ++i) {
          sigma_raw[i] += interp_[i];
        }
      }
    }
  }
  if (config_.gaussian) {
    for (size_t i = 0; i < windows * horizon; ++i) {
      t.sigma[i] = Softplus(t.sigma_raw[i]) + kSigmaFloor;
    }
  }
}

void NHitsModel::BackwardTile(Tile& t, size_t windows, std::span<const double> dmu,
                              std::span<const double> dsigma) {
  const size_t in = config_.input_size;
  const size_t horizon = config_.horizon;
  for (size_t i = 0; i < windows * horizon; ++i) {
    t.dsigma_raw[i] = config_.gaussian && !dsigma.empty()
                          ? dsigma[i] * SoftplusPrime(t.sigma_raw[i])
                          : 0.0;
  }
  // dL/dx_{s+1}, zero past the last stack.
  std::fill_n(t.g_residual.begin(), windows * in, 0.0);
  for (size_t s = stacks_.size(); s-- > 0;) {
    const std::vector<Vec>& acts = t.acts[s];
    std::vector<Linear>& mlp = stacks_[s];
    const size_t theta_len = mlp.back().out();
    const size_t bc = ThetaBackcastLen(s);
    const size_t fc = ThetaForecastLen(s);
    for (size_t w = 0; w < windows; ++w) {
      double* dtheta = t.grad.data() + w * theta_len;
      // backcast contributes -g_residual through the interpolation transpose.
      InterpolateBackward({t.g_residual.data() + w * in, in}, bc, interp_);
      for (size_t i = 0; i < bc; ++i) {
        dtheta[i] = -interp_[i];
      }
      InterpolateBackward(dmu.subspan(w * horizon, horizon), fc, interp_);
      std::copy_n(interp_.begin(), fc, dtheta + bc);
      if (config_.gaussian) {
        InterpolateBackward({t.dsigma_raw.data() + w * horizon, horizon}, fc, interp_);
        std::copy_n(interp_.begin(), fc, dtheta + bc + fc);
      }
    }

    // MLP backward, one layer for the whole tile at a time.
    for (size_t l = mlp.size(); l-- > 0;) {
      Linear& layer = mlp[l];
      const std::span<double> dy(t.grad.data(), windows * layer.out());
      if (l + 1 < mlp.size()) {
        ReluBackward(acts[l + 1], dy);
      }
      layer.BackwardBatch({acts[l].data(), windows * layer.in()}, dy,
                          {t.grad_next.data(), windows * layer.in()});
      std::swap(t.grad, t.grad_next);
    }
    // t.grad is now dL/dpooled.
    const size_t pooled_len = mlp.front().in();
    for (size_t w = 0; w < windows; ++w) {
      MaxPoolBackward({t.grad.data() + w * pooled_len, pooled_len},
                      {t.argmax[s].data() + w * pooled_len, pooled_len}, in, interp_);
      double* g_residual = t.g_residual.data() + w * in;
      for (size_t i = 0; i < in; ++i) {
        g_residual[i] += interp_[i];
      }
    }
  }
}

const NHitsModel::Output& NHitsModel::Forward(std::span<const double> x) {
  std::copy_n(x.begin(), config_.input_size, single_.input.begin());
  ForwardTile(single_, 1);
  output_.mu.assign(single_.mu.begin(), single_.mu.end());
  if (config_.gaussian) {
    output_.sigma.assign(single_.sigma.begin(), single_.sigma.end());
  }
  return output_;
}

void NHitsModel::Backward(std::span<const double> dmu, std::span<const double> dsigma) {
  BackwardTile(single_, 1, dmu, dsigma);
}

void NHitsModel::ZeroGrad() {
  for (auto& mlp : stacks_) {
    for (Linear& layer : mlp) {
      layer.ZeroGrad();
    }
  }
}

void NHitsModel::CollectParams(std::vector<Vec*>& params, std::vector<Vec*>& grads) {
  for (auto& mlp : stacks_) {
    for (Linear& layer : mlp) {
      params.push_back(&layer.weights());
      grads.push_back(&layer.weight_grads());
      params.push_back(&layer.bias());
      grads.push_back(&layer.bias_grads());
    }
  }
}

double NHitsModel::TrainOnSeries(const Series& train, const TrainConfig& train_config) {
  standardizer_ = Standardizer::Fit(train.values());
  WindowDataset dataset(train, config_.input_size, config_.horizon, standardizer_);
  if (dataset.size() == 0) {
    trained_ = true;
    return 0.0;
  }
  Rng rng(train_config.seed);
  AdamOptimizer adam(train_config.learning_rate);
  std::vector<Vec*> params;
  std::vector<Vec*> grads;
  CollectParams(params, grads);

  const size_t horizon = config_.horizon;
  // batch_size 0 means one batch per epoch.
  const size_t batch =
      train_config.batch_size == 0 ? dataset.size() : train_config.batch_size;
  const size_t tile = std::min(batch, kWindowTile);
  Tile t(*this, tile);
  Vec dmu(tile * horizon);
  Vec dsigma(tile * horizon);
  double epoch_loss = 0.0;
  ZeroGrad();
  for (size_t epoch = 0; epoch < train_config.epochs; ++epoch) {
    const std::vector<size_t> order = dataset.EpochOrder(rng);
    epoch_loss = 0.0;
    for (size_t batch_begin = 0; batch_begin < order.size(); batch_begin += batch) {
      const size_t batch_end = std::min(batch_begin + batch, order.size());
      for (size_t first = batch_begin; first < batch_end; first += tile) {
        const size_t windows = std::min(tile, batch_end - first);
        for (size_t w = 0; w < windows; ++w) {
          const std::span<const double> input = dataset.Input(order[first + w]);
          std::copy(input.begin(), input.end(), t.input.begin() + w * config_.input_size);
        }
        ForwardTile(t, windows);
        // Per-window loss and output gradients (averaged over the horizon),
        // in window order.
        for (size_t w = 0; w < windows; ++w) {
          const std::span<const double> target = dataset.Target(order[first + w]);
          const size_t base = w * horizon;
          for (size_t i = 0; i < horizon; ++i) {
            const double err = t.mu[base + i] - target[i];
            if (config_.gaussian) {
              const double sig = t.sigma[base + i];
              epoch_loss += (0.5 * std::log(2.0 * std::numbers::pi) + std::log(sig) +
                             0.5 * err * err / (sig * sig)) /
                            static_cast<double>(horizon);
              dmu[base + i] = err / (sig * sig) / static_cast<double>(horizon);
              dsigma[base + i] =
                  (1.0 / sig - err * err / (sig * sig * sig)) / static_cast<double>(horizon);
            } else {
              epoch_loss += err * err / static_cast<double>(horizon);
              dmu[base + i] = 2.0 * err / static_cast<double>(horizon);
              dsigma[base + i] = 0.0;
            }
          }
        }
        BackwardTile(t, windows, {dmu.data(), windows * horizon},
                     {dsigma.data(), windows * horizon});
      }
      // Adam divides the summed gradients by the batch size.
      adam.Step(params, grads, batch_end - batch_begin);
      ZeroGrad();
    }
    epoch_loss /= static_cast<double>(dataset.size());
  }
  trained_ = true;
  return epoch_loss;
}

NHitsModel::Output NHitsModel::PredictRaw(std::span<const double> history) {
  // Assemble the (left-padded) standardised input window.
  Vec input(config_.input_size, 0.0);
  const double pad = history.empty() ? standardizer_.mean : history.front();
  for (size_t i = 0; i < config_.input_size; ++i) {
    const ptrdiff_t src =
        static_cast<ptrdiff_t>(history.size()) - static_cast<ptrdiff_t>(config_.input_size) +
        static_cast<ptrdiff_t>(i);
    const double raw = src >= 0 ? history[static_cast<size_t>(src)] : pad;
    input[i] = standardizer_.Transform(raw);
  }
  Output out = Forward(input);
  for (double& v : out.mu) {
    v = standardizer_.Invert(v);
  }
  for (double& v : out.sigma) {
    v *= standardizer_.std;  // scale-only: sigma is a spread, not a location
  }
  return out;
}

std::vector<double> NHitsModel::PredictQuantileRaw(std::span<const double> history,
                                                   double quantile) {
  const Output out = PredictRaw(history);
  std::vector<double> trajectory(out.mu);
  if (!out.sigma.empty()) {
    const double z = InverseNormalCdf(quantile);
    for (size_t i = 0; i < trajectory.size(); ++i) {
      trajectory[i] += z * out.sigma[i];
    }
  }
  for (double& v : trajectory) {
    v = std::max(0.0, v);
  }
  return trajectory;
}

std::vector<std::vector<double>> NHitsModel::SampleTrajectories(std::span<const double> history,
                                                                size_t num_samples, Rng& rng) {
  const Output out = PredictRaw(history);
  std::vector<std::vector<double>> samples(num_samples, out.mu);
  if (!out.sigma.empty()) {
    for (auto& trajectory : samples) {
      for (size_t i = 0; i < trajectory.size(); ++i) {
        trajectory[i] = std::max(0.0, trajectory[i] + out.sigma[i] * rng.Normal());
      }
    }
  }
  return samples;
}

}  // namespace faro
