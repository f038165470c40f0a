#include "src/forecast/deepar.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace faro {
namespace {

constexpr double kSigmaFloor = 1e-3;

}  // namespace

DeepArModel::DeepArModel(const DeepArConfig& config) : config_(config) {
  Rng rng(config_.seed);
  cell_ = LstmCell(1, config_.hidden, rng);
  head_ = Linear(config_.hidden, 2, rng);
}

void DeepArModel::Consume(std::span<const double> sequence, Vec& h, Vec& c,
                          std::vector<LstmCell::StepCache>* caches) const {
  if (caches != nullptr) {
    caches->assign(sequence.size(), {});
  }
  LstmCell::StepCache local;
  for (size_t t = 0; t < sequence.size(); ++t) {
    LstmCell::StepCache& cache = caches != nullptr ? (*caches)[t] : local;
    const double xt = sequence[t];
    cell_.Forward({&xt, 1}, h, c, cache);
    h = cache.h;
    c = cache.c;
  }
}

double DeepArModel::TrainOnSeries(const Series& train, const TrainConfig& train_config) {
  standardizer_ = Standardizer::Fit(train.values());
  // Window = input + horizon; training is one-step-ahead over the window.
  WindowDataset dataset(train, config_.input_size, config_.horizon, standardizer_);
  if (dataset.size() == 0) {
    return 0.0;
  }
  Rng rng(train_config.seed);
  AdamOptimizer adam(train_config.learning_rate);
  std::vector<Vec*> params;
  std::vector<Vec*> grads;
  cell_.CollectParams(params, grads);
  params.push_back(&head_.weights());
  grads.push_back(&head_.weight_grads());
  params.push_back(&head_.bias());
  grads.push_back(&head_.bias_grads());
  auto zero_grad = [&]() {
    cell_.ZeroGrad();
    head_.ZeroGrad();
  };

  const size_t window = config_.input_size + config_.horizon;
  std::vector<LstmCell::StepCache> caches;
  std::vector<Vec> head_dh(window);  // per-step dL/dh from the head
  double epoch_loss = 0.0;
  for (size_t epoch = 0; epoch < train_config.epochs; ++epoch) {
    const std::vector<size_t> order = dataset.EpochOrder(rng);
    epoch_loss = 0.0;
    size_t in_batch = 0;
    zero_grad();
    for (const size_t w : order) {
      // Assemble the full standardised window (input followed by target).
      Vec sequence(window);
      const auto input = dataset.Input(w);
      const auto target = dataset.Target(w);
      std::copy(input.begin(), input.end(), sequence.begin());
      std::copy(target.begin(), target.end(),
                sequence.begin() + static_cast<ptrdiff_t>(config_.input_size));

      // Teacher-forced pass over sequence[0 .. window-2], predicting t+1.
      Vec h(config_.hidden, 0.0);
      Vec c(config_.hidden, 0.0);
      const size_t steps = window - 1;
      Consume({sequence.data(), steps}, h, c, &caches);

      const double norm = static_cast<double>(steps);
      for (size_t t = 0; t < steps; ++t) {
        Vec out;
        head_.Forward(caches[t].h, out);
        const double mu = out[0];
        const double sigma = Softplus(out[1]) + kSigmaFloor;
        const double err = mu - sequence[t + 1];
        epoch_loss += (0.5 * std::log(2.0 * std::numbers::pi) + std::log(sigma) +
                       0.5 * err * err / (sigma * sigma)) /
                      norm;
        Vec dout(2);
        dout[0] = err / (sigma * sigma) / norm;
        dout[1] = (1.0 / sigma - err * err / (sigma * sigma * sigma)) *
                  SoftplusPrime(out[1]) / norm;
        head_.Backward(caches[t].h, dout, &head_dh[t]);
      }

      // BPTT combining recurrent and per-step head gradients.
      Vec dh(config_.hidden, 0.0);
      Vec dc(config_.hidden, 0.0);
      Vec dh_prev;
      Vec dc_prev;
      for (size_t t = steps; t-- > 0;) {
        for (size_t k = 0; k < config_.hidden; ++k) {
          dh[k] += head_dh[t][k];
        }
        cell_.Backward(caches[t], dh, dc, nullptr, dh_prev, dc_prev);
        dh = dh_prev;
        dc = dc_prev;
      }

      if (++in_batch == train_config.batch_size) {
        adam.Step(params, grads, in_batch);
        zero_grad();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      adam.Step(params, grads, in_batch);
      zero_grad();
    }
    epoch_loss /= static_cast<double>(dataset.size());
  }
  return epoch_loss;
}

std::vector<std::vector<double>> DeepArModel::SampleTrajectories(
    std::span<const double> history, size_t num_samples, Rng& rng) {
  // Standardise the (left-padded) history.
  Vec sequence(config_.input_size);
  const double pad = history.empty() ? standardizer_.mean : history.front();
  for (size_t i = 0; i < config_.input_size; ++i) {
    const ptrdiff_t src =
        static_cast<ptrdiff_t>(history.size()) - static_cast<ptrdiff_t>(config_.input_size) +
        static_cast<ptrdiff_t>(i);
    const double raw = src >= 0 ? history[static_cast<size_t>(src)] : pad;
    sequence[i] = standardizer_.Transform(raw);
  }
  Vec h0(config_.hidden, 0.0);
  Vec c0(config_.hidden, 0.0);
  Consume(sequence, h0, c0, nullptr);

  std::vector<std::vector<double>> samples(num_samples);
  LstmCell::StepCache cache;
  for (auto& trajectory : samples) {
    trajectory.resize(config_.horizon);
    Vec h = h0;
    Vec c = c0;
    for (size_t t = 0; t < config_.horizon; ++t) {
      Vec out;
      head_.Forward(h, out);
      const double sigma = Softplus(out[1]) + kSigmaFloor;
      const double value = out[0] + sigma * rng.Normal();
      trajectory[t] = std::max(0.0, standardizer_.Invert(value));
      cell_.Forward({&value, 1}, h, c, cache);
      h = cache.h;
      c = cache.c;
    }
  }
  return samples;
}

std::vector<double> DeepArModel::PredictRaw(std::span<const double> history, size_t num_samples,
                                            Rng& rng) {
  const auto samples = SampleTrajectories(history, num_samples, rng);
  std::vector<double> mean(config_.horizon, 0.0);
  for (const auto& trajectory : samples) {
    for (size_t t = 0; t < config_.horizon; ++t) {
      mean[t] += trajectory[t] / static_cast<double>(num_samples);
    }
  }
  return mean;
}

}  // namespace faro
