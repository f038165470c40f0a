// N-HiTS time-series forecaster (§3.5.1) with an optional Gaussian
// probabilistic head (§3.5.2).
//
// N-HiTS (Challu et al., AAAI'23) stacks blocks that each (1) sample the
// input at a coarser rate via max pooling, (2) run a small MLP that emits
// backcast and forecast coefficients at a reduced resolution, and
// (3) hierarchically interpolates those coefficients to full resolution. Each
// block subtracts its backcast from the residual input of the next, and the
// forecasts sum. The multi-rate structure keeps the model tiny while
// capturing both the diurnal envelope and minute-level fluctuation.
//
// The probabilistic variant makes the forecast two channels per step
// (mu, raw-sigma with a softplus link) trained with Gaussian NLL; quantile
// trajectories and Monte-Carlo samples of future arrival rates come straight
// from the predictive distribution, which is how Faro captures workload
// fluctuation instead of flat-lining through it (Fig. 8).

#ifndef SRC_FORECAST_NHITS_H_
#define SRC_FORECAST_NHITS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/common/series.h"
#include "src/forecast/dataset.h"
#include "src/forecast/nn.h"

namespace faro {

struct NHitsConfig {
  size_t input_size = 15;  // §5: 15-min arrival history
  size_t horizon = 7;      // §5: 7-min prediction window
  // Per-stack max-pool kernels (multi-rate sampling) and coefficient
  // downsampling factors (hierarchical interpolation), coarse to fine.
  std::vector<size_t> pool_kernels = {4, 2, 1};
  std::vector<size_t> downsample = {4, 2, 1};
  size_t hidden = 64;
  size_t hidden_layers = 2;
  // Blocks per stack (each block refines the residual its predecessors left;
  // the default of 1 keeps the model small -- ample for 15-step inputs).
  size_t blocks_per_stack = 1;
  bool gaussian = true;  // Gaussian head vs point (MSE) head
  uint64_t seed = 1;
};

struct TrainConfig {
  size_t epochs = 12;
  size_t batch_size = 32;
  double learning_rate = 1e-3;
  uint64_t seed = 17;
};

class NHitsModel {
 public:
  explicit NHitsModel(const NHitsConfig& config);

  struct Output {
    Vec mu;     // standardised-space mean forecast, length horizon
    Vec sigma;  // predictive std-dev (empty for point models)
  };

  const NHitsConfig& config() const { return config_; }

  // Forward pass in standardised space; caches activations for Backward.
  // The result lives in the model and is overwritten by the next call.
  const Output& Forward(std::span<const double> x);

  // Accumulates parameter gradients given dL/dmu and dL/dsigma (sigma grads
  // ignored for point models). Must follow the matching Forward call.
  void Backward(std::span<const double> dmu, std::span<const double> dsigma);

  void ZeroGrad();
  void CollectParams(std::vector<Vec*>& params, std::vector<Vec*>& grads);

  // Fits the standardiser on `train` and trains with Adam. Returns the final
  // epoch's average training loss (NLL or MSE in standardised space).
  double TrainOnSeries(const Series& train, const TrainConfig& train_config);

  const Standardizer& standardizer() const { return standardizer_; }
  bool trained() const { return trained_; }

  // Prediction over raw (unstandardised) history: takes the last input_size
  // values (padding on the left with the earliest value if short).
  // Returns the raw-space mean trajectory and, for Gaussian models, per-step
  // predictive std-devs.
  Output PredictRaw(std::span<const double> history);

  // Quantile trajectory: mu + z_q * sigma per step, in raw space, clamped at
  // zero (rates cannot be negative).
  std::vector<double> PredictQuantileRaw(std::span<const double> history, double quantile);

  // Monte-Carlo sample trajectories from the predictive distribution
  // (Fig. 8c's 100 samples).
  std::vector<std::vector<double>> SampleTrajectories(std::span<const double> history,
                                                      size_t num_samples, Rng& rng);

 private:
  // Training runs a batch as tiles of up to this many windows: each layer
  // processes a whole tile at once, so its weight and gradient rows are read
  // once per tile instead of once per window.
  static constexpr size_t kWindowTile = 8;

  // Activations and gradients of up to `capacity` windows, window-major.
  struct Tile {
    Tile() = default;
    Tile(const NHitsModel& model, size_t capacity);

    // acts[b][0]: block b's pooled input; acts[b][l + 1]: output of layer l.
    std::vector<std::vector<Vec>> acts;
    std::vector<std::vector<size_t>> argmax;  // block b's max-pool argmax
    Vec input;       // windows x input_size; the residual during ForwardTile
    Vec mu;          // windows x horizon
    Vec sigma_raw;   // pre-softplus sigma, cached for BackwardTile
    Vec sigma;
    Vec g_residual;  // dL/d(residual), windows x input_size
    Vec dsigma_raw;
    Vec grad;        // layer gradients, windows x widest layer
    Vec grad_next;
  };

  // Forward over the first `windows` standardised inputs in t.input (which
  // become the residuals). Writes t.mu, t.sigma_raw and (Gaussian) t.sigma.
  void ForwardTile(Tile& t, size_t windows);
  // Backward for the last ForwardTile on `t`, given per-window dL/dmu and
  // dL/dsigma (dsigma may be empty). Adds gradients in window order.
  void BackwardTile(Tile& t, size_t windows, std::span<const double> dmu,
                    std::span<const double> dsigma);

  size_t ThetaBackcastLen(size_t block) const;
  size_t ThetaForecastLen(size_t block) const;
  // Stack index of flat block `block` (blocks are stored stack-major).
  size_t StackOf(size_t block) const { return block / std::max<size_t>(config_.blocks_per_stack, 1); }
  size_t num_channels() const { return config_.gaussian ? 2 : 1; }

  NHitsConfig config_;
  // stacks_[s] is the MLP of stack s: hidden layers plus the theta head.
  std::vector<std::vector<Linear>> stacks_;
  Tile single_;     // Forward/Backward's one-window tile
  Vec pooled_;      // one window's scratch
  std::vector<size_t> argmax_;
  Vec interp_;
  Output output_;   // Forward's result
  Standardizer standardizer_;
  bool trained_ = false;
};

}  // namespace faro

#endif  // SRC_FORECAST_NHITS_H_
