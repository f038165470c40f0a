// Windowed training data for sequence models: standardisation plus sliding
// (input, target) windows over a trace.

#ifndef SRC_FORECAST_DATASET_H_
#define SRC_FORECAST_DATASET_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/common/series.h"

namespace faro {

// z-score standardisation fitted on the training split; forecasting models
// operate in standardised space and invert on output.
struct Standardizer {
  double mean = 0.0;
  double std = 1.0;

  static Standardizer Fit(std::span<const double> values);
  double Transform(double v) const { return (v - mean) / std; }
  double Invert(double v) const { return v * std + mean; }
  std::vector<double> TransformAll(std::span<const double> values) const;
};

// All (input_size, horizon) windows of a series, in standardised space.
class WindowDataset {
 public:
  WindowDataset(const Series& series, size_t input_size, size_t horizon,
                const Standardizer& standardizer);

  size_t size() const { return size_; }
  size_t input_size() const { return input_size_; }
  size_t horizon() const { return horizon_; }

  std::span<const double> Input(size_t i) const {
    return {values_.data() + i, input_size_};
  }
  std::span<const double> Target(size_t i) const {
    return {values_.data() + i + input_size_, horizon_};
  }

  // Random window order for one epoch.
  std::vector<size_t> EpochOrder(Rng& rng) const { return ShuffledIndices(size(), rng); }

 private:
  size_t input_size_;
  size_t horizon_;
  std::vector<double> values_;  // standardised copy of the series
  size_t size_ = 0;             // window i starts at values_[i]
};

}  // namespace faro

#endif  // SRC_FORECAST_DATASET_H_
