#include "src/forecast/dataset.h"

#include <cmath>

namespace faro {

Standardizer Standardizer::Fit(std::span<const double> values) {
  Standardizer s;
  if (values.empty()) {
    return s;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(values.size());
  double var = 0.0;
  for (const double v : values) {
    var += (v - s.mean) * (v - s.mean);
  }
  s.std = std::sqrt(var / static_cast<double>(values.size()));
  if (s.std < 1e-9) {
    s.std = 1.0;
  }
  return s;
}

std::vector<double> Standardizer::TransformAll(std::span<const double> values) const {
  std::vector<double> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = Transform(values[i]);
  }
  return out;
}

WindowDataset::WindowDataset(const Series& series, size_t input_size, size_t horizon,
                             const Standardizer& standardizer)
    : input_size_(input_size), horizon_(horizon) {
  values_ = standardizer.TransformAll(series.values());
  const size_t window = input_size + horizon;
  if (values_.size() >= window) {
    size_ = values_.size() - window + 1;
  }
}

}  // namespace faro
