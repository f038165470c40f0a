// Golden bits for the forecasting library: losses, weight digests and
// forecasts recorded from the plain dense kernels (one serial sum per output
// row, two backward passes per window, gradients averaged in place before
// each Adam step). Every predictor-driven Faro decision is a function of
// these bits, so a kernel rewrite must reproduce them exactly: any change
// that reorders a floating-point sum inside `Linear`, N-HiTS, the LSTM or
// DeepAR fails here first. See DESIGN.md, "Bit-identity rules for
// forecaster training".

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/series.h"
#include "src/forecast/adapter.h"
#include "src/forecast/deepar.h"
#include "src/forecast/lstm.h"
#include "src/forecast/nhits.h"
#include "src/forecast/nn.h"

namespace faro {
namespace {

// FNV-1a over the bit patterns of `values`, chained through `hash`: signed
// zeros and last-ulp differences change the digest.
uint64_t Digest(std::span<const double> values, uint64_t hash = 0xcbf29ce484222325ull) {
  for (const double v : values) {
    uint64_t bits = std::bit_cast<uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= bits & 0xffu;
      hash *= 0x100000001b3ull;
      bits >>= 8;
    }
  }
  return hash;
}

uint64_t ParamDigest(const std::vector<Vec*>& params) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const Vec* p : params) {
    hash = Digest(*p, hash);
  }
  return hash;
}

void ExpectBits(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << ": " << std::hexfloat << got << " vs " << want;
}

void ExpectDigest(uint64_t got, uint64_t want, const char* what) {
  EXPECT_EQ(got, want) << what << ": 0x" << std::hex << got << " vs 0x" << want;
}

// Noisy two-period series shaped like a per-second arrival trace.
Series GoldenSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (size_t t = 0; t < n; ++t) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(t);
    values[t] = 6.0 + 2.0 * std::sin(phase / 37.0) + 0.7 * std::sin(phase / 9.0) +
                0.4 * rng.Normal();
  }
  return Series(std::move(values));
}

// --- Linear -----------------------------------------------------------------

struct LinearGolden {
  size_t in;
  size_t out;
  uint64_t digest;
};

// Forward, then two accumulating Backward calls (the second without dx), at
// sizes that exercise every unrolled-loop tail.
uint64_t LinearDigest(size_t in, size_t out) {
  Rng rng(1000 + 100 * in + out);
  Linear layer(in, out, rng);
  for (double& b : layer.bias()) {
    b = rng.Normal();
  }
  auto draw = [&](size_t n) {
    Vec v(n);
    for (double& e : v) {
      e = rng.Normal();
    }
    return v;
  };
  const Vec x1 = draw(in);
  const Vec x2 = draw(in);
  const Vec dy1 = draw(out);
  const Vec dy2 = draw(out);
  Vec y;
  layer.Forward(x1, y);
  Vec dx;
  layer.ZeroGrad();
  layer.Backward(x1, dy1, &dx);
  layer.Backward(x2, dy2, nullptr);
  uint64_t hash = Digest(y);
  hash = Digest(dx, hash);
  hash = Digest(layer.weight_grads(), hash);
  return Digest(layer.bias_grads(), hash);
}

TEST(ForecastGoldenTest, LinearForwardBackwardBits) {
  const std::vector<LinearGolden> goldens = {
      {1, 1, 0xb9de0edb1d4eeaf8ull}, {1, 3, 0xf2023dddccf93c85ull},
      {1, 5, 0x50a26f1b719d56e5ull}, {1, 67, 0x4bb71fefd62dfaf3ull},
      {3, 1, 0x4d77ca6d6b44fa3cull}, {3, 3, 0xbfa0e0c1c8b34ea4ull},
      {3, 5, 0xde71a037c1b17af3ull}, {3, 67, 0x1288232167b88a7dull},
      {5, 1, 0x570ad69ca7b0fd21ull}, {5, 3, 0xf075960b229df2ecull},
      {5, 5, 0x50f9dd7a5d1dbb89ull}, {5, 67, 0x04cf51d2debeb7f9ull},
      {67, 1, 0xd88b3c023a58a804ull}, {67, 3, 0x036638078d03dc17ull},
      {67, 5, 0x169e68fd089da63aull}, {67, 67, 0x33dfecacff20dadbull},
  };
  for (const LinearGolden& g : goldens) {
    SCOPED_TRACE(testing::Message() << "in=" << g.in << " out=" << g.out);
    ExpectDigest(LinearDigest(g.in, g.out), g.digest, "linear digest");
  }
}

// --- N-HiTS -----------------------------------------------------------------

// The production model shape (15 -> 7, three stacks, hidden 64), trained for
// two epochs through the per-job adapter so the seed derivation is pinned too.
TEST(ForecastGoldenTest, GaussianNHitsTwoEpochs) {
  NHitsConfig model_config;
  model_config.seed = 11;
  TrainConfig train_config;
  train_config.epochs = 2;
  train_config.seed = 11 ^ 0x5eedull;
  NHitsWorkloadPredictor predictor(model_config, train_config);
  const Series series = GoldenSeries(420, 3);  // 398 windows: a ragged last batch
  const double loss = predictor.TrainJob(3, series);
  ExpectBits(loss, 0x1.4cf5804f0cb5cp+2, "final loss");

  std::vector<Vec*> params;
  std::vector<Vec*> grads;
  predictor.model(3)->CollectParams(params, grads);
  ExpectDigest(ParamDigest(params), 0x11dd0a2dd94697c8ull, "weights");

  const std::vector<double> history(series.values().end() - 15, series.values().end());
  const std::vector<double> median = predictor.PredictQuantile(3, history, 7, 0.5);
  const std::vector<double> upper = predictor.PredictQuantile(3, history, 7, 0.9);
  ExpectDigest(Digest(median), 0x244f542cc0fdd2b1ull, "q=0.5 trajectory");
  ExpectDigest(Digest(upper), 0xbfaa2934c333cd98ull, "q=0.9 trajectory");
  ExpectBits(median[0], 0x1.50b50a7ff7757p+2, "q=0.5 first step");
  ExpectBits(upper[6], 0x1.b0f04cf8b3972p+3, "q=0.9 last step");
}

// The point head through two blocks per stack: the residual chain is longer
// and sigma gradients are absent.
TEST(ForecastGoldenTest, PointNHitsMultiBlock) {
  NHitsConfig config;
  config.input_size = 12;
  config.horizon = 5;
  config.hidden = 19;
  config.blocks_per_stack = 2;
  config.gaussian = false;
  config.seed = 5;
  NHitsModel model(config);
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 7;
  tc.seed = 23;
  const Series series = GoldenSeries(150, 8);
  ExpectBits(model.TrainOnSeries(series, tc), 0x1.df54972b84067p+2, "final loss");
  std::vector<Vec*> params;
  std::vector<Vec*> grads;
  model.CollectParams(params, grads);
  ExpectDigest(ParamDigest(params), 0xcf63364b5a730bddull, "weights");
  const std::vector<double> history(series.values().end() - 12, series.values().end());
  ExpectDigest(Digest(model.PredictQuantileRaw(history, 0.5)), 0xd7ebb52d5a5fe2ffull,
               "trajectory");
}

// --- LSTM and DeepAR (both reuse Linear) --------------------------------------

TEST(ForecastGoldenTest, LstmTwoEpochs) {
  LstmConfig config;
  config.input_size = 10;
  config.horizon = 3;
  config.hidden = 9;
  LstmModel model(config);
  TrainConfig tc;
  tc.epochs = 2;
  const Series series = GoldenSeries(160, 13);
  ExpectBits(model.TrainOnSeries(series, tc), 0x1.275f6521b5c93p+0, "final loss");
  std::vector<Vec*> params;
  std::vector<Vec*> grads;
  model.CollectParams(params, grads);
  ExpectDigest(ParamDigest(params), 0x53ade9ff54623a70ull, "weights");
  const std::vector<double> history(series.values().end() - 10, series.values().end());
  ExpectDigest(Digest(model.PredictRaw(history)), 0x8d4fc42f67e36017ull, "trajectory");
}

TEST(ForecastGoldenTest, DeepArTwoEpochs) {
  DeepArConfig config;
  config.input_size = 8;
  config.horizon = 3;
  config.hidden = 7;
  DeepArModel model(config);
  TrainConfig tc;
  tc.epochs = 2;
  const Series series = GoldenSeries(140, 17);
  ExpectBits(model.TrainOnSeries(series, tc), 0x1.4bfaa283992a7p+0, "final loss");
  const std::vector<double> history(series.values().end() - 8, series.values().end());
  Rng rng(19);
  ExpectDigest(Digest(model.PredictRaw(history, 16, rng)), 0x150684629bc34e57ull, "mean trajectory");
}

}  // namespace
}  // namespace faro
