// Glue between the forecasting library and the Faro autoscaler: one trained
// probabilistic N-HiTS model per job, exposed through the core
// WorkloadPredictor interface.

#ifndef SRC_FORECAST_ADAPTER_H_
#define SRC_FORECAST_ADAPTER_H_

#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "src/common/series.h"
#include "src/core/predictor.h"
#include "src/forecast/nhits.h"

namespace faro {

class NHitsWorkloadPredictor : public WorkloadPredictor {
 public:
  NHitsWorkloadPredictor(NHitsConfig model_config, TrainConfig train_config)
      : model_config_(model_config), train_config_(train_config) {}

  // Trains (replacing any previous model for) `job` on its training trace
  // (per-minute rates in the same units histories arrive in at runtime).
  // Returns the final training loss.
  double TrainJob(size_t job, const Series& train);

  // Trains job i on trains[i] for every i, in parallel across jobs on the
  // shared pool. Each model is bit-identical to TrainJob(i, trains[i]):
  // models are seeded per job and share no state while they train. The
  // models are constructed here, on the calling thread, so their long-lived
  // buffers never sit in a worker thread's malloc arena.
  void TrainJobs(std::span<const Series> trains);

  // Number of jobs with a trained model.
  size_t trained_jobs() const { return models_.size(); }

  NHitsModel* model(size_t job);

  // WorkloadPredictor. Jobs without a trained model fall back to a damped
  // average (so cold deployments still autoscale).
  //
  // Thread-safe: one trained predictor is shared by every policy instance in
  // a parallel RunTrials fan-out. The forward pass is a pure function of the
  // frozen weights and the history, but it scribbles on the model's
  // activation cache, so concurrent calls are serialised by a mutex --
  // results are identical under any interleaving.
  std::vector<double> PredictQuantile(size_t job, std::span<const double> history,
                                      size_t horizon, double quantile) override;

 private:
  // The untrained model for `job` and its training settings; both seeds
  // are derived per job here, for TrainJob and TrainJobs alike.
  std::unique_ptr<NHitsModel> MakeModel(size_t job) const;
  TrainConfig JobTrainConfig(size_t job) const;

  NHitsConfig model_config_;
  TrainConfig train_config_;
  std::unordered_map<size_t, std::unique_ptr<NHitsModel>> models_;
  DampedAveragePredictor fallback_;
  std::mutex predict_mutex_;
};

}  // namespace faro

#endif  // SRC_FORECAST_ADAPTER_H_
