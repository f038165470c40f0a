#include "src/forecast/adapter.h"

#include <algorithm>

#include "src/common/parallel.h"

namespace faro {

std::unique_ptr<NHitsModel> NHitsWorkloadPredictor::MakeModel(size_t job) const {
  NHitsConfig config = model_config_;
  config.seed = model_config_.seed + job * 7919;
  return std::make_unique<NHitsModel>(config);
}

TrainConfig NHitsWorkloadPredictor::JobTrainConfig(size_t job) const {
  TrainConfig tc = train_config_;
  tc.seed = train_config_.seed + job * 104729;
  return tc;
}

double NHitsWorkloadPredictor::TrainJob(size_t job, const Series& train) {
  std::unique_ptr<NHitsModel> model = MakeModel(job);
  const double loss = model->TrainOnSeries(train, JobTrainConfig(job));
  models_[job] = std::move(model);
  return loss;
}

void NHitsWorkloadPredictor::TrainJobs(std::span<const Series> trains) {
  std::vector<std::unique_ptr<NHitsModel>> models;
  models.reserve(trains.size());
  for (size_t job = 0; job < trains.size(); ++job) {
    models.push_back(MakeModel(job));
  }
  ParallelFor(trains.size(), [&](size_t job) {
    models[job]->TrainOnSeries(trains[job], JobTrainConfig(job));
  });
  for (size_t job = 0; job < trains.size(); ++job) {
    models_[job] = std::move(models[job]);
  }
}

NHitsModel* NHitsWorkloadPredictor::model(size_t job) {
  auto it = models_.find(job);
  return it == models_.end() ? nullptr : it->second.get();
}

std::vector<double> NHitsWorkloadPredictor::PredictQuantile(size_t job,
                                                            std::span<const double> history,
                                                            size_t horizon, double quantile) {
  NHitsModel* model = this->model(job);
  if (model == nullptr || !model->trained()) {
    return fallback_.PredictQuantile(job, history, horizon, quantile);
  }
  // The forward pass reuses the model's activation scratch; serialise it so
  // concurrent trials sharing this predictor never race (see header).
  std::unique_lock<std::mutex> lock(predict_mutex_);
  std::vector<double> trajectory = model->PredictQuantileRaw(history, quantile);
  lock.unlock();
  if (trajectory.size() > horizon) {
    trajectory.resize(horizon);
  }
  while (trajectory.size() < horizon) {
    trajectory.push_back(trajectory.empty() ? 0.0 : trajectory.back());
  }
  return trajectory;
}

}  // namespace faro
