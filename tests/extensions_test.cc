// Tests for the §7 extension features: G/G/c queueing, pipeline SLO
// splitting, admission control, budget-limited capacity, the Prophet-style
// forecaster, trace CSV I/O, and simulator fault injection.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/core/admission.h"
#include "src/core/budget.h"
#include "src/core/pipeline.h"
#include "src/forecast/prophet.h"
#include "src/queueing/ggc.h"
#include "src/queueing/mdc.h"
#include "src/queueing/mmc.h"
#include "src/sim/simulator.h"
#include "src/workload/trace_io.h"

namespace faro {
namespace {

// --- G/G/c -------------------------------------------------------------------

TEST(GgcTest, MmcSpecialCase) {
  // ca^2 = cs^2 = 1 (M/M/c): Allen-Cunneen is exact.
  const TrafficVariability mm{1.0, 1.0};
  EXPECT_NEAR(GgcMeanWait(4, 30.0, 0.1, mm), MmcMeanWait(4, 30.0, 0.1), 1e-12);
  EXPECT_NEAR(GgcWaitPercentile(4, 30.0, 0.1, 0.99, mm),
              MmcWaitPercentile(4, 30.0, 0.1, 0.99), 1e-12);
}

TEST(GgcTest, DeterministicServiceDerivesTheHalfRule) {
  // ca^2 = 1, cs^2 = 0 (M/D/c): Allen-Cunneen reduces to exactly half the
  // M/M/c wait -- the engineering approximation of §3.3 falls out as a
  // special case.
  const TrafficVariability md{1.0, 0.0};
  EXPECT_NEAR(GgcLatencyPercentile(8, 40.0, 0.15, 0.99, md),
              MdcLatencyPercentile(8, 40.0, 0.15, 0.99), 1e-12);
  EXPECT_EQ(RequiredReplicasGgc(40.0, 0.15, 0.60, 0.9999, md), 8u);
}

TEST(GgcTest, BurstierTrafficNeedsMoreReplicas) {
  const TrafficVariability calm{1.0, 0.0};
  const TrafficVariability bursty{4.0, 1.0};
  EXPECT_GE(RequiredReplicasGgc(40.0, 0.15, 0.60, 0.99, bursty),
            RequiredReplicasGgc(40.0, 0.15, 0.60, 0.99, calm));
}

TEST(GgcTest, UnstableIsInfinite) {
  const TrafficVariability v{1.0, 0.5};
  EXPECT_TRUE(std::isinf(GgcMeanWait(2, 25.0, 0.1, v)));
}

// --- Pipeline SLO splitting ---------------------------------------------------

PipelineSpec TwoStagePipeline() {
  PipelineSpec pipeline;
  pipeline.name = "video";
  pipeline.slo = 0.9;
  pipeline.stages = {{"detector", 0.200, 1.0}, {"classifier", 0.100, 1.0}};
  return pipeline;
}

TEST(PipelineTest, ProportionalSplitMatchesPaperExample) {
  // §7: "for a chain with two model calls, if one model takes 2x other ...
  // the SLO is split as 66%-33%".
  const auto specs = SplitPipelineSlo(TwoStagePipeline());
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_NEAR(specs[0].slo, 0.6, 1e-12);
  EXPECT_NEAR(specs[1].slo, 0.3, 1e-12);
  EXPECT_EQ(specs[0].name, "video/detector");
  EXPECT_NEAR(specs[0].slo + specs[1].slo, 0.9, 1e-12);
}

TEST(PipelineTest, FanoutScalesDownstreamLoad) {
  PipelineSpec pipeline = TwoStagePipeline();
  pipeline.stages[1].fanout = 2.5;  // detector triggers ~2.5 classifier calls
  const auto rates = StageArrivalRates(pipeline, 10.0);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 25.0);
}

TEST(PipelineTest, LatencyEstimateSumsStages) {
  const PipelineSpec pipeline = TwoStagePipeline();
  const std::vector<double> replicas{6.0, 4.0};
  const double end_to_end = PipelineLatencyEstimate(pipeline, replicas, 10.0);
  const double stage0 = RelaxedMdcLatency(6.0, 10.0, 0.2, 0.99);
  const double stage1 = RelaxedMdcLatency(4.0, 10.0, 0.1, 0.99);
  EXPECT_NEAR(end_to_end, stage0 + stage1, 1e-12);
}

TEST(PipelineTest, FeasibilityRequiresSloAboveTotalProcessing) {
  PipelineSpec pipeline = TwoStagePipeline();
  EXPECT_TRUE(PipelineSloFeasible(pipeline));
  pipeline.slo = 0.25;  // below 0.3 total processing time
  EXPECT_FALSE(PipelineSloFeasible(pipeline));
  pipeline.stages.clear();
  EXPECT_FALSE(PipelineSloFeasible(pipeline));
}

TEST(PipelineTest, SubSlosMeetableImpliesPipelineMeetable) {
  // If every stage meets its sub-SLO, summed stage latencies meet the
  // pipeline SLO (the composition is conservative by construction).
  const PipelineSpec pipeline = TwoStagePipeline();
  const auto specs = SplitPipelineSlo(pipeline);
  const auto rates = StageArrivalRates(pipeline, 15.0);
  std::vector<double> replicas;
  for (size_t i = 0; i < specs.size(); ++i) {
    replicas.push_back(RequiredReplicasMdc(rates[i], specs[i].processing_time, specs[i].slo,
                                           specs[i].percentile));
  }
  EXPECT_LE(PipelineLatencyEstimate(pipeline, replicas, 15.0), pipeline.slo + 1e-9);
}

// --- Admission control --------------------------------------------------------

AdmissionRequest MakeRequest(const std::string& name, double peak_rate) {
  AdmissionRequest request;
  request.spec.name = name;
  request.spec.slo = 0.72;
  request.spec.processing_time = 0.18;
  request.peak_arrival_rate = peak_rate;
  return request;
}

TEST(AdmissionTest, AdmitsUntilCapacityExhausted) {
  AdmissionController controller(ClusterResources{12.0, 12.0});
  // Each job with peak 20 req/s needs 6 replicas at p99.
  EXPECT_TRUE(controller.Admit(MakeRequest("a", 20.0)).admitted);
  EXPECT_TRUE(controller.Admit(MakeRequest("b", 20.0)).admitted);
  const AdmissionDecision third = controller.Admit(MakeRequest("c", 20.0));
  EXPECT_FALSE(third.admitted);
  EXPECT_GT(third.peak_demand_cpu, 12.0);
}

TEST(AdmissionTest, ReleaseFreesCapacity) {
  AdmissionController controller(ClusterResources{12.0, 12.0});
  ASSERT_TRUE(controller.Admit(MakeRequest("a", 20.0)).admitted);
  ASSERT_TRUE(controller.Admit(MakeRequest("b", 20.0)).admitted);
  EXPECT_FALSE(controller.Check(MakeRequest("c", 20.0)).admitted);
  EXPECT_TRUE(controller.Release("a"));
  EXPECT_FALSE(controller.Release("a"));  // already gone
  EXPECT_TRUE(controller.Admit(MakeRequest("c", 20.0)).admitted);
}

TEST(AdmissionTest, RejectsUnsatisfiableSlo) {
  AdmissionRequest impossible = MakeRequest("x", 1.0);
  impossible.spec.slo = 0.1;  // below one service time
  AdmissionController controller(ClusterResources{100.0, 100.0});
  EXPECT_FALSE(controller.Admit(impossible).admitted);
}

TEST(AdmissionTest, CheckDoesNotMutate) {
  AdmissionController controller(ClusterResources{12.0, 12.0});
  EXPECT_TRUE(controller.Check(MakeRequest("a", 20.0)).admitted);
  EXPECT_EQ(controller.admitted().size(), 0u);
}

// --- Budget-limited capacity ----------------------------------------------------

TEST(BudgetTest, CapacityFromWholeInstances) {
  const InstanceType cx2{"cx2-32x64", 32.0, 64.0, 1.50};
  EXPECT_EQ(InstancesForBudget(3.20, cx2), 2u);
  const ClusterResources capacity = CapacityForBudget(3.20, cx2);
  EXPECT_DOUBLE_EQ(capacity.cpu, 64.0);
  EXPECT_DOUBLE_EQ(capacity.mem, 128.0);
  EXPECT_EQ(InstancesForBudget(1.0, cx2), 0u);
}

TEST(BudgetTest, CheapestFeasiblePicksByRate) {
  const std::vector<InstanceType> catalog{
      {"small", 4.0, 8.0, 0.25},    // $0.0625 / vCPU-h
      {"large", 32.0, 64.0, 1.50},  // $0.0469 / vCPU-h
      {"gpuish", 8.0, 64.0, 2.00},  // $0.25 / vCPU-h
  };
  // Need 36 vCPUs / 36 GB within $3/h: large gives 64 vCPUs ($0.047) -- the
  // cheapest per vCPU that reaches the requirement; small gives 48 vCPUs at
  // $0.0625. Expect "large".
  const InstanceType* pick = CheapestFeasible(catalog, 3.0, 36.0, 36.0);
  ASSERT_NE(pick, nullptr);
  EXPECT_EQ(pick->name, "large");
  // Impossible requirement.
  EXPECT_EQ(CheapestFeasible(catalog, 0.3, 36.0, 36.0), nullptr);
}

// --- Prophet ------------------------------------------------------------------

TEST(ProphetTest, FitsDiurnalSeriesAndForecasts) {
  const size_t period = 120;
  std::vector<double> values;
  for (size_t t = 0; t < 6 * period; ++t) {
    values.push_back(50.0 + 20.0 * std::sin(2.0 * std::numbers::pi * t / period) +
                     0.01 * static_cast<double>(t));
  }
  ProphetConfig config;
  config.period = period;
  ProphetModel model(config);
  ASSERT_TRUE(model.Fit(values));
  const auto forecast = model.Forecast(period);
  ASSERT_EQ(forecast.size(), period);
  double se = 0.0;
  for (size_t h = 0; h < period; ++h) {
    const size_t t = values.size() + h;
    const double truth = 50.0 + 20.0 * std::sin(2.0 * std::numbers::pi * t / period) +
                         0.01 * static_cast<double>(t);
    se += (forecast[h] - truth) * (forecast[h] - truth);
  }
  EXPECT_LT(std::sqrt(se / period), 3.0);  // far below the 20-amplitude swing
}

TEST(ProphetTest, TooLittleDataFallsBack) {
  ProphetModel model;
  EXPECT_FALSE(model.Fit(std::vector<double>{1.0, 2.0, 3.0}));
  const auto forecast = model.Forecast(4);
  for (const double v : forecast) {
    EXPECT_DOUBLE_EQ(v, 3.0);
  }
}

TEST(ProphetTest, ForecastsAreNonNegative) {
  std::vector<double> values;
  for (size_t t = 0; t < 720; ++t) {
    values.push_back(1.0 + std::sin(2.0 * std::numbers::pi * t / 360.0));
  }
  ProphetConfig config;
  config.period = 360;
  ProphetModel model(config);
  ASSERT_TRUE(model.Fit(values));
  for (const double v : model.Forecast(360)) {
    EXPECT_GE(v, 0.0);
  }
}

// --- Trace CSV I/O --------------------------------------------------------------

TEST(TraceIoTest, RoundTripsWithHeader) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "faro_trace_io_test.csv").string();
  const std::vector<Series> traces{Series({1.0, 2.5, 3.0}), Series({10.0, 20.0})};
  ASSERT_TRUE(SaveTracesCsv(path, traces, {"jobA", "jobB"}));
  std::vector<std::string> names;
  const auto loaded = LoadTracesCsv(path, &names);
  ASSERT_EQ(loaded.size(), 2u);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "jobA");
  ASSERT_EQ(loaded[0].size(), 3u);
  ASSERT_EQ(loaded[1].size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0][1], 2.5);
  EXPECT_DOUBLE_EQ(loaded[1][1], 20.0);
  std::filesystem::remove(path);
}

TEST(TraceIoTest, HeaderlessNumericFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "faro_trace_io_test2.csv").string();
  ASSERT_TRUE(SaveTracesCsv(path, {Series({5.0, 6.0})}));
  const auto loaded = LoadTracesCsv(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0][0], 5.0);
  std::filesystem::remove(path);
}

TEST(TraceIoTest, MissingFileReturnsEmpty) {
  EXPECT_TRUE(LoadTracesCsv("/nonexistent/path/t.csv").empty());
}

TEST(TraceIoTest, MalformedCellThrowsNamingFileLineAndColumn) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "faro_trace_io_bad.csv").string();
  {
    std::ofstream out(path);
    out << "jobA,jobB\n1,2\n3,oops\n";
  }
  try {
    LoadTracesCsv(path);
    FAIL() << "malformed cell did not throw";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(":3:"), std::string::npos) << what;       // line number
    EXPECT_NE(what.find("column 2"), std::string::npos) << what;  // 1-based column
    EXPECT_NE(what.find("'jobB'"), std::string::npos) << what;    // header name
    EXPECT_NE(what.find("'oops'"), std::string::npos) << what;    // offending text
  }
  std::filesystem::remove(path);
}

TEST(TraceIoTest, GarbageInHeaderlessFileThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "faro_trace_io_garbage.csv").string();
  {
    std::ofstream out(path);
    out << "5,6\n7,\x01garbage\n";  // numeric first row, binary junk later
  }
  EXPECT_THROW(LoadTracesCsv(path), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(TraceIoTest, TruncatedRaggedTailStaysLegal) {
  // A file cut off mid-row leaves trailing empty cells -- exactly what
  // SaveTracesCsv emits for ragged traces, so it must keep loading; blank
  // lines and CRLF endings are tolerated too.
  const std::string path =
      (std::filesystem::temp_directory_path() / "faro_trace_io_trunc.csv").string();
  {
    std::ofstream out(path);
    out << "jobA,jobB\r\n1,2\r\n\r\n3,\n";
  }
  const auto loaded = LoadTracesCsv(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].size(), 2u);
  EXPECT_EQ(loaded[1].size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0][1], 3.0);
  std::filesystem::remove(path);
}

// --- Fault injection --------------------------------------------------------------

// Records the replica target of every published desired-state generation.
class TargetRecorder : public DesiredStateObserver {
 public:
  void OnPublish(const DesiredState& desired) override {
    targets.push_back(desired.replicas.empty() ? 0 : desired.replicas[0]);
  }
  std::vector<uint32_t> targets;
};

TEST(FaultInjectionTest, FailuresDegradeFixedAllocationButRestoringPolicyRecovers) {
  SimJobConfig job;
  job.spec.name = "job0";
  job.spec.processing_time = 0.18;
  job.spec.slo = 0.72;
  job.arrival_rate_per_min = Series(std::vector<double>(40, 600.0));  // 10 req/s
  job.initial_replicas = 4;

  // Three scheduled bursts, each killing two of job 0's four replicas,
  // between the 300 s decision ticks.
  SimConfig config;
  config.resources = ClusterResources{32.0, 32.0};
  config.seed = 5;
  for (const double time_s : {420.0, 1020.0, 1620.0}) {
    FaultEvent burst;
    burst.time_s = time_s;
    burst.kind = FaultKind::kReplicaBurst;
    burst.job = 0;
    burst.count = 2;
    config.faults.events.push_back(burst);
  }
  TargetRecorder recorder;
  config.desired_observer = &recorder;

  // A policy that never re-provisions: it re-publishes whatever it sees.
  class InertPolicy : public AutoscalingPolicy {
   public:
    std::string name() const override { return "Inert"; }
    ScalingAction Decide(double, const std::vector<JobSpec>&,
                         const std::vector<JobMetrics>& metrics,
                         const ClusterResources&) override {
      ScalingAction action;
      action.replicas = {
          static_cast<uint32_t>(metrics[0].ready_replicas + metrics[0].starting_replicas)};
      return action;
    }
  };
  InertPolicy inert;
  const RunResult healed = RunSimulation(config, {job}, inert);

  // Every burst landed and cost live capacity until replacements came up.
  EXPECT_EQ(healed.faults.bursts, 3u);
  EXPECT_EQ(healed.faults.replicas_killed, 6u);
  EXPECT_EQ(healed.jobs[0].injected_failures, 6u);
  EXPECT_GT(healed.jobs[0].recovery_seconds, 0.0);
  EXPECT_GT(healed.jobs[0].capacity_seconds_lost, 0.0);
  ASSERT_EQ(healed.fault_log.size(), 3u);
  for (const AppliedFault& fault : healed.fault_log) {
    EXPECT_EQ(fault.what, "replica_burst");
    EXPECT_EQ(fault.target, "job0");
    EXPECT_EQ(fault.count, 2u);
  }

  // The reconciling actuator is level-triggered: a kill after convergence
  // reopens the deficit against the last published generation, so even the
  // inert policy is healed back to its published target of 4 -- and never
  // publishes a lower one, because it sees the repairs as starting replicas.
  EXPECT_GT(healed.actuation.retries, 0u);
  ASSERT_FALSE(recorder.targets.empty());
  for (const uint32_t target : recorder.targets) {
    EXPECT_EQ(target, 4u);
  }
  EXPECT_DOUBLE_EQ(healed.jobs[0].minute_replicas.back(), 4.0);
}

}  // namespace
}  // namespace faro
