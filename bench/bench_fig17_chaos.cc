// Figure 17 (extension): chaos resilience. Runs Faro against the baselines
// under the four named fault scenarios (src/faults/faultplan.h) on a
// node-modelled cluster and reports the paper metrics next to the recovery
// metrics the chaos layer produces: replicas killed, capacity-seconds lost,
// time under the pre-fault replica target, and time to utility
// re-convergence. Faro's degradation ladder runs with the capacity-change
// re-solve and actuation retry at their defaults and the (default-off)
// forecast sanity guard armed at 8x. The Faro-FairSum row's reconciler
// convergence telemetry (generations, repair retries, fence rejections) lands
// in the --bench-json output next to its recovery metrics.
//
// Flags (besides the BenchObs --metrics-out/--trace-out pair):
//   --scenario=NAME      run one scenario instead of all four
//   --summary-out=PATH   per-job summary CSV (recovery columns included) of
//                        the last Faro-FairSum run
//   --solver-out=PATH    solver-telemetry CSV (degradation counters included)
//                        of the same run
//   --faults-out=PATH    applied-fault log CSV of the same run
//   --slo-out=PATH       SLO attribution timeline CSV (per job per window,
//                        causal buckets + burn rates) of the same run
//   --audit-out=PATH     decision audit JSONL of every run (via BenchObs)

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/faults/faultplan.h"
#include "src/obs/slo.h"
#include "src/sim/harness.h"
#include "src/sim/report.h"

namespace faro {
namespace {

// Recovery metrics folded over one run's jobs: totals where totals make
// sense, the worst job where they do not (-1 "never reconverged" dominates).
struct Recovery {
  uint64_t injected = 0;
  double capacity_lost = 0.0;
  double recovery_s = 0.0;
  double reconverge_s = 0.0;
};

Recovery FoldRecovery(const RunResult& result) {
  Recovery r;
  for (const JobRunStats& job : result.jobs) {
    r.injected += job.injected_failures;
    r.capacity_lost += job.capacity_seconds_lost;
    r.recovery_s = std::max(r.recovery_s, job.recovery_seconds);
    if (r.reconverge_s >= 0.0) {
      r.reconverge_s = job.utility_reconverge_s < 0.0
                           ? -1.0
                           : std::max(r.reconverge_s, job.utility_reconverge_s);
    }
  }
  return r;
}

// "node-crash" / "MArk/Cocktail/Barista" -> "node_crash" / "mark_cocktail_barista".
std::string JsonKey(const std::string& raw) {
  std::string key;
  key.reserve(raw.size());
  for (char c : raw) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      key.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!key.empty() && key.back() != '_') {
      key.push_back('_');
    }
  }
  while (!key.empty() && key.back() == '_') {
    key.pop_back();
  }
  return key;
}

void PrintRow(const std::string& name, const RunResult& result, const Recovery& r) {
  std::printf("%-24s %-10.3f %-8llu %-12.0f %-12.0f ", name.c_str(),
              result.cluster_lost_utility, static_cast<unsigned long long>(r.injected),
              r.capacity_lost, r.recovery_s);
  if (r.reconverge_s < 0.0) {
    std::printf("%-12s ", "never");
  } else {
    std::printf("%-12.0f ", r.reconverge_s);
  }
  const auto& by_cause = result.cluster_lost_by_cause;
  std::printf("%-7.3f %-7.3f %-7.3f %-7.3f %-6llu\n",
              by_cause[CauseIndex(LossCause::kQueueWait)],
              by_cause[CauseIndex(LossCause::kColdStart)],
              by_cause[CauseIndex(LossCause::kDropAdmission)],
              by_cause[CauseIndex(LossCause::kFaultCapacity)],
              static_cast<unsigned long long>(result.cluster_burn_alerts_fast +
                                              result.cluster_burn_alerts_slow));
}

void Run(const std::string& only_scenario, const std::string& summary_out,
         const std::string& solver_out, const std::string& faults_out,
         const std::string& slo_out, BenchJson& json) {
  PrintHeader("Figure 17: resilience under chaos injection, 32 replicas / 8 nodes");

  ExperimentSetup setup;
  setup.capacity = 32.0;
  // Node model: 8 four-replica nodes, spread placement -- a node crash takes
  // out an eighth of the cluster plus whatever was running on it.
  const size_t kNodes = 8;
  std::vector<std::string> node_names;
  for (size_t n = 0; n < kNodes; ++n) {
    const std::string name = "node" + std::to_string(n);
    node_names.push_back(name);
    setup.nodes.push_back(Node{name, setup.capacity / kNodes, setup.capacity / kNodes});
  }
  PreparedWorkload workload = PrepareWorkload(setup);
  const auto predictor = TrainPredictor(workload, setup.seed);
  if (FastBench()) {
    // Scenario times are fractions of the run length, so truncating the eval
    // day to 4 hours keeps every fault (and its recovery window) in frame
    // while cutting the CI smoke run to a few minutes.
    constexpr size_t kFastMinutes = 240;
    for (SimJobConfig& job : workload.jobs) {
      if (job.arrival_rate_per_min.size() > kFastMinutes) {
        job.arrival_rate_per_min = job.arrival_rate_per_min.Slice(0, kFastMinutes);
      }
    }
  }
  const double duration_s = 60.0 * static_cast<double>(
      workload.jobs.empty() ? 0 : workload.jobs[0].arrival_rate_per_min.size());

  std::vector<std::string> scenarios = FaultScenarioNames();
  if (!only_scenario.empty()) {
    scenarios.assign(1, only_scenario);
  } else if (FastBench()) {
    scenarios.assign(1, scenarios.front());
  }
  const std::vector<std::string> policies{"FairShare", "AIAD", "MArk/Cocktail/Barista",
                                          "Faro-FairSum"};

  for (const std::string& scenario : scenarios) {
    const FaultPlan plan = MakeFaultScenario(scenario, duration_s, node_names);
    if (!plan.active()) {
      std::printf("unknown scenario \"%s\" (known:", scenario.c_str());
      for (const std::string& name : FaultScenarioNames()) {
        std::printf(" %s", name.c_str());
      }
      std::printf(")\n");
      return;
    }
    setup.faults = plan;

    std::printf("\nscenario: %s\n", scenario.c_str());
    std::printf("%-24s %-10s %-8s %-12s %-12s %-12s %-7s %-7s %-7s %-7s %-6s\n", "policy",
                "lost_util", "killed", "cap_lost(s)", "recovery(s)", "reconverge", "queue",
                "cold", "drop", "fault", "alerts");
    const std::string sc = JsonKey(scenario);
    for (const std::string& name : policies) {
      const TraceSession session = StartRunTraceSession(setup, scenario + "/" + name);
      FaroConfig overrides;
      overrides.trace = session;
      // Decision audit (--audit-out / FARO_AUDIT_OUT): this bench drives
      // RunPolicy directly, so it wires the audit sink itself, one label per
      // scenario x policy run.
      if (setup.obs.auditing()) {
        overrides.audit = &GlobalAuditLog();
        overrides.audit_label = scenario + "/" + name;
      }
      // Arm the forecast sanity guard: off by default (it can fire on
      // legitimate early-cycle forecasts), deterministic once enabled.
      overrides.forecast_max_jump = 8.0;
      auto policy = MakePolicy(name, predictor, &overrides);
      const RunResult result = RunPolicy(setup, workload, *policy, 5150, session);
      const Recovery r = FoldRecovery(result);
      PrintRow(name, result, r);
      json.Set(sc + "_" + JsonKey(name) + "_lost_utility", result.cluster_lost_utility);
      if (name == "Faro-FairSum") {
        if (!summary_out.empty()) {
          WriteSummaryCsv(summary_out, result);
        }
        if (!solver_out.empty()) {
          WriteSolverCsv(solver_out, result);
        }
        if (!faults_out.empty()) {
          WriteFaultLogCsv(faults_out, result);
        }
        if (!slo_out.empty()) {
          WriteSloCsv(slo_out, result);
        }
        std::printf("  actuation: retries=%llu generations=%llu max-convergence=%.0fs\n",
                    static_cast<unsigned long long>(result.actuation.retries),
                    static_cast<unsigned long long>(result.actuation.generations_published),
                    result.actuation.convergence_s_max);
        json.Set(sc + "_faro_fairsum_recovery_s", r.recovery_s);
        json.Set(sc + "_faro_fairsum_reconverge_s", r.reconverge_s);
        json.Set(sc + "_actuation_retries",
                 static_cast<double>(result.actuation.retries));
        json.Set(sc + "_actuation_generations",
                 static_cast<double>(result.actuation.generations_published));
        json.Set(sc + "_actuation_fence_rejections",
                 static_cast<double>(result.actuation.fence_rejections));
        json.Set(sc + "_actuation_convergence_s_max", result.actuation.convergence_s_max);
      }
    }
  }
}

}  // namespace
}  // namespace faro

int main(int argc, char** argv) {
  faro::BenchObs obs(argc, argv);
  std::string scenario, summary_out, solver_out, faults_out, slo_out;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scenario=", 11) == 0) {
      scenario = arg + 11;
    } else if (std::strncmp(arg, "--summary-out=", 14) == 0) {
      summary_out = arg + 14;
    } else if (std::strncmp(arg, "--solver-out=", 13) == 0) {
      solver_out = arg + 13;
    } else if (std::strncmp(arg, "--faults-out=", 13) == 0) {
      faults_out = arg + 13;
    } else if (std::strncmp(arg, "--slo-out=", 10) == 0) {
      slo_out = arg + 10;
    }
  }
  faro::Run(scenario, summary_out, solver_out, faults_out, slo_out, obs.json());
  return 0;
}
