// faro_serve: live telemetry replay daemon.
//
// Replays a synthetic workload (or an external trace CSV) through the
// simulator at a wall-clock speed multiplier while the Faro autoscaler runs
// its predictive and reactive loops, and serves live observability over
// HTTP (see src/serve/daemon.h for the endpoint set). At any speed the
// simulated outcome -- and the summary CSV -- is bit-identical to the batch
// run of the same configuration and seed; `--batch` runs the same binary
// without pacing to produce the reference artifact.
//
// Usage:
//   faro_serve [--scenario=node-crash] [--minutes=240] [--speed=1000]
//              [--port=9100] [--seed=5150] [--policy=Faro-FairSum]
//              [--trace-file=traces.csv]
//              [--train] [--batch] [--linger] [--live-actuator]
//              [--summary-out=..] [--metrics-out=..] [--audit-out=..]
//              [--alerts-out=..]
//
//   --scenario   chaos plan (node-crash | rolling-drain | replica-burst |
//                flaky-api | none). Node scenarios add the 8-node placement
//                model from the Fig. 17 bench.
//   --minutes    truncate every trace to this many sim-minutes (0 = full)
//   --speed      sim seconds per wall second, 1..10000 (POST /speed adjusts)
//   --train      train the N-HiTS predictor first (seconds of startup);
//                default is the damped-average forecast fallback
//   --batch      no pacing, no HTTP: write artifacts and exit (reference)
//   --linger     keep serving after the replay completes until SIGTERM
//   --live-actuator  run the asynchronous reconciling actuator thread and
//                serve its state at /actuator (src/actuate/async_actuator.h);
//                the replayed simulation itself is unaffected

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/faults/faultplan.h"
#include "src/obs/slo.h"
#include "src/serve/daemon.h"
#include "src/sim/harness.h"
#include "src/workload/trace_io.h"

namespace faro {
namespace {

ReplayDaemon* g_daemon = nullptr;

void HandleSignal(int /*sig*/) {
  if (g_daemon != nullptr) {
    g_daemon->RequestStop();
  }
}

struct Flags {
  std::string scenario = "none";
  std::string policy = "Faro-FairSum";
  std::string trace_file;
  size_t minutes = 0;
  double speed = 60.0;
  int port = 0;
  uint64_t seed = 5150;
  bool train = false;
  bool batch = false;
  bool linger = false;
  bool live_actuator = false;
  std::string summary_out;
  std::string metrics_out;
  std::string audit_out;
  std::string alerts_out;
};

bool ParseFlags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--scenario=")) {
      flags.scenario = v;
    } else if (const char* v = value("--policy=")) {
      flags.policy = v;
    } else if (const char* v = value("--trace-file=")) {
      flags.trace_file = v;
    } else if (const char* v = value("--minutes=")) {
      flags.minutes = static_cast<size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value("--speed=")) {
      flags.speed = std::strtod(v, nullptr);
    } else if (const char* v = value("--port=")) {
      flags.port = std::atoi(v);
    } else if (const char* v = value("--seed=")) {
      flags.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--summary-out=")) {
      flags.summary_out = v;
    } else if (const char* v = value("--metrics-out=")) {
      flags.metrics_out = v;
    } else if (const char* v = value("--audit-out=")) {
      flags.audit_out = v;
    } else if (const char* v = value("--alerts-out=")) {
      flags.alerts_out = v;
    } else if (std::strcmp(arg, "--train") == 0) {
      flags.train = true;
    } else if (std::strcmp(arg, "--batch") == 0) {
      flags.batch = true;
    } else if (std::strcmp(arg, "--linger") == 0) {
      flags.linger = true;
    } else if (std::strcmp(arg, "--live-actuator") == 0) {
      flags.live_actuator = true;
    } else {
      std::fprintf(stderr, "faro_serve: unknown flag %s\n", arg);
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, flags)) {
    return 2;
  }

  ExperimentSetup setup;
  setup.capacity = 32.0;
  setup.seed = flags.seed;
  // The live daemon always feeds the metrics registry (that is the point of
  // /metrics); --metrics-out additionally flushes a final exposition file.
  setup.obs.metrics = true;
  setup.obs.metrics_out = flags.metrics_out;

  std::vector<std::string> node_names;
  const bool chaos = flags.scenario != "none" && !flags.scenario.empty();
  if (chaos) {
    // Fig. 17 cluster shape: 8 four-replica nodes, spread placement.
    const size_t kNodes = 8;
    for (size_t n = 0; n < kNodes; ++n) {
      const std::string name = "node" + std::to_string(n);
      node_names.push_back(name);
      setup.nodes.push_back(
          Node{name, setup.capacity / kNodes, setup.capacity / kNodes});
    }
  }

  PreparedWorkload workload = PrepareWorkload(setup);
  if (!flags.trace_file.empty()) {
    // External trace: one column per job (req/min per sim-minute); job specs
    // keep the standard ResNet34 shape. Malformed cells throw with a
    // file:line:column message (src/workload/trace_io.h).
    std::vector<std::string> names;
    std::vector<Series> traces;
    try {
      traces = LoadTracesCsv(flags.trace_file, &names);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "faro_serve: %s\n", error.what());
      return 2;
    }
    if (traces.empty()) {
      std::fprintf(stderr, "faro_serve: cannot read trace file %s\n",
                   flags.trace_file.c_str());
      return 2;
    }
    workload.jobs.clear();
    for (size_t c = 0; c < traces.size(); ++c) {
      SimJobConfig job;
      const std::string name =
          c < names.size() && !names[c].empty() ? names[c]
                                                : "trace" + std::to_string(c);
      job.spec = ResNet34Spec(name);
      job.arrival_rate_per_min = traces[c];
      workload.jobs.push_back(std::move(job));
    }
  }
  if (flags.minutes > 0) {
    for (SimJobConfig& job : workload.jobs) {
      if (job.arrival_rate_per_min.size() > flags.minutes) {
        job.arrival_rate_per_min = job.arrival_rate_per_min.Slice(0, flags.minutes);
      }
    }
  }
  const double duration_s =
      60.0 * static_cast<double>(
                 workload.jobs.empty() ? 0 : workload.jobs[0].arrival_rate_per_min.size());
  if (chaos) {
    setup.faults = MakeFaultScenario(flags.scenario, duration_s, node_names);
    if (!setup.faults.active()) {
      std::fprintf(stderr, "faro_serve: unknown scenario \"%s\" (known:",
                   flags.scenario.c_str());
      for (const std::string& name : FaultScenarioNames()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, " none)\n");
      return 2;
    }
  }

  // Policy. Training is opt-in: the damped-average fallback starts instantly
  // and keeps the decision path deterministic either way.
  std::shared_ptr<NHitsWorkloadPredictor> predictor;
  if (flags.train) {
    std::fprintf(stderr, "faro_serve: training predictor...\n");
    predictor = TrainPredictor(workload, setup.seed);
  }
  FaroConfig overrides;
  overrides.forecast_max_jump = 8.0;  // Fig. 17 chaos-bench configuration
  overrides.audit = &GlobalAuditLog();
  overrides.audit_label = "faro_serve/" + flags.scenario + "/" + flags.policy;
  auto policy = MakePolicy(flags.policy, predictor, &overrides);
  if (policy == nullptr) {
    std::fprintf(stderr, "faro_serve: unknown policy \"%s\"\n", flags.policy.c_str());
    return 2;
  }

  SimConfig config = BuildSimConfig(setup, flags.seed);
  config.obs_metrics = true;

  ServeOptions options;
  options.speed = flags.speed;
  options.port = static_cast<uint16_t>(flags.port);
  options.batch = flags.batch;
  options.linger = flags.linger;
  options.audit = &GlobalAuditLog();
  options.summary_out = flags.summary_out;
  options.metrics_out = flags.metrics_out;
  options.audit_out = flags.audit_out;
  options.alerts_out = flags.alerts_out;
  options.live_actuator = flags.live_actuator;

  ReplayDaemon daemon(config, workload.jobs, *policy, options);
  g_daemon = &daemon;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  if (!flags.batch) {
    if (!daemon.StartServer()) {
      std::fprintf(stderr, "faro_serve: cannot bind 127.0.0.1:%d\n", flags.port);
      return 1;
    }
    std::fprintf(stderr,
                 "faro_serve: serving http://127.0.0.1:%u "
                 "(/metrics /alerts /audit%s /healthz /speed) at %.0fx\n",
                 daemon.port(), flags.live_actuator ? " /actuator" : "",
                 flags.speed);
  }

  const RunResult result = daemon.Run();
  std::fprintf(stderr,
               "faro_serve: replay %s: %llu events, lost utility %.5f, "
               "burn alerts %llu fast / %llu slow\n",
               daemon.run_complete() ? "complete" : "interrupted",
               static_cast<unsigned long long>(result.events_processed),
               result.cluster_lost_utility,
               static_cast<unsigned long long>(result.cluster_burn_alerts_fast),
               static_cast<unsigned long long>(result.cluster_burn_alerts_slow));
  g_daemon = nullptr;
  return 0;
}

}  // namespace
}  // namespace faro

int main(int argc, char** argv) { return faro::Main(argc, argv); }
