// Benchmark program for Faro: runs one workload and prints its measurements
// as a single JSON line (perfbench/run.py turns that into the benchmark
// result and applies the correctness gate).
//
//   faro_perfbench --workload NAME --seed N [--trace 0|1] [--out-dir DIR]
//                  [--trace-out PATH]
//   faro_perfbench --workload NAME --record-pool [--out-dir DIR]
//   faro_perfbench --selftest --seed N [--held-out-seed M] [--out-dir DIR]
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   fleet-aiad-60   AIAD, 60 jobs sized to 200 replicas, no predictor.
//   serve-crash-10  Fig. 17's node-crash shape (10 jobs, 32 replicas, 8
//                   nodes, Faro-FairSum, N-HiTS 2 epochs); besides the batch
//                   runs, an in-process ReplayDaemon replays it paced while
//                   one client scrapes /metrics open-loop, and the paced
//                   result must equal the batch result.
//
// A run does a fixed amount of work: its set-ups, then one batch run of the
// eval day on each of its sample paths (and, for serve-crash-10, the paced
// replay). The sample paths come from a fixed pool per workload; the seed
// chooses which. --record-pool prints the gate values of every pool path.
//
// Every layer is measured from outside the program: decorators around the
// public AutoscalingPolicy / WorkloadPredictor interfaces, timers around the
// set-up calls and the run entry points, and counters the program already returns
// (SolverTelemetry, ReconcileTelemetry, FaultStats, events_processed and the
// queueing-cache registry counters).
//
// Noise rules: all simulated work runs on one thread (solve_parallelism = 1,
// classic engine), decision latency is reported as a mean and a tail (never
// a median: per-decision times are bimodal), throughput is never taken from
// the paced run, and reported times are whole-run rates over seconds of work
// (set-up is timed as one region over all of a run's set-ups).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/autoscaler.h"
#include "src/faults/faultplan.h"
#include "src/queueing/cache.h"
#include "src/serve/daemon.h"
#include "src/sim/harness.h"
#include "src/sim/report.h"

namespace faro {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Linear-interpolated quantile of an unsorted sample (0 for an empty one).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// Host-drift diagnostic, independent of repository code: a register-only
// integer loop and a pointer chase through a 16 MiB random cycle (the latter
// feels cache and memory contention from other tenants, which the former
// does not). Recorded at the start and end of each run; never used to scale
// a metric.
struct HostRef {
  double cpu_ms = 0.0;
  double mem_ms = 0.0;
  double wall_s = 0.0;  // whole measurement, buffer set-up included
};

HostRef MeasureHostRef() {
  HostRef ref;
  const Clock::time_point start = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < (1 << 24); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const Clock::time_point cpu_end = Clock::now();
  ref.cpu_ms = 1e3 * SecondsBetween(start, cpu_end);

  // Sattolo's shuffle: next[] is a single cycle through every slot.
  constexpr uint32_t kSlots = 1u << 22;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) {
    next[i] = i;
  }
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  const Clock::time_point chase_start = Clock::now();
  uint32_t at = 0;
  for (uint32_t i = 0; i < (1u << 20); ++i) {
    at = next[at];
  }
  const Clock::time_point end = Clock::now();
  ref.mem_ms = 1e3 * SecondsBetween(chase_start, end);
  ref.wall_s = SecondsBetween(start, end);
  volatile uint64_t sink = x + at;
  (void)sink;
  return ref;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace JSON at exit. Only the thread
// that owns a SpanLog appends to it; the scraper keeps its own and the two
// are merged after it is joined.
struct Span {
  std::string name;
  int tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::string args;  // JSON object body, may be empty
};

class SpanLog {
 public:
  SpanLog(Clock::time_point origin, int tid) : origin_(origin), tid_(tid) {}

  bool enabled = false;

  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           std::string args = {}) {
    if (!enabled) {
      return;
    }
    spans_.push_back(Span{name, tid_, 1e6 * SecondsBetween(origin_, start),
                          1e6 * SecondsBetween(start, end), std::move(args)});
  }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    out << "{\"traceEvents\":[\n";
    out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
           "\"faro_perfbench\"}}";
    char buf[128];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", s.start_us, s.dur_us);
      out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"name\":\"" << s.name
          << "\"" << buf;
      if (!s.args.empty()) {
        out << ",\"args\":{" << s.args << "}";
      }
      out << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  int tid_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Layer accumulators filled by the decorators. Single-writer: the thread that
// drives the simulation.
struct LayerTimes {
  uint64_t predict_calls = 0;
  double predict_s = 0.0;
  uint64_t decide_calls = 0;
  uint64_t decide_failed = 0;
  double decide_s = 0.0;
  double decide_solve_s = 0.0;
  double decide_predict_s = 0.0;
  std::vector<double> decide_ms;
  uint64_t react_calls = 0;
  double react_s = 0.0;
  double react_solve_s = 0.0;
  double react_predict_s = 0.0;
  // Paced runs: wall seconds behind the pacing target when the policy sees
  // sim time `now_s` (set pace_origin and pace_speed to enable).
  std::optional<Clock::time_point> pace_origin;
  double pace_speed = 1.0;
  double pace_lag_s_max = 0.0;
};

// Times WorkloadPredictor::PredictQuantile; forwards everything unchanged.
class TimedPredictor : public WorkloadPredictor {
 public:
  TimedPredictor(std::shared_ptr<WorkloadPredictor> inner, LayerTimes& times, SpanLog& spans)
      : inner_(std::move(inner)), times_(times), spans_(spans) {}

  std::vector<double> PredictQuantile(size_t job, std::span<const double> history,
                                      size_t horizon, double quantile) override {
    const Clock::time_point t0 = Clock::now();
    std::vector<double> out = inner_->PredictQuantile(job, history, horizon, quantile);
    const Clock::time_point t1 = Clock::now();
    ++times_.predict_calls;
    times_.predict_s += SecondsBetween(t0, t1);
    spans_.Add("forecast.predict", t0, t1);
    return out;
  }

 private:
  std::shared_ptr<WorkloadPredictor> inner_;
  LayerTimes& times_;
  SpanLog& spans_;
};

// Times AutoscalingPolicy::Decide and FastReact and attributes the Stage-2
// solve time the policy reports (SolverTelemetry) and the predictor time the
// TimedPredictor saw inside each call. Forwards everything unchanged.
class TimedPolicy : public AutoscalingPolicy {
 public:
  TimedPolicy(AutoscalingPolicy& inner, LayerTimes& times, SpanLog& spans)
      : inner_(inner), times_(times), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  double decision_interval_s() const override { return inner_.decision_interval_s(); }
  SolverTelemetry solver_telemetry() const override { return inner_.solver_telemetry(); }

  ScalingAction Decide(double now_s, const std::vector<JobSpec>& job_specs,
                       const std::vector<JobMetrics>& metrics,
                       const ClusterResources& resources) override {
    const SolverTelemetry before = inner_.solver_telemetry();
    const double predict_before = times_.predict_s;
    const Clock::time_point t0 = Clock::now();
    ObservePace(now_s, t0);
    ++times_.decide_calls;
    ScalingAction action;
    try {
      action = inner_.Decide(now_s, job_specs, metrics, resources);
    } catch (...) {
      ++times_.decide_failed;
      throw;
    }
    const Clock::time_point t1 = Clock::now();
    const SolverTelemetry after = inner_.solver_telemetry();
    const double wall = SecondsBetween(t0, t1);
    const double solve = after.solve_seconds_total - before.solve_seconds_total;
    const double predict = times_.predict_s - predict_before;
    times_.decide_s += wall;
    times_.decide_solve_s += solve;
    times_.decide_predict_s += predict;
    times_.decide_ms.push_back(1e3 * wall);
    if (after.fallback_warm + after.fallback_heuristic >
        before.fallback_warm + before.fallback_heuristic) {
      ++times_.decide_failed;
    }
    if (spans_.enabled) {
      char args[160];
      std::snprintf(args, sizeof(args),
                    "\"solve_s\":%.9f,\"predict_s\":%.9f,\"evals\":%llu,\"sim_s\":%.1f", solve,
                    predict,
                    static_cast<unsigned long long>(after.objective_evaluations -
                                                    before.objective_evaluations),
                    now_s);
      spans_.Add("core.decide", t0, t1, args);
    }
    return action;
  }

  std::optional<ScalingAction> FastReact(double now_s, const std::vector<JobSpec>& job_specs,
                                         const std::vector<JobMetrics>& metrics,
                                         const ClusterResources& resources) override {
    const double solve_before = inner_.solver_telemetry().solve_seconds_total;
    const double predict_before = times_.predict_s;
    const Clock::time_point t0 = Clock::now();
    ObservePace(now_s, t0);
    std::optional<ScalingAction> action = inner_.FastReact(now_s, job_specs, metrics, resources);
    const Clock::time_point t1 = Clock::now();
    ++times_.react_calls;
    times_.react_s += SecondsBetween(t0, t1);
    times_.react_solve_s += inner_.solver_telemetry().solve_seconds_total - solve_before;
    times_.react_predict_s += times_.predict_s - predict_before;
    spans_.Add("core.react", t0, t1);
    return action;
  }

 private:
  void ObservePace(double now_s, Clock::time_point wall) {
    if (times_.pace_origin) {
      const double lag = SecondsBetween(*times_.pace_origin, wall) - now_s / times_.pace_speed;
      times_.pace_lag_s_max = std::max(times_.pace_lag_s_max, lag);
    }
  }

  AutoscalingPolicy& inner_;
  LayerTimes& times_;
  SpanLog& spans_;
};

// ---------------------------------------------------------------------------
// Workload definitions.

// The traffic envelope is the paper's standard job mix at its fixed mix seed
// (ExperimentSetup's default). What varies is the request sample path:
// Poisson arrivals, service and cold-start jitter and fault draws, all drawn
// from the simulator seed. Each workload has a fixed pool of `pool` sample
// paths, and the benchmark seed chooses `paths` of them, so every seed offers
// the same load shape and the same training work, and the gate values of
// every path of every seed are on record (perfbench/expected.json). A run
// reports lost utility and violation rate as the mean over its paths, as the
// harness averages trials: one path's outcome swings with a few decisions.
struct WorkloadSpec {
  std::string name;
  uint64_t seed = 0;
  ExperimentSetup setup;
  std::string policy;
  size_t train_epochs = 0;  // 0 = no predictor
  std::string fault_scenario;
  // Also replay the first path paced in a ReplayDaemon under the scraper.
  bool serve = false;
  // Set-ups per run, timed as one region; setup_s is the region over the
  // count.
  int setup_reps = 1;
  // Sample paths per run, chosen from a pool of `pool`. A batch day takes
  // ~8 s on fleet-aiad-60 and ~4 s on serve-crash-10.
  size_t paths = 5;
  size_t pool = 24;
};

std::optional<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed) {
  WorkloadSpec w;
  w.name = name;
  w.seed = seed;
  w.setup.trials = 1;
  w.setup.threads = 1;
  w.setup.engine = SimEngine::kClassic;
  if (name == "fleet-aiad-60") {
    w.setup.num_jobs = 60;
    w.setup.capacity = 200.0;
    w.setup.right_size_replicas = 200.0;
    w.setup.processing_jitter = 0.0;
    w.setup.cold_start_jitter_s = 0.0;
    w.policy = "AIAD";
    // Set-up is workload generation alone (~0.2 s): 20 of them make ~4 s.
    w.setup_reps = 20;
  } else if (name == "serve-crash-10") {
    w.serve = true;
    w.setup.num_jobs = 10;
    w.setup.capacity = 32.0;
    constexpr size_t kNodes = 8;
    for (size_t n = 0; n < kNodes; ++n) {
      w.setup.nodes.push_back(Node{"node" + std::to_string(n), w.setup.capacity / kNodes,
                                   w.setup.capacity / kNodes});
    }
    w.policy = "Faro-FairSum";
    w.train_epochs = 2;
    w.fault_scenario = "node-crash";
    w.setup_reps = 3;
    // Decide() time swings by about 10% from one 4 s unit to the next on a
    // shared host; ten days (730 decisions) average most of that out.
    w.paths = 10;
  } else {
    return std::nullopt;
  }
  return w;
}

// The pool paths a run covers: `paths` distinct indices from a partial
// Fisher-Yates shuffle keyed by the seed. Raw mt19937_64 output is fixed by
// the standard, so the choice is the same with every standard library.
std::vector<size_t> ChoosePaths(const WorkloadSpec& w) {
  std::vector<size_t> order(w.pool);
  std::iota(order.begin(), order.end(), size_t{0});
  std::mt19937_64 rng(w.seed);
  for (size_t i = 0; i < w.paths; ++i) {
    std::swap(order[i], order[i + rng() % (w.pool - i)]);
  }
  order.resize(w.paths);
  return order;
}

// Simulator seed of pool path `pool_path`.
uint64_t TrialSeed(size_t pool_path) { return pool_path * 7919 + 5150; }

// Sim speed of the paced serve run and the open-loop scrape rate. One eval
// day (21 600 sim-s) at 2400x takes 9 s of wall time -- the replay thread
// is busy for about half of it -- and 120 scrapes/s gives >1000 scrapes per
// run, so the p99 has more than ten samples beyond it.
constexpr double kServeSpeed = 2400.0;
constexpr double kScrapeRatePerS = 120.0;

// The Faro configuration the workload passes to MakePolicy: single-threaded
// solves (with parallel multi-start, early-exit cancellation makes the work
// per decision depend on scheduling).
FaroConfig FaroOverrides(const WorkloadSpec& w) {
  FaroConfig config;
  config.solve_parallelism = 1;
  if (!w.fault_scenario.empty()) {
    // As bench_fig17_chaos: the forecast sanity guard armed at 8x.
    config.forecast_max_jump = 8.0;
  }
  return config;
}

struct Prepared {
  PreparedWorkload workload;
  std::shared_ptr<NHitsWorkloadPredictor> predictor;
  ExperimentSetup setup;  // with the fault plan filled in
};

struct SetupTimes {
  double gen_s = 0.0;
  double train_s = 0.0;
};

// One set-up: workload generation and predictor training. `slice_minutes`
// (0 = the full eval day) truncates the eval traces for short self-tests.
Prepared PrepareOnce(const WorkloadSpec& w, SetupTimes& times, SpanLog& spans,
                     size_t slice_minutes = 0) {
  Prepared p;
  p.setup = w.setup;
  const Clock::time_point t0 = Clock::now();
  p.workload = PrepareWorkload(p.setup);
  for (SimJobConfig& job : p.workload.jobs) {
    if (slice_minutes > 0 && job.arrival_rate_per_min.size() > slice_minutes) {
      job.arrival_rate_per_min = job.arrival_rate_per_min.Slice(0, slice_minutes);
    }
  }
  if (!w.fault_scenario.empty()) {
    std::vector<std::string> node_names;
    for (const Node& node : p.setup.nodes) {
      node_names.push_back(node.name);
    }
    const double duration_s =
        60.0 * static_cast<double>(p.workload.jobs.front().arrival_rate_per_min.size());
    p.setup.faults = MakeFaultScenario(w.fault_scenario, duration_s, node_names);
  }
  const Clock::time_point t1 = Clock::now();
  spans.Add("workload.gen", t0, t1);
  times.gen_s += SecondsBetween(t0, t1);
  if (w.train_epochs > 0) {
    p.predictor = TrainPredictor(p.workload, p.setup.seed, w.train_epochs);
    spans.Add("forecast.train", t1, Clock::now());
  }
  times.train_s += SecondsBetween(t1, Clock::now());
  return p;
}

// The policy the workload runs. With `timed` set, the Faro policy is built
// around it exactly as MakePolicy would build it around the plain predictor.
std::unique_ptr<AutoscalingPolicy> BuildPolicy(const WorkloadSpec& w, const Prepared& p,
                                               std::shared_ptr<WorkloadPredictor> timed) {
  const FaroConfig overrides = FaroOverrides(w);
  if (timed == nullptr) {
    return MakePolicy(w.policy, p.predictor, &overrides);
  }
  FaroConfig config = overrides;
  config.objective = ObjectiveKind::kFairSum;  // w.policy == "Faro-FairSum"
  return std::make_unique<FaroAutoscaler>(config, std::move(timed));
}

// ---------------------------------------------------------------------------
// Bit-level equality of every deterministic field of two runs (wall-clock
// solver fields excluded), for paced vs batch, decorated vs plain and unit vs
// unit. Returns the first differing field, or "". CsvBytes adds the
// repository's own identity contract on top.
std::string DiffRuns(const RunResult& a, const RunResult& b) {
  if (a.jobs.size() != b.jobs.size()) return "jobs.size";
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    const JobRunStats& x = a.jobs[i];
    const JobRunStats& y = b.jobs[i];
    const std::string job = "jobs[" + std::to_string(i) + "]";
    if (x.arrivals != y.arrivals || x.drops != y.drops || x.violations != y.violations)
      return job + ".counts";
    if (x.lost_utility != y.lost_utility || x.avg_replicas != y.avg_replicas ||
        x.avg_effective_utility != y.avg_effective_utility || x.lost_by_cause != y.lost_by_cause)
      return job + ".utility";
    if (x.minute_p99 != y.minute_p99 || x.minute_replicas != y.minute_replicas ||
        x.minute_utility != y.minute_utility || x.minute_arrivals != y.minute_arrivals ||
        x.minute_drop_rate != y.minute_drop_rate || x.minute_violations != y.minute_violations ||
        x.minute_lost_by_cause != y.minute_lost_by_cause)
      return job + ".minute_series";
    if (x.error_budget_consumed != y.error_budget_consumed ||
        x.burn_alerts_fast != y.burn_alerts_fast || x.burn_alerts_slow != y.burn_alerts_slow ||
        x.minute_burn_fast != y.minute_burn_fast || x.minute_burn_slow != y.minute_burn_slow)
      return job + ".slo_ledger";
    if (x.injected_failures != y.injected_failures ||
        x.capacity_seconds_lost != y.capacity_seconds_lost ||
        x.recovery_seconds != y.recovery_seconds)
      return job + ".faults";
  }
  if (a.cluster_lost_utility != b.cluster_lost_utility ||
      a.cluster_lost_effective_utility != b.cluster_lost_effective_utility ||
      a.cluster_lost_by_cause != b.cluster_lost_by_cause)
    return "cluster_lost_utility";
  if (a.cluster_slo_violation_rate != b.cluster_slo_violation_rate)
    return "cluster_slo_violation_rate";
  if (a.cluster_utility_timeline != b.cluster_utility_timeline ||
      a.total_load_timeline != b.total_load_timeline)
    return "timelines";
  if (a.events_processed != b.events_processed) return "events_processed";
  const SolverTelemetry& s = a.solver;
  const SolverTelemetry& t = b.solver;
  if (s.cycles != t.cycles || s.objective_evaluations != t.objective_evaluations ||
      s.starts_launched != t.starts_launched || s.early_exits != t.early_exits ||
      s.warm_start_hits != t.warm_start_hits || s.capacity_resolves != t.capacity_resolves)
    return "solver";
  const FaultStats& f = a.faults;
  const FaultStats& g = b.faults;
  if (f.replicas_killed != g.replicas_killed || f.node_crashes != g.node_crashes ||
      f.node_drains != g.node_drains || f.node_recoveries != g.node_recoveries ||
      f.bursts != g.bursts || f.actuation_drops != g.actuation_drops ||
      f.actuation_delays != g.actuation_delays || f.actuation_partials != g.actuation_partials ||
      f.cold_start_stragglers != g.cold_start_stragglers)
    return "fault_stats";
  if (a.fault_log != b.fault_log) return "fault_log";
  const ReconcileTelemetry& u = a.actuation;
  const ReconcileTelemetry& v = b.actuation;
  if (u.generations_published != v.generations_published ||
      u.reconcile_passes != v.reconcile_passes || u.ops_issued != v.ops_issued ||
      u.retries != v.retries || u.fence_rejections != v.fence_rejections ||
      u.convergence_s_max != v.convergence_s_max)
    return "actuation";
  return "";
}

// The summary, timeline and SLO CSVs of a run (src/sim/report.h), written to
// `dir` and read back: two runs the repository calls identical have equal
// bytes here, whatever fields RunResult grows.
std::string CsvBytes(const RunResult& r, const std::string& dir) {
  using Writer = bool (*)(const std::string&, const RunResult&);
  const std::pair<const char*, Writer> files[] = {{"summary.csv", &WriteSummaryCsv},
                                                  {"timeline.csv", &WriteTimelineCsv},
                                                  {"slo.csv", &WriteSloCsv}};
  std::string bytes;
  for (const auto& [name, write] : files) {
    const std::string path = dir + "/perfbench-" + name;
    if (!write(path, r)) {
      throw std::runtime_error("could not write " + path);
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    bytes += text.str();
    std::remove(path.c_str());
  }
  return bytes;
}

// DiffRuns, then the CSV bytes.
std::string DiffRunsAndCsv(const RunResult& a, const RunResult& b, const std::string& dir) {
  const std::string diff = DiffRuns(a, b);
  if (!diff.empty()) return diff;
  return CsvBytes(a, dir) == CsvBytes(b, dir) ? "" : "summary/timeline/slo csv bytes";
}

// ---------------------------------------------------------------------------
// Open-loop /metrics scraper: one client, one connection per scrape (the
// server closes after each response), scrapes due every 1/rate seconds from
// `origin`. Latency is measured from when a scrape was due, so a stall shows
// on every scrape queued behind it.
struct ScrapeStats {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t bytes = 0;
  double late_ms_max = 0.0;
  std::vector<double> latency_ms;
};

bool ScrapeOnce(uint16_t port, uint64_t& bytes) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  timeval timeout{2, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  static constexpr char kRequest[] =
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  ok = ok && send(fd, kRequest, sizeof(kRequest) - 1, MSG_NOSIGNAL) ==
                 static_cast<ssize_t>(sizeof(kRequest) - 1);
  std::string response;
  char buf[16384];
  while (ok) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      ok = false;
    } else if (n == 0) {
      break;
    } else {
      response.append(buf, static_cast<size_t>(n));
    }
  }
  close(fd);
  // A complete 200 response whose body holds the exposition.
  ok = ok && response.rfind("HTTP/1.1 200", 0) == 0 &&
       response.find("# TYPE") != std::string::npos;
  if (ok) {
    bytes += response.size();
  }
  return ok;
}

void ScrapeLoop(uint16_t port, Clock::time_point origin, const std::atomic<bool>& stop,
                ScrapeStats& stats, SpanLog& spans) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kScrapeRatePerS));
  try {
    for (int64_t k = 0;; ++k) {
      const Clock::time_point due = origin + period * k;
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_acquire)) {
        break;
      }
      const Clock::time_point sent = Clock::now();
      const bool ok = ScrapeOnce(port, stats.bytes);
      const Clock::time_point done = Clock::now();
      ++stats.attempted;
      stats.errors += ok ? 0 : 1;
      stats.latency_ms.push_back(1e3 * SecondsBetween(due, done));
      stats.late_ms_max = std::max(stats.late_ms_max, 1e3 * SecondsBetween(due, sent));
      spans.Add("serve.scrape", sent, done);
    }
  } catch (const std::exception&) {
    ++stats.errors;  // out of memory: counted, and the scraper stops
  }
}

// ---------------------------------------------------------------------------
// Measured units: a batch run of the eval day on one pool path, and
// (serve-crash-10) one paced replay of the run's first path under the
// scraper.

struct UnitResult {
  RunResult result;
  double wall_s = 0.0;
  LayerTimes times;
  QueueingCacheStats cache;
};

UnitResult RunBatch(const WorkloadSpec& w, const Prepared& p, size_t pool_path,
                    SpanLog& spans) {
  UnitResult u;
  auto timed = w.train_epochs > 0
                   ? std::make_shared<TimedPredictor>(p.predictor, u.times, spans)
                   : nullptr;
  std::unique_ptr<AutoscalingPolicy> inner = BuildPolicy(w, p, timed);
  TimedPolicy policy(*inner, u.times, spans);
  const SimConfig config = BuildSimConfig(p.setup, TrialSeed(pool_path));
  // Every unit starts from an empty queueing memo cache (this thread's), as
  // a fresh process would; otherwise later units run faster than the first.
  ClearQueueingCache();
  const Clock::time_point t0 = Clock::now();
  u.result = RunSimulation(config, p.workload.jobs, policy);
  const Clock::time_point t1 = Clock::now();
  u.cache = GetQueueingCacheStats();
  spans.Add("sim.run", t0, t1);
  u.wall_s = SecondsBetween(t0, t1);
  return u;
}

struct PacedResult {
  UnitResult unit;  // wall_s covers the replay only
  double bind_s = 0.0;
  double replay_cpu_s = 0.0;
  ScrapeStats scrapes;
};

PacedResult RunPaced(const WorkloadSpec& w, const Prepared& p, size_t pool_path,
                     SpanLog& spans, SpanLog& scrape_spans) {
  PacedResult r;
  LayerTimes& times = r.unit.times;
  auto timed = std::make_shared<TimedPredictor>(p.predictor, times, spans);
  std::unique_ptr<AutoscalingPolicy> inner = BuildPolicy(w, p, timed);
  TimedPolicy policy(*inner, times, spans);
  const SimConfig config = BuildSimConfig(p.setup, TrialSeed(pool_path));
  ServeOptions options;
  options.speed = kServeSpeed;
  const Clock::time_point b0 = Clock::now();
  ReplayDaemon daemon(config, p.workload.jobs, policy, options);
  if (!daemon.StartServer()) {
    throw std::runtime_error("serve: could not bind the HTTP server");
  }
  const Clock::time_point origin = Clock::now();
  spans.Add("serve.bind", b0, origin);
  r.bind_s = SecondsBetween(b0, origin);

  times.pace_origin = origin;
  times.pace_speed = kServeSpeed;
  std::atomic<bool> stop{false};
  std::thread scraper(ScrapeLoop, daemon.port(), origin, std::cref(stop), std::ref(r.scrapes),
                      std::ref(scrape_spans));
  std::string error;
  ClearQueueingCache();
  const double cpu0 = ThreadCpuSeconds();
  try {
    r.unit.result = daemon.Run();
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown exception";
  }
  r.replay_cpu_s = ThreadCpuSeconds() - cpu0;
  const Clock::time_point end = Clock::now();
  stop.store(true, std::memory_order_release);
  scraper.join();
  if (!error.empty()) {
    throw std::runtime_error("serve: replay failed: " + error);
  }
  spans.Add("serve.replay", origin, end);
  r.unit.wall_s = SecondsBetween(origin, end);
  return r;
}

// ---------------------------------------------------------------------------
// JSON output helpers.

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) { Raw(key, std::to_string(v)); }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(const std::string& key, const std::string& v) {
    std::string escaped;
    for (char c : v) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    Raw(key, "\"" + escaped + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":" + v);
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The gate values of one path, as perfbench/expected.json records them.
std::string PathGateJson(size_t pool_path, const UnitResult& u) {
  JsonObject g;
  g.Int("pool_path", pool_path);
  g.Num("lost_utility", u.result.cluster_lost_utility);
  g.Num("slo_violation_rate", u.result.cluster_slo_violation_rate);
  g.Int("sim.events", u.result.events_processed);
  g.Int("optim.evals", u.result.solver.objective_evaluations);
  g.Int("core.decide_calls", u.times.decide_calls);
  return g.str();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string trace_out;
  std::string out_dir = ".bench_out";
  bool selftest = false;
  bool record_pool = false;
  uint64_t held_out_seed = 0;
};

// Policy-call time of one run split into Decide/FastReact self time, solve
// and forecast time.
void AddPolicyTimes(const LayerTimes& t, std::map<std::string, double>& self_time) {
  self_time["core"] += (t.decide_s - t.decide_solve_s - t.decide_predict_s) +
                       (t.react_s - t.react_solve_s - t.react_predict_s);
  self_time["optim.solve"] += t.decide_solve_s + t.react_solve_s;
  self_time["forecast.predict"] += t.decide_predict_s + t.react_predict_s;
}

int RunWorkload(const Args& args) {
  const Clock::time_point origin = Clock::now();
  const std::optional<WorkloadSpec> spec = MakeWorkload(args.workload, args.seed);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *spec;
  const std::vector<size_t> paths = ChoosePaths(w);
  SpanLog spans(origin, 1);
  SpanLog scrape_spans(origin, 2);
  spans.enabled = args.trace;
  const HostRef ref_start = MeasureHostRef();
  spans.Add("host.ref", origin, Clock::now());

  // Set-up, repeated back to back and timed as one region; the last
  // preparation is the one measured.
  SetupTimes setup_times;
  Prepared prepared;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; i < w.setup_reps; ++i) {
    prepared = PrepareOnce(w, setup_times, spans);
  }
  const double setup_s =
      SecondsBetween(setup_start, Clock::now()) / static_cast<double>(w.setup_reps);

  // Untraced runs measure each path once. Traced runs measure the first path
  // untraced, traced and untraced again -- the tracing overhead is the traced
  // unit minus the mean of its two neighbours -- and then the other paths
  // traced.
  std::vector<UnitResult> units;
  std::vector<size_t> unit_path;  // index into `paths`
  std::vector<bool> traced;
  auto run_unit = [&](size_t k, bool trace_unit) {
    unit_path.push_back(k);
    traced.push_back(trace_unit);
    spans.enabled = trace_unit;
    units.push_back(RunBatch(w, prepared, paths[k], spans));
  };
  if (args.trace) {
    run_unit(0, false);
    run_unit(0, true);
    run_unit(0, false);
    for (size_t k = 1; k < paths.size(); ++k) {
      run_unit(k, true);
    }
  } else {
    for (size_t k = 0; k < paths.size(); ++k) {
      run_unit(k, false);
    }
  }
  std::optional<PacedResult> paced;
  if (w.serve) {
    spans.enabled = args.trace;
    scrape_spans.enabled = args.trace;
    paced = RunPaced(w, prepared, paths[0], spans, scrape_spans);
  }
  spans.enabled = args.trace;
  // Read before the closing reference loop, whose buffer would add to it.
  const double peak_rss_mb = PeakRssMb();
  const Clock::time_point ref_end_start = Clock::now();
  const HostRef ref_end = MeasureHostRef();
  spans.Add("host.ref", ref_end_start, Clock::now());
  const double wall_s = SecondsBetween(origin, Clock::now());

  // The measured units of this run's kind (traced units when tracing),
  // and the first unit on each path.
  std::vector<size_t> measured;
  std::vector<size_t> path_unit(paths.size(), units.size());
  for (size_t i = 0; i < units.size(); ++i) {
    if (traced[i] == args.trace) {
      measured.push_back(i);
    }
    path_unit[unit_path[i]] = std::min(path_unit[unit_path[i]], i);
  }

  // Correctness: every unit equals the first unit on its path, and the paced
  // replay equals the batch run of its path.
  std::string units_diff;
  for (size_t i = 0; i < units.size() && units_diff.empty(); ++i) {
    if (i != path_unit[unit_path[i]]) {
      units_diff = DiffRunsAndCsv(units[i].result, units[path_unit[unit_path[i]]].result,
                                  args.out_dir);
    }
  }
  const std::string paced_diff =
      paced ? DiffRunsAndCsv(paced->unit.result, units[path_unit[0]].result, args.out_dir) : "";

  // Outputs over the sample paths, in path order.
  double lost_utility = 0.0, violation_rate = 0.0;
  uint64_t events = 0, evals = 0, decide_calls = 0;
  std::string path_gates;
  for (size_t k = 0; k < paths.size(); ++k) {
    const UnitResult& u = units[path_unit[k]];
    lost_utility += u.result.cluster_lost_utility / static_cast<double>(paths.size());
    violation_rate += u.result.cluster_slo_violation_rate / static_cast<double>(paths.size());
    events += u.result.events_processed;
    evals += u.result.solver.objective_evaluations;
    decide_calls += u.times.decide_calls;
    path_gates += (k == 0 ? "" : ",") + PathGateJson(paths[k], u);
  }

  // Failure accounting: decisions (exceptions and degradation-ladder
  // fallbacks) and scrapes (non-200, timeouts, connection errors).
  uint64_t decide_attempted = 0, decide_failed = 0;
  for (const UnitResult& u : units) {
    decide_attempted += u.times.decide_calls;
    decide_failed += u.times.decide_failed;
  }
  if (paced) {
    decide_attempted += paced->unit.times.decide_calls;
    decide_failed += paced->unit.times.decide_failed;
  }
  const ScrapeStats scrapes = paced ? paced->scrapes : ScrapeStats{};

  // End-to-end metrics, from the untraced batch units: whole-run rates over
  // all of them.
  double batch_minutes = 0.0, batch_s = 0.0;
  std::vector<double> decide_ms;
  const double sim_minutes =
      static_cast<double>(prepared.workload.jobs.front().arrival_rate_per_min.size());
  for (size_t i = 0; i < units.size(); ++i) {
    if (!traced[i]) {
      batch_minutes += sim_minutes;
      batch_s += units[i].wall_s;
      decide_ms.insert(decide_ms.end(), units[i].times.decide_ms.begin(),
                       units[i].times.decide_ms.end());
    }
  }
  JsonObject e2e;
  e2e.Num("setup_s", setup_s);
  e2e.Num("sim_min_per_s", batch_minutes / batch_s);
  e2e.Num("decide_ms_mean", Mean(decide_ms));
  e2e.Num("decide_ms_p90", Quantile(decide_ms, 0.9));
  e2e.Num("lost_utility", lost_utility);
  e2e.Num("slo_violation_rate", violation_rate);
  e2e.Num("peak_rss_mb", peak_rss_mb);

  // Per-layer metrics: per-unit means over the measured units; serve.* from
  // the paced replay.
  std::map<std::string, double> sum;
  double solve_max = 0.0;
  for (size_t i : measured) {
    const UnitResult& u = units[i];
    const LayerTimes& t = u.times;
    const SolverTelemetry& st = u.result.solver;
    sum["predict_calls"] += static_cast<double>(t.predict_calls);
    sum["predict_s"] += t.predict_s;
    sum["decide_calls"] += static_cast<double>(t.decide_calls);
    sum["core_self"] += (t.decide_s - t.decide_solve_s - t.decide_predict_s) +
                        (t.react_s - t.react_solve_s - t.react_predict_s);
    sum["react_calls"] += static_cast<double>(t.react_calls);
    sum["react_s"] += t.react_s;
    sum["solve_s"] += t.decide_solve_s + t.react_solve_s;
    sum["sim_self"] += u.wall_s - t.decide_s - t.react_s;
    sum["wall"] += u.wall_s;
    sum["evals"] += static_cast<double>(st.objective_evaluations);
    sum["cycles"] += static_cast<double>(st.cycles);
    sum["starts"] += static_cast<double>(st.starts_launched);
    sum["early_exits"] += static_cast<double>(st.early_exits);
    sum["warm_hits"] += static_cast<double>(st.warm_start_hits);
    sum["events"] += static_cast<double>(u.result.events_processed);
    sum["cache_hits"] += static_cast<double>(u.cache.hits);
    sum["cache_lookups"] += static_cast<double>(u.cache.hits + u.cache.misses);
    sum["published"] += static_cast<double>(u.result.actuation.generations_published);
    sum["passes"] += static_cast<double>(u.result.actuation.reconcile_passes);
    sum["ops"] += static_cast<double>(u.result.actuation.ops_issued);
    sum["retries"] += static_cast<double>(u.result.actuation.retries);
    sum["fences"] += static_cast<double>(u.result.actuation.fence_rejections);
    sum["convergence_max"] += u.result.actuation.convergence_s_max;
    for (const JobRunStats& job : u.result.jobs) {
      sum["injected"] += static_cast<double>(job.injected_failures);
      sum["capacity_lost"] += job.capacity_seconds_lost;
    }
    solve_max = std::max(solve_max, st.solve_seconds_max);
  }
  const double n = static_cast<double>(measured.size());
  auto mean = [&](const char* key) { return sum[key] / n; };
  const double reps = static_cast<double>(w.setup_reps);

  JsonObject layer;
  layer.Num("workload.gen_s", setup_times.gen_s / reps);
  layer.Num("forecast.train_s", setup_times.train_s / reps);
  layer.Num("forecast.predict_calls", mean("predict_calls"));
  layer.Num("forecast.predict_s", mean("predict_s"));
  layer.Num("core.decide_calls", mean("decide_calls"));
  layer.Num("core.self_s", mean("core_self"));
  layer.Num("core.react_calls", mean("react_calls"));
  layer.Num("core.react_s", mean("react_s"));
  layer.Num("optim.solve_s", mean("solve_s"));
  layer.Num("optim.solve_s_max", solve_max);
  layer.Num("optim.evals", mean("evals"));
  layer.Num("optim.evals_per_decide", Ratio(sum["evals"], sum["cycles"]));
  layer.Num("optim.evals_per_s", Ratio(sum["evals"], sum["solve_s"]));
  layer.Num("optim.starts_launched", mean("starts"));
  layer.Num("optim.early_exit_ratio", Ratio(sum["early_exits"], sum["cycles"]));
  layer.Num("optim.warm_hit_ratio", Ratio(sum["warm_hits"], sum["cycles"]));
  layer.Num("queueing.cache_hit_ratio", Ratio(sum["cache_hits"], sum["cache_lookups"]));
  layer.Num("sim.events", mean("events"));
  layer.Num("sim.self_s", mean("sim_self"));
  layer.Num("sim.events_per_s", Ratio(sum["events"], sum["wall"]));
  layer.Num("actuate.published", mean("published"));
  layer.Num("actuate.passes", mean("passes"));
  layer.Num("actuate.ops", mean("ops"));
  layer.Num("actuate.retries", mean("retries"));
  layer.Num("actuate.fences", mean("fences"));
  layer.Num("actuate.convergence_s_max", mean("convergence_max"));
  layer.Num("faults.injected", mean("injected"));
  layer.Num("faults.capacity_s_lost", mean("capacity_lost"));
  layer.Num("serve.bind_s", paced ? paced->bind_s : 0.0);
  layer.Num("serve.replay_cpu_s", paced ? paced->replay_cpu_s : 0.0);
  layer.Num("serve.scrapes", static_cast<double>(scrapes.attempted));
  layer.Num("serve.scrape_errors", static_cast<double>(scrapes.errors));
  layer.Num("serve.scrape_bytes", static_cast<double>(scrapes.bytes));
  layer.Num("serve.scrape_ms_p50", Quantile(scrapes.latency_ms, 0.5));
  layer.Num("serve.scrape_ms_p99", Quantile(scrapes.latency_ms, 0.99));
  layer.Num("serve.sched_late_ms_max", scrapes.late_ms_max);
  layer.Num("serve.pace_lag_s_max", paced ? paced->unit.times.pace_lag_s_max : 0.0);
  layer.Num("host.ref_ms", ref_start.cpu_ms);
  layer.Num("host.ref_ms_end", ref_end.cpu_ms);
  layer.Num("host.mem_ref_ms", ref_start.mem_ms);
  layer.Num("host.mem_ref_ms_end", ref_end.mem_ms);

  // Self time of each layer over the whole run. A paced replay splits into
  // replay-thread CPU outside the policy (event stepping, counted as sim)
  // and pacing idle. The rows plus the unaccounted rest make up wall_s.
  std::map<std::string, double> self_time{
      {"host.ref", ref_start.wall_s + ref_end.wall_s},
      {"workload.gen", setup_times.gen_s},
      {"forecast.train", setup_times.train_s}};
  for (const UnitResult& u : units) {
    AddPolicyTimes(u.times, self_time);
    self_time["sim"] += u.wall_s - u.times.decide_s - u.times.react_s;
  }
  if (paced) {
    const LayerTimes& t = paced->unit.times;
    AddPolicyTimes(t, self_time);
    const double stepping = std::max(0.0, paced->replay_cpu_s - t.decide_s - t.react_s);
    self_time["sim"] += stepping;
    self_time["serve.bind"] += paced->bind_s;
    self_time["serve.pace_idle"] += paced->unit.wall_s - t.decide_s - t.react_s - stepping;
  }
  double accounted = 0.0;
  JsonObject self_json;
  for (const auto& [row, secs] : self_time) {
    accounted += secs;
    self_json.Num(row, secs);
  }
  layer.Num("trace.wall_s", wall_s);
  layer.Num("trace.unaccounted_s", wall_s - accounted);
  layer.Num("trace.overhead_s",
            args.trace ? units[1].wall_s - 0.5 * (units[0].wall_s + units[2].wall_s) : 0.0);

  JsonObject gate;
  gate.Raw("paths", "[" + path_gates + "]");
  gate.Num("lost_utility", lost_utility);
  gate.Num("slo_violation_rate", violation_rate);
  gate.Int("sim.events", events);
  gate.Int("optim.evals", evals);
  gate.Int("core.decide_calls", decide_calls);
  gate.Bool("units_identical", units_diff.empty());
  gate.Str("units_diff", units_diff);
  gate.Bool("paced_matches_batch", paced_diff.empty());
  gate.Str("paced_diff", paced_diff);

  JsonObject out;
  out.Str("workload", w.name);
  out.Int("seed", args.seed);
  out.Int("units", units.size());
  std::string unit_walls;
  for (const UnitResult& u : units) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6f", unit_walls.empty() ? "" : ",", u.wall_s);
    unit_walls += buf;
  }
  out.Raw("unit_wall_s", "[" + unit_walls + "]");
  out.Int("decide_samples", decide_ms.size());
  out.Int("scrape_samples", scrapes.latency_ms.size());
  out.Int("decide_attempted", decide_attempted);
  out.Int("decide_failed", decide_failed);
  out.Int("scrape_attempted", scrapes.attempted);
  out.Int("scrape_failed", scrapes.errors);
  out.Raw("end_to_end", e2e.str());
  out.Raw("per_layer", layer.str());
  out.Raw("gate", gate.str());
  out.Raw("self_time_s", self_json.str());
  out.Num("wall_s", wall_s);

  if (args.trace && !args.trace_out.empty()) {
    spans.Append(scrape_spans);
    if (!spans.Write(args.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// Gate values of every path of the workload's pool, one batch run each (one
// set-up, untimed), as one JSON line of {pool_path: values}.
int RecordPool(const Args& args) {
  const std::optional<WorkloadSpec> spec = MakeWorkload(args.workload, args.seed);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  SetupTimes times;
  SpanLog spans(Clock::now(), 1);
  const Prepared p = PrepareOnce(*spec, times, spans);
  JsonObject pool;
  for (size_t path = 0; path < spec->pool; ++path) {
    pool.Raw(std::to_string(path), PathGateJson(path, RunBatch(*spec, p, path, spans)));
  }
  std::printf("%s\n", pool.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test on short slices of each workload: the decorated run equals the
// plain (MakePolicy + RunSimulation) run bit for bit, and another seed gives
// other inputs (realised per-minute arrivals on the run's paths).
RunResult RunPlain(const WorkloadSpec& w, const Prepared& p, size_t pool_path) {
  const FaroConfig overrides = FaroOverrides(w);
  std::unique_ptr<AutoscalingPolicy> plain = MakePolicy(w.policy, p.predictor, &overrides);
  return RunSimulation(BuildSimConfig(p.setup, TrialSeed(pool_path)), p.workload.jobs, *plain);
}

std::vector<std::vector<std::vector<double>>> RunInputs(const WorkloadSpec& w,
                                                        const Prepared& p) {
  std::vector<std::vector<std::vector<double>>> inputs;
  for (size_t path : ChoosePaths(w)) {
    std::vector<std::vector<double>>& arrivals = inputs.emplace_back();
    for (const JobRunStats& job : RunPlain(w, p, path).jobs) {
      arrivals.push_back(job.minute_arrivals);
    }
  }
  return inputs;
}

int SelfTest(const Args& args) {
  constexpr size_t kSliceMinutes = 120;
  constexpr size_t kInputMinutes = 30;
  const uint64_t other = args.held_out_seed != 0 ? args.held_out_seed : args.seed + 1;
  int failures = 0;
  for (const std::string name : {"fleet-aiad-60", "serve-crash-10"}) {
    const WorkloadSpec w = *MakeWorkload(name, args.seed);
    const size_t path = ChoosePaths(w).front();
    SetupTimes times;
    SpanLog spans(Clock::now(), 1);
    const Prepared p = PrepareOnce(w, times, spans, kSliceMinutes);
    const RunResult reference = RunPlain(w, p, path);

    spans.enabled = true;  // the traced decorators, the most intrusive variant
    const UnitResult decorated = RunBatch(w, p, path, spans);
    const std::string diff = DiffRunsAndCsv(decorated.result, reference, args.out_dir);
    const bool ok =
        diff.empty() && reference.events_processed > 0 && decorated.times.decide_calls > 0;
    std::printf("%s decorators transparent on %s (%zu sim-min, %llu events%s%s)\n",
                ok ? "PASS" : "FAIL", name.c_str(), kSliceMinutes,
                static_cast<unsigned long long>(reference.events_processed),
                diff.empty() ? "" : ", differs in ", diff.c_str());
    failures += ok ? 0 : 1;

    const Prepared short_slice = PrepareOnce(w, times, spans, kInputMinutes);
    const bool differ =
        RunInputs(w, short_slice) != RunInputs(*MakeWorkload(name, other), short_slice);
    std::printf("%s seeds %llu and %llu give different inputs on %s\n",
                differ ? "PASS" : "FAIL", static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(other), name.c_str());
    failures += differ ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest" || flag == "--record-pool") {
      (flag == "--selftest" ? args.selftest : args.record_pool) = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--held-out-seed") {
        args.held_out_seed = std::stoull(value);
      } else if (flag == "--seconds") {
        (void)std::stod(value);  // accepted for the harness interface; the work is fixed
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value '%s' for %s\n", value.c_str(), flag.c_str());
      return false;
    }
  }
  return args.selftest || !args.workload.empty();
}

}  // namespace
}  // namespace faro

int main(int argc, char** argv) {
  faro::Args args;
  if (!faro::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: faro_perfbench --workload NAME --seed N [--trace 0|1] "
                 "[--out-dir DIR] [--trace-out PATH]\n"
                 "       faro_perfbench --workload NAME --record-pool [--out-dir DIR]\n"
                 "       faro_perfbench --selftest --seed N [--held-out-seed M] "
                 "[--out-dir DIR]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.selftest) return faro::SelfTest(args);
    return args.record_pool ? faro::RecordPool(args) : faro::RunWorkload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "faro_perfbench: %s\n", e.what());
    return 1;
  }
}
