// Shared helpers for the reproduction benches: a fixed-allocation policy, a
// fast/normal mode switch, observability flag wiring, and row printers for
// the paper-style tables.
//
// Every bench regenerates one table or figure from the paper's evaluation
// (see DESIGN.md's per-experiment index) and prints the same rows/series the
// paper reports. Set FARO_BENCH_FAST=1 to cut trials for a quick smoke pass.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/policy.h"
#include "src/obs/obs.h"

namespace faro {

// Machine-readable bench results (--bench-json). Collects named scalar and
// string results during the run; on Write() emits one flat JSON object with
// the bench name, peak RSS, and every recorded entry. CI uploads these as
// artifacts and asserts the headline numbers against checked-in baselines
// (bench/baselines/). Timings live in perfbench/, which records repeats and
// the build that produced them; a bench JSON holds quality outputs only.
class BenchJson {
 public:
  void Enable(std::string bench_name, std::string path) {
    name_ = std::move(bench_name);
    path_ = std::move(path);
  }
  bool enabled() const { return !path_.empty(); }

  void Set(const std::string& key, double value) {
    for (auto& [k, v] : numbers_) {
      if (k == key) {
        v = value;
        return;
      }
    }
    numbers_.emplace_back(key, value);
  }
  void Set(const std::string& key, const std::string& value) {
    for (auto& [k, v] : strings_) {
      if (k == key) {
        v = value;
        return;
      }
    }
    strings_.emplace_back(key, value);
  }

  // Writes the JSON file (no-op when not enabled). Peak RSS is read from
  // getrusage at write time.
  void Write() const {
    if (!enabled()) {
      return;
    }
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench-json: cannot write %s\n", path_.c_str());
      return;
    }
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is KiB on Linux.
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    std::fprintf(out, "  \"peak_rss_mb\": %.3f", peak_rss_mb);
    for (const auto& [key, value] : numbers_) {
      if (std::isfinite(value)) {
        std::fprintf(out, ",\n  \"%s\": %.6g", key.c_str(), value);
      } else {
        std::fprintf(out, ",\n  \"%s\": null", key.c_str());
      }
    }
    for (const auto& [key, value] : strings_) {
      std::fprintf(out, ",\n  \"%s\": \"%s\"", key.c_str(), value.c_str());
    }
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("bench-json: wrote %s\n", path_.c_str());
  }

 private:
  std::string name_;
  std::string path_;
  std::vector<std::pair<std::string, double>> numbers_;
  std::vector<std::pair<std::string, std::string>> strings_;
};

// Observability wiring for bench mains. Construct first thing in main():
// parses --metrics-out=PATH / --trace-out=PATH / --audit-out=PATH /
// --bench-json[=PATH]
// (stripping them from argv so downstream flag parsers such as
// google-benchmark's never see them), layers them over the FARO_METRICS_OUT /
// FARO_TRACE_OUT / FARO_BENCH_JSON environment defaults, and installs the
// result as the process-wide ObsConfig that every ExperimentSetup inherits.
// On destruction (bench exit) writes the configured sinks and, when enabled,
// the BENCH_<name>.json results file; with neither flags nor env set, this is
// a no-op end to end.
class BenchObs {
 public:
  BenchObs(int& argc, char** argv) {
    ObsConfig config = DefaultObsConfig();
    // BENCH_<name>.json next to the CWD by default, <name> from argv[0]
    // ("bench_tab08_largescale" -> "tab08_largescale").
    std::string name = argc > 0 ? argv[0] : "bench";
    if (const size_t slash = name.find_last_of('/'); slash != std::string::npos) {
      name = name.substr(slash + 1);
    }
    if (name.rfind("bench_", 0) == 0) {
      name = name.substr(6);
    }
    std::string json_path;
    if (const char* env = std::getenv("FARO_BENCH_JSON"); env != nullptr && env[0] != '\0') {
      json_path = (std::strcmp(env, "1") == 0) ? "BENCH_" + name + ".json" : env;
    }
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
        config.metrics_out = arg + 14;
      } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
        config.trace_out = arg + 12;
      } else if (std::strncmp(arg, "--audit-out=", 12) == 0) {
        config.audit_out = arg + 12;
      } else if (std::strcmp(arg, "--bench-json") == 0) {
        json_path = "BENCH_" + name + ".json";
      } else if (std::strncmp(arg, "--bench-json=", 13) == 0) {
        json_path = arg + 13;
      } else if (std::strcmp(arg, "--race") == 0) {
        // Trial racing opt-in (see src/sim/harness.h TrialRaceConfig). The
        // env var is the process-wide switch DefaultTrialRace() reads, so
        // every ExperimentSetup constructed after this inherits it.
        setenv("FARO_RACE", "1", 1);
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
    SetDefaultObsConfig(config);
    if (!json_path.empty()) {
      json_.Enable(name, json_path);
    }
  }
  ~BenchObs() {
    WriteObsOutputs(DefaultObsConfig());
    json_.Write();
  }
  BenchObs(const BenchObs&) = delete;
  BenchObs& operator=(const BenchObs&) = delete;

  BenchJson& json() { return json_; }

 private:
  BenchJson json_;
};

// Pins every job at a fixed replica count (Fig. 1's "no autoscaler" and the
// utility-vs-satisfaction sweep of Fig. 4b).
class FixedPolicy : public AutoscalingPolicy {
 public:
  explicit FixedPolicy(std::vector<uint32_t> replicas) : replicas_(std::move(replicas)) {}
  std::string name() const override { return "Fixed"; }
  ScalingAction Decide(double now_s, const std::vector<JobSpec>& job_specs,
                       const std::vector<JobMetrics>& metrics,
                       const ClusterResources& resources) override {
    ScalingAction action;
    action.replicas = replicas_;
    return action;
  }

 private:
  std::vector<uint32_t> replicas_;
};

inline bool FastBench() {
  const char* fast = std::getenv("FARO_BENCH_FAST");
  return fast != nullptr && fast[0] == '1';
}

inline bool RaceBench() {
  const char* race = std::getenv("FARO_RACE");
  return race != nullptr && race[0] == '1';
}

// Fast mode cuts sweeps to one trial -- except under --race, where the trial
// cap stays at the normal count and the BAI stopping rule decides how many
// trials each arm actually draws (that is the point of racing: the full cap
// is an upper bound, not the spend).
inline size_t BenchTrials(size_t normal) {
  return FastBench() && !RaceBench() ? 1 : normal;
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline void PrintHeader(const char* title) {
  PrintRule();
  std::printf("%s\n", title);
  PrintRule();
}

}  // namespace faro

#endif  // BENCH_BENCH_UTIL_H_
