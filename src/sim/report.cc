#include "src/sim/report.h"

#include <algorithm>
#include <cstdint>
#include <fstream>

namespace faro {

std::string CsvEscape(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) {
    return field;
  }
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') {
      out += '"';  // RFC 4180: embedded quotes are doubled
    }
    out += c;
  }
  out += '"';
  return out;
}

bool WriteTimelineCsv(const std::string& path, const RunResult& result) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "minute,cluster_utility,total_load";
  for (const JobRunStats& job : result.jobs) {
    const std::string& name = job.name.empty() ? "job" : job.name;
    out << ',' << CsvEscape(name + "_p99") << ',' << CsvEscape(name + "_utility") << ','
        << CsvEscape(name + "_replicas") << ',' << CsvEscape(name + "_drop_rate");
  }
  out << '\n';
  const size_t minutes = result.cluster_utility_timeline.size();
  for (size_t t = 0; t < minutes; ++t) {
    out << t << ',' << result.cluster_utility_timeline[t] << ','
        << result.total_load_timeline[t];
    for (const JobRunStats& job : result.jobs) {
      out << ',' << (t < job.minute_p99.size() ? job.minute_p99[t] : 0.0) << ','
          << (t < job.minute_utility.size() ? job.minute_utility[t] : 0.0) << ','
          << (t < job.minute_replicas.size() ? job.minute_replicas[t] : 0.0) << ','
          << (t < job.minute_drop_rate.size() ? job.minute_drop_rate[t] : 0.0);
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool WriteSummaryCsv(const std::string& path, const RunResult& result) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "job,arrivals,drops,violations,slo_violation_rate,avg_utility,lost_utility,"
         "avg_effective_utility,avg_replicas,injected_failures,capacity_seconds_lost,"
         "recovery_s,utility_reconverge_s,error_budget_allowed,error_budget_consumed,"
         "error_budget_remaining_frac,burn_alerts_fast,burn_alerts_slow,"
         "first_burn_alert_s";
  for (size_t c = 0; c < kNumLossCauses; ++c) {
    out << ",lost_" << LossCauseName(c);
  }
  out << '\n';
  uint64_t total_failures = 0;
  double total_capacity_lost = 0.0;
  double total_recovery = 0.0;
  double worst_reconverge = 0.0;
  double total_budget_allowed = 0.0;
  double total_budget_consumed = 0.0;
  for (const JobRunStats& job : result.jobs) {
    out << CsvEscape(job.name.empty() ? "job" : job.name) << ',' << job.arrivals << ',' << job.drops
        << ',' << job.violations << ',' << job.slo_violation_rate << ',' << job.avg_utility
        << ',' << job.lost_utility << ',' << job.avg_effective_utility << ','
        << job.avg_replicas << ',' << job.injected_failures << ','
        << job.capacity_seconds_lost << ',' << job.recovery_seconds << ','
        << job.utility_reconverge_s << ',' << job.error_budget_allowed << ','
        << job.error_budget_consumed << ',' << job.error_budget_remaining_frac << ','
        << job.burn_alerts_fast << ',' << job.burn_alerts_slow << ','
        << job.first_burn_alert_s;
    for (size_t c = 0; c < kNumLossCauses; ++c) {
      out << ',' << job.lost_by_cause[c];
    }
    out << '\n';
    total_failures += job.injected_failures;
    total_capacity_lost += job.capacity_seconds_lost;
    total_recovery += job.recovery_seconds;
    total_budget_allowed += job.error_budget_allowed;
    total_budget_consumed += job.error_budget_consumed;
    // -1 means "never reconverged" -- the worst possible outcome; propagate it.
    if (worst_reconverge >= 0.0) {
      worst_reconverge = job.utility_reconverge_s < 0.0
                             ? -1.0
                             : std::max(worst_reconverge, job.utility_reconverge_s);
    }
  }
  out << "CLUSTER,,,," << result.cluster_slo_violation_rate << ','
      << result.cluster_avg_utility << ',' << result.cluster_lost_utility << ','
      << result.cluster_avg_effective_utility << ",," << total_failures << ','
      << total_capacity_lost << ',' << total_recovery << ',' << worst_reconverge << ','
      << total_budget_allowed << ',' << total_budget_consumed << ",,"
      << result.cluster_burn_alerts_fast << ',' << result.cluster_burn_alerts_slow << ',';
  for (size_t c = 0; c < kNumLossCauses; ++c) {
    out << ',' << result.cluster_lost_by_cause[c];
  }
  out << '\n';
  return static_cast<bool>(out);
}

bool WriteSloCsv(const std::string& path, const RunResult& result) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  // 17 significant digits: every double round-trips, so downstream checks can
  // re-add the bucket columns and compare bit-for-bit against lost_utility.
  out.precision(17);
  out << "job,window,arrivals,violations,utility,lost_utility";
  for (size_t c = 0; c < kNumLossCauses; ++c) {
    out << ",lost_" << LossCauseName(c);
  }
  out << ",burn_fast,burn_slow\n";
  for (const JobRunStats& job : result.jobs) {
    const std::string name = CsvEscape(job.name.empty() ? "job" : job.name);
    const size_t windows = job.minute_utility.size();
    for (size_t w = 0; w < windows; ++w) {
      const double lost = std::max(0.0, 1.0 - job.minute_utility[w]);
      out << name << ',' << w << ','
          << (w < job.minute_arrivals.size() ? job.minute_arrivals[w] : 0.0) << ','
          << (w < job.minute_violations.size() ? job.minute_violations[w] : 0.0) << ','
          << job.minute_utility[w] << ',' << lost;
      for (size_t c = 0; c < kNumLossCauses; ++c) {
        out << ','
            << (w < job.minute_lost_by_cause[c].size() ? job.minute_lost_by_cause[c][w] : 0.0);
      }
      out << ',' << (w < job.minute_burn_fast.size() ? job.minute_burn_fast[w] : 0.0) << ','
          << (w < job.minute_burn_slow.size() ? job.minute_burn_slow[w] : 0.0) << '\n';
    }
  }
  return static_cast<bool>(out);
}

bool WriteSolverCsv(const std::string& path, const RunResult& result) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const SolverTelemetry& s = result.solver;
  const double cycles = s.cycles > 0 ? static_cast<double>(s.cycles) : 1.0;
  out << "cycles,starts_launched,starts_cancelled,starts_deadline_skipped,"
         "starts_pruned,race_rounds,race_evals_saved,early_exits,warm_start_hits,"
         "wins_warm_current,wins_prev_solution,wins_heuristic,wins_jitter,"
         "objective_evaluations,group_solves,solve_ms_mean,solve_ms_max,"
         "deadline_misses,fallback_warm,fallback_heuristic,forecast_fallbacks,"
         "actuation_retries,capacity_resolves,cobyla_subproblems,cobyla_model_fits\n";
  out << s.cycles << ',' << s.starts_launched << ',' << s.starts_cancelled << ','
      << s.starts_deadline_skipped << ',' << s.starts_pruned << ',' << s.race_rounds
      << ',' << s.race_evals_saved << ','
      << s.early_exits << ',' << s.warm_start_hits << ',' << s.wins_warm_current << ','
      << s.wins_prev_solution << ',' << s.wins_heuristic << ',' << s.wins_jitter << ','
      << s.objective_evaluations << ',' << s.group_solves << ','
      << 1000.0 * s.solve_seconds_total / cycles << ',' << 1000.0 * s.solve_seconds_max
      << ',' << s.deadline_misses << ',' << s.fallback_warm << ',' << s.fallback_heuristic
      << ',' << s.forecast_fallbacks << ',' << s.actuation_retries << ','
      << s.capacity_resolves << ',' << s.cobyla_subproblems << ',' << s.cobyla_model_fits
      << '\n';
  return static_cast<bool>(out);
}

bool WriteFaultLogCsv(const std::string& path, const RunResult& result) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "time_s,what,target,count\n";
  for (const AppliedFault& fault : result.fault_log) {
    out << fault.time_s << ',' << CsvEscape(fault.what) << ',' << CsvEscape(fault.target)
        << ',' << fault.count << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace faro
