#include "src/analytics/analysis.hpp"

#include <algorithm>
#include <cstdio>

namespace entk::analytics {

RunAnalysis::RunAnalysis(const obs::Trace& trace)
    : makespan_(trace.exec_span_s()) {
  for (const auto& [uid, task] : trace.tasks) units_.emplace(uid, task.vt);
}

std::vector<ConcurrencyPoint> RunAnalysis::concurrency_curve() const {
  std::vector<std::pair<double, int>> deltas;
  for (const auto& [uid, t] : units_) {
    if (t.exec_start < 0 || t.exec_end < t.exec_start) continue;
    deltas.emplace_back(t.exec_start, +1);
    deltas.emplace_back(t.exec_end, -1);
  }
  std::sort(deltas.begin(), deltas.end());
  std::vector<ConcurrencyPoint> curve;
  int executing = 0;
  for (const auto& [t, d] : deltas) {
    executing += d;
    if (!curve.empty() && curve.back().t == t) {
      curve.back().executing = executing;
    } else {
      curve.push_back({t, executing});
    }
  }
  return curve;
}

int RunAnalysis::peak_concurrency() const {
  int peak = 0;
  for (const ConcurrencyPoint& p : concurrency_curve()) {
    peak = std::max(peak, p.executing);
  }
  return peak;
}

double RunAnalysis::core_utilization(
    int total_cores, const std::map<std::string, int>& cores_of,
    int default_cores) const {
  const double span = makespan();
  if (span <= 0 || total_cores <= 0) return 0.0;
  double busy = 0.0;
  for (const auto& [uid, t] : units_) {
    const auto it = cores_of.find(uid);
    const int cores = it != cores_of.end() ? it->second : default_cores;
    busy += t.exec_s() * cores;
  }
  return busy / (static_cast<double>(total_cores) * span);
}

double RunAnalysis::mean_queue_wait() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [uid, t] : units_) {
    if (t.exec_start < 0) continue;
    sum += t.queue_wait();
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double RunAnalysis::total_staging() const {
  double total = 0.0;
  for (const auto& [uid, t] : units_) total += t.stage_in + t.stage_out;
  return total;
}

std::string RunAnalysis::summary(int total_cores) const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  tasks executed        %10zu\n"
                "  makespan              %10.2f s\n"
                "  peak concurrency      %10d\n"
                "  core utilization      %9.1f %% (of %d cores)\n"
                "  mean queue wait       %10.2f s\n"
                "  total staging         %10.2f s\n",
                task_count(), makespan(), peak_concurrency(),
                100.0 * core_utilization(total_cores), total_cores,
                mean_queue_wait(), total_staging());
  return buf;
}

}  // namespace entk::analytics
