// Post-mortem run analysis (the paper's figures are produced from profiler
// traces with exactly this kind of tooling — RADICAL-Analytics in the
// reference stack).
//
// RunAnalysis reads the per-unit virtual times of a stitched trace
// (obs::build_trace) and derives the quantities the paper reasons about:
// task concurrency over time, resource utilization across the ensemble
// execution (the §II-A "full resource utilization" requirement), makespan,
// and per-phase waits.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.hpp"

namespace entk::analytics {

/// One step of the concurrency curve: from `t` onward (until the next
/// entry), `executing` tasks run simultaneously.
struct ConcurrencyPoint {
  double t = 0.0;
  int executing = 0;
};

class RunAnalysis {
 public:
  /// Analyse the traced tasks' RTS virtual times.
  explicit RunAnalysis(const obs::Trace& trace);

  /// Virtual times of every traced task, by uid.
  const std::map<std::string, obs::UnitVirtualTimes>& units() const {
    return units_;
  }
  std::size_t task_count() const { return units_.size(); }

  /// First exec start -> last exec end (0 when nothing executed); the
  /// OverheadReport's Task Execution Time.
  double makespan() const { return makespan_; }

  /// Piecewise-constant number of concurrently executing tasks.
  std::vector<ConcurrencyPoint> concurrency_curve() const;
  int peak_concurrency() const;

  /// Busy core-time / (total_cores x makespan). `cores_of` maps task uid
  /// to its core count; missing uids default to `default_cores`.
  double core_utilization(int total_cores,
                          const std::map<std::string, int>& cores_of = {},
                          int default_cores = 1) const;

  /// Mean queue wait (UnitVirtualTimes::queue_wait) over tasks that ran.
  double mean_queue_wait() const;

  /// Total staging time (sum over tasks, in and out).
  double total_staging() const;

  /// Aligned multi-line summary for reports.
  std::string summary(int total_cores) const;

 private:
  std::map<std::string, obs::UnitVirtualTimes> units_;
  double makespan_ = 0.0;
};

}  // namespace entk::analytics
