// The benchmark's workloads. Each rep builds a fresh ensemble from a seed,
// runs it through AppManager::run(), checks the outputs and returns its
// measurements. Shapes are fixed; the seed only changes values (durations,
// objectives, payload bytes), so every seed yields the same workload shape.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/stats.hpp"
#include "src/core/app_manager.hpp"

namespace entk::perfbench {

/// The benchmark's one helper thread: cancels a rep whose run() outlives
/// its deadline (a hang becomes unresolved tasks, not a stuck process) and
/// runs an optional 1 ms sampler while a traced rep is in flight.
class Monitor {
 public:
  Monitor();
  ~Monitor();
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Watch `am` (nullptr = stop watching); cancel it after `deadline_s`.
  /// Clearing blocks until an in-progress cancel or sample has finished.
  void watch(AppManager* am, double deadline_s);
  /// Set (or clear, with an empty function) the 1 ms sampler.
  void set_sampler(std::function<void()> sampler);
  /// True when the watched rep was canceled at its deadline.
  bool canceled() const;

 private:
  void loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  AppManager* watched_ = nullptr;
  std::int64_t deadline_ns_ = 0;
  bool canceled_ = false;
  std::function<void()> sampler_;
  std::thread thread_;  // last: started once the members above exist
};

struct RepOptions {
  std::uint64_t seed = 0;   ///< seed of this rep's inputs
  bool traced = false;
  std::string scratch_dir;  ///< where remote_durable puts its journals
  Monitor* monitor = nullptr;
  double deadline_s = 30.0; ///< run() longer than this is canceled
};

struct RepResult {
  bool traced = false;
  std::size_t attempted = 0;  ///< tasks in the ensemble
  std::size_t failed = 0;     ///< tasks not DONE exactly once
  std::vector<std::string> errors;  ///< oracle violations

  // End-to-end (see README.md for the definitions).
  double setup_s = 0.0;
  double makespan_s = 0.0;
  double tasks_per_s = 0.0;
  double teardown_s = 0.0;
  std::vector<double> turnaround_ms;  ///< one per stage transition

  /// Per-layer values of this rep, by metric name.
  std::map<std::string, double> scalars;
  /// Per-layer samples of this rep, pooled across reps by the caller.
  std::map<std::string, std::vector<double>> samples;

  std::vector<Span> spans;  ///< traced reps only
};

const std::vector<std::string>& workload_names();

/// Run one rep of `workload` (one of workload_names()).
RepResult run_rep(const std::string& workload, const RepOptions& options);

}  // namespace entk::perfbench
