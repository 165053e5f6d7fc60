// Supervised-component runtime (paper §II-B-4).
//
// The paper treats every EnTK component — WFProcessor, ExecManager,
// Synchronizer — as a restartable unit monitored via heartbeats. This base
// class is the common concurrency backbone those components share: an
// explicit lifecycle state machine
//
//     New -> Starting -> Running -> Draining -> Stopped
//                 |          |          |
//                 +----------+----------+--> Failed --> Starting (restart)
//
// owning N supervised Worker loops (worker.hpp). A worker exception no
// longer reaches std::terminate: the Worker catches it, the component
// records it to the profiler and moves to Failed, and the fault listener
// (the AppManager-level Supervisor, src/core/supervisor.hpp) decides
// whether to restart the component. Restart re-runs on_reattach()/
// on_start() against the same broker queues and state store, so no task
// state is lost across a component crash.
//
// Subclass contract:
//   - on_start()          register workers with add_worker(); runs while
//                         Starting, before any worker thread exists
//   - on_stop_requested() wake any component-private condition waits (the
//                         base wakes wait_stop_for() itself)
//   - on_stopped()        after all workers joined on the clean-stop path
//   - on_reattach()       before on_start() when recovering from Failed:
//                         re-attach to queues (e.g. requeue unacked
//                         deliveries orphaned by the dead workers)
//   - worker loops call beat() once per iteration (liveness timestamp +
//     fault-injection point) and exit when stop_requested() turns true,
//     draining whatever their protocol requires first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/profiler.hpp"
#include "src/obs/metrics.hpp"

namespace entk {

class Worker;

enum class ComponentState { New, Starting, Running, Draining, Stopped, Failed };

const char* to_string(ComponentState state);

/// Legal lifecycle transitions; everything not listed in the table is
/// illegal (tested exhaustively in tests/test_component.cpp).
bool is_valid_transition(ComponentState from, ComponentState to);

/// The exception beat() throws when a fault was armed via inject_fault():
/// it escapes the worker body like any real error would and exercises the
/// identical fault-propagation path.
class InjectedFault : public EnTKError {
 public:
  explicit InjectedFault(const std::string& what) : EnTKError(what) {}
};

/// One knob set for every supervision loop in the system: the ExecManager's
/// RTS heartbeat and the AppManager-level component supervisor probe the
/// same interval and draw their restart budgets from here.
struct SupervisionConfig {
  double heartbeat_interval_s = 0.02;  ///< wall seconds between probes
  int rts_restart_limit = 1;           ///< restarts of a failed RTS per run
  int component_restart_limit = 2;     ///< restarts per failed component
};

class Component {
 public:
  Component(std::string name, ProfilerPtr profiler);
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  const std::string& name() const { return name_; }
  ComponentState state() const;

  /// Reason of the last transition to Failed ("" when never failed).
  std::string fault_reason() const;

  /// New|Stopped|Failed -> Starting -> Running. Joins leftover workers of a
  /// previous generation, calls on_reattach() (restart-from-Failed only)
  /// and on_start(), then launches every registered worker. Throws
  /// StateError when called in any other state; a throwing on_start()
  /// leaves the component Failed.
  void start();

  /// Running -> Draining -> Stopped. Sets the stop flag, wakes waiters via
  /// on_stop_requested(), joins all workers, then calls on_stopped().
  /// Idempotent: stopping a New/Stopped component is a no-op; stopping a
  /// Failed component joins its dead workers and stays Failed.
  void stop();

  /// External hard failure (e.g. a simulated RTS kill): marks the
  /// component Failed with `reason`, stops and joins every worker. Must
  /// not be called from one of the component's own worker threads.
  void fail(const std::string& reason);

  /// Arm a one-shot fault: the next beat() of any worker throws
  /// InjectedFault, driving the real worker-exception path end to end.
  void inject_fault(std::string reason);

  /// Listener invoked (on the failing worker's thread) right after the
  /// component transitions to Failed. One slot; the supervisor owns it.
  void set_fault_listener(
      std::function<void(Component&, const std::string&)> listener);

  /// Attach a metrics registry: lifecycle transition and fault counters
  /// ("component.*"). Attach before start(); nullptr detaches.
  void set_metrics(obs::MetricsPtr metrics);

  /// Number of completed start() calls (1 after first start, +1 per
  /// restart).
  int generation() const { return generation_.load(); }

  /// Wall seconds since any worker last called beat(); -1 before the
  /// first beat of the current generation.
  double seconds_since_beat() const;

  std::size_t worker_count() const;

 protected:
  // --- subclass interface -------------------------------------------------
  virtual void on_start() = 0;
  virtual void on_stop_requested() {}
  virtual void on_stopped() {}
  virtual void on_reattach() {}

  /// Register a worker loop. Only legal from inside on_start().
  void add_worker(std::string name, std::function<void()> body);

  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Interruptible sleep: returns true when stop was requested before the
  /// interval elapsed (replaces every hand-rolled stop_cv wait).
  bool wait_stop_for(double seconds);

  /// Worker-loop heartbeat: records liveness and throws InjectedFault when
  /// a fault is armed. Call once per loop iteration.
  void beat();

  /// Attached registry for subclass-specific metrics (null when off).
  /// Rare paths may resolve through it directly; hot paths should cache
  /// handles when set_metrics runs.
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  ProfilerPtr profiler_;

 private:
  friend class Worker;
  void worker_failed(const std::string& worker, const std::string& what);

  /// Apply a validated transition under state_mutex_ (throws StateError on
  /// an illegal one) and record it to the profiler.
  void transition_locked(ComponentState to);
  void request_stop();  ///< set flag + wake wait_stop_for + on_stop_requested
  void join_workers();

  const std::string name_;

  mutable std::mutex state_mutex_;
  ComponentState state_ = ComponentState::New;
  std::string fault_reason_;
  std::string injected_reason_;
  std::function<void(Component&, const std::string&)> fault_listener_;

  std::mutex control_mutex_;  ///< serializes start/stop/fail

  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> fault_armed_{false};
  std::atomic<int> generation_{0};
  std::atomic<std::int64_t> last_beat_us_{-1};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;

  // Pre-resolved metric handles; all null when metrics are off.
  obs::MetricsPtr metrics_;
  obs::Counter* transitions_metric_ = nullptr;
  obs::Counter* faults_metric_ = nullptr;
};

}  // namespace entk
