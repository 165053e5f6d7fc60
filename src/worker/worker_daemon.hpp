// WorkerDaemon: the process-level wrapper tying one WorkerRuntime to a
// remote broker — the engine behind `entk_worker`.
//
// It owns the pieces a standalone execution process needs:
//   - a RemoteBroker dialed at the entk_broker endpoint, announcing its
//     worker identity (kWorkerHello) so the server's liveness TTL covers
//     it: a SIGKILLed worker's unacked deliveries requeue automatically;
//   - a WorkerRuntime in at-least-once mode (ack_on_completion, bounded
//     prefetch, a private per-worker sync-ack queue);
//   - a WorkerAnnouncer publishing register/heartbeat/deregister events
//     to the AppManager-side WorkerDirectory.
//
// run() drives the daemon's main loop until a drain is requested
// (request_drain() is async-signal-safe, callable from a SIGTERM handler):
// it then stops fetching, waits until every in-flight unit's result is
// confirmed or handed back (woken by the runtime's ledger, bounded by
// drain_timeout_s),
// deregisters and tears the stack down. Deliveries still
// unacked at that point return to the Pending queue via the broker's
// disconnect requeue — drain is graceful, never lossy.
//
// The class is fully usable in-process (tests construct it directly); the
// entk_worker binary is a thin flag-parser + signal-wirer around it.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "src/common/component.hpp"
#include "src/common/profiler.hpp"
#include "src/obs/metrics.hpp"
#include "src/rts/rts.hpp"
#include "src/worker/registration.hpp"
#include "src/worker/worker_runtime.hpp"

namespace entk::net {
class RemoteBroker;
}

namespace entk::worker {

struct WorkerDaemonConfig {
  std::string endpoint;     ///< entk_broker "host:port" (required)
  std::string worker_id;    ///< "" = generated ("w<pid>")
  /// Tenant namespace to drain (must match the AppManager's tenant — a
  /// worker only sees queues inside its own tenant). Empty = default
  /// tenant, i.e. the pre-tenancy shared namespace.
  std::string tenant;
  int cores = 4;            ///< pilot cores this worker contributes
  /// Simulated CI profile the default pilot RTS runs on (--sim-ci).
  std::string resource = "local.localhost";
  double clock_scale = 1e-3;  ///< wall seconds per virtual second
  double walltime_s = 7200;   ///< pilot walltime (virtual seconds)

  std::size_t batch = 64;        ///< pending-queue fetch/submit batch
  /// Bounded prefetch; 0 = 2 * cores (keeps the pipeline full without
  /// starving sibling workers under skew).
  std::size_t max_in_flight = 0;
  double heartbeat_interval_s = 1.0;  ///< directory heartbeat cadence
  double drain_timeout_s = 10.0;      ///< wait for in-flight work at drain

  std::string pending_queue = "q.pending";
  std::string done_queue = "q.completed";
  std::string states_queue = "q.states";

  SupervisionConfig supervision;
  /// Override the RTS (tests); default = PilotRts on `resource` with a
  /// ScaledClock, mirroring AppManager::default_rts_factory.
  rts::RtsFactory rts_factory;
  obs::MetricsPtr metrics;  ///< optional; forwarded to broker + runtime
};

class WorkerDaemon {
 public:
  /// Dials the broker (throws NetError when unreachable) and declares the
  /// work queues; call start() to begin executing.
  explicit WorkerDaemon(WorkerDaemonConfig config);
  ~WorkerDaemon();

  WorkerDaemon(const WorkerDaemon&) = delete;
  WorkerDaemon& operator=(const WorkerDaemon&) = delete;

  /// Acquire pilot resources, start the runtime, announce registration.
  void start();

  /// Main loop: heartbeat the directory until a drain is requested or the
  /// runtime fails. Returns the process exit code (0 = clean drain).
  int run();

  /// Ask the main loop to drain and exit; safe from a signal handler.
  void request_drain() { drain_.store(true, std::memory_order_release); }
  bool drain_requested() const {
    return drain_.load(std::memory_order_acquire);
  }

  const std::string& worker_id() const { return worker_id_; }
  WorkerRuntime& runtime() { return *runtime_; }
  ProfilerPtr profiler() { return profiler_; }

 private:
  /// Graceful teardown: wait out in-flight units (bounded), deregister,
  /// stop the runtime, close the broker.
  void drain();

  WorkerDaemonConfig config_;
  const std::string worker_id_;
  ProfilerPtr profiler_;
  ClockPtr clock_;
  std::shared_ptr<net::RemoteBroker> broker_;
  std::unique_ptr<WorkerRuntime> runtime_;
  std::unique_ptr<WorkerAnnouncer> announcer_;

  std::atomic<bool> drain_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace entk::worker
