// WorkerRuntime: the reusable Rmgr/Emgr/RtsCallback execution stack.
//
// Extracted from the in-process ExecManager (paper Fig 2) so the same
// machinery runs in two deployments:
//   - embedded: AppManager constructs it (via the ExecManager wrapper in
//     src/core) with a resolver backed by the live ObjectRegistry — the
//     original single-process layout, behaviour unchanged;
//   - remote: the entk_worker daemon constructs it against a RemoteBroker,
//     resolving units from the `{"units": [...]}` wire form the AppManager
//     publishes in --workers mode, so N worker processes drain one
//     ensemble's Pending queue concurrently.
//
// Rmgr acquires resources through the RTS (pilot submission); Emgr pulls
// tasks from the Pending queue (message 2), translates them into
// RTS-specific units and submits them for execution (message 3); the RTS
// Callback subcomponent pushes completed units to the Done queue
// (message 4) — in the daemon through a flusher that acks a Pending
// delivery only after the Done publish carrying its units is confirmed;
// Heartbeat monitors RTS health and — because the RTS is a
// black box — handles full RTS failure by tearing it down, starting a new
// instance with fresh pilot resources, and resubmitting only the units
// that were in flight at the time of failure (paper §II-B-4).
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/busy.hpp"
#include "src/common/component.hpp"
#include "src/common/profiler.hpp"
#include "src/mq/broker.hpp"
#include "src/rts/rts.hpp"
#include "src/worker/sync_client.hpp"

namespace entk::worker {

/// Maps tasks to submittable units. The embedded deployment resolves
/// through the ObjectRegistry (callables survive); the daemon has no
/// registry, leaves both empty and serves only inline units.
struct UnitResolver {
  /// A task id from the Pending queue's {"ids": [...]} form.
  std::function<std::optional<rts::TaskUnit>(std::uint32_t id)> by_id;
  /// A uid the RTS reported lost, for resubmission after an RTS restart.
  std::function<std::optional<rts::TaskUnit>(const std::string& uid)> by_uid;
};

struct WorkerRuntimeConfig {
  /// RTS heartbeat interval and restart budget (shared knob set with the
  /// AppManager-level component supervisor).
  SupervisionConfig supervision;
  double poll_timeout_s = 0.002;
  std::size_t submit_batch = 64;     ///< max units per RTS submission

  /// Completion coalescing: when > 0, the RTS callback buffers results and
  /// a flusher publishes them as one bulk Done message ({"results": [...]})
  /// when the buffer reaches `completion_flush_max` or after this many wall
  /// seconds, whichever comes first. 0 = one Done message per unit (seed
  /// behavior). ack_on_completion coalesces on its own terms and ignores
  /// both fields.
  double completion_flush_window_s = 0.0;
  std::size_t completion_flush_max = 256;

  /// Sample ready/unacked depth of every broker queue from the heartbeat
  /// thread into the profiler ("queue_ready_depth"/"queue_unacked_depth"
  /// events, depth in the numeric field), so throughput runs can attribute
  /// stalls to a specific queue.
  bool sample_queue_depths = true;

  /// Private sync-ack queue. Must be unique per runtime instance when
  /// several workers share one broker (the daemon derives it from the
  /// worker id); the embedded ExecManager keeps the historical name.
  std::string ack_queue = "q.ack.emgr";

  /// At-least-once delivery: hold the pending-queue delivery unacked until
  /// the result of every unit it carried is confirmed on the Done queue,
  /// so a worker killed mid-execution, or mid-flush, leaves its deliveries
  /// on the broker's per-connection unacked ledger and the disconnect-
  /// requeue machinery hands them to a surviving worker. The RTS callback
  /// only buffers the result; the flusher publishes whatever has piled up
  /// as one {"results": [...]} message, waits for its confirm, and only
  /// then releases the ledger and acks the finished deliveries with one
  /// ack_batch. Off (seed behaviour) = ack right after parsing.
  bool ack_on_completion = false;

  /// Bounded prefetch: cap the units held by this runtime (fetched but not
  /// yet completed) so one worker's batch gets cannot starve its siblings
  /// under skew — the surplus stays on the shared queue for whichever
  /// worker drains first. 0 = unlimited (embedded single-worker mode).
  /// Effective only with ack_on_completion (the ledger is the counter).
  std::size_t max_in_flight = 0;

  /// Non-empty = remote deployment: labels sync transitions, profiler
  /// events and the per-worker metrics family (worker.<id>.tasks_done,
  /// worker.<id>.in_flight).
  std::string worker_id;
};

/// A supervised Component with "emgr", "heartbeat" and (with a flush
/// window configured, or ack_on_completion) "flush" workers. The RTS handle lives outside the
/// worker lifecycle, so a crashed-and-restarted runtime re-attaches to
/// the same RTS instance and the Pending queue without losing units.
class WorkerRuntime : public Component {
 public:
  WorkerRuntime(std::string component_name, WorkerRuntimeConfig config,
                mq::BrokerHandlePtr broker, UnitResolver resolver,
                std::string pending_queue, std::string done_queue,
                std::string states_queue, rts::RtsFactory rts_factory,
                ProfilerPtr profiler);
  ~WorkerRuntime() override;

  /// Rmgr: create the RTS and acquire resources (blocking).
  void acquire_resources();

  /// Stop the workers (Component::stop) and terminate the RTS gracefully.
  /// Idempotent: the second call is a no-op returning 0. Returns the wall
  /// seconds spent inside Rts::terminate (so AppManager can report EnTK
  /// and RTS tear-down separately). Hides Component::stop(), which stops
  /// the workers but leaves the RTS running (the supervisor's view).
  double stop();

  /// Fault injection for tests/examples: hard-kill the current RTS.
  void inject_rts_failure();

  /// Elastic-pilot request from the ensemble Controller: forward to the
  /// live RTS. Returns false when no RTS is up or it cannot resize.
  bool request_resize(const rts::ResizeRequest& request);

  /// Set the handler invoked when the RTS is lost and the restart budget
  /// is exhausted.
  void set_fatal_handler(std::function<void(const std::string&)> handler);

  int rts_restarts() const { return restarts_.load(); }
  rts::RtsStats rts_stats() const;

  BusyAccumulator& emgr_busy() { return emgr_busy_; }

  /// Units completed by this runtime (counts every RTS callback).
  std::size_t tasks_done() const { return tasks_done_.load(); }

  /// Units fetched whose results are not yet confirmed on the Done queue
  /// (ack_on_completion mode only; 0 otherwise).
  std::size_t in_flight() const;

  /// Wait until in_flight() reaches 0, at most `timeout_s`; returns
  /// whether it did. Woken by every shrink of the ledger.
  bool wait_drained(double timeout_s);

 protected:
  void on_start() override;
  void on_stop_requested() override;
  void on_reattach() override;

 private:
  void emgr_loop();
  void heartbeat_loop();
  void attach_callback();
  void restart_rts();
  void sample_queue_depths();
  /// Cache "rts.*" / "worker.*" metric handles once a registry is attached
  /// (idempotent).
  void resolve_metrics();
  /// Whether completions go through the flusher (a flush window, or
  /// ack_on_completion).
  bool coalesces() const {
    return config_.ack_on_completion || config_.completion_flush_window_s > 0;
  }
  void flush_loop();
  /// Publish one result as its own Done message; true once confirmed.
  bool publish_done(json::Value result);
  /// Publish buffered completion results as one bulk Done message; with
  /// ack_on_completion, release their claims once it is confirmed.
  void flush_completions(std::vector<json::Value> buffered);

  // --- at-least-once delivery ledger (ack_on_completion mode) -----------
  /// Register a fetched delivery holding `uids`; empty deliveries are
  /// acked immediately.
  void ledger_track(std::uint64_t tag, const std::vector<std::string>& uids);
  /// A Done publish carrying `uids` returned. Confirmed: release their
  /// claims and ack, in one ack_batch, every delivery whose last unit this
  /// was. Failed: nack every delivery holding one of them (ledger_nack), so
  /// the ledger still shrinks and the units run again.
  void ledger_settle(const std::vector<std::string>& uids, bool confirmed);
  /// Submission or the Done publish failed: forget these deliveries and
  /// push them back to the broker for another worker.
  void ledger_nack(const std::vector<std::uint64_t>& tags);

  const WorkerRuntimeConfig config_;
  mq::BrokerHandlePtr broker_;
  UnitResolver resolver_;
  const std::string pending_queue_;
  const std::string done_queue_;
  const std::string states_queue_;
  rts::RtsFactory rts_factory_;
  const std::string sync_component_;

  mutable std::mutex rts_mutex_;
  rts::RtsPtr rts_;

  std::function<void(const std::string&)> fatal_handler_;

  std::atomic<int> restarts_{0};
  std::atomic<bool> rts_terminated_{false};
  std::atomic<std::size_t> tasks_done_{0};
  BusyAccumulator emgr_busy_;

  mutable std::mutex ledger_mutex_;
  /// Signalled whenever the ledger shrinks (the emgr's capacity wait and
  /// wait_drained) and on stop.
  std::condition_variable ledger_cv_;
  std::map<std::uint64_t, std::size_t> ledger_remaining_;  ///< tag -> open units
  std::map<std::string, std::uint64_t> ledger_uid_tag_;    ///< uid -> tag
  /// Units in flight, kept for RTS-restart resubmission when no resolver
  /// can reconstruct them (the daemon's inline-units path).
  std::map<std::string, rts::TaskUnit> unit_cache_;

  // Pre-resolved metric handles ("rts.*"); all null when metrics are off.
  obs::Histogram* submit_us_metric_ = nullptr;
  obs::Counter* submitted_metric_ = nullptr;
  obs::Counter* completed_metric_ = nullptr;
  obs::Counter* worker_done_metric_ = nullptr;  ///< worker.<id>.tasks_done
  obs::Gauge* worker_flight_metric_ = nullptr;  ///< worker.<id>.in_flight

  // Completion coalescing (flush window or ack_on_completion).
  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  std::vector<json::Value> completion_buffer_;
  bool flusher_running_ = false;
};

}  // namespace entk::worker
