// WFProcessor (paper Fig 2): the workflow-management component.
//
// Enqueue walks the application's pipelines, tags schedulable tasks and
// pushes them to the Pending queue (message 1). Dequeue pulls completed
// tasks from the Done queue (message 5) and tags them done, failed or
// canceled based on the RTS return code — driving stage completion,
// pipeline advancement, post-exec hooks (branching/adaptivity) and
// task-level fault tolerance (resubmission of failed tasks up to a retry
// budget, without restarting completed work).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/common/component.hpp"
#include "src/common/profiler.hpp"
#include "src/core/sync.hpp"
#include "src/mq/broker.hpp"

namespace entk {

struct WfConfig {
  int default_task_retry_limit = 0;
  double poll_timeout_s = 0.002;  ///< wall s queue polls

  /// Tasks per dispatch batch. 1 (the default here) preserves the seed's
  /// one-message-per-task path exactly. > 1 switches Enqueue to bulk
  /// `pending` messages ({"ids": [...]}) with vectored state syncs (one
  /// confirmed round-trip per batch instead of per task) and Dequeue to
  /// batch drains of the Done queue. Every task still passes through every
  /// state and profiler event either way — only the message count changes.
  std::size_t batch_size = 1;

  /// Remote-worker mode: publish self-contained units ({"units": [...]})
  /// on the Pending queue instead of registry ids, so registry-less
  /// entk_worker daemons can translate and execute them. Tasks must not
  /// carry callables (they do not survive serialization; AppManager
  /// validates). State flow, profiler events and bookkeeping are
  /// unchanged — only the pending wire form differs.
  bool inline_units = false;

  /// Non-empty: publish a completion-event stream ({"event": "task" |
  /// "stage" | "pipeline", ...}) to this queue as results resolve — the
  /// single source of truth the ensemble::Controller consumes. Every event
  /// is emitted AFTER the state transition it describes committed, so a
  /// rule acting on an event never races the transition.
  std::string events_queue;
};

/// A supervised Component with two workers ("enqueue", "dequeue"). All
/// workflow state lives in the registry, the broker queues and the stage
/// books, so a crashed WFProcessor can be restarted by the supervisor:
/// on_reattach() requeues unacked Done-queue deliveries and the enqueue
/// rescan picks up whatever was not yet scheduled.
class WFProcessor : public Component {
 public:
  WFProcessor(WfConfig config, mq::BrokerHandlePtr broker, ObjectRegistry* registry,
              std::string pending_queue, std::string done_queue,
              std::string states_queue, ProfilerPtr profiler);
  ~WFProcessor() override;

  /// Block until every pipeline reached a final state (or abort()).
  void wait_completion();

  /// Abort: mark all live pipelines Failed and wake waiters (used when the
  /// RTS is irrecoverably gone).
  void abort(const std::string& reason);

  /// User-requested cancellation: every live task, stage and pipeline is
  /// moved to Canceled (clean termination, paper §II-A); in-flight units
  /// finish in the RTS but their results are ignored.
  void cancel();

  /// Targeted cancellation (ensemble `cancel_group` action): move the given
  /// live tasks to Canceled, counting them as resolved in their stage books
  /// so stages still complete. Thread-safe — the Synchronizer arbitrates
  /// races with in-flight results (only the winner of the CANCELED
  /// transition updates the book, so every task resolves exactly once).
  /// Returns how many tasks this call actually canceled.
  std::size_t cancel_tasks(const std::vector<std::string>& uids);

  /// Wake the enqueue rescan (a controller appended stages or released a
  /// held-open pipeline).
  void notify_work();

  /// Tasks resolved Done / finally Failed; total resubmission attempts;
  /// tasks skipped because a previous attempt already completed them.
  std::size_t tasks_done() const { return tasks_done_.load(); }
  std::size_t tasks_failed() const { return tasks_failed_.load(); }
  std::size_t resubmissions() const { return resubmissions_.load(); }
  std::size_t tasks_recovered() const { return tasks_recovered_.load(); }
  std::size_t tasks_canceled() const { return tasks_canceled_.load(); }

  BusyAccumulator& enqueue_busy() { return enqueue_busy_; }
  BusyAccumulator& dequeue_busy() { return dequeue_busy_; }

 protected:
  void on_start() override;
  void on_stop_requested() override;
  void on_stopped() override;
  void on_reattach() override;

 private:
  struct StageBook {
    std::size_t resolved = 0;
    std::size_t failed = 0;
    bool finished = false;  ///< finish_stage dispatched (one-shot guard)
  };

  void enqueue_loop();
  void dequeue_loop();
  void schedule_stage(const PipelinePtr& pipeline, const StagePtr& stage,
                      SyncClient& sync);
  /// One pending message + two vectored syncs per chunk of up to
  /// `batch_size` tasks.
  void enqueue_tasks(const std::vector<TaskPtr>& tasks, SyncClient& sync);
  /// The task a completion record names, with its exit code applied;
  /// nullptr for unknown, canceled or already-resolved tasks.
  TaskPtr accept_result(const json::Value& result);
  /// DONE results of a drained batch share vectored Executed/Done syncs;
  /// failures take fail_task. The pointers alias completion records inside
  /// shared message payloads the caller keeps alive (zero-copy dequeue).
  void resolve_results(const std::vector<const json::Value*>& results,
                       SyncClient& sync);
  /// Failed outcome: resubmit within the retry budget, else fail the task.
  void fail_task(const TaskPtr& task, SyncClient& sync);
  /// Credit `resolved` tasks (`failed` of them failed) to the stage's book
  /// and finish the stage once the book covers every task (one-shot).
  void credit_stage(const StagePtr& stage, std::size_t resolved,
                    std::size_t failed, SyncClient& sync);
  void finish_stage(const PipelinePtr& pipeline, const StagePtr& stage,
                    bool stage_failed, SyncClient& sync);
  /// Mark an exhausted, un-held pipeline DONE (one caller wins the
  /// begin_completion guard; everyone else is a no-op).
  void complete_pipeline(const PipelinePtr& pipeline, SyncClient& sync);
  bool all_pipelines_final() const;

  // Completion-event stream (no-ops when events_queue is empty).
  void emit_event(json::Value event);
  void emit_task_event(const TaskPtr& task, const char* outcome);

  const WfConfig config_;
  mq::BrokerHandlePtr broker_;
  ObjectRegistry* registry_;
  const std::string pending_queue_;
  const std::string done_queue_;
  const std::string states_queue_;

  std::atomic<bool> canceling_{false};

  // Enqueue wake-up: new work exists (initial stages, advanced stages,
  // retries).
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<std::uint32_t> retry_ids_;
  bool work_available_ = true;

  // Completion signaling. Every wake-up of wait_completion() goes through
  // notify_done().
  void notify_done();
  mutable std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool aborted_ = false;

  std::mutex book_mutex_;  // stage books: touched by Enqueue (recovery)
                           // and Dequeue (completions)
  std::unordered_map<std::uint32_t, StageBook> stage_books_;  ///< by stage id

  std::atomic<std::size_t> tasks_done_{0};
  std::atomic<std::size_t> tasks_recovered_{0};
  std::atomic<std::size_t> tasks_failed_{0};
  std::atomic<std::size_t> resubmissions_{0};
  std::atomic<std::size_t> tasks_canceled_{0};

  BusyAccumulator enqueue_busy_;
  BusyAccumulator dequeue_busy_;

  // Pre-resolved metric handles ("wfp.*"), cached in on_start(); all null
  // when metrics are off.
  obs::Counter* enqueued_metric_ = nullptr;
  obs::Counter* done_metric_ = nullptr;
  obs::Counter* failed_metric_ = nullptr;
  obs::Counter* resubmit_metric_ = nullptr;
  obs::Counter* duplicate_metric_ = nullptr;
};

}  // namespace entk
