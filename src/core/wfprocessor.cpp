#include "src/core/wfprocessor.hpp"

#include "src/common/error.hpp"
#include "src/common/log.hpp"

namespace entk {
namespace {

/// The fields every completion event starts with.
json::Value outcome_event(const char* event, const std::string& uid,
                          const std::string& name, const char* outcome) {
  json::Value ev;
  ev["event"] = event;
  ev["uid"] = uid;
  ev["name"] = name;
  ev["outcome"] = outcome;
  return ev;
}

}  // namespace

WFProcessor::WFProcessor(WfConfig config, mq::BrokerHandlePtr broker,
                         ObjectRegistry* registry, std::string pending_queue,
                         std::string done_queue, std::string states_queue,
                         ProfilerPtr profiler)
    : Component("wfprocessor", std::move(profiler)),
      config_(config),
      broker_(std::move(broker)),
      registry_(registry),
      pending_queue_(std::move(pending_queue)),
      done_queue_(std::move(done_queue)),
      states_queue_(std::move(states_queue)) {}

WFProcessor::~WFProcessor() { stop(); }

void WFProcessor::on_start() {
  profiler_->record("wfprocessor", "wfp_start");
  if (auto* reg = metrics()) {
    enqueued_metric_ = &reg->counter("wfp.tasks_enqueued");
    done_metric_ = &reg->counter("wfp.tasks_done");
    failed_metric_ = &reg->counter("wfp.tasks_failed");
    resubmit_metric_ = &reg->counter("wfp.resubmissions");
    duplicate_metric_ = &reg->counter("wfp.duplicate_results");
  }
  {
    // Force a full pipeline rescan on (re)start: a previous generation may
    // have died after consuming its wake-up but before scheduling.
    std::lock_guard<std::mutex> lock(work_mutex_);
    work_available_ = true;
  }
  add_worker("enqueue", [this] { enqueue_loop(); });
  add_worker("dequeue", [this] { dequeue_loop(); });
}

void WFProcessor::on_stop_requested() {
  work_cv_.notify_all();
  notify_done();
}

void WFProcessor::on_stopped() { profiler_->record("wfprocessor", "wfp_stop"); }

void WFProcessor::on_reattach() {
  // Deliveries the dead workers held unacked (Done-queue results, sync
  // acks) go back to their queues so the new generation resolves them.
  for (const std::string& queue :
       {done_queue_, std::string("q.ack.wfp.enq"), std::string("q.ack.wfp.deq")}) {
    if (broker_->has_queue(queue)) broker_->requeue_unacked(queue);
  }
}

bool WFProcessor::all_pipelines_final() const {
  for (const PipelinePtr& p : registry_->pipelines()) {
    if (!is_final(p->state())) return false;
  }
  return true;
}

void WFProcessor::wait_completion() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] { return aborted_ || all_pipelines_final(); });
}

void WFProcessor::notify_done() {
  // Pipeline states change outside done_mutex_, so taking it here orders
  // this notify after any waiter's predicate check: the waiter is either
  // already blocked in wait() or will see the new state when it checks.
  { std::lock_guard<std::mutex> lock(done_mutex_); }
  done_cv_.notify_all();
}

void WFProcessor::abort(const std::string& reason) {
  ENTK_ERROR("wfprocessor") << "aborting workflow: " << reason;
  SyncClient sync(broker_, "wfp.abort", states_queue_, "q.ack.wfp.abort");
  for (const PipelinePtr& p : registry_->pipelines()) {
    if (is_final(p->state())) continue;
    // Described pipelines must pass through Scheduling to fail.
    if (p->state() == PipelineState::Described) {
      sync.sync({p->id(), PipelineState::Described, PipelineState::Scheduling},
                true);
    }
    sync.sync({p->id(), p->state(), PipelineState::Failed}, true);
  }
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    aborted_ = true;
  }
  notify_done();
}

void WFProcessor::cancel() {
  ENTK_INFO("wfprocessor") << "canceling workflow";
  canceling_ = true;
  SyncClient sync(broker_, "wfp.cancel", states_queue_, "q.ack.wfp.cancel");
  for (const PipelinePtr& p : registry_->pipelines()) {
    if (is_final(p->state())) continue;
    for (const StagePtr& stage : p->stages()) {
      for (const TaskPtr& task : stage->tasks()) {
        if (!is_final(task->state())) {
          sync.sync({task->id(), task->state(), TaskState::Canceled}, true);
        }
      }
      if (!is_final(stage->state())) {
        sync.sync({stage->id(), stage->state(), StageState::Canceled}, true);
      }
    }
    sync.sync({p->id(), p->state(), PipelineState::Canceled}, true);
  }
  notify_done();
}

// ------------------------------------------------------------- Enqueue --

void WFProcessor::enqueue_loop() {
  SyncClient sync(broker_, "wfp.enqueue", states_queue_, "q.ack.wfp.enq");
  std::uint64_t scans = 0;
  while (!stop_requested()) {
    beat();
    if (++scans % 2048 == 0) {
      ENTK_DEBUG("wfprocessor") << "enqueue alive, scan " << scans;
    }
    std::deque<std::uint32_t> retries;
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait_for(lock, std::chrono::milliseconds(2), [this] {
        return stop_requested() || work_available_ || !retry_ids_.empty();
      });
      if (stop_requested()) return;
      work_available_ = false;
      retries.swap(retry_ids_);
    }

    BusyScope busy(enqueue_busy_);

    // Resubmissions first: failed tasks that were re-described.
    for (const std::uint32_t id : retries) {
      TaskPtr task = registry_->task(id);
      if (task) enqueue_tasks({task}, sync);
    }

    if (canceling_.load()) continue;
    // Walk pipelines looking for schedulable stages.
    for (const PipelinePtr& pipeline : registry_->pipelines()) {
      if (is_final(pipeline->state())) continue;
      if (pipeline->state() == PipelineState::Described) {
        sync.sync({pipeline->id(), PipelineState::Described,
                   PipelineState::Scheduling},
                  true);
      }
      StagePtr stage = pipeline->current_stage();
      if (!stage) {
        // Exhausted: either the controller still holds the pipeline open
        // (a generator may append more stages) or it is ready to complete.
        complete_pipeline(pipeline, sync);
        continue;
      }
      if (stage->state() == StageState::Done) {
        // DONE but not yet advanced past: the dequeue thread is still
        // inside finish_stage (its hook may append stages), so leave the
        // pipeline to it.
        if (stage_advancing(stage)) continue;
        // Crash recovery: a previous generation died inside a post_exec
        // hook after the stage committed DONE but before the pipeline
        // advanced. Pick up where it left off — the hook itself was
        // consumed (at-most-once) and does not re-run.
        for (const StagePtr& s : pipeline->stages()) registry_->add_stage(s);
        stage = pipeline->advance_past(stage);
        if (!stage) {
          complete_pipeline(pipeline, sync);
          continue;
        }
      }
      if (stage->state() != StageState::Described) continue;
      schedule_stage(pipeline, stage, sync);
    }
  }
}

void WFProcessor::notify_work() {
  {
    std::lock_guard<std::mutex> lock(work_mutex_);
    work_available_ = true;
  }
  work_cv_.notify_all();
}

void WFProcessor::complete_pipeline(const PipelinePtr& pipeline,
                                    SyncClient& sync) {
  if (pipeline->state() != PipelineState::Scheduling) return;
  if (pipeline->held_open()) return;
  if (!pipeline->begin_completion()) return;
  sync.sync({pipeline->id(), PipelineState::Scheduling, PipelineState::Done},
            true);
  profiler_->record("wfprocessor", "pipeline_done", pipeline->uid());
  emit_event(outcome_event("pipeline", pipeline->uid(), pipeline->name, "DONE"));
  notify_done();
}

void WFProcessor::schedule_stage(const PipelinePtr& pipeline,
                                 const StagePtr& stage, SyncClient& sync) {
  ENTK_DEBUG("wfprocessor") << "scheduling stage " << stage->uid() << " ("
                            << stage->task_count() << " tasks) of "
                            << pipeline->uid();
  profiler_->record("wfprocessor", "stage_schedule_start", stage->uid());
  sync.sync({stage->id(), StageState::Described, StageState::Scheduling},
            true);
  std::size_t recovered = 0;
  std::vector<TaskPtr> chunk;
  for (const TaskPtr& task : stage->tasks()) {
    if (task->state() == TaskState::Done) {
      // Completed in a previous attempt (AppManager recovered it from the
      // resume journal): skip execution entirely, so resumed applications
      // only run the work that is still missing (paper §II-A: "executed on
      // multiple attempts, without restarting completed tasks").
      ++recovered;
      ++tasks_recovered_;
      profiler_->record("wfprocessor", "task_recovered", task->uid());
      continue;
    }
    // Canceled before this stage was scheduled (cancel_tasks counted it as
    // resolved in the book already): never dispatch it.
    if (task->state() == TaskState::Canceled) continue;
    chunk.push_back(task);
    if (chunk.size() >= config_.batch_size) {
      enqueue_tasks(chunk, sync);
      chunk.clear();
    }
  }
  if (!chunk.empty()) enqueue_tasks(chunk, sync);
  sync.sync({stage->id(), StageState::Scheduling, StageState::Scheduled},
            true);
  profiler_->record("wfprocessor", "stage_schedule_stop", stage->uid());
  // Completion check even when nothing was recovered: cancellations may
  // have pre-resolved tasks of this stage in the book.
  credit_stage(stage, recovered, 0, sync);
}

void WFProcessor::enqueue_tasks(const std::vector<TaskPtr>& tasks,
                                SyncClient& sync) {
  std::vector<std::uint32_t> ids;
  json::Array units;
  ids.reserve(tasks.size());
  for (const TaskPtr& task : tasks) {
    ids.push_back(task->id());
    if (config_.inline_units) units.push_back(to_unit(*task).to_json());
  }
  sync.sync_batch(ids, TaskState::Described, TaskState::Scheduling, false);
  // The Scheduled transitions are confirmed before the tasks become
  // runnable — the state store must know about a task before the RTS can
  // see it — with ONE round-trip for the whole batch.
  sync.sync_batch(ids, TaskState::Scheduling, TaskState::Scheduled, true);
  // Recorded before the publish so the trace's causal order holds even
  // when the consumer records task_submitted on another thread first.
  for (const TaskPtr& task : tasks) {
    profiler_->record("wfprocessor", "task_enqueued", task->uid());
  }
  if (enqueued_metric_ != nullptr) enqueued_metric_->add(tasks.size());
  if (config_.inline_units) {
    // Remote workers have no registry: ship full unit descriptions, one
    // message PER task, published in one vectored broker call. The syncs
    // above still amortize across the batch, but the work-sharing granule
    // on the Pending queue stays a single task — N workers split a burst
    // instead of one worker's batch get swallowing it whole, and a killed
    // worker's requeue returns only what it actually held.
    std::vector<mq::Message> msgs;
    msgs.reserve(units.size());
    for (json::Value& unit : units) {
      json::Value msg;
      json::Array one;
      one.push_back(std::move(unit));
      msg["units"] = std::move(one);
      msgs.push_back(mq::Message::json_body(pending_queue_, std::move(msg)));
    }
    broker_->publish_batch(pending_queue_, std::move(msgs));
  } else {
    json::Value msg;
    msg["ids"] = json::Array(ids.begin(), ids.end());
    broker_->publish(pending_queue_,
                     mq::Message::json_body(pending_queue_, std::move(msg)));
  }
}

// ------------------------------------------------------------- Dequeue --

void WFProcessor::dequeue_loop() {
  SyncClient sync(broker_, "wfp.dequeue", states_queue_, "q.ack.wfp.deq");
  // Drain size: at batch_size 1 pull single deliveries (the seed path);
  // otherwise pull whole backlogs in one queue-lock acquisition.
  const std::size_t drain = std::max<std::size_t>(1, config_.batch_size);
  while (!stop_requested()) {
    beat();
    const std::vector<mq::Delivery> deliveries =
        broker_->get_batch(done_queue_, drain, config_.poll_timeout_s);
    if (deliveries.empty()) continue;
    BusyScope busy(dequeue_busy_);
    std::vector<std::uint64_t> tags;
    // The shared payloads are read in place (zero-copy); `payloads` keeps
    // them alive while `results` points at individual completion records
    // inside them.
    std::vector<std::shared_ptr<const json::Value>> payloads;
    std::vector<const json::Value*> results;
    tags.reserve(deliveries.size());
    payloads.reserve(deliveries.size());
    results.reserve(deliveries.size());
    for (const mq::Delivery& delivery : deliveries) {
      tags.push_back(delivery.delivery_tag);
      std::shared_ptr<const json::Value> body;
      try {
        body = delivery.message.payload();
      } catch (const json::ParseError&) {
        continue;
      }
      if (body->contains("results")) {
        // Coalesced completion message from the RTS callback flush window.
        for (const json::Value& r : body->at("results").as_array()) {
          results.push_back(&r);
        }
      } else {
        results.push_back(body.get());
      }
      payloads.push_back(std::move(body));
    }
    broker_->ack_batch(done_queue_, tags);
    resolve_results(results, sync);
  }
}

TaskPtr WFProcessor::accept_result(const json::Value& result) {
  // Results name their task by uid (the wire boundary of the Done queue).
  const std::string uid = result.get_string("uid", "");
  TaskPtr task = registry_->task(uid);
  if (!task) {
    ENTK_WARN("wfprocessor") << "result for unknown task " << uid;
    return nullptr;
  }
  if (canceling_.load() || task->state() == TaskState::Canceled) {
    return nullptr;  // unit outlived cancellation: ignore its result
  }
  if (task->state() == TaskState::Done || task->state() == TaskState::Failed) {
    // At-least-once redelivery: a worker lost its connection after
    // executing but before acking, a survivor re-executed, and both
    // results arrived. The first resolution already advanced the stage
    // book and the state store; dropping the duplicate keeps "DONE exactly
    // once" true for the workflow even though execution was at-least-once.
    ENTK_WARN("wfprocessor") << "duplicate result for " << uid
                             << " ignored (task already "
                             << to_string(task->state()) << ")";
    if (duplicate_metric_ != nullptr) duplicate_metric_->add(1);
    return nullptr;
  }
  task->set_exit_code(static_cast<int>(result.get_int("exit_code", 0)));
  return task;
}

void WFProcessor::resolve_results(const std::vector<const json::Value*>& results,
                                  SyncClient& sync) {
  // DONE results of the drained batch share two vectored syncs (Executed
  // unconfirmed, Done confirmed — one round-trip for the whole batch);
  // failures take the per-task path, which owns the retry branching.
  std::vector<TaskPtr> done;
  std::vector<TaskPtr> failed;
  std::vector<std::uint32_t> ids;
  for (const json::Value* result : results) {
    TaskPtr task = accept_result(*result);
    if (!task) continue;
    if (result->get_string("outcome", "DONE") != "DONE") {
      failed.push_back(std::move(task));
      continue;
    }
    ids.push_back(task->id());
    done.push_back(std::move(task));
  }
  if (!done.empty()) {
    sync.sync_batch(ids, TaskState::Submitted, TaskState::Executed, false);
    for (const TaskPtr& task : done) {
      profiler_->record("wfprocessor", "task_dequeued", task->uid());
    }
    sync.sync_batch(ids, TaskState::Executed, TaskState::Done, true);
    tasks_done_ += done.size();
    for (const TaskPtr& task : done) {
      profiler_->record("wfprocessor", "task_done", task->uid());
      emit_task_event(task, "DONE");
    }
    if (done_metric_ != nullptr) done_metric_->add(done.size());
    for (const TaskPtr& task : done) {
      credit_stage(registry_->stage(task->parent_stage()), 1, 0, sync);
    }
  }
  for (const TaskPtr& task : failed) fail_task(task, sync);
}

void WFProcessor::fail_task(const TaskPtr& task, SyncClient& sync) {
  const std::uint32_t id = task->id();
  sync.sync({id, TaskState::Submitted, TaskState::Executed}, false);
  profiler_->record("wfprocessor", "task_dequeued", task->uid());
  sync.sync({id, TaskState::Executed, TaskState::Failed}, true);
  const int limit = task->retry_limit >= 0 ? task->retry_limit
                                           : config_.default_task_retry_limit;
  if (task->attempts() < limit) {
    // Resubmission: re-describe and hand back to Enqueue (paper §II-A:
    // failed tasks are resubmitted without restarting completed tasks).
    task->bump_attempts();
    sync.sync({id, TaskState::Failed, TaskState::Described}, true);
    ++resubmissions_;
    profiler_->record("wfprocessor", "task_resubmit", task->uid());
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      retry_ids_.push_back(id);
    }
    work_cv_.notify_all();
    if (resubmit_metric_ != nullptr) resubmit_metric_->add(1);
    return;
  }
  ++tasks_failed_;
  profiler_->record("wfprocessor", "task_failed", task->uid());
  if (failed_metric_ != nullptr) failed_metric_->add(1);
  emit_task_event(task, "FAILED");
  credit_stage(registry_->stage(task->parent_stage()), 1, 1, sync);
}

bool WFProcessor::stage_advancing(const StagePtr& stage) {
  std::lock_guard<std::mutex> lock(book_mutex_);
  auto it = stage_books_.find(stage->id());
  return it != stage_books_.end() && it->second.advancing;
}

void WFProcessor::credit_stage(const StagePtr& stage, std::size_t resolved,
                               std::size_t failed, SyncClient& sync) {
  if (!stage) return;  // parent not registered: nothing to account
  bool stage_failed = false;
  {
    std::lock_guard<std::mutex> lock(book_mutex_);
    StageBook& book = stage_books_[stage->id()];
    book.resolved += resolved;
    book.failed += failed;
    // Only a fully dispatched (Scheduled) stage may finish: schedule_stage
    // credits it once more after its Scheduled transition is confirmed, so
    // whichever of the two comes last finishes the stage.
    if (book.finished || book.resolved < stage->task_count() ||
        stage->state() != StageState::Scheduled) {
      return;
    }
    book.finished = true;
    book.advancing = true;
    stage_failed = book.failed > 0;
  }
  // Cleared on every exit, an escaping post_exec exception included, so
  // the enqueue rescan's crash recovery can take over.
  struct AdvancingScope {
    WFProcessor& wfp;
    std::uint32_t id;
    ~AdvancingScope() {
      std::lock_guard<std::mutex> lock(wfp.book_mutex_);
      wfp.stage_books_[id].advancing = false;
    }
  } advancing{*this, stage->id()};
  PipelinePtr pipeline = registry_->pipeline(stage->parent_pipeline());
  if (!pipeline) {
    ENTK_ERROR("wfprocessor") << "stage " << stage->uid()
                              << " has no registered pipeline";
    return;
  }
  finish_stage(pipeline, stage, stage_failed, sync);
}

void WFProcessor::finish_stage(const PipelinePtr& pipeline,
                               const StagePtr& stage, bool stage_failed,
                               SyncClient& sync) {
  json::Value stage_ev = outcome_event("stage", stage->uid(), stage->name,
                                       stage_failed ? "FAILED" : "DONE");
  stage_ev["pipeline"] = pipeline->uid();

  if (stage_failed) {
    sync.sync({stage->id(), StageState::Scheduled, StageState::Failed}, true);
    sync.sync({pipeline->id(), PipelineState::Scheduling,
               PipelineState::Failed},
              true);
    ENTK_WARN("wfprocessor") << "pipeline " << pipeline->uid()
                             << " failed at stage " << stage->uid();
    emit_event(std::move(stage_ev));
    emit_event(
        outcome_event("pipeline", pipeline->uid(), pipeline->name, "FAILED"));
    notify_done();
    return;
  }

  sync.sync({stage->id(), StageState::Scheduled, StageState::Done}, true);
  profiler_->record("wfprocessor", "stage_done", stage->uid());
  emit_event(std::move(stage_ev));

  // Post-execution hook: may extend the pipeline (adaptivity/branching).
  // The hook is consumed before it runs (at-most-once): an escaping
  // exception becomes a captured component fault — the supervisor restarts
  // the WFProcessor and the enqueue rescan advances past this stage
  // WITHOUT re-running user code.
  if (stage->post_exec) {
    auto hook = std::move(stage->post_exec);
    stage->post_exec = nullptr;
    try {
      hook();
    } catch (const std::exception& e) {
      throw EnTKError("stage " + stage->uid() + " post_exec threw: " +
                      e.what());
    } catch (...) {
      throw EnTKError("stage " + stage->uid() +
                      " post_exec threw a non-standard exception");
    }
    // Register any stages the hook appended (known stages return early).
    for (const StagePtr& s : pipeline->stages()) registry_->add_stage(s);
  }

  StagePtr next = pipeline->advance_past(stage);
  ENTK_DEBUG("wfprocessor") << "stage " << stage->uid() << " done, next="
                            << (next ? next->uid() : "none") << " held="
                            << (pipeline->held_open() ? "y" : "n");
  if (next) {
    notify_work();
  } else if (pipeline->held_open()) {
    // The ensemble Controller owns this pipeline's lifetime: it idles in
    // Scheduling until rules append more stages or release the hold (the
    // enqueue rescan completes it then).
    notify_work();
  } else {
    complete_pipeline(pipeline, sync);
  }
}

std::size_t WFProcessor::cancel_tasks(const std::vector<std::string>& uids) {
  // Runs on the caller's thread (the ensemble Controller), so it owns a
  // private sync channel.
  SyncClient sync(broker_, "wfp.cancel_tasks", states_queue_,
                  "q.ack.wfp.cancel_tasks");
  std::size_t canceled = 0;
  for (const std::string& uid : uids) {
    TaskPtr task = registry_->task(uid);
    if (!task) continue;
    const std::uint32_t id = task->id();
    bool won = false;
    // The current state can move under us (SCHEDULING -> SCHEDULED -> ...);
    // re-read and retry a few times. Only winning the CANCELED transition
    // entitles us to the stage-book credit — if a completion raced in
    // first, resolve_results already took it.
    for (int attempt = 0; attempt < 3 && !won; ++attempt) {
      const TaskState st = task->state();
      if (is_final(st)) break;
      won = sync.sync({id, st, TaskState::Canceled}, true);
    }
    if (!won) continue;
    ++canceled;
    ++tasks_canceled_;
    profiler_->record("wfprocessor", "task_canceled", uid);
    emit_task_event(task, "CANCELED");
    // A canceled task counts as resolved or its stage would never finish.
    credit_stage(registry_->stage(task->parent_stage()), 1, 0, sync);
  }
  return canceled;
}

void WFProcessor::emit_event(json::Value event) {
  if (config_.events_queue.empty()) return;
  ENTK_DEBUG("wfprocessor") << "emit " << event.get_string("event", "?")
                            << " " << event.get_string("uid", "?") << " "
                            << event.get_string("outcome", "?");
  try {
    broker_->publish(config_.events_queue,
                     mq::Message::json_body(config_.events_queue,
                                            std::move(event)));
  } catch (const std::exception&) {
    // Broker closing during teardown: the stream consumer is gone anyway.
  }
}

void WFProcessor::emit_task_event(const TaskPtr& task, const char* outcome) {
  if (config_.events_queue.empty()) return;
  json::Value ev = outcome_event("task", task->uid(), task->name, outcome);
  ev["exit_code"] = task->exit_code();
  ev["stage"] = task->parent_stage();
  ev["pipeline"] = task->parent_pipeline();
  if (!task->metadata.is_null()) ev["metadata"] = task->metadata;
  emit_event(std::move(ev));
}

}  // namespace entk
