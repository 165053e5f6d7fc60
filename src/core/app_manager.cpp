#include "src/core/app_manager.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/ids.hpp"
#include "src/common/log.hpp"
#include "src/net/remote_broker.hpp"
#include "src/rts/pilot_rts.hpp"
#include "src/sim/cluster.hpp"

namespace entk {

AppManager::AppManager(AppManagerConfig config)
    : config_(std::move(config)),
      uid_(generate_uid("appmanager")),
      clock_(std::make_shared<ScaledClock>(config_.clock_scale)),
      profiler_(std::make_shared<Profiler>()) {
  if (config_.host.factor < 0) {
    config_.host.factor =
        sim::cluster_by_name(config_.resource.resource).entk_host_factor;
  }
  if (!config_.rts_factory) config_.rts_factory = default_rts_factory();
  if (config_.obs.metrics_enabled()) {
    metrics_ = std::make_shared<obs::MetricsRegistry>();
    metrics_->set_snapshot_interval(config_.obs.snapshot_interval_s);
  }
}

AppManager::~AppManager() = default;

rts::RtsFactory AppManager::default_rts_factory() {
  // Copy what the factory needs by value: it outlives individual RTS
  // instances and is re-invoked after an RTS failure.
  const ResourceDescription res = config_.resource;
  ClockPtr clock = clock_;
  ProfilerPtr profiler = profiler_;
  return [res, clock, profiler]() -> rts::RtsPtr {
    rts::PilotRtsConfig cfg;
    cfg.pilot.resource = res.resource;
    cfg.pilot.cores = res.cpus;
    cfg.pilot.nodes = res.nodes;
    cfg.pilot.walltime_s = res.walltime_s;
    cfg.pilot.project = res.project;
    cfg.agent = res.agent;
    cfg.failure = res.failure;
    cfg.teardown_base_s = res.rts_teardown_base_s;
    cfg.teardown_per_unit_s = res.rts_teardown_per_unit_s;
    return std::make_shared<rts::PilotRts>(cfg, clock, profiler);
  };
}

void AppManager::add_pipelines(std::vector<PipelinePtr> pipelines) {
  if (ran_) throw StateError(uid_ + ": cannot add pipelines after run()");
  for (PipelinePtr& p : pipelines) {
    if (!p) throw ValueError(uid_, "pipeline", "non-null pipeline");
    p->validate();
    pipelines_.push_back(std::move(p));
  }
}

void AppManager::run() {
  if (ran_) throw StateError(uid_ + ": run() may only be called once");
  ran_ = true;
  if (pipelines_.empty()) throw MissingError(uid_, "pipelines");

  // ---------------------------------------------------------- EnTK setup
  profiler_->record("amgr", "amgr_setup_start");
  const double setup_t0 = wall_now_s();

  if (config_.remote_workers) {
    if (config_.broker_endpoint.empty()) {
      throw ValueError(uid_, "broker_endpoint",
                       "an entk_broker endpoint when remote_workers is set "
                       "(workers rendezvous through the daemon)");
    }
    // Callables cannot cross a process boundary; reject them up front
    // instead of letting a worker fail the unit at execution time.
    for (const PipelinePtr& p : pipelines_) {
      for (const StagePtr& stage : p->stages()) {
        for (const TaskPtr& task : stage->tasks()) {
          if (task->function) {
            throw ValueError(
                uid_, "task " + task->uid(),
                "no callable in remote_workers mode (functions do not "
                "survive serialization to a worker process)");
          }
        }
      }
    }
  }

  const std::string journal_dir = config_.journal_dir;
  if (!config_.broker_endpoint.empty()) {
    if (!config_.recover_broker_journal.empty()) {
      throw ValueError(uid_, "recover_broker_journal",
                       "empty when broker_endpoint is set (a daemon "
                       "recovers its own journal via --recover)");
    }
    net::RemoteBrokerConfig remote_cfg;
    remote_cfg.endpoint = config_.broker_endpoint;
    remote_cfg.tenant = config_.tenant;
    auto remote = std::make_shared<net::RemoteBroker>(remote_cfg);
    if (metrics_) remote->set_metrics(metrics_);
    broker_ = remote;
    ENTK_INFO(uid_) << "using broker daemon at " << config_.broker_endpoint
                    << (config_.tenant.empty()
                            ? std::string()
                            : " as tenant '" + config_.tenant + "'");
  } else {
    if (!config_.tenant.empty()) {
      throw ValueError(uid_, "tenant",
                       "a broker_endpoint when tenant is set (tenancy is a "
                       "shared-daemon concept; the in-process broker is "
                       "single-application by construction)");
    }
    local_broker_ = std::make_shared<mq::Broker>(
        uid_, journal_dir, config_.journal, config_.broker_shards);
    if (metrics_) local_broker_->set_metrics(metrics_);
    broker_ = local_broker_;
  }
  if (!config_.recover_broker_journal.empty()) {
    const std::size_t restored =
        local_broker_->recover(config_.recover_broker_journal);
    // Replay proved the backlog survived, but in an AppManager-driven run
    // the WFProcessor re-publishes outstanding work from the workflow +
    // state journal — keeping the replayed messages would double-dispatch
    // them (and resurrect tasks a resume_journal marks DONE). A daemon
    // serving remote clients mid-run keeps its backlog instead
    // (entk_broker --recover).
    std::size_t purged = 0;
    for (const std::string& queue : local_broker_->queue_names()) {
      purged += local_broker_->queue(queue)->purge();
    }
    ENTK_INFO(uid_) << "broker recovery: replayed " << restored
                    << " message(s) from " << config_.recover_broker_journal
                    << ", purged " << purged
                    << " (WFProcessor re-publishes outstanding work)";
  }
  // With a journal directory the component queues are durable: every
  // publish/ack lands in the broker's group-commit journal, so a post-
  // mortem (or Broker::recover) can replay the in-flight backlog. Queues
  // that already exist (broker recovery) keep their recovered options.
  const mq::QueueOptions queue_opts{.durable = !journal_dir.empty()};
  for (const char* queue : {"q.pending", "q.completed", "q.states"}) {
    if (local_broker_ && local_broker_->has_queue(queue)) continue;
    broker_->declare_queue(queue, queue_opts);
  }
  std::string events_queue = config_.events_queue;
  if (events_queue.empty() && config_.adaptive_factory) {
    events_queue = "q.ensemble.events";
  }
  if (!events_queue.empty() &&
      !(local_broker_ && local_broker_->has_queue(events_queue))) {
    // The event stream is advisory (rules re-derive nothing from it that
    // the state journal does not also hold), so it is never durable.
    broker_->declare_queue(events_queue, mq::QueueOptions{});
  }

  store_ = std::make_unique<StateStore>(
      journal_dir.empty() ? "" : journal_dir + "/" + uid_ + ".states",
      config_.journal);

  for (const PipelinePtr& p : pipelines_) registry_.add_pipeline(p);

  synchronizer_ = std::make_unique<Synchronizer>(
      broker_, "q.states", &registry_, store_.get(), profiler_);
  synchronizer_->start();

  const std::size_t batch =
      std::max<std::size_t>(1, config_.task_batch_size);
  WfConfig wf_cfg;
  wf_cfg.default_task_retry_limit = config_.task_retry_limit;
  wf_cfg.batch_size = batch;
  wf_cfg.inline_units = config_.remote_workers;
  wf_cfg.events_queue = events_queue;
  if (!config_.resume_journal.empty()) {
    StateStore previous;
    previous.recover(config_.resume_journal);
    const std::uint16_t recovery = store_->intern("recovery");
    std::size_t recovered = 0;
    for (const PipelinePtr& p : pipelines_) {
      for (const StagePtr& stage : p->stages()) {
        for (const TaskPtr& task : stage->tasks()) {
          if (previous.state_of(task->uid()) == "DONE") {
            task->set_state(TaskState::Done);
            ++recovered;
            store_->commit({task->id(), TaskState::Described, TaskState::Done},
                           task->uid(), recovery);
            profiler_->record("amgr", "task_recovered", task->uid());
          }
        }
      }
    }
    ENTK_INFO(uid_) << "resume: recovered " << recovered
                    << " completed task(s) from " << config_.resume_journal;
  }
  wfprocessor_ = std::make_unique<WFProcessor>(wf_cfg, broker_, &registry_,
                                               "q.pending", "q.completed",
                                               "q.states", profiler_);

  if (config_.remote_workers) {
    // The execution stack lives in entk_worker processes; this side only
    // tracks who is out there.
    worker_directory_ = std::make_unique<worker::WorkerDirectory>(
        broker_, config_.worker_ttl_s, profiler_);
  } else {
    ExecConfig exec_cfg;
    exec_cfg.supervision = config_.supervision;
    exec_cfg.submit_batch = std::max(exec_cfg.submit_batch, batch);
    if (batch > 1) {
      // Coalesce completions on a short window so Dequeue drains bulk Done
      // messages instead of one per unit.
      exec_cfg.completion_flush_window_s = 0.002;
      exec_cfg.completion_flush_max = batch;
    }
    exec_manager_ = std::make_unique<ExecManager>(
        exec_cfg, broker_, &registry_, "q.pending", "q.completed",
        "q.states", config_.rts_factory, profiler_);
    exec_manager_->set_fatal_handler([this](const std::string& reason) {
      note_fatal("rts", reason);
      wfprocessor_->abort(reason);
    });
  }

  if (config_.adaptive_factory) {
    AdaptiveWiring wiring;
    wiring.broker = broker_;
    wiring.events_queue = events_queue;
    wiring.registry = &registry_;
    wiring.wfprocessor = wfprocessor_.get();
    wiring.clock = clock_;
    wiring.profiler = profiler_;
    wiring.metrics = metrics_;
    wiring.resize = [this](const rts::ResizeRequest& request) {
      return exec_manager_ ? exec_manager_->request_resize(request) : false;
    };
    adaptive_ = config_.adaptive_factory(wiring);
  }

  // Supervision tree (paper §II-B-4): the supervisor heartbeat-probes the
  // sibling components and restarts any that fail, re-attached to the same
  // queues and state store; the ExecManager supervises the RTS below it.
  supervisor_ = std::make_unique<Supervisor>(config_.supervision, profiler_);
  supervisor_->supervise(synchronizer_.get());
  supervisor_->supervise(wfprocessor_.get());
  if (exec_manager_) supervisor_->supervise(exec_manager_.get());
  if (worker_directory_) supervisor_->supervise(worker_directory_.get());
  if (adaptive_) supervisor_->supervise(adaptive_.get());
  supervisor_->set_fatal_handler(
      [this](const std::string& component, const std::string& reason) {
        note_fatal(component, reason);
        wfprocessor_->abort(component + ": " + reason);
      });
  // Sticky broker durability failures (journal-flusher I/O errors —
  // local or forwarded from the daemon on heartbeats) surface through the
  // same fatal path.
  supervisor_->watch_broker(broker_);

  if (metrics_) {
    synchronizer_->set_metrics(metrics_);
    wfprocessor_->set_metrics(metrics_);
    if (exec_manager_) exec_manager_->set_metrics(metrics_);
    if (worker_directory_) worker_directory_->set_metrics(metrics_);
    if (adaptive_) adaptive_->set_metrics(metrics_);
    supervisor_->set_metrics(metrics_);
  }

  const double setup_wall = wall_now_s() - setup_t0;
  profiler_->record("amgr", "amgr_setup_stop");

  // ----------------------------------------------- resource acquisition
  if (exec_manager_) exec_manager_->acquire_resources();

  // ------------------------------------------------------------ execute
  profiler_->record("amgr", "amgr_run_start");
  if (exec_manager_) exec_manager_->start();
  if (worker_directory_) worker_directory_->start();
  // Before the WFProcessor, so the controller observes the event stream
  // from the first completion onward.
  if (adaptive_) adaptive_->start();
  wfprocessor_->start();
  supervisor_->start();
  wfprocessor_->wait_completion();
  profiler_->record("amgr", "amgr_run_stop");

  // ----------------------------------------------------------- teardown
  profiler_->record("amgr", "amgr_teardown_start");
  const double teardown_t0 = wall_now_s();
  // Supervisor first, so an intentionally-stopping component is not
  // mistaken for a crashed one and restarted mid-teardown.
  supervisor_->stop();
  // The controller before the WFProcessor: its actions (cancel, append,
  // resize) route through a still-live workflow stack.
  if (adaptive_) adaptive_->stop();
  wfprocessor_->stop();
  const double rts_terminate_wall =
      exec_manager_ ? exec_manager_->stop() : 0.0;
  if (worker_directory_) worker_directory_->stop();
  synchronizer_->stop();
  // Durability barrier before the run is declared over: group-committed
  // state records must be readable by whoever inspects the journal next.
  store_->flush();
  broker_->close();
  const double teardown_wall =
      wall_now_s() - teardown_t0 - rts_terminate_wall;
  profiler_->record("amgr", "amgr_teardown_stop");

  // ------------------------------------------------------------- report
  // Stitch the causal trace once: the overhead report, the span
  // histograms and the exporters all read this one model.
  obs::TraceLinks links;
  for (const PipelinePtr& p : pipelines_) {
    for (const StagePtr& stage : p->stages()) {
      links.stage_pipeline[stage->uid()] = p->uid();
      for (const TaskPtr& task : stage->tasks()) {
        links.task_stage[task->uid()] = stage->uid();
      }
    }
  }
  trace_ = obs::build_trace(*profiler_, links);

  OverheadInputs inputs;
  inputs.setup_wall_s = setup_wall;
  inputs.mgmt_wall_s =
      wfprocessor_->enqueue_busy().total_s() +
      wfprocessor_->dequeue_busy().total_s() +
      (exec_manager_ ? exec_manager_->emgr_busy().total_s() : 0.0) +
      synchronizer_->busy().total_s();
  inputs.teardown_wall_s = teardown_wall;
  inputs.tasks_processed =
      wfprocessor_->tasks_done() + wfprocessor_->tasks_failed() +
      wfprocessor_->resubmissions();
  inputs.host = config_.host;
  report_ = compute_overheads(trace_, inputs);
  report_.tasks_done = wfprocessor_->tasks_done();
  report_.tasks_failed = wfprocessor_->tasks_failed();
  report_.resubmissions = wfprocessor_->resubmissions();
  report_.rts_restarts = exec_manager_ ? exec_manager_->rts_restarts() : 0;
  report_.component_restarts = supervisor_->total_restarts();
  {
    std::lock_guard<std::mutex> lock(fatal_mutex_);
    report_.failed_component = fatal_component_;
    report_.failure_reason = fatal_reason_;
  }

  ENTK_INFO(uid_) << "run complete: " << report_.tasks_done << " done, "
                  << report_.tasks_failed << " failed, "
                  << report_.resubmissions << " resubmissions";

  // ------------------------------------------------------------- exports
  if (metrics_) obs::fill_span_histograms(trace_, *metrics_);
  try {
    if (!config_.obs.trace_out.empty()) {
      obs::write_chrome_trace(trace_, profiler_->events(),
                              config_.obs.trace_out);
      ENTK_INFO(uid_) << "trace written to " << config_.obs.trace_out;
    }
    if (!config_.obs.metrics_out.empty() && metrics_) {
      metrics_->dump_jsonl(config_.obs.metrics_out, wall_now_us());
      ENTK_INFO(uid_) << "metrics written to " << config_.obs.metrics_out;
    }
  } catch (const std::exception& e) {
    // A failed export must not turn a completed run into a failure.
    ENTK_ERROR(uid_) << "observability export failed: " << e.what();
  }
}

void AppManager::inject_rts_failure() {
  if (exec_manager_) exec_manager_->inject_rts_failure();
}

void AppManager::inject_component_fault(const std::string& component) {
  Component* target = nullptr;
  if (component == "wfprocessor") target = wfprocessor_.get();
  if (component == "synchronizer") target = synchronizer_.get();
  if (component == "exec_manager") target = exec_manager_.get();
  if (!target) {
    throw ValueError(uid_, "component",
                     "wfprocessor | synchronizer | exec_manager");
  }
  target->inject_fault("injected fault in " + component);
}

void AppManager::note_fatal(const std::string& component,
                            const std::string& reason) {
  std::lock_guard<std::mutex> lock(fatal_mutex_);
  if (!fatal_component_.empty()) return;
  fatal_component_ = component;
  fatal_reason_ = reason;
}

void AppManager::cancel() {
  if (wfprocessor_) wfprocessor_->cancel();
}

std::size_t AppManager::tasks_done() const {
  return wfprocessor_ ? wfprocessor_->tasks_done() : 0;
}

std::size_t AppManager::tasks_failed() const {
  return wfprocessor_ ? wfprocessor_->tasks_failed() : 0;
}

std::size_t AppManager::resubmissions() const {
  return wfprocessor_ ? wfprocessor_->resubmissions() : 0;
}

std::size_t AppManager::tasks_recovered() const {
  return wfprocessor_ ? wfprocessor_->tasks_recovered() : 0;
}

int AppManager::rts_restarts() const {
  return exec_manager_ ? exec_manager_->rts_restarts() : 0;
}

int AppManager::component_restarts() const {
  return supervisor_ ? supervisor_->total_restarts() : 0;
}

}  // namespace entk
