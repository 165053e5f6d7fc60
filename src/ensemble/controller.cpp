#include "src/ensemble/controller.hpp"

#include <utility>

#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/common/states.hpp"

namespace entk::ensemble {

json::Value Decision::to_json() const {
  json::Value v;
  v["t_s"] = t_s;
  v["rule"] = rule;
  v["trigger"] = trigger;
  json::Value acts = json::Array{};
  for (const std::string& a : actions) acts.push_back(a);
  v["actions"] = std::move(acts);
  return v;
}

Controller::Controller(ControllerConfig config)
    : Component(config.name, std::make_shared<Profiler>()),
      config_(std::move(config)) {
  open_journal();  // fail fast on an unwritable path
}

void Controller::open_journal() {
  if (config_.journal_path.empty() || journal_) return;
  journal_ = std::make_unique<mq::JournalWriter>(config_.journal_path,
                                                 mq::JournalConfig{});
}

Controller::~Controller() = default;

std::shared_ptr<Controller> Controller::create(ControllerConfig config) {
  return std::shared_ptr<Controller>(new Controller(std::move(config)));
}

void Controller::add_rule(Rule rule) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (rule.name.empty()) {
    rule.name = "rule-" + std::to_string(rules_.size());
  }
  rules_.push_back(std::move(rule));
}

void Controller::run_generator(const PipelinePtr& pipeline,
                               GeneratorPtr generator,
                               std::string stage_prefix) {
  if (!pipeline) throw ValueError(name(), "pipeline", "non-null pipeline");
  if (!generator) throw ValueError(name(), "generator", "non-null generator");
  pipeline->hold_open();

  // Seed batch, appended directly: run() registers pre-run stages itself.
  std::vector<TaskPtr> seed = generator->next(results_, *this);
  if (!seed.empty()) {
    auto stage = std::make_shared<Stage>(stage_prefix + "-0");
    for (TaskPtr& t : seed) stage->add_task(std::move(t));
    pipeline->add_stage(stage);
  }

  // The loop: after every stage of this pipeline completes, ask the
  // generator for the next batch; empty = converged -> finish.
  const std::string puid = pipeline->uid();
  auto iteration = std::make_shared<int>(1);
  Rule r;
  r.name = "generator." + stage_prefix + "." + puid;
  r.when = [puid](const TriggerContext& c) {
    return c.event && c.event->kind == Event::Kind::Stage &&
           c.event->done() && c.event->pipeline == puid;
  };
  r.then = [generator = std::move(generator), puid,
            prefix = std::move(stage_prefix), iteration](Ops& ops) {
    std::vector<TaskPtr> batch = generator->next(ops.results(), ops);
    if (batch.empty()) {
      ops.finish(puid);
      return;
    }
    ops.submit_tasks(puid, prefix + "-" + std::to_string((*iteration)++),
                     std::move(batch));
  };
  add_rule(std::move(r));
}

void Controller::attach(AppManagerConfig& config) {
  auto self = shared_from_this();
  config.adaptive_factory =
      [self](const AdaptiveWiring& wiring) -> std::shared_ptr<Component> {
    self->wire(wiring);
    return self;
  };
}

void Controller::wire(const AdaptiveWiring& wiring) {
  if (!wiring.broker || !wiring.registry || !wiring.wfprocessor ||
      !wiring.clock) {
    throw ValueError(name(), "wiring", "broker, registry, wfprocessor, clock");
  }
  wiring_ = wiring;
  wired_ = true;
  profiler_ = wiring.profiler ? wiring.profiler : profiler_;
  results_.set_metrics(wiring.metrics);
  start_s_ = wiring_.clock->now();
}

void Controller::on_start() {
  if (!wired_) {
    throw StateError(name() +
                     ": not attached — call attach(config) before run()");
  }
  if (metrics()) {
    events_metric_ = &metrics()->counter("ensemble.events");
    fires_metric_ = &metrics()->counter("ensemble.rule_fires");
  }
  open_journal();
  add_worker("rules", [this] { rules_loop(); });
}

void Controller::on_reattach() {
  // Events the dead worker consumed but never acked go back on the queue;
  // rules see at most one replayed event per crash.
  const std::size_t requeued =
      wiring_.broker->requeue_unacked(wiring_.events_queue);
  if (requeued > 0) {
    ENTK_WARN(name()) << "restart: requeued " << requeued
                      << " unacked event(s)";
  }
}

void Controller::rules_loop() {
  while (true) {
    beat();
    // A stop is honoured only once the stream is drained: when AppManager
    // stops the controller, the events of the run's last tasks are already
    // queued, and ResultView, the gauges and the decision journal must see
    // every one of them.
    const bool stopping = stop_requested();
    std::vector<mq::Delivery> deliveries = wiring_.broker->get_batch(
        wiring_.events_queue, 64, stopping ? 0.0 : config_.poll_timeout_s);
    if (stopping && deliveries.empty()) break;
    for (mq::Delivery& d : deliveries) {
      std::optional<Event> event;
      try {
        event = Event::parse(*d.message.payload());
      } catch (const std::exception&) {
        event = std::nullopt;  // garbage on the stream: skip, don't fault
      }
      if (event) {
        ENTK_DEBUG(name()) << "event " << to_string(event->kind) << " "
                           << event->uid << " " << event->outcome;
        if (events_metric_) events_metric_->add(1);
        results_.ingest(*event);
        evaluate(&*event);
      }
      wiring_.broker->ack(wiring_.events_queue, d.delivery_tag);
    }
    // Timer tick: triggers that do not need an event advance here.
    evaluate(nullptr);
  }
  // Clean stop: every decision reaches the disk before stop() returns. A
  // sticky write error throws here and fails the controller.
  if (journal_) {
    journal_->close();
    journal_.reset();
  }
}

void Controller::evaluate(const Event* event) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  const TriggerContext ctx{event, results_, now_s()};
  for (Rule& rule : rules_) {
    if (rule.max_fires >= 0 && rule.fires >= rule.max_fires) continue;
    if (!rule.when || !rule.then) continue;
    bool fired = false;
    try {
      fired = rule.when(ctx);
    } catch (const std::exception& e) {
      throw EnTKError(name() + ": rule " + rule.name +
                      " trigger threw: " + e.what());
    }
    if (!fired) continue;
    ++rule.fires;
    fire(rule, event);
  }
}

void Controller::fire(Rule& rule, const Event* event) {
  Decision decision;
  decision.t_s = now_s();
  decision.rule = rule.name;
  decision.trigger =
      event ? std::string(to_string(event->kind)) + ":" + event->uid + ":" +
                  event->outcome
            : "timer";
  profiler_->record(name(), "rule_fired", rule.name);
  if (fires_metric_) fires_metric_->add(1);

  active_ = &decision;
  try {
    rule.then(*this);
  } catch (const std::exception& e) {
    decision.actions.push_back("error: " + std::string(e.what()));
    active_ = nullptr;
    journal(std::move(decision));
    throw EnTKError(name() + ": rule " + rule.name +
                    " action threw: " + e.what());
  }
  active_ = nullptr;
  journal(std::move(decision));
}

void Controller::journal(Decision decision) {
  decisions_.push_back(std::move(decision));
  // Throws the writer's sticky MqError after a failed flush: the fault
  // surfaces through the rules worker instead of being dropped.
  if (journal_) journal_->append(decisions_.back().to_json().dump());
}

void Controller::record_op(const std::string& description) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (active_) active_->actions.push_back(description);
}

void Controller::require_wired(const char* op) const {
  if (!wired_) {
    throw StateError(name() + ": " + op + " before attach()/run()");
  }
}

// --- Ops -------------------------------------------------------------------

double Controller::now_s() const {
  if (!wired_) return 0.0;
  return wiring_.clock->now() - start_s_;
}

json::Value Controller::param(const std::string& key) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (!params_.is_object() || !params_.contains(key)) return json::Value();
  return params_.at(key);
}

void Controller::set_param(const std::string& key, json::Value value) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  record_op("set_param:" + key);
  params_[key] = std::move(value);
}

void Controller::submit_tasks(const std::string& pipeline_uid,
                              const std::string& stage_name,
                              std::vector<TaskPtr> tasks) {
  require_wired("submit_tasks");
  if (tasks.empty()) return;
  PipelinePtr pipeline = wiring_.registry->pipeline(pipeline_uid);
  if (!pipeline) {
    throw ValueError(name(), "pipeline_uid", "a registered pipeline");
  }
  auto stage = std::make_shared<Stage>(stage_name);
  for (TaskPtr& t : tasks) stage->add_task(std::move(t));
  record_op("submit_tasks:" + stage_name + ":" +
            std::to_string(stage->task_count()));
  ENTK_DEBUG(name()) << "submit " << stage->uid() << " (" << stage_name
                     << ", " << stage->task_count() << " tasks) to "
                     << pipeline_uid;
  // Register before the stage becomes reachable from the enqueue walk, so
  // the Synchronizer can resolve every uid the moment scheduling starts.
  wiring_.registry->add_stage(stage);
  pipeline->add_stage(std::move(stage));
  wiring_.wfprocessor->notify_work();
}

void Controller::add_stage(const std::string& pipeline_uid, StagePtr stage) {
  require_wired("add_stage");
  if (!stage) throw ValueError(name(), "stage", "non-null stage");
  PipelinePtr pipeline = wiring_.registry->pipeline(pipeline_uid);
  if (!pipeline) {
    throw ValueError(name(), "pipeline_uid", "a registered pipeline");
  }
  record_op("add_stage:" + stage->name);
  wiring_.registry->add_stage(stage);
  pipeline->add_stage(std::move(stage));
  wiring_.wfprocessor->notify_work();
}

std::size_t Controller::cancel_group(const std::string& group) {
  require_wired("cancel_group");
  std::vector<std::string> uids;
  for (const PipelinePtr& pipeline : wiring_.registry->pipelines()) {
    for (const StagePtr& stage : pipeline->stages()) {
      for (const TaskPtr& task : stage->tasks()) {
        if (is_final(task->state())) continue;
        if (!task->metadata.is_object() ||
            !task->metadata.contains("ensemble")) {
          continue;
        }
        if (task->metadata.at("ensemble").get_string("group", "") != group) {
          continue;
        }
        uids.push_back(task->uid());
      }
    }
  }
  const std::size_t canceled = wiring_.wfprocessor->cancel_tasks(uids);
  record_op("cancel_group:" + group + ":" + std::to_string(canceled));
  ENTK_INFO(name()) << "cancel_group '" << group << "': " << canceled << "/"
                    << uids.size() << " task(s) canceled";
  return canceled;
}

bool Controller::resize_pilot(int delta_nodes, const std::string& reason) {
  require_wired("resize_pilot");
  bool ok = false;
  if (wiring_.resize) {
    rts::ResizeRequest request;
    request.delta_nodes = delta_nodes;
    request.reason = reason;
    ok = wiring_.resize(request);
  }
  record_op("resize_pilot:" + std::to_string(delta_nodes) + ":" +
            (ok ? "ok" : "rejected"));
  profiler_->record(name(), ok ? "resize_applied" : "resize_rejected",
                    reason);
  return ok;
}

void Controller::finish(const std::string& pipeline_uid) {
  require_wired("finish");
  record_op("finish:" + (pipeline_uid.empty() ? "all" : pipeline_uid));
  for (const PipelinePtr& pipeline : wiring_.registry->pipelines()) {
    if (!pipeline_uid.empty() && pipeline->uid() != pipeline_uid) continue;
    pipeline->release_hold();
  }
  wiring_.wfprocessor->notify_work();
}

// --- introspection ---------------------------------------------------------

std::vector<Decision> Controller::decisions() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return decisions_;
}

std::size_t Controller::decision_count() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return decisions_.size();
}

json::Value Controller::params() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return params_;
}

}  // namespace entk::ensemble
