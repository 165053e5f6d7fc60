#include "src/core/sync.hpp"

#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/core/state_store.hpp"

namespace entk {

// --------------------------------------------------------- ObjectRegistry

template <typename T>
bool ObjectRegistry::register_locked(const std::shared_ptr<T>& object,
                                     ObjectKind kind) {
  const std::uint32_t id = object->id();
  if (id < entries_.size() && entries_[id].object == object) return false;
  const auto next = static_cast<std::uint32_t>(entries_.size());
  if (next == kNoId) throw EnTKError("ObjectRegistry: id space exhausted");
  entries_.push_back({object, kind});
  ids_[object->uid()] = next;
  object->set_id(next);
  return true;
}

void ObjectRegistry::add_pipeline(const PipelinePtr& pipeline) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (register_locked(pipeline, ObjectKind::Pipeline)) {
    pipelines_.push_back(pipeline);
  }
  for (const StagePtr& stage : pipeline->stages()) add_stage_locked(stage);
}

void ObjectRegistry::add_stage(const StagePtr& stage) {
  {
    // Known stages (the common case: WFProcessor re-offers every stage of
    // a pipeline after a hook) cost one shared lock, not a task walk.
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const std::uint32_t id = stage->id();
    if (id < entries_.size() && entries_[id].object == stage) return;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  add_stage_locked(stage);
}

void ObjectRegistry::add_stage_locked(const StagePtr& stage) {
  register_locked(stage, ObjectKind::Stage);
  for (const TaskPtr& task : stage->tasks()) {
    if (register_locked(task, ObjectKind::Task)) ++task_count_;
  }
}

template <typename T>
std::shared_ptr<T> ObjectRegistry::get(std::uint32_t id,
                                       ObjectKind kind) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  if (id >= entries_.size() || entries_[id].kind != kind) return nullptr;
  return std::static_pointer_cast<T>(entries_[id].object);
}

TaskPtr ObjectRegistry::task(std::uint32_t id) const {
  return get<Task>(id, ObjectKind::Task);
}

StagePtr ObjectRegistry::stage(std::uint32_t id) const {
  return get<Stage>(id, ObjectKind::Stage);
}

PipelinePtr ObjectRegistry::pipeline(std::uint32_t id) const {
  return get<Pipeline>(id, ObjectKind::Pipeline);
}

std::uint32_t ObjectRegistry::id_of(const std::string& uid) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = ids_.find(uid);
  return it == ids_.end() ? kNoId : it->second;
}

std::size_t ObjectRegistry::task_count() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return task_count_;
}

std::vector<PipelinePtr> ObjectRegistry::pipelines() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return pipelines_;
}

// ----------------------------------------------------------- Synchronizer

Synchronizer::Synchronizer(mq::BrokerHandlePtr broker, std::string states_queue,
                           ObjectRegistry* registry, StateStore* store,
                           ProfilerPtr profiler)
    : Component("synchronizer", std::move(profiler)),
      broker_(std::move(broker)),
      states_queue_(std::move(states_queue)),
      registry_(registry),
      store_(store) {}

Synchronizer::~Synchronizer() { stop(); }

void Synchronizer::on_start() {
  add_worker("sync", [this] { loop(); });
}

void Synchronizer::on_reattach() {
  // The dead worker may have died between get_batch and ack_batch; put
  // those deliveries back so no transition is lost. Replaying an entry the
  // old worker already applied is rejected by the transition tables.
  if (broker_->has_queue(states_queue_)) {
    broker_->requeue_unacked(states_queue_);
  }
}

void Synchronizer::loop() {
  profiler_->record("synchronizer", "sync_start");
  while (true) {
    beat();
    // Drain vectored: one lock acquisition pulls a whole backlog, one
    // ack_batch releases it. kDrain bounds latency for waiting requesters.
    constexpr std::size_t kDrain = 64;
    const std::vector<mq::Delivery> deliveries =
        broker_->get_batch(states_queue_, kDrain, 0.002);
    if (deliveries.empty()) {
      if (stop_requested()) break;
      continue;
    }
    BusyScope busy(busy_);
    std::vector<std::uint64_t> tags;
    tags.reserve(deliveries.size());
    for (const mq::Delivery& delivery : deliveries) {
      tags.push_back(delivery.delivery_tag);
      try {
        // Shared structured payload: in-process transitions arrive without
        // any serialization; only recovered/raw messages parse here (once).
        process(*delivery.message.payload());
      } catch (const json::ParseError& e) {
        ENTK_WARN("synchronizer") << "rejecting message: " << e.what();
        ++rejected_;
        continue;
      }
    }
    broker_->ack_batch(states_queue_, tags);
  }
  profiler_->record("synchronizer", "sync_stop");
}

namespace {

/// Validate `t` against the object's current state and the transition
/// table, then apply it to the live object.
template <typename Object>
bool advance(Object& object, const Transition& t, const std::string& component) {
  using State = decltype(object.state());
  const auto from = static_cast<State>(t.from);
  const auto to = static_cast<State>(t.to);
  const State current = object.state();
  if (current != from || !is_valid_transition(from, to)) {
    ENTK_WARN("synchronizer")
        << component << ": invalid " << to_string(t.kind) << " transition "
        << to_string(from) << "->" << to_string(to) << " (current "
        << to_string(current) << ") for " << object.uid();
    return false;
  }
  object.set_state(to);
  return true;
}

}  // namespace

void Synchronizer::process(const json::Value& msg) {
  // One wire form (SyncClient): {"ids": [...], kind, from, to, component,
  // corr, reply_to?}. Kind and states are parsed once per message; the ids
  // then become typed transitions, applied as one uninterrupted sequence
  // (this thread is the only state writer), each validated and committed
  // individually, and the whole message is confirmed with one reply.
  const std::string component = msg.get_string("component", "?");
  const std::uint16_t component_id = store_->intern(component);
  const std::optional<Transition> shape =
      parse_transition(msg.get_string("kind", ""), msg.get_string("from", ""),
                       msg.get_string("to", ""));
  if (!shape) {
    ENTK_WARN("synchronizer") << component << ": unknown transition in "
                              << msg.dump();
  }
  std::size_t applied = 0;
  std::size_t total = 0;
  if (msg.contains("ids") && msg.at("ids").is_array()) {
    for (const json::Value& id : msg.at("ids").as_array()) {
      ++total;
      bool ok = false;
      if (shape && id.is_int() && id.as_int() >= 0 && id.as_int() < kNoId) {
        Transition t = *shape;
        t.id = static_cast<std::uint32_t>(id.as_int());
        try {
          ok = apply(t, component_id, component);
        } catch (const EnTKError& e) {
          ENTK_WARN("synchronizer") << "rejecting transition: " << e.what();
        }
      }
      if (ok) {
        ++applied;
        ++processed_;
      } else {
        ++rejected_;
      }
    }
  }
  if (total == 0) ++rejected_;  // no ids at all: a malformed request
  const std::string reply_to = msg.get_string("reply_to", "");
  if (!reply_to.empty()) {
    json::Value ack;
    ack["corr"] = msg.get_int("corr", 0);
    ack["applied"] = applied;
    ack["ok"] = total > 0 && applied == total;
    try {
      // The requester reads the reply off its ack queue; the publish
      // confirm tells this thread nothing, so it is not awaited.
      broker_->publish_unconfirmed(
          reply_to, mq::Message::json_body(reply_to, std::move(ack)));
    } catch (const MqError&) {
      // Requester is gone; nothing to do.
    }
  }
}

bool Synchronizer::apply(const Transition& t, std::uint16_t component,
                         const std::string& component_name) {
  // The StateStore record (seq, wall time, subject, states, requester) is
  // the one representation of a commit.
  auto commit = [&](const auto& object) {
    if (!object || !advance(*object, t, component_name)) return false;
    store_->commit(t, object->uid(), component);
    return true;
  };
  switch (t.kind) {
    case ObjectKind::Task: return commit(registry_->task(t.id));
    case ObjectKind::Stage: return commit(registry_->stage(t.id));
    case ObjectKind::Pipeline: return commit(registry_->pipeline(t.id));
  }
  return false;
}

}  // namespace entk
