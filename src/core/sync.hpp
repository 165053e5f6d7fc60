// State-synchronization protocol (paper Fig 2, messages 6 and 7).
//
// Every component that wants to advance a task/stage/pipeline state pushes
// a transition message to the AppManager's "states" queue; the Synchronizer
// (a subcomponent of AppManager) validates it against the transition
// tables, applies it to the live object, commits it to the transactional
// StateStore, and — when the requester asked for one — acknowledges on the
// requester's private ack queue. This makes AppManager the only stateful
// component: everyone else only holds queue handles and local bookkeeping.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/busy.hpp"
#include "src/common/clock.hpp"
#include "src/common/component.hpp"
#include "src/common/profiler.hpp"
#include "src/core/pipeline.hpp"
#include "src/mq/channel.hpp"
#include "src/worker/sync_client.hpp"

namespace entk {

/// The live PST objects of one application; owned by AppManager, shared
/// with components. Registration gives every task, stage and pipeline the
/// next dense id of one id space (its `id()`), so a per-transition lookup
/// is a vector index; the uid -> id map serves recovery and the wire
/// boundary. Read-mostly after setup, so reads take shared locks.
class ObjectRegistry {
 public:
  /// Register a pipeline with its stages and tasks. Idempotent per object.
  void add_pipeline(const PipelinePtr& pipeline);
  /// Register a stage added at runtime (adaptive pipelines) with its
  /// tasks. Idempotent, so concurrent registrars of one stage agree on its
  /// ids; a stage already registered here returns under a shared lock.
  void add_stage(const StagePtr& stage);

  /// nullptr when `id` is out of range or names an object of another kind.
  TaskPtr task(std::uint32_t id) const;
  StagePtr stage(std::uint32_t id) const;
  PipelinePtr pipeline(std::uint32_t id) const;

  /// Id registered for `uid`; kNoId when unknown.
  std::uint32_t id_of(const std::string& uid) const;
  TaskPtr task(const std::string& uid) const { return task(id_of(uid)); }
  StagePtr stage(const std::string& uid) const { return stage(id_of(uid)); }
  PipelinePtr pipeline(const std::string& uid) const {
    return pipeline(id_of(uid));
  }

  std::size_t task_count() const;
  /// Registered pipelines, in registration order.
  std::vector<PipelinePtr> pipelines() const;

 private:
  struct Entry {
    std::shared_ptr<void> object;
    ObjectKind kind;
  };
  template <typename T>
  std::shared_ptr<T> get(std::uint32_t id, ObjectKind kind) const;
  /// Assign `object` the next id unless it is already registered here.
  template <typename T>
  bool register_locked(const std::shared_ptr<T>& object, ObjectKind kind);
  void add_stage_locked(const StagePtr& stage);

  mutable std::shared_mutex mutex_;
  std::vector<Entry> entries_;  ///< indexed by id
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<PipelinePtr> pipelines_;
  std::size_t task_count_ = 0;
};

class StateStore;

/// AppManager-side synchronizer: a supervised Component with one "sync"
/// worker consuming the states queue. Drains the backlog before honoring a
/// stop request; on restart-after-fault, requeues any delivery the dead
/// worker left unacked (already-applied transitions in it are rejected by
/// the transition tables, so replay is idempotent).
class Synchronizer : public Component {
 public:
  Synchronizer(mq::BrokerHandlePtr broker, std::string states_queue,
               ObjectRegistry* registry, StateStore* store,
               ProfilerPtr profiler);
  ~Synchronizer() override;

  BusyAccumulator& busy() { return busy_; }
  std::size_t processed() const { return processed_.load(); }
  std::size_t rejected() const { return rejected_.load(); }

 protected:
  void on_start() override;
  void on_reattach() override;

 private:
  void loop();
  void process(const json::Value& msg);
  /// Apply one transition; returns false when invalid.
  bool apply(const Transition& t, std::uint16_t component,
             const std::string& component_name);

  mq::BrokerHandlePtr broker_;
  const std::string states_queue_;
  ObjectRegistry* registry_;
  StateStore* store_;

  std::atomic<std::size_t> processed_{0};
  std::atomic<std::size_t> rejected_{0};
  BusyAccumulator busy_;
};

}  // namespace entk
