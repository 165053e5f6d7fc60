// State machines for tasks, stages and pipelines (PST model, paper §II-B-3).
//
// The toolkit tracks every PST object through an explicit linear lifecycle
// plus three terminal states. All state changes flow through the
// Synchronizer, which validates them against the transition tables defined
// here before committing them to the AppManager's state store.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace entk {

/// Lifecycle of a Task. Mirrors the reference implementation:
/// the WFProcessor moves tasks Described -> Scheduling -> Scheduled when
/// enqueueing; the ExecManager moves them Submitting -> Submitted ->
/// Executed while the RTS runs them; the Dequeue subcomponent resolves them
/// to Done / Failed / Canceled from the RTS return code.
enum class TaskState : std::uint8_t {
  Described = 0,
  Scheduling,
  Scheduled,
  Submitting,
  Submitted,
  Executed,
  Done,
  Failed,
  Canceled,
};

/// Lifecycle of a Stage: a stage is Scheduled when its tasks have been
/// queued for execution and Done/Failed when all its tasks have resolved.
enum class StageState : std::uint8_t {
  Described = 0,
  Scheduling,
  Scheduled,
  Done,
  Failed,
  Canceled,
};

/// Lifecycle of a Pipeline: Scheduling while any of its stages still has
/// work, then a terminal state.
enum class PipelineState : std::uint8_t {
  Described = 0,
  Scheduling,
  Done,
  Failed,
  Canceled,
};

const char* to_string(TaskState s);
const char* to_string(StageState s);
const char* to_string(PipelineState s);

/// The three PST object kinds a state transition can address.
enum class ObjectKind : std::uint8_t { Task = 0, Stage, Pipeline };

const char* to_string(ObjectKind k);  ///< "task" | "stage" | "pipeline"

/// Name of the raw state value `state` of `kind` ("UNKNOWN" when out of
/// range).
const char* state_name(ObjectKind kind, std::uint8_t state);

/// Dense id the ObjectRegistry assigns every registered task, stage and
/// pipeline (one id space for all three kinds); kNoId before registration.
inline constexpr std::uint32_t kNoId = 0xFFFFFFFFu;

/// One state transition of one PST object: the typed record the sync
/// protocol carries, the Synchronizer applies and the StateStore commits.
/// `from`/`to` hold the TaskState/StageState/PipelineState value of `kind`.
struct Transition {
  std::uint32_t id = kNoId;
  ObjectKind kind = ObjectKind::Task;
  std::uint8_t from = 0;
  std::uint8_t to = 0;

  Transition() = default;
  Transition(std::uint32_t id, TaskState from, TaskState to)
      : Transition(id, ObjectKind::Task, from, to) {}
  Transition(std::uint32_t id, StageState from, StageState to)
      : Transition(id, ObjectKind::Stage, from, to) {}
  Transition(std::uint32_t id, PipelineState from, PipelineState to)
      : Transition(id, ObjectKind::Pipeline, from, to) {}

 private:
  template <typename State>
  Transition(std::uint32_t id, ObjectKind kind, State from, State to)
      : id(id),
        kind(kind),
        from(static_cast<std::uint8_t>(from)),
        to(static_cast<std::uint8_t>(to)) {}
};

/// Parse kind and state names into a Transition (id kNoId); nullopt when
/// any name is unknown.
std::optional<Transition> parse_transition(const std::string& kind,
                                           const std::string& from,
                                           const std::string& to);

/// True when `s` is Done, Failed or Canceled.
bool is_final(TaskState s);
bool is_final(StageState s);
bool is_final(PipelineState s);

/// Transition validity. The machines are linear with three terminal states;
/// Failed tasks may additionally be re-described (Failed -> Described) to
/// support resubmission without restarting completed work (paper §II-A),
/// and any non-final state may transition to Canceled.
bool is_valid_transition(TaskState from, TaskState to);
bool is_valid_transition(StageState from, StageState to);
bool is_valid_transition(PipelineState from, PipelineState to);

/// All states reachable from `from` in one hop, in enum order.
std::vector<TaskState> next_states(TaskState from);

}  // namespace entk
