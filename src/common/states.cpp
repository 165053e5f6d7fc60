#include "src/common/states.hpp"

#include <string_view>

namespace entk {

const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::Described: return "DESCRIBED";
    case TaskState::Scheduling: return "SCHEDULING";
    case TaskState::Scheduled: return "SCHEDULED";
    case TaskState::Submitting: return "SUBMITTING";
    case TaskState::Submitted: return "SUBMITTED";
    case TaskState::Executed: return "EXECUTED";
    case TaskState::Done: return "DONE";
    case TaskState::Failed: return "FAILED";
    case TaskState::Canceled: return "CANCELED";
  }
  return "UNKNOWN";
}

const char* to_string(StageState s) {
  switch (s) {
    case StageState::Described: return "DESCRIBED";
    case StageState::Scheduling: return "SCHEDULING";
    case StageState::Scheduled: return "SCHEDULED";
    case StageState::Done: return "DONE";
    case StageState::Failed: return "FAILED";
    case StageState::Canceled: return "CANCELED";
  }
  return "UNKNOWN";
}

const char* to_string(PipelineState s) {
  switch (s) {
    case PipelineState::Described: return "DESCRIBED";
    case PipelineState::Scheduling: return "SCHEDULING";
    case PipelineState::Done: return "DONE";
    case PipelineState::Failed: return "FAILED";
    case PipelineState::Canceled: return "CANCELED";
  }
  return "UNKNOWN";
}

const char* to_string(ObjectKind k) {
  switch (k) {
    case ObjectKind::Task: return "task";
    case ObjectKind::Stage: return "stage";
    case ObjectKind::Pipeline: return "pipeline";
  }
  return "unknown";
}

const char* state_name(ObjectKind kind, std::uint8_t state) {
  switch (kind) {
    case ObjectKind::Task:
      if (state <= static_cast<std::uint8_t>(TaskState::Canceled)) {
        return to_string(static_cast<TaskState>(state));
      }
      break;
    case ObjectKind::Stage:
      if (state <= static_cast<std::uint8_t>(StageState::Canceled)) {
        return to_string(static_cast<StageState>(state));
      }
      break;
    case ObjectKind::Pipeline:
      if (state <= static_cast<std::uint8_t>(PipelineState::Canceled)) {
        return to_string(static_cast<PipelineState>(state));
      }
      break;
  }
  return "UNKNOWN";
}

namespace {

std::optional<std::uint8_t> state_from_string(ObjectKind kind,
                                              const std::string& s) {
  for (std::uint8_t i = 0;; ++i) {
    const std::string_view name = state_name(kind, i);
    if (name == "UNKNOWN") return std::nullopt;  // past the last state
    if (s == name) return i;
  }
}

}  // namespace

std::optional<Transition> parse_transition(const std::string& kind,
                                           const std::string& from,
                                           const std::string& to) {
  for (const ObjectKind k :
       {ObjectKind::Task, ObjectKind::Stage, ObjectKind::Pipeline}) {
    if (kind != to_string(k)) continue;
    const auto from_state = state_from_string(k, from);
    const auto to_state = state_from_string(k, to);
    if (!from_state || !to_state) return std::nullopt;
    Transition t;
    t.kind = k;
    t.from = *from_state;
    t.to = *to_state;
    return t;
  }
  return std::nullopt;
}

bool is_final(TaskState s) {
  return s == TaskState::Done || s == TaskState::Failed ||
         s == TaskState::Canceled;
}

bool is_final(StageState s) {
  return s == StageState::Done || s == StageState::Failed ||
         s == StageState::Canceled;
}

bool is_final(PipelineState s) {
  return s == PipelineState::Done || s == PipelineState::Failed ||
         s == PipelineState::Canceled;
}

bool is_valid_transition(TaskState from, TaskState to) {
  if (from == to) return false;
  // Any live state may be canceled.
  if (to == TaskState::Canceled) return !is_final(from);
  // Resubmission of failed tasks: Failed -> Described.
  if (from == TaskState::Failed) return to == TaskState::Described;
  if (is_final(from)) return false;
  // A task may fail at any point after it has been picked up for scheduling.
  if (to == TaskState::Failed) return from != TaskState::Described;
  // Done is reached only from Executed.
  if (to == TaskState::Done) return from == TaskState::Executed;
  // Otherwise the lifecycle is strictly linear.
  return static_cast<int>(to) == static_cast<int>(from) + 1;
}

bool is_valid_transition(StageState from, StageState to) {
  if (from == to) return false;
  if (to == StageState::Canceled) return !is_final(from);
  if (from == StageState::Failed) return to == StageState::Described;
  if (is_final(from)) return false;
  if (to == StageState::Failed) return from != StageState::Described;
  if (to == StageState::Done) return from == StageState::Scheduled;
  return static_cast<int>(to) == static_cast<int>(from) + 1;
}

bool is_valid_transition(PipelineState from, PipelineState to) {
  if (from == to) return false;
  if (to == PipelineState::Canceled) return !is_final(from);
  if (from == PipelineState::Failed) return to == PipelineState::Described;
  if (is_final(from)) return false;
  if (to == PipelineState::Failed) return from != PipelineState::Described;
  if (to == PipelineState::Done) return from == PipelineState::Scheduling;
  return static_cast<int>(to) == static_cast<int>(from) + 1;
}

std::vector<TaskState> next_states(TaskState from) {
  std::vector<TaskState> out;
  for (int i = 0; i <= static_cast<int>(TaskState::Canceled); ++i) {
    const auto to = static_cast<TaskState>(i);
    if (is_valid_transition(from, to)) out.push_back(to);
  }
  return out;
}

}  // namespace entk
