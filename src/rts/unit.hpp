// Compute-unit types exchanged between the workload layer and the RTS.
//
// EnTK translates every Task into an RTS-specific unit (paper §II-B-3,
// "translate tasks from and to RTS-specific objects"). A unit carries the
// resource request, an execution-duration model (for simulated executables
// such as sleep/mdrun/Specfem) and/or a real callable (for workloads that
// compute actual results, e.g. the AnEn kernels), plus staging directives.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/states.hpp"
#include "src/json/json.hpp"
#include "src/saga/stager.hpp"

namespace entk::rts {

struct TaskUnit {
  std::string uid;            ///< EnTK task uid (round-trips through the RTS)
  std::uint32_t id = kNoId;   ///< the task's registry id: workers sync by it
  std::string name;
  std::string executable;     ///< modeled name ("sleep", "mdrun", ...) or an
                              ///< absolute path for real process execution
  std::vector<std::string> arguments;

  int cores = 1;
  int gpus = 0;
  bool exclusive_nodes = false;  ///< request whole nodes (e.g. 384-node runs)

  /// Modeled execution duration in virtual seconds (0 for pure callables).
  double duration_s = 0.0;

  /// Optional real work, run on an agent worker thread; its return value is
  /// the unit's exit code. Completion is the later of the modeled duration
  /// and the callable finishing.
  std::function<int()> callable;

  std::vector<saga::StagingDirective> input_staging;
  std::vector<saga::StagingDirective> output_staging;

  json::Value metadata;  ///< opaque round-trip payload for the upper layer

  /// Serialization for transport through broker queues (callables do not
  /// survive serialization; in-process submission preserves them).
  json::Value to_json() const;
  static TaskUnit from_json(const json::Value& v);
  /// Zero-copy variant: reads a shared message payload in place.
  static TaskUnit from_json(const std::shared_ptr<const json::Value>& v) {
    return from_json(*v);
  }
};

enum class UnitOutcome { Done, Failed, Canceled, Lost };

const char* to_string(UnitOutcome o);

struct UnitResult {
  std::string uid;
  std::string name;
  UnitOutcome outcome = UnitOutcome::Done;
  int exit_code = 0;

  // Virtual-time milestones.
  double submit_t = 0.0;      ///< unit accepted by the RTS
  double sched_t = 0.0;       ///< cores assigned
  double exec_start_t = 0.0;  ///< executor spawned the unit (incl. env setup)
  double exec_end_t = 0.0;
  double done_t = 0.0;        ///< result pushed back to the upper layer

  double staging_in_s = 0.0;
  double staging_out_s = 0.0;

  json::Value metadata;  ///< echoed from the unit

  json::Value to_json() const;
  static UnitResult from_json(const json::Value& v);
  /// Zero-copy variant: reads a shared message payload in place.
  static UnitResult from_json(const std::shared_ptr<const json::Value>& v) {
    return from_json(*v);
  }
};

}  // namespace entk::rts
