// Event profiler: the one event stream every component records into.
//
// Every component records named events with a wall-clock microsecond
// timestamp (and, where meaningful, a virtual-time annotation). The
// profiler only records; obs::build_trace (src/obs/trace.hpp) stitches the
// log into the causal trace that the OverheadReport, RunAnalysis, the span
// histograms and the trace file are all derived from.
//
// Component and event names are interned in a small table, so a recorded
// event is compact; ProfileEvent strings are rendered only by events().
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace entk {

struct ProfileEvent {
  std::int64_t wall_us = 0;   ///< wall time of the event (process epoch)
  double virtual_s = -1.0;    ///< virtual time, or -1 when not applicable
  std::string component;      ///< emitting component, e.g. "wfprocessor"
  std::string event;          ///< event name, e.g. "enqueue_task"
  std::string uid;            ///< subject uid, may be empty
};

/// Thread-safe append-only event recorder.
class Profiler {
 public:
  void record(std::string_view component, std::string_view event,
              std::string_view uid = {}, double virtual_s = -1.0);

  /// Snapshot of all recorded events, in record order.
  std::vector<ProfileEvent> events() const;

  /// Number of recorded events.
  std::size_t size() const;

  void clear();

 private:
  /// A recorded event: `component` and `event` index names_.
  struct Event {
    std::int64_t wall_us = 0;
    double virtual_s = -1.0;
    std::uint32_t component = 0;
    std::uint32_t event = 0;
    std::string uid;
  };
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::uint32_t intern_locked(std::string_view name);

  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>
      name_ids_;
};

using ProfilerPtr = std::shared_ptr<Profiler>;

}  // namespace entk
