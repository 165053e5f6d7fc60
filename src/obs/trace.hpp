// Causal task tracer: the post-hoc half of the observability subsystem.
//
// The raw Profiler (src/common/profiler.hpp) is the single event source
// every component feeds; build_trace() is the one stitcher of its flat
// event log into a causal model:
//
//   - per-task span chains across WFProcessor, the broker queues, the
//     ExecManager and the RTS, keyed by the task uid:
//         enqueue -> schedule -> exec -> sync -> done
//     (wall-clock microseconds; each boundary is clamped monotone, since
//     the underlying events are recorded from different threads),
//   - stage and pipeline scope spans with parent/child links,
//   - run-level phase spans (setup / run / teardown, resource acquisition)
//     and the virtual-time aggregates (RTS init/teardown, exec makespan,
//     staging) that OverheadReport derives the paper's seven overhead
//     categories from.
//
// Exporters: write_chrome_trace() writes the one trace file: Chrome
// trace_event JSON loadable in chrome://tracing or Perfetto that also
// carries the raw events, which read_trace_events() reads back for
// post-mortem stitching; fill_span_histograms() feeds a MetricsRegistry so
// span latencies get p50/p95/max summaries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/profiler.hpp"
#include "src/obs/metrics.hpp"

namespace entk::obs {

/// Names of the per-task causal chain segments, in order.
/// enqueue : Pending-queue publish -> Emgr pickup+submission
/// schedule: Emgr submission -> RTS starts executing the unit
/// exec    : unit execution on the RTS
/// sync    : execution end -> Dequeue drains the Done-queue result
/// done    : Dequeue pickup -> confirmed DONE state commit
inline const std::vector<std::string>& task_span_names() {
  static const std::vector<std::string> names = {"enqueue", "schedule", "exec",
                                                 "sync", "done"};
  return names;
}

/// One wall-clock segment of a task's causal chain.
struct TaskSpan {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
};

/// Virtual-time view of one unit's life inside the RTS, read by the
/// OverheadReport and RunAnalysis. -1 = never observed.
struct UnitVirtualTimes {
  double received = -1, exec_start = -1, exec_end = -1, done = -1;
  double stage_in = 0, stage_out = 0;          // accumulated durations
  double stage_in_start = -1, stage_out_start = -1;

  /// exec_start -> exec_end (0 when the unit never finished executing).
  double exec_s() const {
    return exec_start >= 0 && exec_end >= exec_start ? exec_end - exec_start
                                                     : 0.0;
  }
  /// Wait between arriving at the agent and starting execution, staging
  /// excluded (scheduling + dispatch + core wait); 0 when never started.
  double queue_wait() const {
    if (received < 0 || exec_start < received) return 0.0;
    return std::max(0.0, exec_start - received - stage_in);
  }
};

struct TaskTrace {
  std::string uid;
  std::string stage_uid;     ///< from TraceLinks ("" when unknown)
  std::string pipeline_uid;  ///< from TraceLinks ("" when unknown)
  std::vector<TaskSpan> spans;  ///< causal chain, monotone, possibly partial
  UnitVirtualTimes vt;
  bool resolved_done = false;  ///< a confirmed DONE commit was traced
  int attempts = 0;            ///< enqueue events seen (resubmissions > 1)
};

/// Stage / pipeline scope span (wall us). -1 = boundary never observed.
struct ScopeSpan {
  std::string uid;
  std::string parent;  ///< pipeline uid for stages, "" for pipelines
  std::int64_t start_us = -1;
  std::int64_t end_us = -1;
};

/// Run-level phase (amgr_setup, amgr_run, amgr_teardown, resource_acquire).
struct PhaseSpan {
  std::string name;
  std::int64_t start_us = -1;
  std::int64_t end_us = -1;
};

/// Parent links the flat event log cannot express; supplied by the caller
/// (AppManager walks its ObjectRegistry). All maps may be empty.
struct TraceLinks {
  std::map<std::string, std::string> task_stage;
  std::map<std::string, std::string> stage_pipeline;
};

struct Trace {
  std::vector<PhaseSpan> phases;
  std::map<std::string, TaskTrace> tasks;
  std::map<std::string, ScopeSpan> stages;
  std::map<std::string, ScopeSpan> pipelines;

  // Virtual-time aggregates (paper overhead inputs; -1/-inf = absent).
  double rts_init_start_v = -1, rts_init_stop_v = -1;
  double rts_teardown_start_v = -1, rts_teardown_stop_v = -1;
  double first_exec_v = -1, last_exec_v = -1;
  double first_stage_v = -1, last_stage_v = -1;

  double rts_init_s() const {
    return (rts_init_start_v >= 0 && rts_init_stop_v >= rts_init_start_v)
               ? rts_init_stop_v - rts_init_start_v
               : 0.0;
  }
  double rts_teardown_s() const {
    return (rts_teardown_start_v >= 0 &&
            rts_teardown_stop_v >= rts_teardown_start_v)
               ? rts_teardown_stop_v - rts_teardown_start_v
               : 0.0;
  }
  double exec_span_s() const {
    return (first_exec_v >= 0 && last_exec_v >= first_exec_v)
               ? last_exec_v - first_exec_v
               : 0.0;
  }
  double staging_span_s() const {
    return (first_stage_v >= 0 && last_stage_v >= first_stage_v)
               ? last_stage_v - first_stage_v
               : 0.0;
  }
};

/// Stitch a trace out of a flat event log. Tolerates partial logs: absent
/// events simply leave the corresponding spans/aggregates unset.
Trace build_trace(const std::vector<ProfileEvent>& events,
                  const TraceLinks& links = {});
Trace build_trace(const Profiler& profiler, const TraceLinks& links = {});

/// Write the trace file: Chrome trace_event JSON ("X" complete events +
/// "M" metadata under "traceEvents"), loadable in chrome://tracing /
/// Perfetto, one pid per pipeline, one tid lane per chain segment. The
/// raw `events` follow in record order under "entkEvents", one
/// [wall_us, virtual_s, component, event, uid] row each (trace viewers
/// ignore unknown top-level keys). Throws EnTKError naming `path` when the
/// file cannot be opened or written.
void write_chrome_trace(const Trace& trace,
                        const std::vector<ProfileEvent>& events,
                        const std::string& path);

/// Read the raw events back from a file written by write_chrome_trace, in
/// record order. Strict: throws EnTKError on an unreadable file, invalid
/// JSON, a missing "entkEvents" array or a malformed row.
std::vector<ProfileEvent> read_trace_events(const std::string& path);

/// Record every task span's duration into `registry` histograms named
/// "span.<name>_us", plus "span.total_us" for the whole chain.
void fill_span_histograms(const Trace& trace, MetricsRegistry& registry);

/// Aligned per-span latency table (count / p50 / p95 / max in us) over the
/// "span.*_us" histograms of `registry` — the `--summarize` output.
std::string span_latency_table(const MetricsRegistry& registry);

}  // namespace entk::obs
