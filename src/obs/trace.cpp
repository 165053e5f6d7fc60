#include "src/obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/json/json.hpp"

namespace entk::obs {
namespace {

// Indices into the per-task boundary vector; the chain segment
// task_span_names()[i] spans boundary i -> boundary i+1.
enum Boundary {
  kEnqueued = 0,   // wfprocessor task_enqueued
  kSubmitted = 1,  // emgr task_submitted
  kExecStart = 2,  // rts unit_exec_start
  kExecStop = 3,   // rts unit_exec_stop
  kDequeued = 4,   // wfprocessor task_dequeued
  kDone = 5,       // wfprocessor task_done (confirmed DONE commit)
  kBoundaries = 6
};

struct RawTask {
  std::int64_t b[kBoundaries] = {-1, -1, -1, -1, -1, -1};
  UnitVirtualTimes vt;
  bool resolved_done = false;
  int attempts = 0;
};

void stitch_chain(const RawTask& raw, TaskTrace& out) {
  // Boundaries are recorded on different threads; even though wall_now_us
  // is a single steady clock, a boundary can be recorded out of causal
  // order around a queue hop. Clamp each boundary to the running maximum so
  // every emitted span is monotone (dur >= 0).
  const auto& names = task_span_names();
  std::int64_t prev = -1;
  int prev_i = -1;
  for (int i = 0; i < kBoundaries; ++i) {
    if (raw.b[i] < 0) continue;
    const std::int64_t t = std::max(raw.b[i], prev);
    if (prev_i >= 0) {
      // A gap (missing interior boundary) merges segments into the span
      // named after the first covered segment.
      out.spans.push_back({names[static_cast<std::size_t>(prev_i)], prev, t});
    }
    prev = t;
    prev_i = i;
  }
}

}  // namespace

Trace build_trace(const std::vector<ProfileEvent>& events,
                  const TraceLinks& links) {
  Trace trace;
  std::map<std::string, RawTask> raw;

  auto phase = [&trace](const std::string& name) -> PhaseSpan& {
    for (PhaseSpan& p : trace.phases) {
      if (p.name == name) return p;
    }
    trace.phases.push_back({name, -1, -1});
    return trace.phases.back();
  };

  for (const ProfileEvent& e : events) {
    const double v = e.virtual_s;
    // --- per-task causal chain (wall clock) -----------------------------
    if (e.event == "task_enqueued") {
      RawTask& t = raw[e.uid];
      t.b[kEnqueued] = e.wall_us;
      // A resubmitted task restarts its chain: forget the dead attempt's
      // later boundaries so the chain reflects the attempt that resolved.
      for (int i = kSubmitted; i < kBoundaries; ++i) t.b[i] = -1;
      ++t.attempts;
    } else if (e.event == "task_submitted") {
      raw[e.uid].b[kSubmitted] = e.wall_us;
    } else if (e.event == "unit_exec_start") {
      RawTask& t = raw[e.uid];
      t.b[kExecStart] = e.wall_us;
      if (v >= 0) {
        t.vt.exec_start = v;
        if (trace.first_exec_v < 0 || v < trace.first_exec_v)
          trace.first_exec_v = v;
      }
    } else if (e.event == "unit_exec_stop") {
      RawTask& t = raw[e.uid];
      t.b[kExecStop] = e.wall_us;
      if (v >= 0) {
        t.vt.exec_end = v;
        if (v > trace.last_exec_v) trace.last_exec_v = v;
      }
    } else if (e.event == "task_dequeued") {
      raw[e.uid].b[kDequeued] = e.wall_us;
    } else if (e.event == "task_done") {
      RawTask& t = raw[e.uid];
      t.b[kDone] = e.wall_us;
      t.resolved_done = true;
    }
    // --- virtual-time unit view (paper overhead inputs) -----------------
    else if (e.event == "unit_received") {
      if (v >= 0) raw[e.uid].vt.received = v;
    } else if (e.event == "unit_done") {
      if (v >= 0) raw[e.uid].vt.done = v;
    } else if (e.event == "unit_stage_in_start") {
      if (v >= 0) {
        raw[e.uid].vt.stage_in_start = v;
        if (trace.first_stage_v < 0 || v < trace.first_stage_v)
          trace.first_stage_v = v;
      }
    } else if (e.event == "unit_stage_in_stop") {
      if (v >= 0) {
        UnitVirtualTimes& vt = raw[e.uid].vt;
        if (vt.stage_in_start >= 0) vt.stage_in += v - vt.stage_in_start;
        if (v > trace.last_stage_v) trace.last_stage_v = v;
      }
    } else if (e.event == "unit_stage_out_start") {
      if (v >= 0) {
        raw[e.uid].vt.stage_out_start = v;
        if (trace.first_stage_v < 0 || v < trace.first_stage_v)
          trace.first_stage_v = v;
      }
    } else if (e.event == "unit_stage_out_stop") {
      if (v >= 0) {
        UnitVirtualTimes& vt = raw[e.uid].vt;
        if (vt.stage_out_start >= 0) vt.stage_out += v - vt.stage_out_start;
        if (v > trace.last_stage_v) trace.last_stage_v = v;
      }
    }
    // --- run-level virtual spans ----------------------------------------
    else if (e.event == "rts_init_start") {
      if (v >= 0 && trace.rts_init_start_v < 0) trace.rts_init_start_v = v;
    } else if (e.event == "rts_init_stop") {
      if (v >= 0) trace.rts_init_stop_v = v;
    } else if (e.event == "rts_teardown_start") {
      if (v >= 0 && trace.rts_teardown_start_v < 0)
        trace.rts_teardown_start_v = v;
    } else if (e.event == "rts_teardown_stop") {
      if (v >= 0) trace.rts_teardown_stop_v = v;
    }
    // --- run-level wall phases ------------------------------------------
    else if (e.event == "amgr_setup_start") {
      phase("setup").start_us = e.wall_us;
    } else if (e.event == "amgr_setup_stop") {
      phase("setup").end_us = e.wall_us;
    } else if (e.event == "resource_acquire_start") {
      phase("resource_acquire").start_us = e.wall_us;
    } else if (e.event == "resource_acquire_stop") {
      phase("resource_acquire").end_us = e.wall_us;
    } else if (e.event == "amgr_run_start") {
      phase("run").start_us = e.wall_us;
    } else if (e.event == "amgr_run_stop") {
      phase("run").end_us = e.wall_us;
    } else if (e.event == "amgr_teardown_start") {
      phase("teardown").start_us = e.wall_us;
    } else if (e.event == "amgr_teardown_stop") {
      phase("teardown").end_us = e.wall_us;
    }
    // --- stage / pipeline scopes ----------------------------------------
    else if (e.event == "stage_schedule_start") {
      ScopeSpan& s = trace.stages[e.uid];
      s.uid = e.uid;
      if (s.start_us < 0) s.start_us = e.wall_us;
    } else if (e.event == "stage_done") {
      ScopeSpan& s = trace.stages[e.uid];
      s.uid = e.uid;
      s.end_us = e.wall_us;
    } else if (e.event == "pipeline_done") {
      ScopeSpan& p = trace.pipelines[e.uid];
      p.uid = e.uid;
      p.end_us = e.wall_us;
    }
  }

  // Materialize the per-task chains and attach parent links.
  for (auto& [uid, r] : raw) {
    TaskTrace t;
    t.uid = uid;
    t.vt = r.vt;
    t.resolved_done = r.resolved_done;
    t.attempts = r.attempts;
    stitch_chain(r, t);
    const auto stage_it = links.task_stage.find(uid);
    if (stage_it != links.task_stage.end()) {
      t.stage_uid = stage_it->second;
      trace.stages[t.stage_uid].uid = t.stage_uid;
      const auto pipe_it = links.stage_pipeline.find(t.stage_uid);
      if (pipe_it != links.stage_pipeline.end()) {
        t.pipeline_uid = pipe_it->second;
      }
    }
    trace.tasks.emplace(uid, std::move(t));
  }

  // Stage -> pipeline links; pipelines start when their first stage does.
  for (auto& [stage_uid, stage] : trace.stages) {
    const auto it = links.stage_pipeline.find(stage_uid);
    if (it == links.stage_pipeline.end()) continue;
    stage.parent = it->second;
    ScopeSpan& pipeline = trace.pipelines[it->second];
    pipeline.uid = it->second;
    if (stage.start_us >= 0 &&
        (pipeline.start_us < 0 || stage.start_us < pipeline.start_us)) {
      pipeline.start_us = stage.start_us;
    }
  }
  return trace;
}

Trace build_trace(const Profiler& profiler, const TraceLinks& links) {
  return build_trace(profiler.events(), links);
}

// ----------------------------------------------------------- exporters --

namespace {

/// Top-level key of the raw event rows in the trace file.
constexpr const char* kRawEventsKey = "entkEvents";

void emit_complete(std::FILE* f, bool& first, const std::string& name,
                   const char* cat, int pid, int tid, std::int64_t start_us,
                   std::int64_t end_us, const std::string& arg_uid = "") {
  if (start_us < 0 || end_us < start_us) return;
  std::fprintf(f,
               "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
               "\"ts\":%lld,\"dur\":%lld,\"pid\":%d,\"tid\":%d",
               first ? "" : ",", json::escape(name).c_str(), cat,
               static_cast<long long>(start_us),
               static_cast<long long>(end_us - start_us), pid, tid);
  if (!arg_uid.empty()) {
    std::fprintf(f, ",\"args\":{\"uid\":\"%s\"}",
                 json::escape(arg_uid).c_str());
  }
  std::fputc('}', f);
  first = false;
}

void emit_metadata(std::FILE* f, bool& first, const char* what, int pid,
                   int tid, const std::string& label) {
  std::fprintf(f,
               "%s\n{\"name\":\"%s\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,"
               "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
               first ? "" : ",", what, pid, tid,
               json::escape(label).c_str());
  first = false;
}

}  // namespace

void write_chrome_trace(const Trace& trace,
                        const std::vector<ProfileEvent>& events,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw EnTKError("write_chrome_trace: cannot open " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;

  // pid 0 = the run scope; pid 1..N = pipelines (sorted by uid).
  std::map<std::string, int> pipeline_pid;
  for (const auto& [uid, p] : trace.pipelines) {
    (void)p;
    pipeline_pid.emplace(uid, static_cast<int>(pipeline_pid.size()) + 1);
  }
  auto pid_of = [&pipeline_pid](const std::string& pipeline_uid) {
    const auto it = pipeline_pid.find(pipeline_uid);
    return it == pipeline_pid.end() ? 0 : it->second;
  };

  emit_metadata(f, first, "process_name", 0, 0, "entk.run");
  for (const auto& [uid, pid] : pipeline_pid) {
    emit_metadata(f, first, "process_name", pid, 0, uid);
  }
  const auto& names = task_span_names();
  const std::vector<int> pids = [&] {
    std::vector<int> out{0};
    for (const auto& [uid, pid] : pipeline_pid) {
      (void)uid;
      out.push_back(pid);
    }
    return out;
  }();
  for (const int pid : pids) {
    emit_metadata(f, first, "thread_name", pid, 0, "run");
    emit_metadata(f, first, "thread_name", pid, 1, "stages");
    for (std::size_t i = 0; i < names.size(); ++i) {
      emit_metadata(f, first, "thread_name", pid, static_cast<int>(i) + 2,
                    "task." + names[i]);
    }
  }

  for (const PhaseSpan& p : trace.phases) {
    emit_complete(f, first, p.name, "run", 0, 0, p.start_us, p.end_us);
  }
  for (const auto& [uid, p] : trace.pipelines) {
    emit_complete(f, first, uid, "pipeline", pid_of(uid), 1, p.start_us,
                  p.end_us);
  }
  for (const auto& [uid, s] : trace.stages) {
    emit_complete(f, first, uid, "stage", pid_of(s.parent), 1, s.start_us,
                  s.end_us);
  }
  for (const auto& [uid, t] : trace.tasks) {
    const int pid = pid_of(t.pipeline_uid);
    for (const TaskSpan& span : t.spans) {
      int tid = 2;
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == span.name) tid = static_cast<int>(i) + 2;
      }
      emit_complete(f, first, span.name, "task", pid, tid, span.start_us,
                    span.end_us, uid);
    }
  }

  std::fprintf(f, "\n],\"%s\":[", kRawEventsKey);
  first = true;
  for (const ProfileEvent& e : events) {
    std::fprintf(f, "%s\n[%lld,%s,\"%s\",\"%s\",\"%s\"]", first ? "" : ",",
                 static_cast<long long>(e.wall_us),
                 json::Value(e.virtual_s).dump().c_str(),
                 json::escape(e.component).c_str(),
                 json::escape(e.event).c_str(), json::escape(e.uid).c_str());
    first = false;
  }
  std::fputs("\n]}\n", f);
  const bool failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || failed) {
    throw EnTKError("write_chrome_trace: cannot write " + path);
  }
}

std::vector<ProfileEvent> read_trace_events(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw EnTKError("read_trace_events: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto malformed = [&path](const std::string& what) {
    return EnTKError("read_trace_events: " + what + " in " + path);
  };
  json::Value doc;
  try {
    doc = json::parse(buffer.str());
  } catch (const json::ParseError& e) {
    throw malformed(e.what());
  }
  if (!doc.is_object() || !doc.contains(kRawEventsKey) ||
      !doc.at(kRawEventsKey).is_array()) {
    throw malformed(std::string("no \"") + kRawEventsKey + "\" array");
  }
  std::vector<ProfileEvent> out;
  const auto bad_row = [&] {
    return malformed("malformed row " + std::to_string(out.size()));
  };
  for (const json::Value& row : doc.at(kRawEventsKey).as_array()) {
    if (!row.is_array() || row.size() != 5) throw bad_row();
    const json::Array& f = row.as_array();
    if (!f[0].is_int() || !f[1].is_number() || !f[2].is_string() ||
        !f[3].is_string() || !f[4].is_string()) {
      throw bad_row();
    }
    out.push_back({f[0].as_int(), f[1].as_double(), f[2].as_string(),
                   f[3].as_string(), f[4].as_string()});
  }
  return out;
}

void fill_span_histograms(const Trace& trace, MetricsRegistry& registry) {
  // Resolve all handles up front: one lookup per span name, not per task.
  std::map<std::string, Histogram*> by_name;
  for (const std::string& name : task_span_names()) {
    by_name[name] = &registry.histogram("span." + name + "_us");
  }
  Histogram& total = registry.histogram("span.total_us");
  for (const auto& [uid, t] : trace.tasks) {
    (void)uid;
    if (t.spans.empty()) continue;
    for (const TaskSpan& span : t.spans) {
      const auto it = by_name.find(span.name);
      if (it != by_name.end()) {
        it->second->observe(static_cast<double>(span.end_us - span.start_us));
      }
    }
    total.observe(static_cast<double>(t.spans.back().end_us -
                                      t.spans.front().start_us));
  }
}

std::string span_latency_table(const MetricsRegistry& registry) {
  std::map<std::string, MetricSnapshot> histograms;
  for (MetricSnapshot& m : registry.snapshot()) {
    if (m.type == "histogram" && m.name.rfind("span.", 0) == 0) {
      histograms.emplace(m.name, std::move(m));
    }
  }
  std::string out =
      "  span            count     p50 (us)     p95 (us)     max (us)\n";
  std::vector<std::string> order;
  for (const std::string& name : task_span_names()) {
    order.push_back("span." + name + "_us");
  }
  order.push_back("span.total_us");
  for (const std::string& name : order) {
    const auto it = histograms.find(name);
    if (it == histograms.end()) continue;
    const MetricSnapshot& m = it->second;
    // "span.enqueue_us" -> "enqueue"
    const std::string label = name.substr(5, name.size() - 5 - 3);
    char line[160];
    std::snprintf(line, sizeof(line), "  %-12s %8llu %12.1f %12.1f %12.1f\n",
                  label.c_str(), static_cast<unsigned long long>(m.count),
                  m.quantile(0.50), m.quantile(0.95), m.max);
    out += line;
  }
  return out;
}

}  // namespace entk::obs
