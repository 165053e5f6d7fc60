// Observability subsystem tests: metrics registry primitives, the causal
// task tracer, the Chrome trace exporter, and an end-to-end integration
// run asserting every completed task carries a full enqueue -> done span
// chain in the exported trace.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/analytics/analysis.hpp"
#include "src/core/app_manager.hpp"
#include "src/json/json.hpp"

namespace entk {
namespace {

std::string fresh_dir() {
  const std::string dir = ::testing::TempDir() + "/entk_obs_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(wall_now_us());
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, CounterSumsAcrossThreads) {
  obs::Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), 80000u);
  c.add(5);
  EXPECT_EQ(c.value(), 80005u);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Gauge g;
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
}

TEST(Metrics, HistogramBucketsCountSumMax) {
  obs::Histogram h({10.0, 100.0, 1000.0});
  h.observe(5.0);     // bucket 0 (<= 10)
  h.observe(50.0);    // bucket 1
  h.observe(500.0);   // bucket 2
  h.observe(5000.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 5555.0, 0.01);
  EXPECT_NEAR(h.max(), 5000.0, 0.01);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  for (const std::uint64_t b : buckets) EXPECT_EQ(b, 1u);
}

TEST(Metrics, SnapshotQuantilesInterpolate) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {10.0, 20.0, 30.0, 40.0});
  // 100 samples spread uniformly over (0, 40].
  for (int i = 1; i <= 100; ++i) h.observe(i * 0.4);
  for (const obs::MetricSnapshot& m : reg.snapshot()) {
    ASSERT_EQ(m.name, "lat");
    EXPECT_EQ(m.count, 100u);
    // Uniform mass: each quantile lands near q * 40, within a bucket width.
    EXPECT_NEAR(m.quantile(0.50), 20.0, 10.0);
    EXPECT_NEAR(m.quantile(0.95), 38.0, 10.0);
    EXPECT_NEAR(m.quantile(1.0), 40.0, 10.0);
    // The top quantile never exceeds the recorded max.
    EXPECT_LE(m.quantile(1.0), m.max + 1e-9);
  }
}

TEST(Metrics, QuantileOfOverflowBucketIsMax) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("over", {10.0});
  h.observe(123456.0);  // overflow only
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_NEAR(snap[0].quantile(0.5), 123456.0, 0.01);
  EXPECT_EQ(snap[0].quantile(0.5), snap[0].max);
}

TEST(Metrics, RegistryHandlesAreStable) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);  // resolve-once handles stay valid
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  reg.gauge("g").set(7);
  reg.histogram("h").observe(1.0);
  EXPECT_EQ(reg.snapshot().size(), 3u);
}

TEST(Metrics, MaybeSnapshotIsRateLimited) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(1);
  reg.set_snapshot_interval(1.0);  // 1 s
  const std::int64_t t0 = 10'000'000;
  reg.maybe_snapshot(t0);
  reg.maybe_snapshot(t0 + 100);       // inside the interval: dropped
  reg.maybe_snapshot(t0 + 500'000);   // still inside: dropped
  reg.maybe_snapshot(t0 + 1'500'000); // past the interval: taken
  EXPECT_EQ(reg.history().size(), 2u);
  EXPECT_EQ(reg.history()[0].label, "periodic");
}

TEST(Metrics, DumpJsonlRoundTripsThroughParser) {
  obs::MetricsRegistry reg;
  reg.counter("mq.published").add(12);
  reg.gauge("mq.ready.q.pending").set(3);
  obs::Histogram& h = reg.histogram("mq.publish_us");
  h.observe(4.2);
  h.observe(170.0);
  reg.take_snapshot(1000, "mid");

  const std::string path = fresh_dir() + "/metrics.jsonl";
  reg.dump_jsonl(path, 2000);

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0, histogram_lines = 0;
  bool saw_counter = false;
  while (std::getline(in, line)) {
    ++lines;
    const json::Value v = json::parse(line);  // throws on malformed JSON
    EXPECT_TRUE(v.contains("wall_us"));
    EXPECT_TRUE(v.contains("name"));
    if (v.at("type").as_string() == "histogram") {
      ++histogram_lines;
      EXPECT_TRUE(v.contains("p50"));
      EXPECT_TRUE(v.contains("p95"));
      EXPECT_EQ(v.at("count").as_int(), 2);
    }
    if (v.at("name").as_string() == "mq.published" &&
        v.at("label").as_string() == "final") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(v.at("value").as_double(), 12.0);
    }
  }
  EXPECT_EQ(lines, 6u);  // 3 metrics x (1 snapshot + final)
  EXPECT_EQ(histogram_lines, 2u);
  EXPECT_TRUE(saw_counter);
}

TEST(Metrics, DumpJsonlReportsWriteErrors) {
  obs::MetricsRegistry reg;
  reg.counter("mq.published").add(1);
  try {
    reg.dump_jsonl("/dev/full", 1000);
    FAIL() << "writing to /dev/full must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------------------- tracer --

ProfileEvent ev(std::int64_t wall_us, const std::string& component,
                const std::string& event, const std::string& uid = "",
                double virtual_s = -1.0) {
  ProfileEvent e;
  e.wall_us = wall_us;
  e.virtual_s = virtual_s;
  e.component = component;
  e.event = event;
  e.uid = uid;
  return e;
}

TEST(Tracer, FullChainStitchesInOrder) {
  const std::vector<ProfileEvent> events = {
      ev(100, "wfprocessor", "task_enqueued", "task.1"),
      ev(200, "exec_manager", "task_submitted", "task.1"),
      ev(300, "agent", "unit_exec_start", "task.1", 1.0),
      ev(400, "agent", "unit_exec_stop", "task.1", 2.0),
      ev(500, "wfprocessor", "task_dequeued", "task.1"),
      ev(600, "wfprocessor", "task_done", "task.1"),
  };
  const obs::Trace t = obs::build_trace(events);
  ASSERT_EQ(t.tasks.size(), 1u);
  const obs::TaskTrace& task = t.tasks.at("task.1");
  EXPECT_TRUE(task.resolved_done);
  EXPECT_EQ(task.attempts, 1);
  ASSERT_EQ(task.spans.size(), 5u);
  const auto& names = obs::task_span_names();
  std::int64_t expected_start = 100;
  for (std::size_t i = 0; i < task.spans.size(); ++i) {
    EXPECT_EQ(task.spans[i].name, names[i]);
    EXPECT_EQ(task.spans[i].start_us, expected_start);
    EXPECT_EQ(task.spans[i].end_us, expected_start + 100);
    expected_start += 100;
  }
  EXPECT_NEAR(t.first_exec_v, 1.0, 1e-12);
  EXPECT_NEAR(t.last_exec_v, 2.0, 1e-12);
}

TEST(Tracer, OutOfOrderBoundariesAreClampedMonotone) {
  // The dequeue thread raced ahead of the exec-stop record: the chain must
  // still be monotone (no negative durations).
  const std::vector<ProfileEvent> events = {
      ev(100, "wfprocessor", "task_enqueued", "t"),
      ev(200, "exec_manager", "task_submitted", "t"),
      ev(350, "agent", "unit_exec_start", "t"),
      ev(340, "agent", "unit_exec_stop", "t"),  // behind exec_start
      ev(330, "wfprocessor", "task_dequeued", "t"),
      ev(600, "wfprocessor", "task_done", "t"),
  };
  const obs::Trace t = obs::build_trace(events);
  const obs::TaskTrace& task = t.tasks.at("t");
  ASSERT_EQ(task.spans.size(), 5u);
  std::int64_t prev = task.spans.front().start_us;
  for (const obs::TaskSpan& s : task.spans) {
    EXPECT_EQ(s.start_us, prev);
    EXPECT_GE(s.end_us, s.start_us);
    prev = s.end_us;
  }
  EXPECT_EQ(task.spans.back().end_us, 600);
}

TEST(Tracer, MissingInteriorBoundariesMergeSpans) {
  // No RTS exec events (e.g. a no-op RTS): schedule swallows exec + sync.
  const std::vector<ProfileEvent> events = {
      ev(100, "wfprocessor", "task_enqueued", "t"),
      ev(250, "exec_manager", "task_submitted", "t"),
      ev(500, "wfprocessor", "task_dequeued", "t"),
      ev(600, "wfprocessor", "task_done", "t"),
  };
  const obs::Trace t = obs::build_trace(events);
  const obs::TaskTrace& task = t.tasks.at("t");
  ASSERT_EQ(task.spans.size(), 3u);
  EXPECT_EQ(task.spans[0].name, "enqueue");
  EXPECT_EQ(task.spans[1].name, "schedule");  // covers schedule..sync gap
  EXPECT_EQ(task.spans[1].start_us, 250);
  EXPECT_EQ(task.spans[1].end_us, 500);
  EXPECT_EQ(task.spans[2].name, "done");
}

TEST(Tracer, ResubmissionRestartsChainAndCountsAttempts) {
  const std::vector<ProfileEvent> events = {
      ev(100, "wfprocessor", "task_enqueued", "t"),
      ev(200, "exec_manager", "task_submitted", "t"),
      ev(300, "agent", "unit_exec_start", "t"),
      // Attempt 1 fails; the task re-enters the pending queue.
      ev(1000, "wfprocessor", "task_enqueued", "t"),
      ev(1100, "exec_manager", "task_submitted", "t"),
      ev(1200, "agent", "unit_exec_start", "t"),
      ev(1300, "agent", "unit_exec_stop", "t"),
      ev(1400, "wfprocessor", "task_dequeued", "t"),
      ev(1500, "wfprocessor", "task_done", "t"),
  };
  const obs::Trace t = obs::build_trace(events);
  const obs::TaskTrace& task = t.tasks.at("t");
  EXPECT_EQ(task.attempts, 2);
  EXPECT_TRUE(task.resolved_done);
  ASSERT_EQ(task.spans.size(), 5u);
  // The chain reflects the resolving attempt, not the dead one.
  EXPECT_EQ(task.spans.front().start_us, 1000);
  EXPECT_EQ(task.spans.back().end_us, 1500);
}

TEST(Tracer, LinksAttachTasksToStagesAndPipelines) {
  obs::TraceLinks links;
  links.task_stage["t"] = "stage.1";
  links.stage_pipeline["stage.1"] = "pipe.1";
  const std::vector<ProfileEvent> events = {
      ev(10, "wfprocessor", "stage_schedule_start", "stage.1"),
      ev(100, "wfprocessor", "task_enqueued", "t"),
      ev(600, "wfprocessor", "task_done", "t"),
      ev(700, "wfprocessor", "stage_done", "stage.1"),
      ev(800, "wfprocessor", "pipeline_done", "pipe.1"),
  };
  const obs::Trace t = obs::build_trace(events, links);
  EXPECT_EQ(t.tasks.at("t").stage_uid, "stage.1");
  EXPECT_EQ(t.tasks.at("t").pipeline_uid, "pipe.1");
  ASSERT_TRUE(t.stages.count("stage.1"));
  EXPECT_EQ(t.stages.at("stage.1").parent, "pipe.1");
  EXPECT_EQ(t.stages.at("stage.1").start_us, 10);
  EXPECT_EQ(t.stages.at("stage.1").end_us, 700);
  ASSERT_TRUE(t.pipelines.count("pipe.1"));
  // A pipeline starts when its first stage does.
  EXPECT_EQ(t.pipelines.at("pipe.1").start_us, 10);
  EXPECT_EQ(t.pipelines.at("pipe.1").end_us, 800);
}

TEST(Tracer, ChromeExportIsValidJsonWithMonotoneSpans) {
  obs::TraceLinks links;
  links.task_stage["t\"quoted"] = "stage.1";
  links.stage_pipeline["stage.1"] = "pipe.1";
  const std::vector<ProfileEvent> events = {
      ev(10, "wfprocessor", "stage_schedule_start", "stage.1"),
      ev(100, "wfprocessor", "task_enqueued", "t\"quoted"),
      ev(200, "exec_manager", "task_submitted", "t\"quoted"),
      ev(600, "wfprocessor", "task_done", "t\"quoted"),
      ev(700, "wfprocessor", "stage_done", "stage.1"),
  };
  const obs::Trace t = obs::build_trace(events, links);
  const std::string path = fresh_dir() + "/trace.json";
  obs::write_chrome_trace(t, events, path);

  const json::Value doc = json::parse(slurp(path));  // throws on bad JSON
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const json::Value& tev = doc.at("traceEvents");
  std::size_t spans = 0;
  for (const json::Value& e : tev.as_array()) {
    const std::string ph = e.at("ph").as_string();
    ASSERT_TRUE(ph == "M" || ph == "X");
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.at("ts").as_int(), 0);
      EXPECT_GE(e.at("dur").as_int(), 0);  // monotone: no negative spans
    }
  }
  EXPECT_GE(spans, 3u);  // stage + >= 2 task spans
}

TEST(Tracer, SpanHistogramsFeedLatencyTable) {
  const std::vector<ProfileEvent> events = {
      ev(100, "wfprocessor", "task_enqueued", "a"),
      ev(200, "exec_manager", "task_submitted", "a"),
      ev(300, "agent", "unit_exec_start", "a"),
      ev(400, "agent", "unit_exec_stop", "a"),
      ev(500, "wfprocessor", "task_dequeued", "a"),
      ev(600, "wfprocessor", "task_done", "a"),
  };
  obs::MetricsRegistry reg;
  obs::fill_span_histograms(obs::build_trace(events), reg);
  EXPECT_EQ(reg.histogram("span.enqueue_us").count(), 1u);
  EXPECT_NEAR(reg.histogram("span.total_us").sum(), 500.0, 0.01);
  const std::string table = obs::span_latency_table(reg);
  EXPECT_NE(table.find("enqueue"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(Tracer, OverheadsFromTraceMatchProfilerCompatPath) {
  // The scenario test_core checks, routed Profiler -> Trace -> overheads,
  // must give the hand-computed numbers; RunAnalysis over the same trace
  // must agree with the report.
  Profiler p;
  p.record("rts", "rts_init_start", "", 0.0);
  p.record("rts", "rts_init_stop", "", 30.0);
  p.record("agent", "unit_received", "u1", 31.0);
  p.record("agent", "unit_stage_in_start", "u1", 31.0);
  p.record("agent", "unit_stage_in_stop", "u1", 33.0);
  p.record("agent", "unit_exec_start", "u1", 35.0);
  p.record("agent", "unit_exec_stop", "u1", 135.0);
  p.record("agent", "unit_done", "u1", 136.0);
  p.record("rts", "rts_teardown_start", "", 140.0);
  p.record("rts", "rts_teardown_stop", "", 155.0);

  OverheadInputs in;
  in.tasks_processed = 1;
  in.host.factor = 1.0;

  const obs::Trace trace = obs::build_trace(p);
  const OverheadReport r = compute_overheads(trace, in);
  EXPECT_DOUBLE_EQ(r.task_exec_s, 100.0);
  EXPECT_DOUBLE_EQ(r.staging_s, 2.0);
  // rts_init 30 + lead-in (35-31-2=2) + lead-out (136-135=1).
  EXPECT_DOUBLE_EQ(r.rts_overhead_s, 33.0);
  EXPECT_DOUBLE_EQ(r.rts_teardown_s, 15.0);

  const analytics::RunAnalysis a(trace);
  EXPECT_DOUBLE_EQ(a.makespan(), r.task_exec_s);
  EXPECT_DOUBLE_EQ(a.total_staging(), r.staging_s);
}

// ---------------------------------------------------------- trace file --

TEST(TraceFile, RawEventRowsFollowTheChromeEvents) {
  Profiler p;
  p.record("c", "e", "u", 1.25);
  const std::vector<ProfileEvent> events = p.events();
  const std::string path = fresh_dir() + "/trace.json";
  obs::write_chrome_trace(obs::build_trace(events), events, path);

  const json::Value doc = json::parse(slurp(path));
  EXPECT_TRUE(doc.at("traceEvents").is_array());
  const json::Array& rows = doc.at("entkEvents").as_array();
  ASSERT_EQ(rows.size(), 1u);
  const json::Array& row = rows[0].as_array();
  ASSERT_EQ(row.size(), 5u);
  EXPECT_EQ(row[0].as_int(), events[0].wall_us);
  EXPECT_DOUBLE_EQ(row[1].as_double(), 1.25);
  EXPECT_EQ(row[2].as_string(), "c");
  EXPECT_EQ(row[3].as_string(), "e");
  EXPECT_EQ(row[4].as_string(), "u");
}

TEST(TraceFile, RawEventsRoundTripSpecialCharacters) {
  Profiler p;
  // Commas, quotes, a newline, a backslash and a control character must
  // all survive the file; so must every wall_us and virtual_s bit.
  p.record("comp,with,commas", "event \"quoted\"", "uid\nnewline", 2.5);
  p.record("back\\slash", "ctrl\x01" "char", "u", 0.1 + 0.2);
  p.record("plain", "e", "u");
  const std::vector<ProfileEvent> events = p.events();
  const std::string path = fresh_dir() + "/trace.json";
  obs::write_chrome_trace(obs::build_trace(events), events, path);

  const std::vector<ProfileEvent> back = obs::read_trace_events(path);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].wall_us, events[i].wall_us);
    EXPECT_EQ(back[i].virtual_s, events[i].virtual_s);  // exact
    EXPECT_EQ(back[i].component, events[i].component);
    EXPECT_EQ(back[i].event, events[i].event);
    EXPECT_EQ(back[i].uid, events[i].uid);
  }
  EXPECT_EQ(back[0].component, "comp,with,commas");
  EXPECT_EQ(back[0].event, "event \"quoted\"");
  EXPECT_EQ(back[0].uid, "uid\nnewline");
  EXPECT_EQ(back[1].component, "back\\slash");
  EXPECT_EQ(back[1].event, "ctrl\x01" "char");
  EXPECT_EQ(back[1].virtual_s, 0.1 + 0.2);
  EXPECT_EQ(back[2].virtual_s, -1.0);
}

TEST(TraceFile, ReadTraceEventsRejectsGarbage) {
  const std::string dir = fresh_dir();
  const auto file = [&dir](const std::string& name, const std::string& body) {
    const std::string path = dir + "/" + name;
    std::ofstream(path) << body;
    return path;
  };
  const auto rows = [](const std::string& rows_json) {
    return R"({"traceEvents":[],"entkEvents":[)" + rows_json + "]}";
  };
  // Malformed rows: non-numeric or fractional wall_us, a missing field, a
  // non-string name.
  for (const char* bad :
       {R"(["not_a_number",1,"c","e","u"])", R"([1.5,1,"c","e","u"])",
        R"([1,1,"c","e"])", R"([1,1,"c","e",7])", R"({"wall_us":1})"}) {
    EXPECT_THROW(obs::read_trace_events(file("row.json", rows(bad))),
                 EnTKError)
        << bad;
  }
  // No raw-event array: a bare Chrome trace, a CSV, truncated JSON.
  EXPECT_THROW(obs::read_trace_events(file("chrome.json",
                                           R"({"traceEvents":[]})")),
               EnTKError);
  EXPECT_THROW(
      obs::read_trace_events(file(
          "profile.csv", "wall_us,virtual_s,component,event,uid\n1,1,c,e,u\n")),
      EnTKError);
  const std::string whole = rows(R"([1,1,"c","e","u"])");
  EXPECT_THROW(
      obs::read_trace_events(file("truncated.json", whole.substr(0, 40))),
      EnTKError);
  EXPECT_THROW(obs::read_trace_events("/no/such/file.json"), EnTKError);
}

TEST(TraceFile, WriteErrorsNameThePath) {
  const std::vector<ProfileEvent> events = {
      ev(100, "wfprocessor", "task_enqueued", "a"),
      ev(200, "wfprocessor", "task_done", "a"),
  };
  try {
    obs::write_chrome_trace(obs::build_trace(events), events, "/dev/full");
    FAIL() << "writing to /dev/full must throw";
  } catch (const EnTKError& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------- integration --

AppManagerConfig fast_config() {
  AppManagerConfig cfg;
  cfg.resource.resource = "local.localhost";
  cfg.resource.cpus = 16;
  cfg.resource.agent.env_setup_s = 0.1;
  cfg.resource.agent.dispatch_rate_per_s = 1000;
  cfg.resource.rts_teardown_base_s = 0.01;
  cfg.resource.rts_teardown_per_unit_s = 0.0;
  cfg.clock_scale = 1e-4;
  return cfg;
}

PipelinePtr make_pipeline(const std::string& name, int stages, int tasks) {
  auto p = std::make_shared<Pipeline>(name);
  for (int s = 0; s < stages; ++s) {
    auto stage = std::make_shared<Stage>('s' + std::to_string(s));
    for (int t = 0; t < tasks; ++t) {
      auto task = std::make_shared<Task>("t");
      task->executable = "sleep";
      task->duration_s = 1.0;
      stage->add_task(task);
    }
    p->add_stage(stage);
  }
  return p;
}

TEST(ObsIntegration, EveryCompletedTaskHasFullChainInExportedTrace) {
  const std::string dir = fresh_dir();
  AppManagerConfig cfg = fast_config();
  cfg.obs.metrics = true;
  cfg.obs.trace_out = dir + "/trace.json";
  cfg.obs.metrics_out = dir + "/metrics.jsonl";

  AppManager amgr(cfg);
  amgr.add_pipelines({make_pipeline("p0", 2, 3), make_pipeline("p1", 1, 4)});
  amgr.run();
  ASSERT_EQ(amgr.tasks_done(), 10u);

  // In-memory trace: every task resolved DONE with a chain that covers
  // enqueue -> done across all five segments, monotone.
  const obs::Trace& trace = amgr.trace();
  const auto& names = obs::task_span_names();
  std::size_t traced = 0;
  for (const PipelinePtr& p : amgr.pipelines()) {
    for (const StagePtr& s : p->stages()) {
      for (const TaskPtr& task : s->tasks()) {
        ASSERT_TRUE(trace.tasks.count(task->uid())) << task->uid();
        const obs::TaskTrace& t = trace.tasks.at(task->uid());
        ++traced;
        EXPECT_TRUE(t.resolved_done) << task->uid();
        EXPECT_EQ(t.pipeline_uid, p->uid());
        EXPECT_EQ(t.stage_uid, s->uid());
        ASSERT_EQ(t.spans.size(), names.size()) << task->uid();
        std::int64_t prev = t.spans.front().start_us;
        for (std::size_t i = 0; i < t.spans.size(); ++i) {
          EXPECT_EQ(t.spans[i].name, names[i]);
          EXPECT_EQ(t.spans[i].start_us, prev);    // contiguous
          EXPECT_GE(t.spans[i].end_us, t.spans[i].start_us);  // monotone
          prev = t.spans[i].end_us;
        }
      }
    }
  }
  EXPECT_EQ(traced, 10u);

  // Exported Chrome trace: valid JSON, every task chain present with
  // monotone timestamps per task uid.
  const json::Value doc = json::parse(slurp(cfg.obs.trace_out));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const json::Value& tev = doc.at("traceEvents");
  std::map<std::string, std::size_t> spans_per_uid;
  std::map<std::string, std::int64_t> last_end_per_uid;
  for (const json::Value& e : tev.as_array()) {
    if (e.at("ph").as_string() != "X" || !e.contains("args")) continue;
    if (!e.at("args").contains("uid")) continue;
    const std::string uid = e.at("args").at("uid").as_string();
    const std::int64_t ts = e.at("ts").as_int();
    const std::int64_t dur = e.at("dur").as_int();
    EXPECT_GE(dur, 0);
    // Chains are contiguous, so per-uid events (written in chain order)
    // must never move backwards in time.
    if (last_end_per_uid.count(uid)) {
      EXPECT_GE(ts, last_end_per_uid[uid]);
    }
    last_end_per_uid[uid] = ts + dur;
    ++spans_per_uid[uid];
  }
  EXPECT_EQ(spans_per_uid.size(), 10u);
  for (const auto& [uid, n] : spans_per_uid) {
    EXPECT_EQ(n, names.size()) << uid;
  }

  // Live metrics saw the run: broker traffic, wfp counters, span latencies.
  const obs::MetricsPtr reg = amgr.metrics();
  ASSERT_NE(reg, nullptr);
  std::map<std::string, obs::MetricSnapshot> by_name;
  for (obs::MetricSnapshot& m : reg->snapshot()) {
    by_name.emplace(m.name, std::move(m));
  }
  EXPECT_GE(by_name.at("wfp.tasks_enqueued").value, 10.0);
  EXPECT_GE(by_name.at("wfp.tasks_done").value, 10.0);
  EXPECT_GE(by_name.at("mq.published").value, 10.0);
  EXPECT_GE(by_name.at("rts.units_submitted").value, 10.0);
  EXPECT_GE(by_name.at("rts.units_completed").value, 10.0);
  EXPECT_EQ(by_name.at("span.total_us").count, 10u);
  EXPECT_GT(by_name.at("mq.publish_us").count, 0u);

  // Metrics JSONL parses line by line.
  std::ifstream in(cfg.obs.metrics_out);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_NO_THROW(json::parse(line));
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}

TEST(ObsIntegration, ExportedTraceFileRestitchesToTheSameChains) {
  AppManagerConfig cfg = fast_config();
  cfg.obs.trace_out = fresh_dir() + "/trace.json";
  AppManager amgr(cfg);
  amgr.add_pipelines({make_pipeline("p0", 2, 3)});
  amgr.run();
  ASSERT_EQ(amgr.tasks_done(), 6u);

  const obs::Trace back =
      obs::build_trace(obs::read_trace_events(cfg.obs.trace_out));
  ASSERT_EQ(back.tasks.size(), amgr.trace().tasks.size());
  for (const auto& [uid, task] : amgr.trace().tasks) {
    const obs::TaskTrace& t = back.tasks.at(uid);
    ASSERT_EQ(t.spans.size(), task.spans.size()) << uid;
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      EXPECT_EQ(t.spans[i].name, task.spans[i].name);
      EXPECT_EQ(t.spans[i].start_us, task.spans[i].start_us);
      EXPECT_EQ(t.spans[i].end_us, task.spans[i].end_us);
    }
  }
  EXPECT_EQ(back.exec_span_s(), amgr.trace().exec_span_s());
}

TEST(ObsIntegration, NonDurableRunAvoidsAllPayloadSerialization) {
  // Zero-copy acceptance check: without a journal (no byte boundary),
  // every structured message delivered by the broker must arrive with its
  // shared payload and without a rendered byte body — i.e. the run
  // performs ZERO dump/parse pairs on broker-delivered payloads. The
  // broker counts exactly those deliveries in mq.serialize_avoided, so
  // avoided == delivered is the machine-checkable form of the claim.
  AppManagerConfig cfg = fast_config();
  cfg.obs.metrics = true;
  AppManager amgr(cfg);
  amgr.add_pipelines({make_pipeline("p0", 2, 4)});
  amgr.run();
  ASSERT_EQ(amgr.tasks_done(), 8u);

  const obs::MetricsPtr reg = amgr.metrics();
  ASSERT_NE(reg, nullptr);
  const std::uint64_t delivered = reg->counter("mq.delivered").value();
  const std::uint64_t avoided = reg->counter("mq.serialize_avoided").value();
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(avoided, delivered);
}

TEST(ObsIntegration, ObsDisabledLeavesNoRegistryAndWritesNothing) {
  AppManagerConfig cfg = fast_config();
  AppManager amgr(cfg);
  amgr.add_pipelines({make_pipeline("p", 1, 2)});
  amgr.run();
  EXPECT_EQ(amgr.tasks_done(), 2u);
  EXPECT_EQ(amgr.metrics(), nullptr);
  // The causal trace is still stitched (overheads derive from it).
  EXPECT_EQ(amgr.trace().tasks.size(), 2u);
}

TEST(ObsIntegration, ExportFailureDoesNotFailTheRun) {
  AppManagerConfig cfg = fast_config();
  cfg.obs.trace_out = "/nonexistent_dir_entk/trace.json";
  AppManager amgr(cfg);
  amgr.add_pipelines({make_pipeline("p", 1, 1)});
  EXPECT_NO_THROW(amgr.run());
  EXPECT_EQ(amgr.tasks_done(), 1u);
}

}  // namespace
}  // namespace entk
