#include "perfbench/src/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "perfbench/src/timed_rts.hpp"
#include "src/ensemble/controller.hpp"
#include "src/mq/broker.hpp"
#include "src/net/broker_server.hpp"
#include "src/rts/pilot_rts.hpp"
#include "src/worker/worker_daemon.hpp"

namespace entk::perfbench {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- Monitor

Monitor::Monitor() : thread_([this] { loop(); }) {}

Monitor::~Monitor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Monitor::watch(AppManager* am, double deadline_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  watched_ = am;
  canceled_ = false;
  deadline_ns_ = now_ns() + static_cast<std::int64_t>(deadline_s * 1e9);
}

void Monitor::set_sampler(std::function<void()> sampler) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sampler_ = std::move(sampler);
  }
  cv_.notify_all();
}

bool Monitor::canceled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return canceled_;
}

namespace {
constexpr std::int64_t kCancelGraceNs = 30'000'000'000;
}  // namespace

void Monitor::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const auto period = sampler_ ? std::chrono::milliseconds(1)
                                 : std::chrono::milliseconds(20);
    cv_.wait_for(lock, period);
    if (stop_) break;
    // Both actions run under the lock, so watch(nullptr) and
    // set_sampler({}) cannot return while either still touches the rep.
    if (sampler_) sampler_();
    if (watched_ == nullptr || now_ns() <= deadline_ns_) continue;
    if (!canceled_) {
      canceled_ = true;
      watched_->cancel();
    } else if (now_ns() > deadline_ns_ + kCancelGraceNs) {
      // cancel() did not unblock run(): stop within the time a caller of
      // the benchmark allows rather than hang.
      std::fprintf(stderr, "CHECK FAILED: run() did not return after "
                           "cancel(); aborting\n");
      std::_Exit(3);
    }
  }
}

namespace {

// ------------------------------------------------------------- utilities

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::min();

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

/// Benchmark-side stamps of a traced rep: post_exec hooks (WFProcessor
/// thread) and generator calls (controller thread).
struct HookStamps {
  struct Hook {
    std::string stage_uid;
    std::int64_t in = 0;
    std::int64_t out = 0;
  };
  struct Gen {
    std::string pipeline_uid;
    int round = 0;  ///< generation this call produced (or closed)
    std::int64_t in = 0;
    std::int64_t out = 0;
  };
  std::mutex mutex;
  std::vector<Hook> hooks;
  std::vector<Gen> gens;
};

/// Stamp every stage's post_exec (traced reps only).
void install_hooks(const std::vector<PipelinePtr>& pipelines,
                   const std::shared_ptr<HookStamps>& stamps) {
  for (const PipelinePtr& p : pipelines) {
    for (const StagePtr& stage : p->stages()) {
      stage->post_exec = [stamps, uid = stage->uid()] {
        const std::int64_t in = now_ns();
        std::lock_guard<std::mutex> lock(stamps->mutex);
        stamps->hooks.push_back({uid, in, now_ns()});
      };
    }
  }
}

/// Times the benchmark takes around the program.
struct Timeline {
  std::int64_t created_ns = 0;  ///< first program call of the rep
  std::int64_t run_call_ns = 0;
  std::int64_t run_return_ns = 0;
};

void run_watched(AppManager& am, const RepOptions& o, Timeline& tl,
                 RepResult& out) {
  o.monitor->watch(&am, o.deadline_s);
  tl.run_call_ns = now_ns();
  try {
    am.run();
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("run() threw: ") + e.what());
  }
  tl.run_return_ns = now_ns();
  const bool canceled = o.monitor->canceled();
  o.monitor->watch(nullptr, 0.0);
  if (canceled) {
    out.errors.push_back("run() exceeded " + std::to_string(o.deadline_s) +
                         " s and was canceled");
  }
}

std::size_t count_tasks(const std::vector<PipelinePtr>& pipelines) {
  std::size_t n = 0;
  for (const PipelinePtr& p : pipelines) n += p->task_count();
  return n;
}

struct UnitTimes {
  std::int64_t first_submit = kNever;
  std::int64_t last_done = kNone;
  int dones = 0;        ///< Done completions
  int completions = 0;  ///< completions of any outcome
};

struct StageTimes {
  std::int64_t first_submit = kNever;
  std::int64_t last_done = kNone;
  const StageTimes* next = nullptr;  ///< next stage of the pipeline
};

/// Registry view of the traced rep (null registry = no values).
struct Registry {
  std::unordered_map<std::string, obs::MetricSnapshot> by_name;

  explicit Registry(const obs::MetricsPtr& metrics) {
    if (!metrics) return;
    for (obs::MetricSnapshot& m : metrics->snapshot()) {
      by_name.emplace(m.name, std::move(m));
    }
  }
  double value(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.value;
  }
  double count(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.count);
  }
  double p50(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.quantile(0.5);
  }
};

/// Everything the common analysis needs to know about a finished rep.
struct RunView {
  AppManager* am = nullptr;
  const std::vector<PipelinePtr>* pipelines = nullptr;
  const Ledger* ledger = nullptr;
  Timeline timeline;
  double clock_scale = 1e-3;  ///< wall seconds per virtual second
  int pilot_cores = 0;
  bool at_least_once = false;  ///< remote workers may execute a unit twice
  const CallTimes* calls = nullptr;         ///< traced only
  const HookStamps* stamps = nullptr;       ///< traced only
};

/// The oracle, the end-to-end metrics and the per-layer metrics every
/// workload shares, all from the ledger, the benchmark's stamps and the
/// program's public counters.
void analyze(const RunView& v, RepResult& out) {
  AppManager& am = *v.am;
  const Ledger& ledger = *v.ledger;
  if (ledger.overflowed()) out.errors.push_back("ledger overflowed");

  std::unordered_map<std::string, UnitTimes> units;
  units.reserve(ledger.submit_count());
  std::int64_t first_submit = kNever;
  std::int64_t last_done = kNone;
  for (std::size_t i = 0; i < ledger.submit_count(); ++i) {
    const Ledger::Stamp& s = ledger.submit(i);
    UnitTimes& u = units[s.uid];
    u.first_submit = std::min(u.first_submit, s.ns);
    first_submit = std::min(first_submit, s.ns);
  }
  for (std::size_t i = 0; i < ledger.completion_count(); ++i) {
    const Ledger::Stamp& s = ledger.completion(i);
    UnitTimes& u = units[s.uid];
    ++u.completions;
    if (s.done) {
      ++u.dones;
      u.last_done = std::max(u.last_done, s.ns);
    }
    last_done = std::max(last_done, s.ns);
  }

  std::unordered_map<std::string, int> done_commits;
  for (const StateTransaction& t : am.state_store()->history()) {
    if (t.kind == "task" && t.to_state == "DONE") ++done_commits[t.uid];
  }

  // Per task: the oracle, RTS latency and modeled core-seconds.
  std::size_t total = 0;
  std::size_t bad = 0;
  std::size_t duplicated = 0;
  double core_seconds = 0.0;
  std::vector<double>& latency = out.samples["rts.unit_latency_ms_p50"];
  std::unordered_map<std::string, StageTimes> stages;
  for (const PipelinePtr& p : *v.pipelines) {
    StageTimes* prev = nullptr;
    for (const StagePtr& stage : p->stages()) {
      StageTimes& st = stages[stage->uid()];
      if (prev != nullptr) prev->next = &st;
      prev = &st;
      for (const TaskPtr& task : stage->tasks()) {
        ++total;
        const auto it = units.find(task->uid());
        const UnitTimes u = it == units.end() ? UnitTimes{} : it->second;
        const bool ok =
            u.dones >= 1 && (v.at_least_once || u.dones == 1) &&
            am.state_store()->state_of(task->uid()) == "DONE" &&
            done_commits[task->uid()] == 1;
        if (!ok) {
          if (++bad <= 3) {
            out.errors.push_back("task " + task->uid() +
                                 " not DONE exactly once (rts dones=" +
                                 std::to_string(u.dones) + ", state=" +
                                 am.state_store()->state_of(task->uid()) +
                                 ")");
          }
          continue;
        }
        if (u.completions > 1) ++duplicated;
        st.first_submit = std::min(st.first_submit, u.first_submit);
        st.last_done = std::max(st.last_done, u.last_done);
        latency.push_back(ms_between(u.first_submit, u.last_done) -
                          task->duration_s * v.clock_scale * 1e3);
        core_seconds += task->duration_s * task->cpu_reqs.total();
      }
    }
  }
  out.attempted = total;
  out.failed = bad;
  if (am.tasks_done() != total || am.tasks_failed() != 0) {
    out.errors.push_back("AppManager resolved " +
                         std::to_string(am.tasks_done()) + " DONE and " +
                         std::to_string(am.tasks_failed()) + " FAILED of " +
                         std::to_string(total) + " tasks");
    out.failed = std::max(out.failed, total - std::min(total, am.tasks_done()));
  }
  const OverheadReport report = am.overheads();
  if (!report.failed_component.empty()) {
    out.errors.push_back("component " + report.failed_component +
                         " failed: " + report.failure_reason);
  }
  if (total == 0 || first_submit == kNever || last_done == kNone) {
    out.errors.push_back("no unit reached the RTS");
    return;
  }

  // End to end.
  const Timeline& tl = v.timeline;
  out.setup_s = static_cast<double>(first_submit - tl.created_ns) * 1e-9;
  out.makespan_s = static_cast<double>(tl.run_return_ns - tl.run_call_ns) * 1e-9;
  out.tasks_per_s = static_cast<double>(am.tasks_done()) /
                    (static_cast<double>(last_done - first_submit) * 1e-9);
  out.teardown_s = static_cast<double>(tl.run_return_ns - last_done) * 1e-9;
  for (const auto& [uid, st] : stages) {
    if (st.next != nullptr && st.last_done != kNone &&
        st.next->first_submit != kNever) {
      out.turnaround_ms.push_back(ms_between(st.last_done, st.next->first_submit));
    }
  }
  out.samples["stage_turnaround_p95_ms"] = out.turnaround_ms;

  // Per layer, from always-on public counters.
  const double n = static_cast<double>(total);
  out.scalars["core.mgmt_busy_us_per_task"] =
      report.entk_mgmt_measured_s * 1e6 / n;
  out.scalars["core.state_commits_per_task"] =
      static_cast<double>(am.state_store()->transaction_count()) / n;
  out.scalars["core.setup_measured_s"] = report.entk_setup_measured_s;
  out.scalars["core.teardown_measured_s"] = report.entk_teardown_measured_s;
  out.scalars["rts.overhead_s"] = report.rts_overhead_s;
  out.scalars["saga.staging_s"] = report.staging_s;
  out.scalars["rts.core_utilization"] =
      report.task_exec_s > 0 && v.pilot_cores > 0
          ? core_seconds / (v.pilot_cores * report.task_exec_s)
          : 0.0;
  out.scalars["worker.duplicate_exec_ratio"] =
      static_cast<double>(duplicated) / n;

  if (v.calls == nullptr) return;

  // Per layer, traced only.
  out.scalars["rts.submit_us_per_task"] =
      static_cast<double>(v.calls->submit_self_ns.load()) * 1e-3 / n;
  out.scalars["core.callback_us_per_task"] =
      static_cast<double>(v.calls->callback_ns.load()) * 1e-3 / n;

  std::vector<double>& done_lag = out.samples["core.stage_done_lag_ms_p50"];
  std::vector<double>& sched_lag =
      out.samples["core.stage_schedule_lag_ms_p50"];
  std::vector<double>& decision_lag =
      out.samples["ensemble.decision_lag_ms_p50"];
  std::vector<double>& gen_us = out.samples["ensemble.generator_us_p50"];
  for (const HookStamps::Hook& h : v.stamps->hooks) {
    const auto it = stages.find(h.stage_uid);
    if (it == stages.end() || it->second.last_done == kNone) continue;
    done_lag.push_back(ms_between(it->second.last_done, h.in));
    if (it->second.next != nullptr &&
        it->second.next->first_submit != kNever) {
      sched_lag.push_back(ms_between(h.out, it->second.next->first_submit));
    }
  }

  // Span tree: run -> pipeline -> stage -> unit, plus generator decisions
  // and post_exec hooks under their pipeline.
  std::vector<Span>& spans = out.spans;
  spans.push_back({-1, "run", am.uid(), tl.run_call_ns, tl.run_return_ns});
  std::unordered_map<std::string, int> pipeline_span_of_stage;
  for (const PipelinePtr& p : *v.pipelines) {
    const int pi = static_cast<int>(spans.size());
    spans.push_back({0, "pipeline", p->uid(), kNever, kNone});
    const std::vector<StagePtr> p_stages = p->stages();
    for (const StagePtr& stage : p_stages) {
      const StageTimes& st = stages[stage->uid()];
      if (st.first_submit == kNever || st.last_done == kNone) continue;
      spans[pi].start_ns = std::min(spans[pi].start_ns, st.first_submit);
      spans[pi].end_ns = std::max(spans[pi].end_ns, st.last_done);
      const int si = static_cast<int>(spans.size());
      pipeline_span_of_stage[stage->uid()] = pi;
      spans.push_back({pi, "stage", stage->uid(), st.first_submit,
                       st.last_done});
      for (const TaskPtr& task : stage->tasks()) {
        const auto it = units.find(task->uid());
        if (it == units.end() || it->second.last_done == kNone) continue;
        spans.push_back({si, "unit", task->uid(), it->second.first_submit,
                         it->second.last_done});
      }
    }
    // Decisions taken for this pipeline by its generator.
    for (const HookStamps::Gen& g : v.stamps->gens) {
      if (g.pipeline_uid != p->uid()) continue;
      gen_us.push_back(static_cast<double>(g.out - g.in) * 1e-3);
      spans.push_back({pi, "decision", "generator." + std::to_string(g.round),
                       g.in, g.out});
      // Round 0 is the seed batch, built before run().
      if (g.round == 0 || static_cast<std::size_t>(g.round) > p_stages.size()) {
        continue;
      }
      const StageTimes& closed = stages[p_stages[g.round - 1]->uid()];
      if (closed.last_done != kNone) {
        decision_lag.push_back(ms_between(closed.last_done, g.in));
      }
      if (static_cast<std::size_t>(g.round) < p_stages.size()) {
        const StageTimes& opened = stages[p_stages[g.round]->uid()];
        if (opened.first_submit != kNever) {
          sched_lag.push_back(ms_between(g.out, opened.first_submit));
        }
      }
    }
  }
  for (const HookStamps::Hook& h : v.stamps->hooks) {
    const auto it = pipeline_span_of_stage.find(h.stage_uid);
    if (it == pipeline_span_of_stage.end()) continue;
    spans.push_back({it->second, "decision", "post_exec", h.in, h.out});
  }
  // A pipeline whose units never ran keeps an empty interval.
  for (Span& s : spans) {
    if (s.start_ns == kNever) s.start_ns = s.end_ns = tl.run_call_ns;
  }
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ms[spans[i].kind] += static_cast<double>(self[i]) * 1e-6;
  }
  out.scalars["span.run.self_ms"] = self_ms["run"];
  out.scalars["span.pipeline.self_ms"] = self_ms["pipeline"];
  out.scalars["span.stage.self_ms"] = self_ms["stage"];
  out.scalars["span.unit.self_us_per_task"] = self_ms["unit"] * 1e3 / n;
  out.scalars["span.decision.self_ms"] = self_ms["decision"];
}

/// Broker-layer metrics of a traced rep, from the registry attached to the
/// broker that carried the run.
void broker_metrics(const Registry& reg, double tasks, RepResult& out) {
  out.scalars["mq.msgs_per_task"] = reg.value("mq.published") / tasks;
  out.scalars["mq.publish_us_p50"] = reg.p50("mq.publish_us");
  out.scalars["mq.get_us_p50"] = reg.p50("mq.get_us");
  // get_us observes every get that returned a delivery; get_empty counts
  // the ones that timed out empty.
  const double useful = reg.count("mq.get_us");
  const double gets = useful + reg.value("mq.get_empty");
  out.scalars["mq.get_useful_ratio"] = gets > 0 ? useful / gets : 0.0;
}

/// Max ready depth of q.pending from the program's own heartbeat gauge
/// (the ExecManager records queue_ready_depth every heartbeat).
double pending_depth_from_profiler(const Profiler& profiler) {
  double max_depth = 0.0;
  for (const ProfileEvent& e : profiler.events()) {
    if (e.event == "queue_ready_depth" && e.uid == "q.pending") {
      max_depth = std::max(max_depth, e.virtual_s);
    }
  }
  return max_depth;
}

std::uint64_t bytes_under(const fs::path& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// ---------------------------------------------------------- dispatch_wide
//
// Wide, shallow and free: 16 pipelines x 2 stages x 512 zero-duration tasks
// on an RTS that completes each unit inside submit(). All of the time is
// toolkit dispatch (core + mq + json); rts, sim, net and journals are idle.

constexpr int kDwPipelines = 16;
constexpr int kDwStages = 2;
constexpr int kDwTasks = 512;

RepResult run_dispatch_wide(const RepOptions& o) {
  RepResult out;
  out.traced = o.traced;
  std::uint64_t rng = o.seed;
  std::vector<PipelinePtr> pipelines;
  for (int p = 0; p < kDwPipelines; ++p) {
    auto pipeline = std::make_shared<Pipeline>("dw-p" + std::to_string(p));
    for (int s = 0; s < kDwStages; ++s) {
      auto stage = std::make_shared<Stage>("s" + std::to_string(s));
      for (int t = 0; t < kDwTasks; ++t) {
        auto task = std::make_shared<Task>("t" + std::to_string(t));
        task->executable = "noop";
        task->arguments = {"--x=" + std::to_string(splitmix64(rng) % 1000000)};
        stage->add_task(std::move(task));
      }
      pipeline->add_stage(std::move(stage));
    }
    pipelines.push_back(std::move(pipeline));
  }
  const std::size_t total = count_tasks(pipelines);
  Ledger ledger(2 * total);
  CallTimes calls;
  CallTimes* calls_ptr = o.traced ? &calls : nullptr;
  auto stamps = std::make_shared<HookStamps>();
  if (o.traced) install_hooks(pipelines, stamps);

  AppManagerConfig config;
  config.resource.resource = "local.localhost";
  config.obs.metrics = o.traced;
  config.rts_factory = [&ledger, calls_ptr]() -> rts::RtsPtr {
    return std::make_shared<TimedRts>(std::make_shared<InstantRts>(), &ledger,
                                      calls_ptr);
  };

  Timeline tl;
  tl.created_ns = now_ns();
  AppManager am(std::move(config));
  am.add_pipelines(pipelines);
  run_watched(am, o, tl, out);

  RunView v;
  v.am = &am;
  v.pipelines = &pipelines;
  v.ledger = &ledger;
  v.timeline = tl;
  v.calls = calls_ptr;
  v.stamps = o.traced ? stamps.get() : nullptr;
  analyze(v, out);
  if (o.traced) {
    broker_metrics(Registry(am.metrics()), static_cast<double>(total), out);
    out.scalars["mq.pending_depth_max"] =
        pending_depth_from_profiler(*am.profiler());
  }
  return out;
}

// ------------------------------------------------------------ pilot_chain
//
// A simulated xsede.supermic pilot. Half the pipelines are static and deep
// (many stages of a few short modeled mdrun tasks with seeded jitter and
// stragglers); the other half are held open and driven by a seeded bracket
// search through ensemble::Controller::run_generator with a fixed budget.

constexpr int kPcStatic = 4;
constexpr int kPcStages = 12;
constexpr int kPcTasks = 4;
constexpr int kPcSearches = 4;
constexpr int kPcGenerations = 6;
constexpr int kPcPoints = 4;
constexpr int kPcCores = 40;  // two supermic nodes: every task fits at once
constexpr double kPcDuration = 2.0;  // virtual s (2 ms wall at 1e-3)

/// 2 s modeled tasks with +-15% jitter; one in ten is a 2.5x straggler.
double jittered_duration(std::uint64_t& rng) {
  double d = kPcDuration * (0.85 + 0.3 * uniform01(rng));
  if (uniform01(rng) < 0.1) d *= 2.5;
  return d;
}

/// Seeded 1-D objective with a unique minimum at `x_star`.
struct Objective {
  double x_star = 0.0;
  double a = 0.0;
  double b = 0.0;
  double operator()(double x) const {
    const double d = x - x_star;
    return d * d + a * (1.0 - std::cos(b * d));
  }
};

struct Point {
  double x = 0.0;
  double f = 0.0;
};

bool better(const Point& p, const Point& q) {
  return p.f < q.f || (p.f == q.f && p.x < q.x);
}

/// Bracket search state; the generator and the serial reference share the
/// proposal and shrink rules so their results must agree exactly.
struct Bracket {
  double lo = 0.0;
  double hi = 8.0;

  std::vector<double> proposals() const {
    std::vector<double> xs;
    for (int i = 0; i < kPcPoints; ++i) {
      xs.push_back(lo + (hi - lo) * i / (kPcPoints - 1));
    }
    return xs;
  }
  void recenter(double best_x) {
    const double width = 0.5 * (hi - lo);
    lo = best_x - width / 2.0;
    hi = best_x + width / 2.0;
  }
};

Point serial_reference(const Objective& f) {
  Bracket bracket;
  Point best{0.0, std::numeric_limits<double>::infinity()};
  for (int round = 0; round < kPcGenerations; ++round) {
    if (round > 0) bracket.recenter(best.x);
    for (double x : bracket.proposals()) {
      const Point p{x, f(x)};
      if (better(p, best)) best = p;
    }
  }
  return best;
}

struct Search {
  std::string group;
  Objective objective;
  std::uint64_t rng = 0;
  Bracket bracket;
  int round = 0;
  bool finished = false;
  Point best;
};

ensemble::GeneratorPtr make_search_generator(
    const std::shared_ptr<Search>& search,
    const std::shared_ptr<HookStamps>& stamps, bool traced,
    const std::shared_ptr<std::string>& pipeline_uid) {
  return ensemble::make_generator(
      [search, stamps, traced, pipeline_uid](
          ensemble::ResultView& results,
          ensemble::Ops&) -> std::vector<TaskPtr> {
        const std::int64_t in = now_ns();
        Search& s = *search;
        std::vector<TaskPtr> batch;
        if (s.round > 0) {
          Point best{0.0, std::numeric_limits<double>::infinity()};
          for (const ensemble::Event& ev : results.completed(s.group)) {
            const Point p{ev.values().get_double("x", 0.0),
                          ev.values().get_double("f", 1e300)};
            if (better(p, best)) best = p;
          }
          s.best = best;
          if (s.round == kPcGenerations) {
            s.finished = true;
          } else {
            s.bracket.recenter(best.x);
          }
        }
        if (!s.finished) {
          for (double x : s.bracket.proposals()) {
            const Objective f = s.objective;
            batch.push_back(ensemble::make_task(
                s.group + "-r" + std::to_string(s.round), s.group,
                [x, f](json::Value& values) {
                  values["x"] = x;
                  values["f"] = f(x);
                  return 0;
                },
                jittered_duration(s.rng)));
          }
        }
        if (traced) {
          std::lock_guard<std::mutex> lock(stamps->mutex);
          stamps->gens.push_back({*pipeline_uid, s.round, in, now_ns()});
        }
        ++s.round;
        return batch;
      });
}

RepResult run_pilot_chain(const RepOptions& o) {
  RepResult out;
  out.traced = o.traced;
  std::uint64_t rng = o.seed;
  auto stamps = std::make_shared<HookStamps>();

  std::vector<PipelinePtr> pipelines;
  for (int p = 0; p < kPcStatic; ++p) {
    auto pipeline = std::make_shared<Pipeline>("pc-static" + std::to_string(p));
    for (int s = 0; s < kPcStages; ++s) {
      auto stage = std::make_shared<Stage>("s" + std::to_string(s));
      for (int t = 0; t < kPcTasks; ++t) {
        auto task = std::make_shared<Task>("md" + std::to_string(t));
        task->executable = "mdrun";
        task->duration_s = jittered_duration(rng);
        for (int l = 0; l < 3; ++l) {
          task->input_staging.push_back(saga::StagingDirective{
              "topol" + std::to_string(l), "sandbox/",
              saga::StagingAction::Link, 130});
        }
        task->input_staging.push_back(saga::StagingDirective{
            "conf.gro", "sandbox/", saga::StagingAction::Copy, 550000});
        stage->add_task(std::move(task));
      }
      pipeline->add_stage(std::move(stage));
    }
    pipelines.push_back(std::move(pipeline));
  }
  if (o.traced) install_hooks(pipelines, stamps);

  auto controller = ensemble::Controller::create();
  std::vector<std::shared_ptr<Search>> searches;
  for (int g = 0; g < kPcSearches; ++g) {
    auto search = std::make_shared<Search>();
    search->group = "search" + std::to_string(g);
    search->objective.x_star = 1.0 + 6.0 * uniform01(rng);
    search->objective.a = 0.05 + 0.15 * uniform01(rng);
    search->objective.b = 2.0 + 2.0 * uniform01(rng);
    search->rng = splitmix64(rng);
    auto pipeline = std::make_shared<Pipeline>("pc-search" + std::to_string(g));
    auto uid = std::make_shared<std::string>(pipeline->uid());
    controller->run_generator(
        pipeline, make_search_generator(search, stamps, o.traced, uid), "gen");
    searches.push_back(search);
    pipelines.push_back(std::move(pipeline));
  }

  Ledger ledger(4096);
  CallTimes calls;
  CallTimes* calls_ptr = o.traced ? &calls : nullptr;

  AppManagerConfig config;
  config.resource.resource = "xsede.supermic";
  config.resource.cpus = kPcCores;
  config.resource.walltime_s = 3600;
  config.obs.metrics = o.traced;
  controller->attach(config);
  // Built exactly as AppManager's default factory builds its PilotRts, on
  // the AppManager's own clock and profiler (known once it exists).
  auto owner = std::make_shared<AppManager*>(nullptr);
  const ResourceDescription res = config.resource;
  config.rts_factory = [owner, res, &ledger, calls_ptr]() -> rts::RtsPtr {
    rts::PilotRtsConfig cfg;
    cfg.pilot.resource = res.resource;
    cfg.pilot.cores = res.cpus;
    cfg.pilot.nodes = res.nodes;
    cfg.pilot.walltime_s = res.walltime_s;
    cfg.pilot.project = res.project;
    cfg.agent = res.agent;
    cfg.failure = res.failure;
    cfg.teardown_base_s = res.rts_teardown_base_s;
    cfg.teardown_per_unit_s = res.rts_teardown_per_unit_s;
    AppManager* am = *owner;
    return std::make_shared<TimedRts>(
        std::make_shared<rts::PilotRts>(cfg, am->clock(), am->profiler()),
        &ledger, calls_ptr);
  };
  const double clock_scale = config.clock_scale;

  Timeline tl;
  tl.created_ns = now_ns();
  AppManager am(std::move(config));
  *owner = &am;
  am.add_pipelines(pipelines);
  run_watched(am, o, tl, out);

  RunView v;
  v.am = &am;
  v.pipelines = &pipelines;
  v.ledger = &ledger;
  v.timeline = tl;
  v.clock_scale = clock_scale;
  v.pilot_cores = kPcCores;
  v.calls = calls_ptr;
  v.stamps = o.traced ? stamps.get() : nullptr;
  analyze(v, out);

  // Each search's final best point must equal the serial reference.
  std::size_t rounds = 0;
  for (const std::shared_ptr<Search>& s : searches) {
    const Point ref = serial_reference(s->objective);
    rounds += static_cast<std::size_t>(std::max(0, s->round - 1));
    if (!s->finished || s->best.x != ref.x || s->best.f != ref.f) {
      out.errors.push_back(s->group + ": best point (" +
                           std::to_string(s->best.x) + ", " +
                           std::to_string(s->best.f) +
                           ") differs from the serial reference (" +
                           std::to_string(ref.x) + ", " +
                           std::to_string(ref.f) + ")");
    }
  }
  out.scalars["ensemble.decisions_per_generation"] =
      rounds > 0 ? static_cast<double>(controller->decision_count()) /
                       static_cast<double>(rounds)
                 : 0.0;
  if (o.traced) {
    broker_metrics(Registry(am.metrics()), static_cast<double>(out.attempted),
                   out);
    out.scalars["mq.pending_depth_max"] =
        pending_depth_from_profiler(*am.profiler());
  }
  return out;
}

// --------------------------------------------------------- remote_durable
//
// The distributed plane in one process: a BrokerServer over a journaled
// broker, two in-process WorkerDaemons whose RTS completes units at once,
// and an AppManager with remote_workers and a state journal — three
// loopback connections. Every task carries a seeded 1 KiB payload and its
// checksum; the workers verify it and echo the payload back.

constexpr int kRdPipelines = 8;
constexpr int kRdStages = 4;
constexpr int kRdTasks = 128;
constexpr std::size_t kRdPayload = 1024;
constexpr int kRdWorkers = 2;

RepResult run_remote_durable(const RepOptions& o) {
  RepResult out;
  out.traced = o.traced;
  std::uint64_t rng = o.seed;
  std::vector<PipelinePtr> pipelines;
  for (int p = 0; p < kRdPipelines; ++p) {
    auto pipeline = std::make_shared<Pipeline>("rd-p" + std::to_string(p));
    for (int s = 0; s < kRdStages; ++s) {
      auto stage = std::make_shared<Stage>("s" + std::to_string(s));
      for (int t = 0; t < kRdTasks; ++t) {
        auto task = std::make_shared<Task>("t" + std::to_string(t));
        task->executable = "echo";
        std::string payload(kRdPayload, '\0');
        for (char& c : payload) {
          c = static_cast<char>('a' + splitmix64(rng) % 26);
        }
        task->metadata["sum"] = static_cast<std::int64_t>(fnv1a64(payload));
        task->metadata["payload"] = std::move(payload);
        stage->add_task(std::move(task));
      }
      pipeline->add_stage(std::move(stage));
    }
    pipelines.push_back(std::move(pipeline));
  }
  const std::size_t total = count_tasks(pipelines);
  auto stamps = std::make_shared<HookStamps>();
  if (o.traced) install_hooks(pipelines, stamps);

  const fs::path dir = fs::path(o.scratch_dir) / "remote_durable";
  fs::remove_all(dir);
  fs::create_directories(dir / "broker");
  fs::create_directories(dir / "app");

  Ledger ledger(2 * total);
  CallTimes calls;
  CallTimes* calls_ptr = o.traced ? &calls : nullptr;
  PayloadCheck check;
  auto plane_metrics =
      o.traced ? std::make_shared<obs::MetricsRegistry>() : nullptr;
  double pending_max = 0.0;

  Timeline tl;
  tl.created_ns = now_ns();
  auto broker =
      std::make_shared<mq::Broker>("perfbench", (dir / "broker").string());
  if (plane_metrics) broker->set_metrics(plane_metrics);
  auto server = std::make_unique<net::BrokerServer>(
      broker, net::BrokerServerConfig{}, std::make_shared<Profiler>());
  if (plane_metrics) server->set_metrics(plane_metrics);
  server->start();

  std::vector<std::unique_ptr<worker::WorkerDaemon>> workers;
  std::vector<std::thread> worker_threads;
  for (int w = 0; w < kRdWorkers; ++w) {
    worker::WorkerDaemonConfig wcfg;
    wcfg.endpoint = server->endpoint();
    wcfg.worker_id = "pb-w" + std::to_string(w);
    wcfg.rts_factory = [&ledger, calls_ptr, &check]() -> rts::RtsPtr {
      return std::make_shared<TimedRts>(std::make_shared<InstantRts>(&check),
                                        &ledger, calls_ptr);
    };
    workers.push_back(std::make_unique<worker::WorkerDaemon>(wcfg));
    workers.back()->start();
  }

  AppManagerConfig config;
  config.resource.resource = "local.localhost";
  config.broker_endpoint = server->endpoint();
  config.remote_workers = true;
  config.journal_dir = (dir / "app").string();
  config.obs.metrics = o.traced;
  AppManager am(std::move(config));
  am.add_pipelines(pipelines);
  // The daemons' main loops (heartbeats to the WorkerDirectory), started
  // last so nothing below can throw past an unjoined thread.
  for (auto& w : workers) {
    worker_threads.emplace_back([daemon = w.get()] { daemon->run(); });
  }
  if (o.traced) {
    o.monitor->set_sampler([&broker, &pending_max] {
      for (const mq::QueueDepth& d : broker->depth_snapshot()) {
        if (d.queue == "q.pending") {
          pending_max = std::max(pending_max, static_cast<double>(d.ready));
        }
      }
    });
  }
  run_watched(am, o, tl, out);
  o.monitor->set_sampler({});

  for (auto& w : workers) w->request_drain();
  for (std::thread& t : worker_threads) t.join();
  std::vector<double> done_per_worker;
  double emgr_busy_s = 0.0;
  for (auto& w : workers) {
    done_per_worker.push_back(static_cast<double>(w->runtime().tasks_done()));
    emgr_busy_s += w->runtime().emgr_busy().total_s();
  }
  workers.clear();
  server->stop();
  broker->close();

  RunView v;
  v.am = &am;
  v.pipelines = &pipelines;
  v.ledger = &ledger;
  v.timeline = tl;
  v.at_least_once = true;
  v.calls = calls_ptr;
  v.stamps = o.traced ? stamps.get() : nullptr;
  analyze(v, out);

  if (check.mismatched.load() != 0 || check.verified.load() < total) {
    out.errors.push_back("payload checksums: " +
                         std::to_string(check.verified.load()) +
                         " verified, " +
                         std::to_string(check.mismatched.load()) +
                         " mismatched of " + std::to_string(total));
  }
  const double n = static_cast<double>(total);
  out.scalars["mq.journal_bytes_per_task"] =
      static_cast<double>(bytes_under(dir / "broker")) / n;
  out.scalars["core.state_journal_bytes_per_task"] =
      static_cast<double>(bytes_under(dir / "app")) / n;
  out.scalars["worker.emgr_busy_us_per_task"] = emgr_busy_s * 1e6 / n;
  const auto [lo, hi] =
      std::minmax_element(done_per_worker.begin(), done_per_worker.end());
  out.scalars["worker.balance"] = *hi > 0 ? *lo / *hi : 0.0;
  if (o.traced) {
    const Registry reg(plane_metrics);
    broker_metrics(reg, n, out);
    out.scalars["mq.pending_depth_max"] = pending_max;
    out.scalars["net.bytes_per_task"] =
        (reg.value("net.server.bytes_in") + reg.value("net.server.bytes_out")) /
        n;
    out.scalars["net.frames_per_task"] = (reg.value("net.server.frames_in") +
                                          reg.value("net.server.frames_out")) /
                                         n;
    out.scalars["net.server_op_us_p50"] = reg.p50("net.server.op_us");
  }
  fs::remove_all(dir);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "dispatch_wide", "pilot_chain", "remote_durable"};
  return names;
}

RepResult run_rep(const std::string& workload, const RepOptions& options) {
  if (workload == "dispatch_wide") return run_dispatch_wide(options);
  if (workload == "pilot_chain") return run_pilot_chain(options);
  if (workload == "remote_durable") return run_remote_durable(options);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace entk::perfbench
