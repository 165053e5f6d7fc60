// entk_perfbench: the repository's end-to-end benchmark.
//
//   entk_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
//
// Runs reps of one workload (see workloads.cpp) through AppManager::run()
// for S seconds, checks every rep's outputs, and prints a report followed,
// on the last line, by one JSON object:
//   {"correct": ..., "attempted": tasks, "failed": tasks, "metrics": {...}}
// --trace 0 reports the end-to-end metrics from untraced reps. --trace 1
// alternates untraced and traced reps and reports the per-layer metrics,
// including the tracing overhead, and writes the last traced rep's span
// tree to DIR. A failed check prints the violations on stderr, reports no
// metrics and exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/stats.hpp"
#include "perfbench/src/timed_rts.hpp"
#include "perfbench/src/workloads.hpp"

namespace {

using namespace entk::perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir = "perfbench-out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "entk_perfbench: %s\n"
               "usage: entk_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 1 || a.seconds > 60) {
        usage("--seconds takes an integer in [1, 60]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("--workload takes dispatch_wide, pilot_chain or remote_durable");
  }
  if (a.seconds == 0 || a.trace < 0) usage("--seconds and --trace are required");
  return a;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

// A per-layer metric: where its value comes from and which end-to-end
// metric it should move, on which workload.
enum class From { Untraced, Traced, Overhead };
struct LayerMetric {
  const char* name;
  const char* unit;
  From from;
  bool pooled;  ///< quantile q of samples pooled over reps (else median)
  const char* moves;
  double q = 0.5;
};

const std::vector<LayerMetric>& layer_metrics() {
  using F = From;
  static const std::vector<LayerMetric> m = {
      // The end-to-end tail: too unsteady across runs to carry a bound (a
      // run whose reps hit a slow spell moves the pooled p95 by up to 2x).
      {"stage_turnaround_p95_ms", "ms", F::Untraced, true,
       "none: the tail of stage_turnaround_p50_ms", 0.95},
      {"core.mgmt_busy_us_per_task", "us", F::Untraced, false,
       "tasks_per_s [dispatch_wide]"},
      {"core.state_commits_per_task", "count", F::Untraced, false,
       "tasks_per_s [dispatch_wide]"},
      {"core.callback_us_per_task", "us", F::Traced, false,
       "tasks_per_s [dispatch_wide]"},
      {"core.setup_measured_s", "s", F::Untraced, false, "setup_s [all]"},
      {"core.teardown_measured_s", "s", F::Untraced, false,
       "teardown_s [all]"},
      {"core.stage_done_lag_ms_p50", "ms", F::Traced, true,
       "stage_turnaround_* [pilot_chain]"},
      {"core.stage_schedule_lag_ms_p50", "ms", F::Traced, true,
       "stage_turnaround_* [pilot_chain]"},
      {"core.state_journal_bytes_per_task", "B", F::Untraced, false,
       "tasks_per_s [remote_durable]"},
      {"mq.msgs_per_task", "count", F::Traced, false,
       "tasks_per_s [dispatch_wide, remote_durable]"},
      {"mq.publish_us_p50", "us", F::Traced, false,
       "tasks_per_s [dispatch_wide]"},
      {"mq.get_us_p50", "us", F::Traced, false, "tasks_per_s [dispatch_wide]"},
      {"mq.get_useful_ratio", "ratio", F::Traced, false,
       "stage_turnaround_* [pilot_chain]"},
      {"mq.journal_bytes_per_task", "B", F::Untraced, false,
       "tasks_per_s [remote_durable]"},
      {"mq.pending_depth_max", "count", F::Traced, false,
       "tasks_per_s [remote_durable]"},
      {"net.bytes_per_task", "B", F::Traced, false,
       "tasks_per_s [remote_durable]"},
      {"net.frames_per_task", "count", F::Traced, false,
       "tasks_per_s [remote_durable]"},
      {"net.server_op_us_p50", "us", F::Traced, false,
       "tasks_per_s [remote_durable]"},
      {"worker.emgr_busy_us_per_task", "us", F::Untraced, false,
       "tasks_per_s [remote_durable]"},
      {"worker.balance", "ratio", F::Untraced, false,
       "tasks_per_s [remote_durable]"},
      {"worker.duplicate_exec_ratio", "ratio", F::Untraced, false,
       "task failures [remote_durable]"},
      {"rts.submit_us_per_task", "us", F::Traced, false,
       "tasks_per_s [pilot_chain]; the benchmark's floor on dispatch_wide"},
      {"rts.unit_latency_ms_p50", "ms", F::Untraced, true,
       "makespan_s, stage_turnaround_* [pilot_chain]"},
      {"rts.overhead_s", "virtual_s", F::Untraced, false, "setup_s [pilot_chain]"},
      {"rts.core_utilization", "ratio", F::Untraced, false,
       "makespan_s [pilot_chain]"},
      {"saga.staging_s", "virtual_s", F::Untraced, false, "makespan_s [pilot_chain]"},
      {"ensemble.decision_lag_ms_p50", "ms", F::Traced, true,
       "stage_turnaround_* [pilot_chain]"},
      {"ensemble.generator_us_p50", "us", F::Traced, true,
       "none: the benchmark's own generator cost"},
      {"ensemble.decisions_per_generation", "count", F::Untraced, false,
       "stage_turnaround_* [pilot_chain]"},
      {"obs.tracing_overhead_frac", "ratio", F::Overhead, false,
       "none: traced / untraced makespan_s - 1"},
      {"span.run.self_ms", "ms", F::Traced, false, "setup_s, teardown_s [all]"},
      {"span.pipeline.self_ms", "ms", F::Traced, false,
       "stage_turnaround_* [pilot_chain]"},
      {"span.stage.self_ms", "ms", F::Traced, false,
       "tasks_per_s [dispatch_wide]"},
      {"span.unit.self_us_per_task", "us", F::Traced, false,
       "makespan_s [pilot_chain]"},
      {"span.decision.self_ms", "ms", F::Traced, false,
       "stage_turnaround_* [pilot_chain]"},
  };
  return m;
}

struct Output {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< sample count and provenance, for the report
};

void write_spans(const std::string& path, const Args& a,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "entk_perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed));
  const std::vector<std::int64_t> self = self_times_ns(spans);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"id\": %zu, \"parent\": %d, \"kind\": \"%s\", "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f, "
                 "\"self_us\": %.3f}",
                 i == 0 ? "" : ",", i, s.parent, s.kind.c_str(),
                 s.name.c_str(), static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<double>(self[i]) * 1e-3);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const unsigned nproc = std::thread::hardware_concurrency();
  std::filesystem::create_directories(args.out_dir);

  // Run length: a warm-up of at least two reps and a fifth of `seconds`
  // (allocator and page-cache growth make the first reps of a process slow),
  // then `seconds` of measured reps. Untraced reps continue (up to
  // 3x) until 200 stage transitions were seen, so at least ten samples lie
  // beyond their p95. Warm-up reps are checked like the rest.
  // A rep whose run() outlives 30 s is canceled and fails the run.
  constexpr std::size_t kMinTransitions = 200;
  constexpr int kMinWarmupReps = 2;
  Monitor monitor;
  RepOptions options;
  options.scratch_dir = args.out_dir;
  options.monitor = &monitor;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<double> turnaround;
  std::vector<Span> last_spans;
  double first_rep_rss_mb = 0.0;

  const double warmup_s = 0.2 * args.seconds;
  std::int64_t measure_start = 0;  // set when the warm-up ends
  const auto since = [](std::int64_t t) {
    return static_cast<double>(now_ns() - t) * 1e-9;
  };
  const std::int64_t start = now_ns();
  for (int rep = 0;; ++rep) {
    const bool warmup = measure_start == 0;
    if (warmup && rep >= kMinWarmupReps && since(start) >= warmup_s) {
      measure_start = now_ns();
    }
    if (measure_start != 0) {
      const double t = since(measure_start);
      const bool short_of_samples = turnaround.size() < kMinTransitions;
      if (t >= 3.0 * args.seconds) break;
      if (t >= args.seconds && !short_of_samples) break;
    }
    // Inputs of rep r come from (seed, r): the same seed repeats them.
    std::uint64_t mix = args.seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull;
    mix ^= static_cast<std::uint64_t>(rep) * 0xbf58476d1ce4e5b9ull;
    options.seed = mix;
    options.traced = args.trace == 1 && rep % 2 == 0 && measure_start != 0;
    RepResult r;
    try {
      r = run_rep(args.workload, options);
    } catch (const std::exception& e) {
      r.errors.push_back(std::string("rep threw: ") + e.what());
    }
    if (rep == 0) first_rep_rss_mb = peak_rss_mb();
    attempted += r.attempted;
    failed += r.failed;
    for (std::string& e : r.errors) {
      errors.push_back("rep " + std::to_string(rep) + ": " + std::move(e));
    }
    // A failed check ends the run: its result is already decided, and a
    // hang costs a rep deadline each time it repeats.
    if (!r.errors.empty()) break;
    if (measure_start == 0) continue;
    if (r.traced) {
      if (!r.spans.empty()) last_spans = std::move(r.spans);
      r.spans.clear();
      traced.push_back(std::move(r));
    } else {
      turnaround.insert(turnaround.end(), r.turnaround_ms.begin(),
                        r.turnaround_ms.end());
      untraced.push_back(std::move(r));
    }
  }

  std::vector<Output> outputs;
  const auto median_of = [](const std::vector<RepResult>& reps,
                            double RepResult::*field) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back(r.*field);
    return median(std::move(v));
  };
  const std::string reps_note =
      "median of " + std::to_string(untraced.size()) + " reps";
  if (args.trace == 0) {
    const std::string n_note =
        "of " + std::to_string(turnaround.size()) + " transitions";
    outputs = {
        {"setup_s", "s", median_of(untraced, &RepResult::setup_s), reps_note},
        {"makespan_s", "s", median_of(untraced, &RepResult::makespan_s),
         reps_note},
        {"tasks_per_s", "tasks/s", median_of(untraced, &RepResult::tasks_per_s),
         reps_note},
        {"teardown_s", "s", median_of(untraced, &RepResult::teardown_s),
         reps_note},
        {"stage_turnaround_p50_ms", "ms", quantile(turnaround, 0.5),
         "p50 " + n_note},
        {"peak_rss_mb", "MB", first_rep_rss_mb,
         "VmHWM of the process after its first rep"},
    };
  } else {
    for (const LayerMetric& m : layer_metrics()) {
      const std::vector<RepResult>& reps =
          m.from == From::Traced ? traced : untraced;
      Output o{m.name, m.unit, 0.0, ""};
      if (m.from == From::Overhead) {
        const double plain = median_of(untraced, &RepResult::makespan_s);
        const double with = median_of(traced, &RepResult::makespan_s);
        o.value = plain > 0 ? with / plain - 1.0 : 0.0;
        o.note = "medians of " + std::to_string(traced.size()) + " traced / " +
                 std::to_string(untraced.size()) + " untraced reps";
      } else if (m.pooled) {
        std::vector<double> pool;
        for (const RepResult& r : reps) {
          const auto it = r.samples.find(m.name);
          if (it != r.samples.end()) {
            pool.insert(pool.end(), it->second.begin(), it->second.end());
          }
        }
        o.value = quantile(pool, m.q);
        o.note = "p" + std::to_string(static_cast<int>(m.q * 100)) + " of " +
                 std::to_string(pool.size()) + " samples";
      } else {
        std::vector<double> values;
        for (const RepResult& r : reps) {
          const auto it = r.scalars.find(m.name);
          if (it != r.scalars.end()) values.push_back(it->second);
        }
        o.value = median(values);
        o.note = "median of " + std::to_string(values.size()) + " reps";
      }
      if (m.from != From::Overhead) {
        o.note += m.from == From::Traced ? ", traced" : ", untraced";
      }
      o.note += std::string("; moves ") + m.moves;
      outputs.push_back(std::move(o));
    }
    if (!last_spans.empty()) {
      const std::string path = args.out_dir + "/spans-" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".json";
      write_spans(path, args, last_spans);
      std::printf("span tree of the last traced rep: %s\n", path.c_str());
    }
  }

  const bool correct = errors.empty() && !untraced.empty() &&
                       (args.trace == 0 || !traced.empty());
  std::printf("perfbench workload=%s seed=%llu nproc=%u seconds=%d trace=%d "
              "reps=%zu untraced + %zu traced (after warm-up)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              nproc, args.seconds, args.trace, untraced.size(), traced.size());
  std::printf("  %-36s %.6g (%zu of %zu tasks not DONE exactly once)\n",
              "task_failure_ratio",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  if (!correct) {
    if (errors.empty()) std::fprintf(stderr, "CHECK FAILED: no rep completed\n");
    std::printf(
        "{\"correct\": false, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {}}\n",
        std::max<std::size_t>(attempted, 1), failed);
    return 1;
  }
  for (const Output& o : outputs) {
    std::printf("  %-36s %-14.6g %-8s %s\n", o.name.c_str(), o.value,
                o.unit.c_str(), o.note.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", outputs[i].name.c_str(), outputs[i].value,
                outputs[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
