// entk_trace: post-mortem analysis of a recorded trace file.
//
// Reads the raw events of a trace file (entk_run --trace-out, entk_worker
// --trace-out, obs::write_chrome_trace), stitches them into the causal
// task-span model (src/obs/trace.hpp) and summarizes the per-span latency
// distribution:
//
//   entk_trace run.trace.json --summarize
//
// --summarize prints one row per chain segment (enqueue / schedule / exec /
// sync / done) with count, p50, p95 and max in microseconds, derived from
// the same fixed-bucket histograms AppManager fills when live metrics are
// on — so a recorded run and a live run summarize identically.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/error.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

int main(int argc, char** argv) {
  bool summarize = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--summarize") == 0) {
      summarize = true;
    } else if (trace_path.empty() && argv[i][0] != '-') {
      trace_path = argv[i];
    } else {
      trace_path.clear();
      break;
    }
  }
  if (trace_path.empty() || !summarize) {
    std::fprintf(stderr,
                 "usage: entk_trace <trace.json> --summarize\n"
                 "       stitches the raw events of a trace file (written by\n"
                 "       entk_run/entk_worker --trace-out) into the causal\n"
                 "       task-span model and prints the per-span latency\n"
                 "       table (count/p50/p95/max us)\n");
    return 2;
  }

  try {
    const std::vector<entk::ProfileEvent> events =
        entk::obs::read_trace_events(trace_path);
    const entk::obs::Trace trace = entk::obs::build_trace(events);
    std::printf("entk_trace: %zu events, %zu tasks, %zu stages, "
                "%zu pipelines\n",
                events.size(), trace.tasks.size(), trace.stages.size(),
                trace.pipelines.size());
    entk::obs::MetricsRegistry registry;
    entk::obs::fill_span_histograms(trace, registry);
    std::printf("%s", entk::obs::span_latency_table(registry).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "entk_trace: %s\n", e.what());
    return 2;
  }
}
