// entk_run: execute a PST application described in a JSON file.
//
// The JSON schema mirrors the programmatic API one-to-one:
//
// {
//   "resource": {
//     "resource": "ornl.titan",        // CI name, or "local.localhost"
//     "cpus": 64,                      // or "nodes": N
//     "walltime_s": 7200,
//     "task_retry_limit": 2,
//     "clock_scale": 0.001,            // wall seconds per virtual second
//     "local_processes": false         // true: run absolute-path
//   },                                 //   executables as real processes
//   "pipelines": [
//     { "name": "p0",
//       "stages": [
//         { "name": "simulate",
//           "tasks": [
//             { "name": "t0",
//               "executable": "sleep", "duration_s": 60,
//               "cores": 1, "gpus": 0, "exclusive_nodes": false,
//               "arguments": ["60"],
//               "retry_limit": -1,
//               "inputs":  [ {"source": "a", "target": "b",
//                             "action": "copy|link|transfer",
//                             "bytes": 1024} ],
//               "outputs": [ ... ] } ] } ] } ]
// }
//
// With "local_processes": true the workflow runs on the LocalRts thread
// pool in real time and absolute-path executables are actually spawned;
// otherwise it runs on the simulated pilot RTS against the named CI.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/core/app_manager.hpp"
#include "src/ensemble/controller.hpp"
#include "src/ensemble/rules_json.hpp"
#include "src/rts/local_rts.hpp"

namespace {

using namespace entk;

saga::StagingDirective parse_directive(const json::Value& v) {
  saga::StagingDirective d;
  d.source = v.get_string("source", "");
  d.target = v.get_string("target", "");
  const std::string action = v.get_string("action", "copy");
  if (action == "link") d.action = saga::StagingAction::Link;
  else if (action == "transfer") d.action = saga::StagingAction::Transfer;
  d.bytes = static_cast<std::uint64_t>(v.get_int("bytes", 0));
  return d;
}

TaskPtr parse_task(const json::Value& v) {
  auto task = std::make_shared<Task>(v.get_string("name", "task"));
  task->executable = v.get_string("executable", "");
  if (v.contains("arguments")) {
    for (const json::Value& a : v.at("arguments").as_array()) {
      task->arguments.push_back(a.as_string());
    }
  }
  task->duration_s = v.get_double("duration_s", 0.0);
  task->cpu_reqs.processes = static_cast<int>(v.get_int("cores", 1));
  task->gpu_reqs.processes = static_cast<int>(v.get_int("gpus", 0));
  task->exclusive_nodes = v.get_bool("exclusive_nodes", false);
  task->retry_limit = static_cast<int>(v.get_int("retry_limit", -1));
  const std::string group = v.get_string("group", "");
  if (!group.empty()) task->metadata["ensemble"]["group"] = group;
  if (v.contains("inputs")) {
    for (const json::Value& d : v.at("inputs").as_array()) {
      task->input_staging.push_back(parse_directive(d));
    }
  }
  if (v.contains("outputs")) {
    for (const json::Value& d : v.at("outputs").as_array()) {
      task->output_staging.push_back(parse_directive(d));
    }
  }
  return task;
}

std::vector<PipelinePtr> parse_pipelines(const json::Value& doc) {
  std::vector<PipelinePtr> pipelines;
  for (const json::Value& pv : doc.at("pipelines").as_array()) {
    auto pipeline = std::make_shared<Pipeline>(pv.get_string("name", "p"));
    for (const json::Value& sv : pv.at("stages").as_array()) {
      auto stage = std::make_shared<Stage>(sv.get_string("name", "s"));
      for (const json::Value& tv : sv.at("tasks").as_array()) {
        stage->add_task(parse_task(tv));
      }
      pipeline->add_stage(stage);
    }
    pipelines.push_back(std::move(pipeline));
  }
  return pipelines;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: entk_run <workflow.json>\n"
                 "                [--component-restart-limit N]\n"
                 "                [--trace-out trace.json]\n"
                 "                [--metrics-out metrics.jsonl]\n"
                 "                [--journal-dir DIR]\n"
                 "                [--journal-batch-bytes N]\n"
                 "                [--journal-max-delay-ms MS]\n"
                 "                [--broker HOST:PORT] [--workers]\n"
                 "                [--tenant ID]\n"
                 "                [--rules rules.json]\n"
                 "                [--ensemble-journal decisions.jsonl]\n"
                 "       executes the PST application described in the file;\n"
                 "       --component-restart-limit caps how often the\n"
                 "       supervisor restarts a crashed EnTK component before\n"
                 "       failing the run (default 2);\n"
                 "       --trace-out writes the causal task trace as Chrome\n"
                 "       trace_event JSON (chrome://tracing / Perfetto) that\n"
                 "       also carries the raw events for entk_trace;\n"
                 "       --metrics-out writes the metrics registry (broker,\n"
                 "       component, RTS counters and latency histograms) as\n"
                 "       JSONL and enables live metrics for the run;\n"
                 "       --journal-dir makes broker queues durable, writing\n"
                 "       the group-commit journal to DIR; the flush policy\n"
                 "       is tuned with --journal-batch-bytes (default 256k)\n"
                 "       and --journal-max-delay-ms (default 2, 0 = sync\n"
                 "       every append);\n"
                 "       --broker runs the workflow against an entk_broker\n"
                 "       daemon at HOST:PORT instead of the in-process\n"
                 "       broker (broker durability is then the daemon's\n"
                 "       --journal-dir);\n"
                 "       --workers (requires --broker) runs no local\n"
                 "       execution stack: tasks are published as\n"
                 "       self-contained units and executed by entk_worker\n"
                 "       daemons connected to the same broker;\n"
                 "       --tenant (requires --broker) runs the workflow\n"
                 "       inside tenant ID's namespace on a shared daemon —\n"
                 "       queue names never collide with other ensembles',\n"
                 "       and the daemon's per-tenant quotas apply;\n"
                 "       --rules attaches an ensemble controller evaluating\n"
                 "       the declarative rule file (triggers on task/stage\n"
                 "       completions, metric thresholds and timers; actions\n"
                 "       cancel_group, resize_pilot, set_param, finish) —\n"
                 "       tag tasks with \"group\" to target them;\n"
                 "       --ensemble-journal appends every rule firing as a\n"
                 "       JSONL decision record for replay/debugging\n");
    return 2;
  }
  std::string trace_out;
  std::string metrics_out;
  std::string journal_dir;
  std::string broker_endpoint;
  std::string tenant;
  std::string rules_path;
  std::string ensemble_journal;
  long journal_batch_bytes = -1;
  double journal_max_delay_ms = -1.0;
  int component_restart_limit = -1;
  bool remote_workers = false;
  // Valueless flags first (the value-taking loop below stops one short).
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--workers") remote_workers = true;
  }
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace-out") trace_out = argv[i + 1];
    if (std::string(argv[i]) == "--metrics-out") metrics_out = argv[i + 1];
    if (std::string(argv[i]) == "--journal-dir") journal_dir = argv[i + 1];
    if (std::string(argv[i]) == "--broker") broker_endpoint = argv[i + 1];
    if (std::string(argv[i]) == "--tenant") tenant = argv[i + 1];
    if (std::string(argv[i]) == "--rules") rules_path = argv[i + 1];
    if (std::string(argv[i]) == "--ensemble-journal") {
      ensemble_journal = argv[i + 1];
    }
    if (std::string(argv[i]) == "--journal-batch-bytes") {
      journal_batch_bytes = std::atol(argv[i + 1]);
    }
    if (std::string(argv[i]) == "--journal-max-delay-ms") {
      journal_max_delay_ms = std::atof(argv[i + 1]);
    }
    if (std::string(argv[i]) == "--component-restart-limit") {
      component_restart_limit = std::atoi(argv[i + 1]);
    }
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "entk_run: cannot read %s\n", argv[1]);
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  try {
    const json::Value doc = json::parse(buffer.str());

    AppManagerConfig config;
    bool local_processes = false;
    if (doc.contains("resource")) {
      const json::Value& r = doc.at("resource");
      config.resource.resource = r.get_string("resource", "local.localhost");
      config.resource.cpus = static_cast<int>(r.get_int("cpus", 8));
      config.resource.nodes = static_cast<int>(r.get_int("nodes", 0));
      config.resource.walltime_s = r.get_double("walltime_s", 7200.0);
      config.task_retry_limit =
          static_cast<int>(r.get_int("task_retry_limit", 0));
      config.clock_scale = r.get_double("clock_scale", 1e-3);
      local_processes = r.get_bool("local_processes", false);
    }
    if (component_restart_limit >= 0) {
      config.supervision.component_restart_limit = component_restart_limit;
    }
    config.obs.trace_out = trace_out;
    config.obs.metrics_out = metrics_out;
    config.journal_dir = journal_dir;
    config.broker_endpoint = broker_endpoint;
    if (!tenant.empty() && broker_endpoint.empty()) {
      std::fprintf(stderr, "entk_run: --tenant requires --broker\n");
      return 2;
    }
    config.tenant = tenant;
    config.remote_workers = remote_workers;
    if (journal_batch_bytes >= 0) {
      config.journal.max_batch_bytes =
          static_cast<std::size_t>(journal_batch_bytes);
    }
    if (journal_max_delay_ms == 0.0) {
      config.journal.sync_every_append = true;  // 0 = flush on every append
    } else if (journal_max_delay_ms > 0.0) {
      config.journal.max_delay_s = journal_max_delay_ms * 1e-3;
    }
    if (local_processes) {
      // Real-time local execution with actual process spawning.
      auto clock = std::make_shared<RealClock>();
      auto profiler = std::make_shared<Profiler>();
      const int workers = config.resource.cpus;
      config.rts_factory = [clock, profiler, workers]() -> rts::RtsPtr {
        return std::make_shared<rts::LocalRts>(
            rts::LocalRtsConfig{.workers = workers}, clock, profiler);
      };
      config.clock_scale = 1.0;
    }

    ensemble::ControllerPtr controller;
    if (!rules_path.empty()) {
      ensemble::ControllerConfig ens_cfg;
      ens_cfg.journal_path = ensemble_journal;
      controller = ensemble::Controller::create(ens_cfg);
      for (ensemble::Rule& rule : ensemble::rules_from_file(rules_path)) {
        controller->add_rule(std::move(rule));
      }
      controller->attach(config);
    } else if (!ensemble_journal.empty()) {
      std::fprintf(stderr, "entk_run: --ensemble-journal requires --rules\n");
      return 2;
    }

    AppManager appman(config);
    appman.add_pipelines(parse_pipelines(doc));
    appman.run();

    const OverheadReport report = appman.overheads();
    std::printf("entk_run: %zu done, %zu failed, %zu resubmissions\n",
                report.tasks_done, report.tasks_failed, report.resubmissions);
    if (controller) {
      std::printf("entk_run: %zu ensemble decision(s)%s%s\n",
                  controller->decision_count(),
                  ensemble_journal.empty() ? "" : " journaled to ",
                  ensemble_journal.c_str());
    }
    std::printf("%s", report.to_table().c_str());
    for (const PipelinePtr& p : appman.pipelines()) {
      std::printf("pipeline %-16s %s\n", p->name.c_str(),
                  to_string(p->state()));
    }
    return report.tasks_failed == 0 && report.failed_component.empty() ? 0
                                                                       : 1;
  } catch (const json::ParseError& e) {
    std::fprintf(stderr, "entk_run: invalid JSON: %s\n", e.what());
    return 2;
  } catch (const EnTKError& e) {
    std::fprintf(stderr, "entk_run: %s\n", e.what());
    return 2;
  }
}
