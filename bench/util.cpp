#include "bench/util.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace entk::bench {

long flag_int(int argc, char** argv, const std::string& name, long fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (name == argv[i]) return std::atol(argv[i + 1]);
  }
  return fallback;
}

double flag_double(int argc, char** argv, const std::string& name,
                   double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (name == argv[i]) return std::atof(argv[i + 1]);
  }
  return fallback;
}

bool flag_present(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (name == argv[i]) return true;
  }
  return false;
}

std::vector<PipelinePtr> make_ensemble(const EnsembleSpec& spec) {
  std::vector<PipelinePtr> pipelines;
  for (int p = 0; p < spec.pipelines; ++p) {
    auto pipeline = std::make_shared<Pipeline>('p' + std::to_string(p));
    for (int s = 0; s < spec.stages; ++s) {
      auto stage = std::make_shared<Stage>('s' + std::to_string(s));
      for (int t = 0; t < spec.tasks; ++t) {
        auto task = std::make_shared<Task>('t' + std::to_string(t));
        task->executable = spec.executable;
        task->duration_s = spec.duration_s;
        task->cpu_reqs.processes = spec.cores_per_task;
        if (spec.staging_bytes > 0) {
          task->input_staging.push_back(saga::StagingDirective{
              "restart.bin", "sandbox/", saga::StagingAction::Copy,
              spec.staging_bytes});
        } else if (spec.mdrun_staging) {
          for (int l = 0; l < 3; ++l) {
            task->input_staging.push_back(saga::StagingDirective{
                "topol" + std::to_string(l), "sandbox/",
                saga::StagingAction::Link, 130});
          }
          task->input_staging.push_back(saga::StagingDirective{
              "conf.gro", "sandbox/", saga::StagingAction::Copy, 550000});
        }
        stage->add_task(task);
      }
      pipeline->add_stage(stage);
    }
    pipelines.push_back(std::move(pipeline));
  }
  return pipelines;
}

AppManagerConfig experiment_config(const std::string& ci, int cores) {
  AppManagerConfig config;
  config.resource.resource = ci;
  config.resource.cpus = cores;
  config.resource.walltime_s = 48 * 3600;
  config.clock_scale = 1e-3;
  return config;
}

OverheadReport run_ensemble(AppManagerConfig config,
                            std::vector<PipelinePtr> pipelines) {
  AppManager appman(std::move(config));
  appman.add_pipelines(std::move(pipelines));
  appman.run();
  return appman.overheads();
}

void print_report_header(const std::string& sweep_name) {
  std::printf("%-22s %10s %10s %10s %10s %10s %10s %12s\n", sweep_name.c_str(),
              "EnTK-setup", "EnTK-mgmt", "EnTK-tdown", "RTS-ovh", "RTS-tdown",
              "Staging", "TaskExec");
  std::printf("%-22s %10s %10s %10s %10s %10s %10s %12s\n", "", "(s)", "(s)",
              "(s)", "(s)", "(s)", "(s)", "(s)");
}

void print_report_row(const std::string& label, const OverheadReport& r) {
  std::printf("%-22s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f %12.3f\n",
              label.c_str(), r.entk_setup_s, r.entk_mgmt_s, r.entk_teardown_s,
              r.rts_overhead_s, r.rts_teardown_s, r.staging_s, r.task_exec_s);
}

namespace {
double status_value_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t keylen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, keylen, key) == 0) {
      return std::atof(line.c_str() + keylen + 1) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}
}  // namespace

double rss_mb() { return status_value_mb("VmRSS:"); }
double peak_rss_mb() { return status_value_mb("VmHWM:"); }

}  // namespace entk::bench
