// Fig 9: strong scalability on Titan.
//
// 8,192 one-core Gromacs `mdrun` tasks (~600 s) executed on pilots of
// 1,024 / 2,048 / 4,096 cores — 8 / 4 / 2 generations respectively.
// Expected shape: Task Execution Time halves with every doubling of cores
// (linear strong scaling); every overhead and the staging time stay
// constant across pilot sizes, because both EnTK and RTS costs depend on
// the number of managed tasks, not on the size of the pilot.
#include <cstdio>

#include "bench/util.hpp"
#include "src/analytics/analysis.hpp"

int main(int argc, char** argv) {
  using namespace entk::bench;
  const long tasks = flag_int(argc, argv, "--tasks", 8192);
  const double duration = flag_double(argc, argv, "--duration", 600.0);

  std::printf("Fig 9: strong scalability on Titan (%ld 1-core mdrun ~%.0fs\n"
              "tasks on 1,024 / 2,048 / 4,096 cores)\n\n",
              tasks, duration);
  print_report_header("cores");

  std::vector<double> utilizations;
  for (const int cores : {1024, 2048, 4096}) {
    EnsembleSpec spec;
    spec.tasks = static_cast<int>(tasks);
    spec.duration_s = duration;
    spec.executable = "mdrun";
    spec.mdrun_staging = true;
    entk::AppManager appman(experiment_config("ornl.titan", cores));
    appman.add_pipelines(make_ensemble(spec));
    appman.run();
    print_report_row(std::to_string(cores), appman.overheads());
    utilizations.push_back(
        entk::analytics::RunAnalysis(appman.trace()).core_utilization(cores));
  }
  std::printf("\ncore utilization: 1024 -> %.1f%%, 2048 -> %.1f%%, "
              "4096 -> %.1f%%\n",
              100 * utilizations[0], 100 * utilizations[1],
              100 * utilizations[2]);

  std::printf(
      "\nPaper shape: exec time ~ (tasks/cores) generations x %.0fs —\n"
      "halving per core doubling; overheads and staging flat across runs.\n",
      duration);
  return 0;
}
