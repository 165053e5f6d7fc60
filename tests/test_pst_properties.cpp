// Property-style sweeps over the PST execution semantics (paper §II-B-1):
// for any application shape (P pipelines x S stages x T tasks), the
// toolkit must execute every task exactly once, finish every object in
// the right final state, serialize stages within a pipeline, and run
// pipelines/tasks concurrently. Also covers heterogeneous (GPU) tasks —
// the "dynamic mapping of tasks onto heterogeneous resources" direction
// of the paper's conclusion.
#include <gtest/gtest.h>

#include <atomic>
#include <tuple>

#include "src/core/app_manager.hpp"

namespace entk {
namespace {

AppManagerConfig fast_config(int cores = 32) {
  AppManagerConfig cfg;
  cfg.resource.resource = "local.localhost";
  cfg.resource.cpus = cores;
  cfg.resource.agent.env_setup_s = 0.1;
  cfg.resource.agent.dispatch_rate_per_s = 1000;
  cfg.resource.rts_teardown_base_s = 0.01;
  cfg.resource.rts_teardown_per_unit_s = 0.0;
  cfg.clock_scale = 1e-4;
  return cfg;
}

// ---------------------------------------------------------------- shape --

class PstShape
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PstShape, EveryTaskRunsExactlyOnceAndStatesFinalize) {
  const auto [pipelines, stages, tasks] = GetParam();
  auto executions = std::make_shared<std::atomic<int>>(0);

  AppManager amgr(fast_config());
  std::vector<PipelinePtr> app;
  for (int p = 0; p < pipelines; ++p) {
    auto pipeline = std::make_shared<Pipeline>('p' + std::to_string(p));
    for (int s = 0; s < stages; ++s) {
      auto stage = std::make_shared<Stage>('s' + std::to_string(s));
      for (int t = 0; t < tasks; ++t) {
        auto task = std::make_shared<Task>("t");
        task->duration_s = 0.5;
        task->function = [executions] {
          ++*executions;
          return 0;
        };
        stage->add_task(task);
      }
      pipeline->add_stage(stage);
    }
    app.push_back(std::move(pipeline));
  }
  amgr.add_pipelines(std::move(app));
  amgr.run();

  const int total = pipelines * stages * tasks;
  EXPECT_EQ(executions->load(), total);
  EXPECT_EQ(amgr.tasks_done(), static_cast<std::size_t>(total));
  EXPECT_EQ(amgr.tasks_failed(), 0u);
  for (const PipelinePtr& p : amgr.pipelines()) {
    EXPECT_EQ(p->state(), PipelineState::Done);
    for (const StagePtr& s : p->stages()) {
      EXPECT_EQ(s->state(), StageState::Done);
      for (const TaskPtr& t : s->tasks()) {
        EXPECT_EQ(t->state(), TaskState::Done);
        EXPECT_EQ(t->exit_code(), 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PstShape,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 1, 8),
                      std::make_tuple(1, 8, 1), std::make_tuple(8, 1, 1),
                      std::make_tuple(2, 3, 4), std::make_tuple(4, 2, 2),
                      std::make_tuple(3, 1, 5), std::make_tuple(1, 5, 3),
                      std::make_tuple(5, 5, 1), std::make_tuple(2, 2, 8)));

// ---------------------------------------------------------- sequencing --

class StageSequencing : public ::testing::TestWithParam<int> {};

TEST_P(StageSequencing, StagesNeverOverlapWithinAPipeline) {
  const int stages = GetParam();
  // Record a global order of (stage_index, event) pairs.
  auto order = std::make_shared<std::vector<int>>();
  auto mutex = std::make_shared<std::mutex>();

  AppManager amgr(fast_config());
  auto pipeline = std::make_shared<Pipeline>("seq");
  for (int s = 0; s < stages; ++s) {
    auto stage = std::make_shared<Stage>('s' + std::to_string(s));
    for (int t = 0; t < 3; ++t) {
      auto task = std::make_shared<Task>("t");
      task->duration_s = 0.3;
      task->function = [order, mutex, s] {
        std::lock_guard<std::mutex> lock(*mutex);
        order->push_back(s);
        return 0;
      };
      stage->add_task(task);
    }
    pipeline->add_stage(stage);
  }
  amgr.add_pipelines({pipeline});
  amgr.run();

  // The recorded stage indices must be non-decreasing: no task of stage
  // i+1 may run before every task of stage i completed.
  ASSERT_EQ(order->size(), static_cast<std::size_t>(stages * 3));
  for (std::size_t i = 1; i < order->size(); ++i) {
    EXPECT_LE((*order)[i - 1], (*order)[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, StageSequencing, ::testing::Values(2, 4, 7));

// -------------------------------------------------------- retry sweeps --

class RetryBudget : public ::testing::TestWithParam<int> {};

TEST_P(RetryBudget, TaskFailingNTimesNeedsBudgetN) {
  const int failures_before_success = GetParam();
  auto attempts = std::make_shared<std::atomic<int>>(0);

  // Budget exactly equal to the number of failures: must succeed.
  AppManagerConfig cfg = fast_config();
  cfg.task_retry_limit = failures_before_success;
  AppManager amgr(cfg);
  auto pipeline = std::make_shared<Pipeline>("p");
  auto stage = std::make_shared<Stage>("s");
  auto task = std::make_shared<Task>("flaky");
  task->duration_s = 0.2;
  task->function = [attempts, failures_before_success] {
    return ++*attempts <= failures_before_success ? 1 : 0;
  };
  stage->add_task(task);
  pipeline->add_stage(stage);
  amgr.add_pipelines({pipeline});
  amgr.run();
  EXPECT_EQ(attempts->load(), failures_before_success + 1);
  EXPECT_EQ(amgr.tasks_done(), 1u);
  EXPECT_EQ(amgr.resubmissions(),
            static_cast<std::size_t>(failures_before_success));
  EXPECT_EQ(pipeline->state(), PipelineState::Done);
}

INSTANTIATE_TEST_SUITE_P(Budgets, RetryBudget, ::testing::Values(0, 1, 3, 6));

// ------------------------------------------------------- heterogeneous --

TEST(Heterogeneous, GpuTasksScheduleOntoGpuNodes) {
  // Titan nodes carry 1 GPU each; a GPU task must occupy one.
  AppManagerConfig cfg;
  cfg.resource.resource = "ornl.titan";
  cfg.resource.nodes = 4;  // 64 cores, 4 GPUs
  cfg.clock_scale = 1e-4;
  cfg.resource.agent.env_setup_s = 0.1;
  cfg.resource.agent.dispatch_rate_per_s = 1000;
  cfg.resource.rts_teardown_base_s = 0.01;
  AppManager amgr(cfg);

  auto pipeline = std::make_shared<Pipeline>("gpu");
  auto stage = std::make_shared<Stage>("s");
  for (int i = 0; i < 8; ++i) {
    auto task = std::make_shared<Task>("gpu-task");
    task->duration_s = 5.0;
    task->gpu_reqs.processes = 1;
    stage->add_task(task);
  }
  pipeline->add_stage(stage);
  amgr.add_pipelines({pipeline});
  amgr.run();
  EXPECT_EQ(amgr.tasks_done(), 8u);
  // 8 GPU tasks on 4 GPUs: at least two generations.
  EXPECT_GE(amgr.overheads().task_exec_s, 2 * 5.0);
}

TEST(Heterogeneous, MixedCpuGpuWorkloadsShareThePilot) {
  AppManagerConfig cfg;
  cfg.resource.resource = "ornl.titan";
  cfg.resource.nodes = 2;  // 32 cores, 2 GPUs
  cfg.clock_scale = 1e-4;
  cfg.resource.agent.env_setup_s = 0.1;
  cfg.resource.agent.dispatch_rate_per_s = 1000;
  cfg.resource.rts_teardown_base_s = 0.01;
  AppManager amgr(cfg);

  auto pipeline = std::make_shared<Pipeline>("mixed");
  auto stage = std::make_shared<Stage>("s");
  for (int i = 0; i < 4; ++i) {
    auto cpu_task = std::make_shared<Task>("cpu");
    cpu_task->duration_s = 3.0;
    cpu_task->cpu_reqs.processes = 8;
    stage->add_task(cpu_task);
    auto gpu_task = std::make_shared<Task>("gpu");
    gpu_task->duration_s = 3.0;
    gpu_task->gpu_reqs.processes = 1;
    stage->add_task(gpu_task);
  }
  pipeline->add_stage(stage);
  amgr.add_pipelines({pipeline});
  amgr.run();
  EXPECT_EQ(amgr.tasks_done(), 8u);
  EXPECT_EQ(pipeline->state(), PipelineState::Done);
}

TEST(Heterogeneous, GpuRequestOnGpulessCiFails) {
  AppManagerConfig cfg = fast_config();  // local CI has no GPUs
  AppManager amgr(cfg);
  auto pipeline = std::make_shared<Pipeline>("nogpu");
  auto stage = std::make_shared<Stage>("s");
  auto task = std::make_shared<Task>("gpu");
  task->duration_s = 1.0;
  task->gpu_reqs.processes = 1;
  stage->add_task(task);
  pipeline->add_stage(stage);
  amgr.add_pipelines({pipeline});
  amgr.run();
  EXPECT_EQ(amgr.tasks_failed(), 1u);
  EXPECT_EQ(pipeline->state(), PipelineState::Failed);
}

// ------------------------------------------------- concurrency evidence --

TEST(Concurrency, PipelinesOverlapInVirtualTime) {
  // Two pipelines of one long task each: with concurrent execution the
  // total exec span is ~one task, not two.
  AppManager amgr(fast_config());
  std::vector<PipelinePtr> app;
  for (int p = 0; p < 2; ++p) {
    auto pipeline = std::make_shared<Pipeline>("p");
    auto stage = std::make_shared<Stage>("s");
    auto task = std::make_shared<Task>("t");
    task->duration_s = 20.0;
    stage->add_task(task);
    pipeline->add_stage(stage);
    app.push_back(std::move(pipeline));
  }
  amgr.add_pipelines(std::move(app));
  amgr.run();
  EXPECT_LT(amgr.overheads().task_exec_s, 2 * 20.0);
  EXPECT_GE(amgr.overheads().task_exec_s, 20.0);
}

}  // namespace
}  // namespace entk
