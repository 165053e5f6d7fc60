// Fault-tolerance integration tests (paper §II-B-4): RTS failure and
// restart with resubmission of lost units, restart-budget exhaustion,
// task retry limits, and recovery journals.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

#include "src/core/app_manager.hpp"
#include "src/rts/local_rts.hpp"

namespace entk {
namespace {

AppManagerConfig fast_config() {
  AppManagerConfig cfg;
  cfg.resource.resource = "local.localhost";
  cfg.resource.cpus = 16;
  cfg.resource.agent.env_setup_s = 0.1;
  cfg.resource.agent.dispatch_rate_per_s = 1000;
  cfg.resource.rts_teardown_base_s = 0.01;
  cfg.resource.rts_teardown_per_unit_s = 0.0;
  cfg.clock_scale = 1e-4;
  cfg.supervision.heartbeat_interval_s = 0.005;
  return cfg;
}

PipelinePtr long_pipeline(int tasks, double duration_s) {
  auto p = std::make_shared<Pipeline>("p");
  auto s = std::make_shared<Stage>("s");
  for (int i = 0; i < tasks; ++i) {
    auto t = std::make_shared<Task>('t' + std::to_string(i));
    t->executable = "sleep";
    t->duration_s = duration_s;
    s->add_task(t);
  }
  p->add_stage(s);
  return p;
}

TEST(FaultTolerance, RtsFailureIsRecoveredAndTasksComplete) {
  AppManagerConfig cfg = fast_config();
  cfg.supervision.rts_restart_limit = 2;
  AppManager amgr(cfg);
  // Tasks long enough (in wall time) that the kill lands mid-execution:
  // 2000 virtual s at 1e-4 scale = 200 ms.
  amgr.add_pipelines({long_pipeline(4, 2000.0)});

  std::thread killer([&amgr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    amgr.inject_rts_failure();
  });
  amgr.run();
  killer.join();

  EXPECT_EQ(amgr.tasks_done(), 4u);
  EXPECT_EQ(amgr.tasks_failed(), 0u);
  EXPECT_EQ(amgr.rts_restarts(), 1);
  EXPECT_EQ(amgr.pipelines()[0]->state(), PipelineState::Done);
}

TEST(FaultTolerance, RestartBudgetExhaustionAbortsWorkflow) {
  AppManagerConfig cfg = fast_config();
  cfg.supervision.rts_restart_limit = 0;  // no restarts allowed
  AppManager amgr(cfg);
  amgr.add_pipelines({long_pipeline(2, 5000.0)});
  std::thread killer([&amgr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    amgr.inject_rts_failure();
  });
  amgr.run();  // must return (aborted), not hang
  killer.join();
  EXPECT_EQ(amgr.pipelines()[0]->state(), PipelineState::Failed);
  EXPECT_EQ(amgr.tasks_done(), 0u);
}

TEST(FaultTolerance, DoubleFailureWithinBudgetStillCompletes) {
  AppManagerConfig cfg = fast_config();
  cfg.supervision.rts_restart_limit = 3;
  AppManager amgr(cfg);
  amgr.add_pipelines({long_pipeline(2, 1500.0)});
  std::thread killer([&amgr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    amgr.inject_rts_failure();
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    amgr.inject_rts_failure();
  });
  amgr.run();
  killer.join();
  EXPECT_EQ(amgr.tasks_done(), 2u);
  EXPECT_GE(amgr.rts_restarts(), 1);
  EXPECT_LE(amgr.rts_restarts(), 3);
}

TEST(FaultTolerance, PerTaskRetryLimitOverridesDefault) {
  AppManagerConfig cfg = fast_config();
  cfg.task_retry_limit = 0;
  AppManager amgr(cfg);
  auto p = std::make_shared<Pipeline>("p");
  auto s = std::make_shared<Stage>("s");
  auto stubborn = std::make_shared<Task>("stubborn");
  auto tries = std::make_shared<std::atomic<int>>(0);
  stubborn->retry_limit = 4;  // per-task override
  stubborn->duration_s = 0.5;
  stubborn->function = [tries] { return ++*tries < 4 ? 1 : 0; };
  s->add_task(stubborn);
  p->add_stage(s);
  amgr.add_pipelines({p});
  amgr.run();
  EXPECT_EQ(tries->load(), 4);
  EXPECT_EQ(amgr.tasks_done(), 1u);
  EXPECT_EQ(amgr.resubmissions(), 3u);
}

TEST(FaultTolerance, RetryExhaustionFailsStage) {
  AppManagerConfig cfg = fast_config();
  cfg.task_retry_limit = 2;
  AppManager amgr(cfg);
  auto p = std::make_shared<Pipeline>("p");
  auto s = std::make_shared<Stage>("s");
  auto hopeless = std::make_shared<Task>("hopeless");
  auto tries = std::make_shared<std::atomic<int>>(0);
  hopeless->duration_s = 0.2;
  hopeless->function = [tries] {
    ++*tries;
    return 1;
  };
  s->add_task(hopeless);
  // A healthy sibling task must still complete before the stage resolves.
  auto ok = std::make_shared<Task>("ok");
  ok->duration_s = 0.2;
  ok->function = [] { return 0; };
  s->add_task(ok);
  p->add_stage(s);
  amgr.add_pipelines({p});
  amgr.run();
  EXPECT_EQ(tries->load(), 3);  // initial + 2 retries
  EXPECT_EQ(amgr.tasks_failed(), 1u);
  EXPECT_EQ(amgr.tasks_done(), 1u);
  EXPECT_EQ(p->state(), PipelineState::Failed);
  EXPECT_EQ(amgr.overheads().resubmissions, 2u);
}

TEST(FaultTolerance, LaterStagesSkippedAfterStageFailure) {
  AppManagerConfig cfg = fast_config();
  AppManager amgr(cfg);
  auto p = std::make_shared<Pipeline>("p");
  auto s1 = std::make_shared<Stage>("s1");
  auto bad = std::make_shared<Task>("bad");
  bad->duration_s = 0.2;
  bad->function = [] { return 1; };
  s1->add_task(bad);
  p->add_stage(s1);
  auto s2 = std::make_shared<Stage>("s2");
  auto never = std::make_shared<std::atomic<bool>>(false);
  auto t2 = std::make_shared<Task>("never");
  t2->duration_s = 0.2;
  t2->function = [never] {
    *never = true;
    return 0;
  };
  s2->add_task(t2);
  p->add_stage(s2);
  amgr.add_pipelines({p});
  amgr.run();
  EXPECT_FALSE(never->load());
  EXPECT_EQ(s2->state(), StageState::Described);  // never scheduled
  EXPECT_EQ(p->state(), PipelineState::Failed);
}

TEST(FaultTolerance, OtherPipelinesContinueWhenOneFails) {
  AppManagerConfig cfg = fast_config();
  AppManager amgr(cfg);
  auto bad_pipeline = std::make_shared<Pipeline>("bad");
  auto bs = std::make_shared<Stage>("bs");
  auto bad = std::make_shared<Task>("bad");
  bad->duration_s = 0.2;
  bad->function = [] { return 1; };
  bs->add_task(bad);
  bad_pipeline->add_stage(bs);

  PipelinePtr good_pipeline = long_pipeline(3, 1.0);
  amgr.add_pipelines({bad_pipeline, good_pipeline});
  amgr.run();
  EXPECT_EQ(bad_pipeline->state(), PipelineState::Failed);
  EXPECT_EQ(good_pipeline->state(), PipelineState::Done);
  EXPECT_EQ(amgr.tasks_done(), 3u);
}

TEST(FaultTolerance, CustomRtsFactorySupportsRestart) {
  // Demonstrate RTS-agnosticism: the same failure protocol drives the
  // thread-pool LocalRts.
  AppManagerConfig cfg = fast_config();
  cfg.supervision.rts_restart_limit = 1;
  auto clock = std::make_shared<ScaledClock>(1e-4);
  auto profiler = std::make_shared<Profiler>();
  int instances = 0;
  cfg.rts_factory = [&instances, clock, profiler]() -> rts::RtsPtr {
    ++instances;
    return std::make_shared<rts::LocalRts>(rts::LocalRtsConfig{.workers = 4},
                                           clock, profiler);
  };
  AppManager amgr(cfg);
  amgr.add_pipelines({long_pipeline(3, 2000.0)});
  std::thread killer([&amgr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    amgr.inject_rts_failure();
  });
  amgr.run();
  killer.join();
  EXPECT_EQ(instances, 2);
  EXPECT_EQ(amgr.tasks_done(), 3u);
}

TEST(FaultTolerance, WfprocessorFaultIsRecoveredBySupervisor) {
  // Crash the WFProcessor mid-run: its workers die, the supervisor restarts
  // it re-attached to the same queues, and the run completes with every
  // task DONE — the paper's component-level fault tolerance (§II-B-4).
  AppManagerConfig cfg = fast_config();
  cfg.supervision.component_restart_limit = 2;
  AppManager amgr(cfg);
  amgr.add_pipelines({long_pipeline(6, 2000.0)});
  std::thread killer([&amgr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    amgr.inject_component_fault("wfprocessor");
  });
  amgr.run();
  killer.join();
  EXPECT_EQ(amgr.tasks_done(), 6u);
  EXPECT_EQ(amgr.tasks_failed(), 0u);
  EXPECT_GE(amgr.component_restarts(), 1);
  EXPECT_EQ(amgr.pipelines()[0]->state(), PipelineState::Done);
  EXPECT_TRUE(amgr.overheads().failed_component.empty());
}

TEST(FaultTolerance, SynchronizerFaultIsRecoveredBySupervisor) {
  AppManagerConfig cfg = fast_config();
  cfg.supervision.component_restart_limit = 2;
  AppManager amgr(cfg);
  amgr.add_pipelines({long_pipeline(4, 2000.0)});
  std::thread killer([&amgr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    amgr.inject_component_fault("synchronizer");
  });
  amgr.run();
  killer.join();
  EXPECT_EQ(amgr.tasks_done(), 4u);
  EXPECT_GE(amgr.component_restarts(), 1);
  EXPECT_EQ(amgr.pipelines()[0]->state(), PipelineState::Done);
  // Every task still reached DONE in the state store despite the crash.
  for (const StagePtr& s : amgr.pipelines()[0]->stages()) {
    for (const TaskPtr& t : s->tasks()) {
      EXPECT_EQ(amgr.state_store()->state_of(t->uid()), "DONE");
    }
  }
}

TEST(FaultTolerance, OverheadReportAndTraceSurviveComponentRestart) {
  // A supervisor-driven WFProcessor restart mid-run must leave the overhead
  // report derivable from the causal trace: restart counts recorded, every
  // completed task still carrying a monotone span chain ending in DONE.
  AppManagerConfig cfg = fast_config();
  cfg.supervision.component_restart_limit = 2;
  cfg.obs.metrics = true;
  AppManager amgr(cfg);
  amgr.add_pipelines({long_pipeline(6, 2000.0)});
  std::thread killer([&amgr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    amgr.inject_component_fault("wfprocessor");
  });
  amgr.run();
  killer.join();
  ASSERT_EQ(amgr.tasks_done(), 6u);

  const OverheadReport report = amgr.overheads();
  EXPECT_GE(report.component_restarts, 1);
  EXPECT_TRUE(report.failed_component.empty());  // recovered, not failed
  EXPECT_GT(report.task_exec_s, 0.0);

  // The supervisor's restart shows up in the live metrics...
  ASSERT_NE(amgr.metrics(), nullptr);
  EXPECT_GE(amgr.metrics()->counter("supervisor.restarts").value(), 1u);
  bool saw_wfp_fault = false;
  for (const obs::MetricSnapshot& m : amgr.metrics()->snapshot()) {
    if (m.name == "component.wfprocessor.faults" && m.value >= 1.0) {
      saw_wfp_fault = true;
    }
  }
  EXPECT_TRUE(saw_wfp_fault);

  // ...and the trace keeps a resolved, monotone chain for every task.
  const obs::Trace& trace = amgr.trace();
  for (const StagePtr& s : amgr.pipelines()[0]->stages()) {
    for (const TaskPtr& t : s->tasks()) {
      ASSERT_TRUE(trace.tasks.count(t->uid()));
      const obs::TaskTrace& tt = trace.tasks.at(t->uid());
      EXPECT_TRUE(tt.resolved_done);
      EXPECT_GE(tt.attempts, 1);
      ASSERT_FALSE(tt.spans.empty());
      std::int64_t prev = tt.spans.front().start_us;
      for (const obs::TaskSpan& span : tt.spans) {
        EXPECT_EQ(span.start_us, prev);
        EXPECT_GE(span.end_us, span.start_us);
        prev = span.end_us;
      }
    }
  }
}

TEST(FaultTolerance, ComponentBudgetExhaustionFailsRun) {
  AppManagerConfig cfg = fast_config();
  cfg.supervision.component_restart_limit = 0;  // any component crash is fatal
  AppManager amgr(cfg);
  amgr.add_pipelines({long_pipeline(2, 5000.0)});
  std::thread killer([&amgr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    amgr.inject_component_fault("wfprocessor");
  });
  amgr.run();  // must return (aborted), not hang
  killer.join();
  const OverheadReport report = amgr.overheads();
  EXPECT_EQ(report.failed_component, "wfprocessor");
  EXPECT_FALSE(report.failure_reason.empty());
  EXPECT_EQ(report.component_restarts, 0);
  EXPECT_EQ(amgr.tasks_done(), 0u);
}

TEST(FaultTolerance, UnknownComponentNameThrows) {
  AppManagerConfig cfg = fast_config();
  AppManager amgr(cfg);
  EXPECT_THROW(amgr.inject_component_fault("mystery"), ValueError);
}

TEST(FaultTolerance, JournalsSurviveForPostMortem) {
  const std::string dir = ::testing::TempDir() + "/entk_fault_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(wall_now_us());
  std::filesystem::create_directories(dir);
  AppManagerConfig cfg = fast_config();
  cfg.journal_dir = dir;
  cfg.task_retry_limit = 3;
  AppManager amgr(cfg);
  auto p = std::make_shared<Pipeline>("p");
  auto s = std::make_shared<Stage>("s");
  auto flaky = std::make_shared<Task>("flaky");
  auto tries = std::make_shared<std::atomic<int>>(0);
  flaky->duration_s = 0.2;
  flaky->function = [tries] { return ++*tries < 2 ? 1 : 0; };
  s->add_task(flaky);
  p->add_stage(s);
  amgr.add_pipelines({p});
  amgr.run();

  // The journal must contain the FAILED -> DESCRIBED resubmission arc.
  StateStore recovered;
  recovered.recover(amgr.state_store()->journal_path());
  bool saw_failed = false, saw_redescribed = false;
  for (const StateTransaction& t : recovered.history()) {
    if (t.uid == flaky->uid() && t.to_state == "FAILED") saw_failed = true;
    if (t.uid == flaky->uid() && t.from_state == "FAILED" &&
        t.to_state == "DESCRIBED") {
      saw_redescribed = true;
    }
  }
  EXPECT_TRUE(saw_failed);
  EXPECT_TRUE(saw_redescribed);
  EXPECT_EQ(recovered.state_of(flaky->uid()), "DONE");
}

TEST(FaultTolerance, StickyJournalErrorSurfacesAsBrokerFatal) {
  // A broker whose journal flusher hit an I/O error has already lost
  // durability: the Supervisor's broker watch must report it through the
  // fatal handler (component "broker"), not try to restart anything.
  const std::string dir = ::testing::TempDir() + "/entk_fault_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(wall_now_us());
  std::filesystem::create_directories(dir);
  auto broker = std::make_shared<mq::Broker>("b", dir);
  broker->declare_queue("q", mq::QueueOptions{.durable = true});

  Supervisor supervisor(SupervisionConfig{.heartbeat_interval_s = 0.005},
                        std::make_shared<Profiler>());
  std::mutex mutex;
  std::string failed_component, failed_reason;
  std::atomic<bool> fatal{false};
  supervisor.set_fatal_handler(
      [&](const std::string& component, const std::string& reason) {
        std::lock_guard<std::mutex> lock(mutex);
        failed_component = component;
        failed_reason = reason;
        fatal.store(true);
      });
  supervisor.watch_broker(broker);
  supervisor.start();

  // Arm the sticky failure the way a full disk would: the next probe must
  // see non-empty broker health.
  broker->journal_writer()->inject_io_error("journal flush: disk full");
  for (int spins = 0; spins < 1000 && !fatal.load(); ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  supervisor.stop();
  ASSERT_TRUE(fatal.load());
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(failed_component, "broker");
    EXPECT_NE(failed_reason.find("disk full"), std::string::npos);
  }
  // The same sticky error surfaces on close: the durable backlog may be
  // incomplete and callers must learn it.
  EXPECT_THROW(broker->close(), MqError);
}

}  // namespace
}  // namespace entk
