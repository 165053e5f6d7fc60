// Tests for the toolkit extensions: resume-from-journal (full-failure
// restart, paper §II-B-4) and the multi-pilot RTS (heterogeneous resource
// interleaving, paper §II-D / §III-A).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>

#include "src/core/app_manager.hpp"
#include "src/rts/multi_pilot_rts.hpp"

namespace entk {
namespace {

std::string fresh_dir() {
  const std::string dir = ::testing::TempDir() + "/entk_ext_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(wall_now_us());
  std::filesystem::create_directories(dir);
  return dir;
}

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

// ------------------------------------------------------------ resume ----

TEST(Resume, SecondAttemptSkipsCompletedTasks) {
  const std::string dir = fresh_dir();

  // The application: stage with one always-good and one initially-broken
  // task, followed by a second stage that can only run once both pass.
  auto broken = std::make_shared<std::atomic<bool>>(true);
  auto good_runs = std::make_shared<std::atomic<int>>(0);
  auto bad_runs = std::make_shared<std::atomic<int>>(0);
  auto final_runs = std::make_shared<std::atomic<int>>(0);

  auto pipeline = std::make_shared<Pipeline>("p");
  auto s1 = std::make_shared<Stage>("s1");
  auto good = std::make_shared<Task>("good");
  good->duration_s = 0.2;
  good->function = [good_runs] {
    ++*good_runs;
    return 0;
  };
  s1->add_task(good);
  auto bad = std::make_shared<Task>("bad");
  bad->duration_s = 0.2;
  bad->function = [broken, bad_runs] {
    ++*bad_runs;
    return broken->load() ? 1 : 0;
  };
  s1->add_task(bad);
  pipeline->add_stage(s1);
  auto s2 = std::make_shared<Stage>("s2");
  auto fin = std::make_shared<Task>("final");
  fin->duration_s = 0.2;
  fin->function = [final_runs] {
    ++*final_runs;
    return 0;
  };
  s2->add_task(fin);
  pipeline->add_stage(s2);

  std::string first_journal;
  {
    // Attempt 1: the bad task fails permanently; the pipeline fails.
    AppManagerConfig cfg = fast_config();
    cfg.journal_dir = dir;
    AppManager amgr(cfg);
    amgr.add_pipelines({pipeline});
    amgr.run();
    EXPECT_EQ(pipeline->state(), PipelineState::Failed);
    EXPECT_EQ(amgr.tasks_done(), 1u);
    EXPECT_EQ(amgr.tasks_failed(), 1u);
    first_journal = amgr.state_store()->journal_path();
  }

  // "Fix the environment" and resubmit the same description.
  *broken = false;
  pipeline->reset_for_resume();
  {
    AppManagerConfig cfg = fast_config();
    cfg.resume_journal = first_journal;
    AppManager amgr(cfg);
    amgr.add_pipelines({pipeline});
    amgr.run();
    EXPECT_EQ(pipeline->state(), PipelineState::Done);
    EXPECT_EQ(amgr.tasks_recovered(), 1u);  // "good" not re-executed
    EXPECT_EQ(amgr.tasks_done(), 2u);       // "bad" + "final"
  }
  EXPECT_EQ(good_runs->load(), 1);  // ran only in attempt 1
  EXPECT_EQ(bad_runs->load(), 2);   // failed once, then succeeded
  EXPECT_EQ(final_runs->load(), 1);
}

TEST(Resume, FullyCompletedStageIsSkippedEntirely) {
  const std::string dir = fresh_dir();
  auto stage1_runs = std::make_shared<std::atomic<int>>(0);
  auto pipeline = std::make_shared<Pipeline>("p");
  auto s1 = std::make_shared<Stage>("s1");
  for (int i = 0; i < 3; ++i) {
    auto t = std::make_shared<Task>('t' + std::to_string(i));
    t->duration_s = 0.2;
    t->function = [stage1_runs] {
      ++*stage1_runs;
      return 0;
    };
    s1->add_task(t);
  }
  pipeline->add_stage(s1);

  std::string journal;
  {
    AppManagerConfig cfg = fast_config();
    cfg.journal_dir = dir;
    AppManager amgr(cfg);
    amgr.add_pipelines({pipeline});
    amgr.run();
    EXPECT_EQ(amgr.tasks_done(), 3u);
    journal = amgr.state_store()->journal_path();
  }

  pipeline->reset_for_resume();
  {
    AppManagerConfig cfg = fast_config();
    cfg.resume_journal = journal;
    AppManager amgr(cfg);
    amgr.add_pipelines({pipeline});
    amgr.run();
    EXPECT_EQ(amgr.tasks_recovered(), 3u);
    EXPECT_EQ(amgr.tasks_done(), 0u);
    EXPECT_EQ(pipeline->state(), PipelineState::Done);
  }
  EXPECT_EQ(stage1_runs->load(), 3);  // nothing re-ran
}

TEST(Resume, RecoveredTasksAreCommittedDoneByTheTypedPath) {
  // A resumed run registers the same objects under fresh registry ids and
  // commits each recovered task DONE through the typed store; the journal
  // still renders the uids, so a second resume skips them again.
  const std::string dir = fresh_dir();
  auto runs = std::make_shared<std::atomic<int>>(0);
  auto pipeline = std::make_shared<Pipeline>("p");
  for (int s = 0; s < 2; ++s) {
    auto stage = std::make_shared<Stage>('s' + std::to_string(s));
    for (int i = 0; i < 3; ++i) {
      auto t = std::make_shared<Task>("t");
      t->duration_s = 0.2;
      t->function = [runs] {
        ++*runs;
        return 0;
      };
      stage->add_task(t);
    }
    pipeline->add_stage(stage);
  }
  std::string journal;
  {
    AppManagerConfig cfg = fast_config();
    cfg.journal_dir = dir;
    AppManager amgr(cfg);
    amgr.add_pipelines({pipeline});
    amgr.run();
    journal = amgr.state_store()->journal_path();
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    pipeline->reset_for_resume();
    AppManagerConfig cfg = fast_config();
    cfg.resume_journal = journal;
    cfg.journal_dir = fresh_dir();
    AppManager amgr(cfg);
    amgr.add_pipelines({pipeline});
    amgr.run();
    EXPECT_EQ(amgr.tasks_recovered(), 6u);
    EXPECT_EQ(amgr.tasks_done(), 0u);
    EXPECT_EQ(pipeline->state(), PipelineState::Done);
    std::size_t recovery_commits = 0;
    for (const StateTransaction& t : amgr.state_store()->history()) {
      if (t.component != "recovery") continue;
      ++recovery_commits;
      EXPECT_EQ(t.kind, "task");
      EXPECT_EQ(t.from_state, "DESCRIBED");
      EXPECT_EQ(t.to_state, "DONE");
    }
    EXPECT_EQ(recovery_commits, 6u);
    for (const StagePtr& stage : pipeline->stages()) {
      for (const TaskPtr& t : stage->tasks()) {
        EXPECT_NE(t->id(), kNoId);
        EXPECT_EQ(amgr.state_store()->state_of(t->uid()), "DONE");
      }
    }
    journal = amgr.state_store()->journal_path();
  }
  EXPECT_EQ(runs->load(), 6);  // only the first attempt executed
}

TEST(Resume, CombinedBrokerAndStateRecoveryDoesNotReexecuteDoneTasks) {
  // Combined crash recovery: a resumed run replays BOTH journals — the
  // state journal (resume_journal) that marks tasks DONE, and a crashed
  // broker's journal (recover_broker_journal) that still holds one of
  // those DONE tasks published-but-unacked in q.pending. The recovered
  // backlog must be purged (the WFProcessor is the scheduling authority),
  // so the DONE task is neither re-published nor re-executed.
  const std::string dir = fresh_dir();
  auto first_runs = std::make_shared<std::atomic<int>>(0);
  auto second_runs = std::make_shared<std::atomic<int>>(0);
  auto pipeline = std::make_shared<Pipeline>("p");
  auto s1 = std::make_shared<Stage>("s1");
  auto first = std::make_shared<Task>("first");
  first->duration_s = 0.2;
  first->function = [first_runs] {
    ++*first_runs;
    return 0;
  };
  s1->add_task(first);
  pipeline->add_stage(s1);
  auto s2 = std::make_shared<Stage>("s2");
  auto second = std::make_shared<Task>("second");
  second->duration_s = 0.2;
  second->function = [second_runs] {
    ++*second_runs;
    return 0;
  };
  s2->add_task(second);
  pipeline->add_stage(s2);

  // Attempt 1: durable, completes fully.
  std::string state_journal;
  {
    AppManagerConfig cfg = fast_config();
    cfg.journal_dir = dir;
    AppManager amgr(cfg);
    amgr.add_pipelines({pipeline});
    amgr.run();
    ASSERT_EQ(amgr.tasks_done(), 2u);
    state_journal = amgr.state_store()->journal_path();
    EXPECT_TRUE(std::filesystem::exists(amgr.broker_journal_path()));
  }

  // A crashed broker's journal: the DONE task's dispatch message sits in
  // q.pending, published but never acked (the crash hit before the
  // ExecManager consumed it).
  const std::string crash_dir = fresh_dir();
  std::string crashed_journal;
  {
    mq::Broker crashed("crashed", crash_dir);
    crashed.declare_queue("q.pending", mq::QueueOptions{.durable = true});
    json::Value msg;
    msg["uid"] = first->uid();
    crashed.publish("q.pending", mq::Message::json_body("q.pending", msg));
    crashed_journal = crashed.journal_path();
    crashed.close();
  }

  pipeline->reset_for_resume();
  {
    AppManagerConfig cfg = fast_config();
    cfg.resume_journal = state_journal;
    cfg.recover_broker_journal = crashed_journal;
    AppManager amgr(cfg);
    amgr.add_pipelines({pipeline});
    amgr.run();
    EXPECT_EQ(amgr.tasks_recovered(), 2u);
    EXPECT_EQ(amgr.tasks_done(), 0u);
    EXPECT_EQ(pipeline->state(), PipelineState::Done);
    EXPECT_TRUE(amgr.overheads().failed_component.empty());
  }
  // The replayed q.pending backlog was purged: the recovered-DONE task did
  // not run again.
  EXPECT_EQ(first_runs->load(), 1);
  EXPECT_EQ(second_runs->load(), 1);
}

TEST(Resume, ResetForResumeRestoresDescribedStates) {
  auto pipeline = std::make_shared<Pipeline>("p");
  auto stage = std::make_shared<Stage>("s");
  auto task = std::make_shared<Task>("t");
  task->duration_s = 1;
  stage->add_task(task);
  pipeline->add_stage(stage);
  pipeline->set_state(PipelineState::Failed);
  stage->set_state(StageState::Failed);
  task->set_state(TaskState::Failed);
  pipeline->advance();
  pipeline->reset_for_resume();
  EXPECT_EQ(pipeline->state(), PipelineState::Described);
  EXPECT_EQ(stage->state(), StageState::Described);
  EXPECT_EQ(task->state(), TaskState::Described);
  EXPECT_EQ(pipeline->current_stage(), stage);
}

// -------------------------------------------------------- multi-pilot ---

class MultiSink {
 public:
  void operator()(const rts::UnitResult& r) {
    std::lock_guard<std::mutex> lock(mutex_);
    results_.push_back(r);
    cv_.notify_all();
  }
  bool wait_for(std::size_t n, double timeout_s = 10.0) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return results_.size() >= n; });
  }
  std::vector<rts::UnitResult> results() {
    std::lock_guard<std::mutex> lock(mutex_);
    return results_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<rts::UnitResult> results_;
};

rts::PilotRtsConfig pilot_config(const std::string& ci, int nodes) {
  rts::PilotRtsConfig cfg;
  cfg.pilot.resource = ci;
  cfg.pilot.nodes = nodes;
  cfg.agent.env_setup_s = 0.05;
  cfg.agent.dispatch_rate_per_s = 1000;
  cfg.teardown_base_s = 0.01;
  cfg.teardown_per_unit_s = 0.0;
  return cfg;
}

rts::MultiPilotRtsConfig two_pilot_config() {
  // A "leadership" pilot (64 Titan nodes = 1024 cores) plus a small
  // "cluster" pilot (2 Comet nodes = 48 cores) — the paper's §III-A
  // simulation/analysis split.
  rts::MultiPilotRtsConfig cfg;
  cfg.pilots.push_back(pilot_config("ornl.titan", 64));
  cfg.pilots.push_back(pilot_config("xsede.comet", 2));
  return cfg;
}

TEST(MultiPilot, RequiresAtLeastOnePilot) {
  EXPECT_THROW(rts::MultiPilotRts(rts::MultiPilotRtsConfig{},
                                  std::make_shared<ScaledClock>(1e-4),
                                  std::make_shared<Profiler>()),
               ValueError);
}

TEST(MultiPilot, RoutesByCapacityAndLoad) {
  auto clock = std::make_shared<ScaledClock>(1e-4);
  rts::MultiPilotRts rts(two_pilot_config(), clock,
                         std::make_shared<Profiler>());
  MultiSink sink;
  rts.set_completion_callback([&sink](const rts::UnitResult& r) { sink(r); });
  rts.initialize();
  ASSERT_EQ(rts.pilot_count(), 2u);

  // A 512-core unit only fits the Titan pilot. Long-running (10,000
  // virtual s ~ 1 s wall at 1e-4) so it still occupies cores while the
  // routing assertions below execute.
  rts::TaskUnit big;
  big.uid = "big";
  big.cores = 512;
  big.duration_s = 10000.0;
  EXPECT_EQ(rts.route(big), 0);

  // A 1-core unit goes to the pilot with more free cores (Titan, idle).
  rts::TaskUnit small;
  small.uid = "small";
  small.cores = 1;
  small.duration_s = 1.0;
  EXPECT_EQ(rts.route(small), 0);

  // Occupy most of Titan: the small unit now routes to Comet.
  rts.submit({big});
  rts::TaskUnit big2 = big;
  big2.uid = "big2";
  big2.cores = 480;
  rts.submit({big2});
  for (int spin = 0; spin < 500 && rts.route(small) != 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Titan now has 1024-992=32 free cores < Comet's 48: small goes there.
  EXPECT_EQ(rts.route(small), 1);

  rts.submit({small});
  ASSERT_TRUE(sink.wait_for(3));
  for (const rts::UnitResult& r : sink.results()) {
    EXPECT_EQ(r.outcome, rts::UnitOutcome::Done);
  }
  rts.terminate();
}

TEST(MultiPilot, ImpossibleUnitFailsThroughWidestPilot) {
  auto clock = std::make_shared<ScaledClock>(1e-4);
  rts::MultiPilotRts rts(two_pilot_config(), clock,
                         std::make_shared<Profiler>());
  MultiSink sink;
  rts.set_completion_callback([&sink](const rts::UnitResult& r) { sink(r); });
  rts.initialize();
  rts::TaskUnit huge;
  huge.uid = "huge";
  huge.cores = 1 << 20;
  huge.duration_s = 1.0;
  EXPECT_EQ(rts.route(huge), -1);
  rts.submit({huge});
  ASSERT_TRUE(sink.wait_for(1));
  EXPECT_EQ(sink.results()[0].outcome, rts::UnitOutcome::Failed);
  rts.terminate();
}

TEST(MultiPilot, AggregatesStatsAndHealth) {
  auto clock = std::make_shared<ScaledClock>(1e-4);
  rts::MultiPilotRts rts(two_pilot_config(), clock,
                         std::make_shared<Profiler>());
  MultiSink sink;
  rts.set_completion_callback([&sink](const rts::UnitResult& r) { sink(r); });
  rts.initialize();
  EXPECT_TRUE(rts.is_healthy());

  std::vector<rts::TaskUnit> units;
  for (int i = 0; i < 6; ++i) {
    rts::TaskUnit u;
    u.uid = 'u' + std::to_string(i);
    u.cores = 1;
    u.duration_s = 0.5;
    units.push_back(std::move(u));
  }
  rts.submit(std::move(units));
  ASSERT_TRUE(sink.wait_for(6));
  const rts::RtsStats s = rts.stats();
  EXPECT_EQ(s.units_submitted, 6u);
  EXPECT_EQ(s.units_completed, 6u);
  EXPECT_EQ(s.units_in_flight, 0u);

  // Killing one member makes the composite unhealthy.
  rts.member(1)->kill();
  EXPECT_FALSE(rts.is_healthy());
  rts.kill();
}

TEST(MultiPilot, DrivesWholeAppThroughAppManager) {
  // The composite RTS drops in behind EnTK unchanged (black-box claim):
  // a workflow mixing 256-core "simulation" tasks and 1-core "analysis"
  // tasks lands on the right pilots and completes.
  AppManagerConfig cfg = fast_config();
  auto clock = std::make_shared<ScaledClock>(1e-4);
  auto profiler = std::make_shared<Profiler>();
  cfg.rts_factory = [clock, profiler]() -> rts::RtsPtr {
    return std::make_shared<rts::MultiPilotRts>(two_pilot_config(), clock,
                                                profiler);
  };
  AppManager amgr(cfg);
  auto pipeline = std::make_shared<Pipeline>("mixed");
  auto simulate = std::make_shared<Stage>("simulate");
  for (int i = 0; i < 3; ++i) {
    auto t = std::make_shared<Task>("sim" + std::to_string(i));
    t->cpu_reqs.processes = 256;
    t->duration_s = 2.0;
    simulate->add_task(t);
  }
  pipeline->add_stage(simulate);
  auto analyze = std::make_shared<Stage>("analyze");
  for (int i = 0; i < 4; ++i) {
    auto t = std::make_shared<Task>("ana" + std::to_string(i));
    t->duration_s = 1.0;
    analyze->add_task(t);
  }
  pipeline->add_stage(analyze);
  amgr.add_pipelines({pipeline});
  amgr.run();
  EXPECT_EQ(amgr.tasks_done(), 7u);
  EXPECT_EQ(pipeline->state(), PipelineState::Done);
}

}  // namespace
}  // namespace entk

namespace entk {
namespace {

// ------------------------------------------------------- cancellation ---

TEST(Cancellation, CancelMovesLiveObjectsToCanceled) {
  AppManagerConfig cfg = fast_config();
  AppManager* handle = nullptr;
  std::mutex handle_mutex;

  auto pipeline = std::make_shared<Pipeline>("long");
  auto stage = std::make_shared<Stage>("s");
  for (int i = 0; i < 4; ++i) {
    auto t = std::make_shared<Task>('t' + std::to_string(i));
    t->duration_s = 5000.0;  // 0.5 s wall at 1e-4: plenty to cancel into
    stage->add_task(t);
  }
  pipeline->add_stage(stage);
  auto never_stage = std::make_shared<Stage>("never");
  auto never = std::make_shared<std::atomic<bool>>(false);
  auto nt = std::make_shared<Task>("never");
  nt->duration_s = 1.0;
  nt->function = [never] {
    *never = true;
    return 0;
  };
  never_stage->add_task(nt);
  pipeline->add_stage(never_stage);

  AppManager amgr(cfg);
  {
    std::lock_guard<std::mutex> lock(handle_mutex);
    handle = &amgr;
  }
  amgr.add_pipelines({pipeline});
  std::thread canceler([&handle, &handle_mutex] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    std::lock_guard<std::mutex> lock(handle_mutex);
    if (handle) handle->cancel();
  });
  amgr.run();  // returns promptly instead of waiting ~0.5 s per task chain
  canceler.join();

  EXPECT_EQ(pipeline->state(), PipelineState::Canceled);
  // Clean termination cancels stages that never started, too.
  EXPECT_EQ(never_stage->state(), StageState::Canceled);
  EXPECT_FALSE(never->load());
  EXPECT_EQ(amgr.tasks_done(), 0u);
  int canceled_tasks = 0;
  for (const TaskPtr& t : stage->tasks()) {
    if (t->state() == TaskState::Canceled) ++canceled_tasks;
  }
  EXPECT_EQ(canceled_tasks, 4);
}

TEST(Cancellation, CancelBeforeAnythingRanCancelsEverything) {
  AppManagerConfig cfg = fast_config();
  auto pipeline = std::make_shared<Pipeline>("p");
  auto stage = std::make_shared<Stage>("s");
  auto t = std::make_shared<Task>("t");
  t->duration_s = 10000.0;
  stage->add_task(t);
  pipeline->add_stage(stage);
  AppManager amgr(cfg);
  amgr.add_pipelines({pipeline});
  std::thread canceler([&amgr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    amgr.cancel();
  });
  amgr.run();
  canceler.join();
  EXPECT_EQ(pipeline->state(), PipelineState::Canceled);
  EXPECT_TRUE(t->state() == TaskState::Canceled || is_final(t->state()));
}

}  // namespace
}  // namespace entk
