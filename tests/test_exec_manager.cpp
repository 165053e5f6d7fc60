// Direct component tests of the ExecManager: Emgr batching and
// translation, RTS-callback forwarding, heartbeat-driven restarts with a
// counting factory — without a WFProcessor in the loop.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/core/exec_manager.hpp"
#include "src/core/state_store.hpp"
#include "src/rts/local_rts.hpp"

namespace entk {
namespace {

class ExecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<mq::Broker>("exec_test");
    broker_->declare_queue("q.pending");
    broker_->declare_queue("q.completed");
    broker_->declare_queue("q.states");
    profiler_ = std::make_shared<Profiler>();
    clock_ = std::make_shared<ScaledClock>(1e-4);
    synchronizer_ = std::make_unique<Synchronizer>(
        broker_, "q.states", &registry_, &store_, profiler_);
    synchronizer_->start();
  }

  void TearDown() override {
    if (emgr_) emgr_->stop();
    synchronizer_->stop();
    broker_->close();
  }

  void start_exec(ExecConfig cfg = {}) {
    cfg.supervision.heartbeat_interval_s = 0.005;
    rts::RtsFactory factory = [this]() -> rts::RtsPtr {
      ++rts_instances_;
      return std::make_shared<rts::LocalRts>(rts::LocalRtsConfig{.workers = 2},
                                             clock_, profiler_);
    };
    emgr_ = std::make_unique<ExecManager>(cfg, broker_, &registry_,
                                          "q.pending", "q.completed",
                                          "q.states", factory, profiler_);
    emgr_->acquire_resources();
    emgr_->start();
  }

  /// Register a task, pre-advanced to SCHEDULED (the WFProcessor's job),
  /// without publishing it — callers pick single or bulk delivery.
  TaskPtr make_task(double duration = 0.5, std::function<int()> fn = nullptr) {
    auto pipeline = std::make_shared<Pipeline>("p");
    auto stage = std::make_shared<Stage>("s");
    auto task = std::make_shared<Task>("t");
    task->duration_s = duration;
    task->function = std::move(fn);
    stage->add_task(task);
    pipeline->add_stage(stage);
    registry_.add_pipeline(pipeline);
    task->set_state(TaskState::Scheduled);
    return task;
  }

  /// Register a task and push its id to the Pending queue.
  TaskPtr submit_task(double duration = 0.5,
                      std::function<int()> fn = nullptr) {
    TaskPtr task = make_task(duration, std::move(fn));
    json::Value msg;
    msg["ids"] = json::Array{json::Value(task->id())};
    broker_->publish("q.pending", mq::Message::json_body("q.pending", msg));
    return task;
  }

  /// Wait for n completion messages on the Done queue.
  std::vector<json::Value> collect(std::size_t n, double timeout_s = 5.0) {
    std::vector<json::Value> out;
    const double deadline = wall_now_s() + timeout_s;
    while (out.size() < n && wall_now_s() < deadline) {
      auto d = broker_->get("q.completed", 0.01);
      if (!d) continue;
      broker_->ack("q.completed", d->delivery_tag);
      out.push_back(d->message.body_json());
    }
    return out;
  }

  mq::BrokerPtr broker_;
  ObjectRegistry registry_;
  StateStore store_;
  ProfilerPtr profiler_;
  ClockPtr clock_;
  std::unique_ptr<Synchronizer> synchronizer_;
  std::unique_ptr<ExecManager> emgr_;
  std::atomic<int> rts_instances_{0};
};

TEST_F(ExecFixture, SubmitsAndForwardsCompletions) {
  start_exec();
  TaskPtr task = submit_task(0.5);
  const auto results = collect(1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].get_string("uid", ""), task->uid());
  EXPECT_EQ(results[0].get_string("outcome", ""), "DONE");
  // Emgr advanced the task through Submitting to Submitted.
  EXPECT_EQ(task->state(), TaskState::Submitted);
  EXPECT_EQ(rts_instances_.load(), 1);
}

TEST_F(ExecFixture, CallableExitCodeTravelsInCompletion) {
  start_exec();
  submit_task(0.1, [] { return 9; });
  const auto results = collect(1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].get_string("outcome", ""), "FAILED");
  EXPECT_EQ(results[0].get_int("exit_code", 0), 9);
}

TEST_F(ExecFixture, HeartbeatRestartsDeadRtsAndResubmits) {
  ExecConfig cfg;
  cfg.supervision.rts_restart_limit = 1;
  start_exec(cfg);
  // Long-running task: 20,000 virtual s = 2 s wall at 1e-4.
  TaskPtr task = submit_task(20000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  emgr_->inject_rts_failure();
  // Restart resubmits the lost unit; LocalRts restarts it from scratch,
  // which would take another 2 s — instead verify the restart happened
  // and the unit is in flight on the new instance.
  // restarts_ increments before the factory runs: wait on the instance
  // count, which is the last step of the restart we care about.
  for (int spin = 0; spin < 1000 && rts_instances_.load() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(emgr_->rts_restarts(), 1);
  EXPECT_EQ(rts_instances_.load(), 2);
  for (int spin = 0; spin < 500 && emgr_->rts_stats().units_in_flight == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(emgr_->rts_stats().units_in_flight, 1u);
  (void)task;
}

TEST_F(ExecFixture, FatalHandlerFiresWhenBudgetExhausted) {
  ExecConfig cfg;
  cfg.supervision.rts_restart_limit = 0;
  start_exec(cfg);
  std::atomic<bool> fatal{false};
  emgr_->set_fatal_handler([&fatal](const std::string&) { fatal = true; });
  submit_task(20000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  emgr_->inject_rts_failure();
  for (int spin = 0; spin < 500 && !fatal.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fatal.load());
  EXPECT_EQ(emgr_->rts_restarts(), 0);
}

TEST_F(ExecFixture, BulkPendingMessageSubmitsAllTasks) {
  start_exec();
  // Deliver four tasks in one {"ids": [...]} message, as the batched
  // WFProcessor does.
  std::vector<TaskPtr> tasks;
  json::Array ids;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(make_task(0.2));
    ids.emplace_back(tasks.back()->id());
  }
  json::Value msg;
  msg["ids"] = std::move(ids);
  broker_->publish("q.pending", mq::Message::json_body("q.pending", msg));
  const auto results = collect(4);
  ASSERT_EQ(results.size(), 4u);
  std::set<std::string> seen;
  for (const json::Value& r : results) {
    seen.insert(r.get_string("uid", ""));
    EXPECT_EQ(r.get_string("outcome", ""), "DONE");
  }
  for (const TaskPtr& t : tasks) {
    EXPECT_EQ(seen.count(t->uid()), 1u);
    EXPECT_EQ(t->state(), TaskState::Submitted);
  }
}

TEST_F(ExecFixture, CompletionCoalescingPublishesResultsArrays) {
  ExecConfig cfg;
  cfg.completion_flush_window_s = 0.005;
  cfg.completion_flush_max = 8;
  start_exec(cfg);
  std::vector<TaskPtr> tasks;
  json::Array ids;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(make_task(0.1));
    ids.emplace_back(tasks.back()->id());
  }
  json::Value msg;
  msg["ids"] = std::move(ids);
  broker_->publish("q.pending", mq::Message::json_body("q.pending", msg));
  // Drain q.completed raw: with the flush window on, completions arrive
  // coalesced as {"results": [...]} instead of one message per task.
  std::set<std::string> seen;
  bool saw_coalesced = false;
  const double deadline = wall_now_s() + 5.0;
  while (seen.size() < 6 && wall_now_s() < deadline) {
    auto d = broker_->get("q.completed", 0.01);
    if (!d) continue;
    broker_->ack("q.completed", d->delivery_tag);
    const json::Value body = d->message.body_json();
    if (body.contains("results")) {
      const json::Array& batch = body.at("results").as_array();
      if (batch.size() > 1) saw_coalesced = true;
      for (const json::Value& r : batch) {
        seen.insert(r.get_string("uid", ""));
        EXPECT_EQ(r.get_string("outcome", ""), "DONE");
      }
    } else {
      seen.insert(body.get_string("uid", ""));
    }
  }
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_TRUE(saw_coalesced);
  for (const TaskPtr& t : tasks) EXPECT_EQ(seen.count(t->uid()), 1u);
}

TEST_F(ExecFixture, DoubleStopIsIdempotent) {
  // Regression: the pre-Component ExecManager joined heartbeat_thread_ in
  // both stop() and the destructor, so stop() followed by destruction (or a
  // second stop()) raced on a dead thread. The lifecycle state machine makes
  // stop() a no-op after the first call, and RTS termination happens once.
  start_exec();
  TaskPtr task = submit_task(0.2);
  ASSERT_EQ(collect(1).size(), 1u);
  emgr_->stop();
  EXPECT_EQ(emgr_->state(), ComponentState::Stopped);
  EXPECT_EQ(emgr_->stop(), 0.0);  // second stop: no second RTS termination
  emgr_->stop();
  EXPECT_EQ(emgr_->state(), ComponentState::Stopped);
  emgr_.reset();  // destructor after explicit stop must also be safe
  (void)task;
}

TEST_F(ExecFixture, PendingMessagesForUnknownTasksAreDropped) {
  start_exec();
  json::Value msg;
  msg["ids"] = json::Array{json::Value(77777), json::Value("task.77777x"),
                           json::Value(-1)};
  broker_->publish("q.pending", mq::Message::json_body("q.pending", msg));
  // Nothing arrives on the Done queue; a real task still works after.
  TaskPtr task = submit_task(0.2);
  const auto results = collect(1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].get_string("uid", ""), task->uid());
}

}  // namespace
}  // namespace entk
