// Direct component tests of the WFProcessor: Enqueue/Dequeue driven
// through raw broker queues, without an RTS — the component's contract in
// isolation (paper Fig 2, messages 1 and 5).
#include <gtest/gtest.h>

#include <thread>

#include "src/core/state_store.hpp"
#include "src/core/wfprocessor.hpp"

namespace entk {
namespace {

/// Fixture wiring a WFProcessor to a broker plus a live Synchronizer, with
/// the test driving the Pending (out) and Done (in) queues by hand.
class WfpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<mq::Broker>("wfp_test");
    broker_->declare_queue("q.pending");
    broker_->declare_queue("q.completed");
    broker_->declare_queue("q.states");
    profiler_ = std::make_shared<Profiler>();
    synchronizer_ = std::make_unique<Synchronizer>(
        broker_, "q.states", &registry_, &store_, profiler_);
    synchronizer_->start();
  }

  void TearDown() override {
    if (wfp_) wfp_->stop();
    synchronizer_->stop();
    broker_->close();
  }

  void start_wfp(WfConfig cfg = {}) {
    wfp_ = std::make_unique<WFProcessor>(cfg, broker_, &registry_,
                                         "q.pending", "q.completed",
                                         "q.states", profiler_);
    wfp_->start();
  }

  PipelinePtr make_app(int stages, int tasks) {
    auto pipeline = std::make_shared<Pipeline>("p");
    for (int s = 0; s < stages; ++s) {
      auto stage = std::make_shared<Stage>('s' + std::to_string(s));
      for (int t = 0; t < tasks; ++t) {
        auto task = std::make_shared<Task>("t");
        task->duration_s = 1.0;
        stage->add_task(task);
      }
      pipeline->add_stage(stage);
    }
    registry_.add_pipeline(pipeline);
    return pipeline;
  }

  /// Pop one pending task (shipped by id) and return its uid (waits up to
  /// a second).
  std::string pop_pending() {
    auto d = broker_->get("q.pending", 1.0);
    if (!d) return "";
    broker_->ack("q.pending", d->delivery_tag);
    const json::Value body = d->message.body_json();
    const json::Array& ids = body.at("ids").as_array();
    if (ids.size() != 1) return "";
    TaskPtr task = registry_.task(static_cast<std::uint32_t>(ids[0].as_int()));
    return task ? task->uid() : "";
  }

  /// Simulate the ExecManager+RTS side for one task: advance its states
  /// and push a completion message.
  void complete(const std::string& uid, const std::string& outcome,
                int exit_code = 0) {
    SyncClient sync(broker_, "fake_emgr", "q.states", "q.ack.fake");
    const std::uint32_t id = registry_.id_of(uid);
    sync.sync({id, TaskState::Scheduled, TaskState::Submitting}, true);
    sync.sync({id, TaskState::Submitting, TaskState::Submitted}, true);
    json::Value msg;
    msg["uid"] = uid;
    msg["outcome"] = outcome;
    msg["exit_code"] = exit_code;
    broker_->publish("q.completed",
                     mq::Message::json_body("q.completed", msg));
  }

  mq::BrokerPtr broker_;
  ObjectRegistry registry_;
  StateStore store_;
  ProfilerPtr profiler_;
  std::unique_ptr<Synchronizer> synchronizer_;
  std::unique_ptr<WFProcessor> wfp_;
};

TEST_F(WfpFixture, EnqueuePublishesAllTasksOfFirstStage) {
  PipelinePtr app = make_app(2, 3);
  start_wfp();
  std::set<std::string> uids;
  for (int i = 0; i < 3; ++i) {
    const std::string uid = pop_pending();
    EXPECT_FALSE(uid.empty());
    uids.insert(uid);
  }
  EXPECT_EQ(uids.size(), 3u);
  // Second stage must NOT be enqueued yet.
  EXPECT_TRUE(pop_pending().empty());
  EXPECT_EQ(app->stage_at(0)->state(), StageState::Scheduled);
  EXPECT_EQ(app->stage_at(1)->state(), StageState::Described);
  for (const TaskPtr& t : app->stage_at(0)->tasks()) {
    EXPECT_EQ(t->state(), TaskState::Scheduled);
  }
}

TEST_F(WfpFixture, CompletionsAdvanceStagesAndPipeline) {
  PipelinePtr app = make_app(2, 2);
  start_wfp();
  for (int i = 0; i < 2; ++i) complete(pop_pending(), "DONE");
  // Stage 2's tasks become pending only after stage 1 resolved.
  for (int i = 0; i < 2; ++i) {
    const std::string uid = pop_pending();
    ASSERT_FALSE(uid.empty());
    complete(uid, "DONE");
  }
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
  EXPECT_EQ(wfp_->tasks_done(), 4u);
}

TEST_F(WfpFixture, FailureWithoutBudgetFailsPipeline) {
  PipelinePtr app = make_app(1, 1);
  start_wfp();
  complete(pop_pending(), "FAILED", 7);
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Failed);
  EXPECT_EQ(wfp_->tasks_failed(), 1u);
  EXPECT_EQ(app->stage_at(0)->tasks()[0]->exit_code(), 7);
}

TEST_F(WfpFixture, FailureWithBudgetReenqueues) {
  WfConfig cfg;
  cfg.default_task_retry_limit = 1;
  PipelinePtr app = make_app(1, 1);
  start_wfp(cfg);
  const std::string uid = pop_pending();
  complete(uid, "FAILED", 1);
  // The task comes back through the Pending queue.
  const std::string retry_uid = pop_pending();
  EXPECT_EQ(retry_uid, uid);
  complete(retry_uid, "DONE");
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
  EXPECT_EQ(wfp_->resubmissions(), 1u);
}

TEST_F(WfpFixture, UnknownResultIsIgnored) {
  PipelinePtr app = make_app(1, 1);
  start_wfp();
  json::Value bogus;
  bogus["uid"] = "task.99999x";
  bogus["outcome"] = "DONE";
  broker_->publish("q.completed",
                   mq::Message::json_body("q.completed", bogus));
  // The real task still completes normally afterward.
  complete(pop_pending(), "DONE");
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
}

TEST_F(WfpFixture, MalformedDoneMessageIsSkipped) {
  PipelinePtr app = make_app(1, 1);
  start_wfp();
  mq::Message junk;
  junk.set_body("{this is not json");
  broker_->publish("q.completed", std::move(junk));
  complete(pop_pending(), "DONE");
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
}

TEST_F(WfpFixture, AbortFailsAllLivePipelines) {
  PipelinePtr app = make_app(1, 2);
  start_wfp();
  pop_pending();
  pop_pending();
  wfp_->abort("test abort");
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Failed);
}

TEST_F(WfpFixture, BatchedEnqueueShipsBulkPendingAndCoalescedResults) {
  WfConfig cfg;
  cfg.batch_size = 16;
  PipelinePtr app = make_app(1, 16);
  start_wfp(cfg);

  // The whole stage travels as one bulk message: {"ids": [...]}.
  auto d = broker_->get("q.pending", 1.0);
  ASSERT_TRUE(d);
  broker_->ack("q.pending", d->delivery_tag);
  const json::Value msg = d->message.body_json();
  ASSERT_TRUE(msg.contains("ids"));
  std::vector<std::uint32_t> ids;
  std::vector<std::string> uids;
  for (const json::Value& id : msg.at("ids").as_array()) {
    ids.push_back(static_cast<std::uint32_t>(id.as_int()));
    ASSERT_NE(registry_.task(ids.back()), nullptr);
    uids.push_back(registry_.task(ids.back())->uid());
  }
  ASSERT_EQ(uids.size(), 16u);
  EXPECT_FALSE(broker_->get("q.pending", 0.0).has_value());
  for (const TaskPtr& t : app->stage_at(0)->tasks()) {
    EXPECT_EQ(t->state(), TaskState::Scheduled);
  }

  // Emgr side: one vectored sync per transition kind, then a single
  // coalesced completion message covering all 16 tasks.
  SyncClient sync(broker_, "fake_emgr", "q.states", "q.ack.fake");
  EXPECT_TRUE(
      sync.sync_batch(ids, TaskState::Scheduled, TaskState::Submitting, true));
  EXPECT_TRUE(
      sync.sync_batch(ids, TaskState::Submitting, TaskState::Submitted, true));
  json::Array results;
  for (const std::string& uid : uids) {
    json::Value r;
    r["uid"] = uid;
    r["outcome"] = "DONE";
    r["exit_code"] = 0;
    results.push_back(std::move(r));
  }
  json::Value done;
  done["results"] = std::move(results);
  broker_->publish("q.completed", mq::Message::json_body("q.completed", done));

  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
  EXPECT_EQ(wfp_->tasks_done(), 16u);
  // Per-task journal entries are identical to the per-task path: every
  // task still records all six transitions individually.
  for (const std::string& uid : uids) {
    int transitions = 0;
    for (const StateTransaction& t : store_.history()) {
      if (t.uid == uid) ++transitions;
    }
    EXPECT_EQ(transitions, 6);
    EXPECT_EQ(store_.state_of(uid), "DONE");
  }
}

TEST_F(WfpFixture, StateJournalSeesEveryTransition) {
  PipelinePtr app = make_app(1, 1);
  start_wfp();
  const std::string uid = pop_pending();
  complete(uid, "DONE");
  wfp_->wait_completion();
  // DESCRIBED->SCHEDULING->SCHEDULED->SUBMITTING->SUBMITTED->EXECUTED->DONE
  int task_transitions = 0;
  for (const StateTransaction& t : store_.history()) {
    if (t.uid == uid) ++task_transitions;
  }
  EXPECT_EQ(task_transitions, 6);
  EXPECT_EQ(store_.state_of(uid), "DONE");
  EXPECT_EQ(store_.state_of(app->uid()), "DONE");
}

}  // namespace
}  // namespace entk
