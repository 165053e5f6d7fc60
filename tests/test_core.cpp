// Unit tests for the core toolkit pieces: PST descriptions and validation,
// the transactional state store, the sync protocol, and overhead
// computation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "src/core/overheads.hpp"
#include "src/core/state_store.hpp"
#include "src/core/sync.hpp"

namespace entk {
namespace {

std::string fresh_dir() {
  const std::string dir = ::testing::TempDir() + "/entk_core_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(wall_now_us());
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------------ PST

TEST(TaskDescription, ValidationRules) {
  Task t("t");
  EXPECT_THROW(t.validate(), MissingError);  // nothing to execute
  t.executable = "/bin/sleep";
  EXPECT_NO_THROW(t.validate());
  t.cpu_reqs.processes = 0;
  EXPECT_THROW(t.validate(), ValueError);
  t.cpu_reqs.processes = 2;
  t.cpu_reqs.threads_per_process = 4;
  EXPECT_EQ(t.cpu_reqs.total(), 8);
  t.duration_s = -1;
  EXPECT_THROW(t.validate(), ValueError);
  t.duration_s = 0;
  t.gpu_reqs.processes = -1;
  EXPECT_THROW(t.validate(), ValueError);
  t.gpu_reqs.processes = 0;
  t.retry_limit = -2;
  EXPECT_THROW(t.validate(), ValueError);
}

TEST(TaskDescription, FunctionOrDurationSuffices) {
  Task f;
  f.function = [] { return 0; };
  EXPECT_NO_THROW(f.validate());
  Task d;
  d.duration_s = 5.0;
  EXPECT_NO_THROW(d.validate());
}

TEST(TaskDescription, UidsAreUniqueAndJsonComplete) {
  Task a("a"), b("b");
  EXPECT_NE(a.uid(), b.uid());
  a.executable = "x";
  a.arguments = {"1", "2"};
  a.metadata["m"] = 3;
  const json::Value v = a.to_json();
  EXPECT_EQ(v.at("name").as_string(), "a");
  EXPECT_EQ(v.at("state").as_string(), "DESCRIBED");
  EXPECT_EQ(v.at("arguments").size(), 2u);
  EXPECT_EQ(v.at("metadata").at("m").as_int(), 3);
}

TEST(StageDescription, ValidationAndParents) {
  Stage s("s");
  EXPECT_THROW(s.validate(), MissingError);  // no tasks
  EXPECT_THROW(s.add_task(nullptr), ValueError);
  auto t = std::make_shared<Task>("t");
  t->duration_s = 1;
  s.add_task(t);
  EXPECT_NO_THROW(s.validate());
  s.set_parent("pipeline.X");
  EXPECT_EQ(t->parent_stage(), s.uid());
  EXPECT_EQ(t->parent_pipeline(), "pipeline.X");
}

TEST(PipelineDescription, StageOrderAndAdvance) {
  Pipeline p("p");
  EXPECT_THROW(p.validate(), MissingError);
  auto s1 = std::make_shared<Stage>("s1");
  auto s2 = std::make_shared<Stage>("s2");
  auto t = std::make_shared<Task>();
  t->duration_s = 1;
  s1->add_task(t);
  auto t2 = std::make_shared<Task>();
  t2->duration_s = 1;
  s2->add_task(t2);
  p.add_stage(s1);
  p.add_stage(s2);
  EXPECT_EQ(p.stage_count(), 2u);
  EXPECT_EQ(p.task_count(), 2u);
  EXPECT_EQ(p.current_stage(), s1);
  EXPECT_EQ(p.advance(), s2);
  EXPECT_EQ(p.advance(), nullptr);
  EXPECT_EQ(p.current_stage(), nullptr);
  EXPECT_EQ(p.stage_at(0), s1);
  EXPECT_EQ(p.stage_at(5), nullptr);
}

TEST(PipelineDescription, NoExtensionAfterFinal) {
  Pipeline p("p");
  auto s = std::make_shared<Stage>();
  auto t = std::make_shared<Task>();
  t->duration_s = 1;
  s->add_task(t);
  p.add_stage(s);
  p.set_state(PipelineState::Done);
  EXPECT_THROW(p.add_stage(std::make_shared<Stage>()), StateError);
}

// ----------------------------------------------------------- StateStore

TEST(StateStoreTest, CommitAndQuery) {
  StateStore store;
  const std::uint16_t wfp = store.intern("wfp");
  store.commit({1, TaskState::Described, TaskState::Scheduling}, "task.1", wfp);
  store.commit({1, TaskState::Scheduling, TaskState::Scheduled}, "task.1", wfp);
  EXPECT_EQ(store.state_of("task.1"), "SCHEDULED");
  EXPECT_EQ(store.state_of("unknown"), "");
  EXPECT_EQ(store.transaction_count(), 2u);
  const auto history = store.history();
  EXPECT_EQ(history[0].seq, 1u);
  EXPECT_EQ(history[1].seq, 2u);
  EXPECT_EQ(history[1].component, "wfp");
}

TEST(StateStoreTest, DurableRecovery) {
  const std::string path = fresh_dir() + "/states.jsonl";
  {
    StateStore store(path);
    const std::uint16_t wfp = store.intern("wfp");
    store.commit({0, PipelineState::Described, PipelineState::Scheduling},
                 "p.1", wfp);
    store.commit({0, PipelineState::Scheduling, PipelineState::Done}, "p.1",
                 wfp);
  }
  StateStore recovered;
  EXPECT_EQ(recovered.recover(path), 2u);
  EXPECT_EQ(recovered.state_of("p.1"), "DONE");
  // New commits continue the sequence (p.1 was recovered as id 0).
  const auto seq =
      recovered.commit({1, PipelineState::Described, PipelineState::Scheduling},
                       "p.2", recovered.intern("wfp"));
  EXPECT_EQ(seq, 3u);
}

TEST(StateStoreTest, RecoveryStopsAtTornRecord) {
  const std::string path = fresh_dir() + "/torn.jsonl";
  {
    StateStore store(path);
    store.commit({0, TaskState::Described, TaskState::Scheduling}, "a",
                 store.intern("c"));
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    std::fputs("{\"seq\":2,\"uid\":\"a\",\"to\":\"SCHE", f);
    std::fclose(f);
  }
  StateStore recovered;
  EXPECT_EQ(recovered.recover(path), 1u);
  EXPECT_EQ(recovered.state_of("a"), "SCHEDULING");
}

TEST(StateStoreTest, GroupCommitCrashLosesOnlyUnflushedTail) {
  const std::string path = fresh_dir() + "/crash.jsonl";
  mq::JournalConfig journal;
  journal.max_batch_bytes = 1 << 20;
  journal.max_delay_s = 60.0;  // background flusher never fires in-test
  StateStore store(path, journal);
  const std::uint16_t c = store.intern("c");
  store.commit({0, TaskState::Described, TaskState::Scheduling}, "a", c);
  store.commit({0, TaskState::Scheduling, TaskState::Scheduled}, "a", c);
  store.flush();  // durability barrier: the first two records are on disk
  store.commit({0, TaskState::Scheduled, TaskState::Submitting}, "a", c);
  // Hard crash: the unflushed tail is gone, exactly what SIGKILL leaves.
  store.journal_writer()->simulate_crash();
  StateStore recovered;
  EXPECT_EQ(recovered.recover(path), 2u);
  EXPECT_EQ(recovered.state_of("a"), "SCHEDULED");
}

TEST(StateStoreTest, SyncEveryAppendCommitsAreCrashDurable) {
  const std::string path = fresh_dir() + "/sync.jsonl";
  mq::JournalConfig journal;
  journal.sync_every_append = true;  // the --journal-max-delay-ms 0 policy
  StateStore store(path, journal);
  const std::uint16_t c = store.intern("c");
  store.commit({0, TaskState::Described, TaskState::Scheduling}, "a", c);
  store.commit({0, TaskState::Scheduling, TaskState::Scheduled}, "a", c);
  store.journal_writer()->simulate_crash();  // no barrier needed
  StateStore recovered;
  EXPECT_EQ(recovered.recover(path), 2u);
  EXPECT_EQ(recovered.state_of("a"), "SCHEDULED");
}

TEST(StateStoreTest, ExternalSinkInvoked) {
  StateStore store;
  std::vector<std::string> sunk;
  store.set_external_sink(
      [&](const StateTransaction& t) { sunk.push_back(t.uid); });
  store.commit({0, TaskState::Described, TaskState::Scheduling}, "x",
               store.intern("c"));
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0], "x");
}

TEST(StateStoreTest, JournalLineIsByteIdenticalToJsonRecord) {
  // The typed store renders journal lines directly; they must stay
  // byte-identical to the JSON record the string-keyed store wrote.
  const std::string path = fresh_dir() + "/golden.jsonl";
  {
    StateStore store(path);
    store.commit({7, TaskState::Described, TaskState::Scheduling},
                 "task.0042", store.intern("wfp.enqueue"));
    store.commit({8, StageState::Scheduled, StageState::Done},
                 "odd \"uid\"\n", store.intern("c\\1"));
  }
  StateStore recovered;
  ASSERT_EQ(recovered.recover(path), 2u);
  const std::vector<StateTransaction> history = recovered.history();
  std::ifstream in(path);
  std::string line;
  for (const StateTransaction& t : history) {
    ASSERT_TRUE(std::getline(in, line));
    json::Value v;
    v["seq"] = t.seq;
    v["wall_s"] = t.wall_s;
    v["uid"] = t.uid;
    v["kind"] = t.kind;
    v["from"] = t.from_state;
    v["to"] = t.to_state;
    v["component"] = t.component;
    EXPECT_EQ(line, v.dump());
  }
  const std::string golden_tail =
      ",\"uid\":\"task.0042\",\"kind\":\"task\",\"from\":\"DESCRIBED\","
      "\"to\":\"SCHEDULING\",\"component\":\"wfp.enqueue\"}";
  in.clear();
  in.seekg(0);
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("{\"seq\":1,\"wall_s\":", 0), 0u) << line;
  ASSERT_GT(line.size(), golden_tail.size());
  EXPECT_EQ(line.substr(line.size() - golden_tail.size()), golden_tail);
}

TEST(StateStoreTest, TypedCommitsRecoverToTheSameHistory) {
  const std::string path = fresh_dir() + "/typed.jsonl";
  std::vector<StateTransaction> before;
  {
    StateStore store(path);
    const std::uint16_t wfp = store.intern("wfp");
    const std::uint16_t emgr = store.intern("emgr");
    store.commit({0, PipelineState::Described, PipelineState::Scheduling},
                 "pipeline.0000", wfp);
    store.commit({1, StageState::Described, StageState::Scheduling},
                 "stage.0000", wfp);
    for (std::uint32_t id = 2; id < 5; ++id) {
      const std::string uid = "task.000" + std::to_string(id);
      store.commit({id, TaskState::Described, TaskState::Scheduling}, uid,
                   wfp);
      store.commit({id, TaskState::Scheduling, TaskState::Scheduled}, uid,
                   wfp);
      store.commit({id, TaskState::Scheduled, TaskState::Submitting}, uid,
                   emgr);
    }
    EXPECT_EQ(store.state_of("task.0003"), "SUBMITTING");
    EXPECT_EQ(store.state_of("stage.0000"), "SCHEDULING");
    before = store.history();
  }
  StateStore recovered;
  ASSERT_EQ(recovered.recover(path), before.size());
  const std::vector<StateTransaction> after = recovered.history();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].seq, before[i].seq);
    EXPECT_EQ(after[i].wall_s, before[i].wall_s);
    EXPECT_EQ(after[i].uid, before[i].uid);
    EXPECT_EQ(after[i].kind, before[i].kind);
    EXPECT_EQ(after[i].from_state, before[i].from_state);
    EXPECT_EQ(after[i].to_state, before[i].to_state);
    EXPECT_EQ(after[i].component, before[i].component);
  }
  for (const char* uid : {"pipeline.0000", "stage.0000", "task.0002",
                          "task.0003", "task.0004"}) {
    EXPECT_EQ(recovered.state_of(uid), uid[0] == 't' ? "SUBMITTING"
                                                       : "SCHEDULING");
  }
  EXPECT_EQ(recovered.state_of("task.0005"), "");
}

TEST(StateStoreTest, IdsAndUidsPairOneToOne) {
  // A commit naming a known id with another uid (or a known uid with
  // another id) would render the wrong subject in the journal and
  // history(); the store refuses it and commits nothing.
  const std::string path = fresh_dir() + "/pairs.jsonl";
  {
    StateStore store(path);
    const std::uint16_t c = store.intern("c");
    store.commit({3, TaskState::Described, TaskState::Scheduling}, "task.a",
                 c);
    EXPECT_THROW(store.commit({3, TaskState::Scheduling, TaskState::Scheduled},
                              "task.b", c),
                 ValueError);
    EXPECT_THROW(store.commit({4, TaskState::Described, TaskState::Scheduling},
                              "task.a", c),
                 ValueError);
    EXPECT_THROW(store.commit({kNoId, TaskState::Described,
                               TaskState::Scheduling},
                              "task.c", c),
                 ValueError);
    EXPECT_THROW(store.commit({5, TaskState::Described, TaskState::Scheduling},
                              "task.c", 7),
                 ValueError);
    EXPECT_EQ(store.transaction_count(), 1u);
    EXPECT_EQ(store.state_of("task.a"), "SCHEDULING");
    EXPECT_EQ(store.state_of("task.b"), "");
  }
  // Recovery numbers subjects in first-seen order (task.a -> 0); a later
  // commit that reuses id 0 for another uid is refused the same way.
  StateStore recovered;
  ASSERT_EQ(recovered.recover(path), 1u);
  const std::uint16_t c = recovered.intern("c");
  EXPECT_THROW(recovered.commit({0, TaskState::Described,
                                 TaskState::Scheduling},
                                "task.b", c),
               ValueError);
  recovered.commit({1, TaskState::Described, TaskState::Scheduling}, "task.b",
                   c);
  recovered.commit({0, TaskState::Scheduling, TaskState::Scheduled}, "task.a",
                   c);
  EXPECT_EQ(recovered.state_of("task.a"), "SCHEDULED");
  EXPECT_EQ(recovered.state_of("task.b"), "SCHEDULING");
  const std::vector<StateTransaction> history = recovered.history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[1].uid, "task.b");
  EXPECT_EQ(history[2].uid, "task.a");
}

// ------------------------------------------------------- Sync protocol

class SyncFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<mq::Broker>("sync_test");
    broker_->declare_queue("q.states");
    auto pipeline = std::make_shared<Pipeline>("p");
    stage_ = std::make_shared<Stage>("s");
    task_ = std::make_shared<Task>("t");
    task_->duration_s = 1;
    stage_->add_task(task_);
    pipeline->add_stage(stage_);
    pipeline_ = pipeline;
    registry_.add_pipeline(pipeline);
    sync_ = std::make_unique<Synchronizer>(broker_, "q.states", &registry_,
                                           &store_, profiler_);
    sync_->start();
  }

  void TearDown() override {
    sync_->stop();
    broker_->close();
  }

  mq::BrokerPtr broker_;
  ObjectRegistry registry_;
  StateStore store_;
  ProfilerPtr profiler_ = std::make_shared<Profiler>();
  std::unique_ptr<Synchronizer> sync_;
  PipelinePtr pipeline_;
  StagePtr stage_;
  TaskPtr task_;
};

TEST_F(SyncFixture, ValidTransitionAppliedAndCommitted) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  EXPECT_TRUE(client.sync(
      {task_->id(), TaskState::Described, TaskState::Scheduling}, true));
  EXPECT_EQ(task_->state(), TaskState::Scheduling);
  EXPECT_EQ(store_.state_of(task_->uid()), "SCHEDULING");
  EXPECT_EQ(sync_->processed(), 1u);
}

TEST_F(SyncFixture, InvalidTransitionRejected) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  EXPECT_FALSE(
      client.sync({task_->id(), TaskState::Described, TaskState::Done}, true));
  EXPECT_EQ(task_->state(), TaskState::Described);
  EXPECT_EQ(store_.transaction_count(), 0u);
  EXPECT_EQ(sync_->rejected(), 1u);
}

TEST_F(SyncFixture, StaleFromStateRejected) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  ASSERT_TRUE(client.sync(
      {task_->id(), TaskState::Described, TaskState::Scheduling}, true));
  // A second component believing the task is still DESCRIBED loses.
  EXPECT_FALSE(client.sync(
      {task_->id(), TaskState::Described, TaskState::Scheduling}, true));
}

TEST_F(SyncFixture, UnknownObjectRejected) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  EXPECT_FALSE(
      client.sync({9999, TaskState::Described, TaskState::Scheduling}, true));
  // A task transition aimed at the stage's id names no task.
  EXPECT_FALSE(client.sync(
      {stage_->id(), TaskState::Described, TaskState::Scheduling}, true));
  EXPECT_EQ(task_->state(), TaskState::Described);
  EXPECT_EQ(stage_->state(), StageState::Described);
}

TEST_F(SyncFixture, StageAndPipelineTransitions) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  EXPECT_TRUE(client.sync(
      {pipeline_->id(), PipelineState::Described, PipelineState::Scheduling},
      true));
  EXPECT_EQ(pipeline_->state(), PipelineState::Scheduling);
  EXPECT_TRUE(client.sync(
      {stage_->id(), StageState::Described, StageState::Scheduling}, true));
  EXPECT_TRUE(client.sync(
      {stage_->id(), StageState::Scheduling, StageState::Scheduled}, true));
  EXPECT_EQ(stage_->state(), StageState::Scheduled);
}

TEST_F(SyncFixture, FireAndForgetEventuallyApplies) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  client.sync({task_->id(), TaskState::Described, TaskState::Scheduling});
  for (int spin = 0; spin < 500 && task_->state() != TaskState::Scheduling;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(task_->state(), TaskState::Scheduling);
}

TEST_F(SyncFixture, GarbageIdsRejectedWithoutThrowing) {
  broker_->declare_queue("q.ack.raw");
  auto request = [&](json::Value msg) {
    msg["component"] = "raw";
    msg["reply_to"] = "q.ack.raw";
    broker_->publish("q.states",
                     mq::Message::json_body("q.states", std::move(msg)));
    auto reply = broker_->get("q.ack.raw", 2.0);
    EXPECT_TRUE(reply.has_value());
    if (!reply) return json::Value();
    broker_->ack("q.ack.raw", reply->delivery_tag);
    return reply->message.body_json();
  };
  // Out-of-range, wrong-kind and garbage entries around one valid id: each
  // bad entry is a normal rejection, the valid one still applies.
  json::Value mixed;
  mixed["ids"] = json::Array{json::Value(9999),
                             json::Value(stage_->id()),
                             json::Value("task.0001"),
                             json::Value(-1),
                             json::Value(1.5),
                             json::Value(),
                             json::Value(4294967296LL),
                             json::Value(task_->id())};
  mixed["kind"] = "task";
  mixed["from"] = "DESCRIBED";
  mixed["to"] = "SCHEDULING";
  const json::Value ack = request(mixed);
  EXPECT_FALSE(ack.get_bool("ok", true));
  EXPECT_EQ(ack.get_int("applied", -1), 1);
  EXPECT_EQ(task_->state(), TaskState::Scheduling);
  EXPECT_EQ(stage_->state(), StageState::Described);
  EXPECT_EQ(sync_->processed(), 1u);
  EXPECT_EQ(sync_->rejected(), 7u);

  // Unknown kind or state names, and requests without ids.
  json::Value bad_kind;
  bad_kind["ids"] = json::Array{json::Value(task_->id())};
  bad_kind["kind"] = "nonsense";
  bad_kind["from"] = "SCHEDULING";
  bad_kind["to"] = "SCHEDULED";
  EXPECT_EQ(request(bad_kind).get_int("applied", -1), 0);
  json::Value bad_state = bad_kind;
  bad_state["kind"] = "task";
  bad_state["to"] = "BOGUS";
  EXPECT_EQ(request(bad_state).get_int("applied", -1), 0);
  json::Value no_ids = bad_state;
  no_ids.as_object().erase("ids");
  EXPECT_FALSE(request(no_ids).get_bool("ok", true));
  json::Value scalar_ids = bad_state;
  scalar_ids["ids"] = "all";
  EXPECT_FALSE(request(scalar_ids).get_bool("ok", true));
  EXPECT_EQ(task_->state(), TaskState::Scheduling);
  EXPECT_EQ(store_.transaction_count(), 1u);
  EXPECT_EQ(sync_->state(), ComponentState::Running);
}

TEST(ObjectRegistryTest, IdsAreDenseInRegistrationOrder) {
  ObjectRegistry registry;
  auto p = std::make_shared<Pipeline>("p");
  std::vector<StagePtr> stages;
  std::vector<TaskPtr> tasks;
  for (int s = 0; s < 2; ++s) {
    stages.push_back(std::make_shared<Stage>("s"));
    for (int t = 0; t < 2; ++t) {
      tasks.push_back(std::make_shared<Task>("t"));
      tasks.back()->duration_s = 1;
      stages.back()->add_task(tasks.back());
    }
    p->add_stage(stages.back());
  }
  EXPECT_EQ(p->id(), kNoId);
  registry.add_pipeline(p);
  // Pipeline, then each stage followed by its tasks.
  EXPECT_EQ(p->id(), 0u);
  EXPECT_EQ(stages[0]->id(), 1u);
  EXPECT_EQ(tasks[0]->id(), 2u);
  EXPECT_EQ(tasks[1]->id(), 3u);
  EXPECT_EQ(stages[1]->id(), 4u);
  EXPECT_EQ(tasks[3]->id(), 6u);
  EXPECT_EQ(registry.task(3), tasks[1]);
  EXPECT_EQ(registry.stage(4), stages[1]);
  EXPECT_EQ(registry.pipeline(0), p);
  // Lookups of the wrong kind or past the end find nothing.
  EXPECT_EQ(registry.task(4), nullptr);
  EXPECT_EQ(registry.stage(3), nullptr);
  EXPECT_EQ(registry.task(7), nullptr);
  EXPECT_EQ(registry.task(kNoId), nullptr);
  EXPECT_EQ(registry.id_of(tasks[2]->uid()), 5u);
  EXPECT_EQ(registry.id_of("nope"), kNoId);

  // add_stage extends the id space; registering again changes nothing.
  auto late = std::make_shared<Stage>("late");
  auto t = std::make_shared<Task>("t");
  t->duration_s = 1;
  late->add_task(t);
  EXPECT_EQ(late->id(), kNoId);
  registry.add_stage(late);
  EXPECT_EQ(registry.stage(7), late);
  EXPECT_EQ(late->id(), 7u);
  EXPECT_EQ(t->id(), 8u);
  registry.add_stage(late);
  registry.add_pipeline(p);
  EXPECT_EQ(late->id(), 7u);
  EXPECT_EQ(registry.task(9), nullptr);
  EXPECT_EQ(registry.task_count(), 5u);
  EXPECT_EQ(registry.pipelines().size(), 1u);
}

TEST(ObjectRegistryTest, LookupAndRuntimeStageAddition) {
  ObjectRegistry registry;
  auto p = std::make_shared<Pipeline>("p");
  auto s = std::make_shared<Stage>("s");
  auto t = std::make_shared<Task>("t");
  t->duration_s = 1;
  s->add_task(t);
  p->add_stage(s);
  registry.add_pipeline(p);
  EXPECT_EQ(registry.pipeline(p->uid()), p);
  EXPECT_EQ(registry.stage(s->uid()), s);
  EXPECT_EQ(registry.task(t->uid()), t);
  EXPECT_EQ(registry.task("nope"), nullptr);
  EXPECT_EQ(registry.task_count(), 1u);

  auto s2 = std::make_shared<Stage>("late");
  auto t2 = std::make_shared<Task>("t2");
  t2->duration_s = 1;
  s2->add_task(t2);
  p->add_stage(s2);
  registry.add_stage(s2);
  EXPECT_EQ(registry.stage(s2->uid()), s2);
  EXPECT_EQ(registry.task(t2->uid()), t2);
}

// -------------------------------------------------------- Overheads

TEST(Overheads, ComputedFromProfilerEvents) {
  Profiler p;
  // RTS lifecycle at virtual times.
  p.record("rts", "rts_init_start", "", 0.0);
  p.record("rts", "rts_init_stop", "", 30.0);
  p.record("umgr", "unit_submit", "u1", 31.0);
  p.record("agent", "unit_received", "u1", 31.0);
  p.record("agent", "unit_stage_in_start", "u1", 31.0);
  p.record("agent", "unit_stage_in_stop", "u1", 33.0);
  p.record("agent", "unit_exec_start", "u1", 35.0);
  p.record("agent", "unit_exec_stop", "u1", 135.0);
  p.record("agent", "unit_done", "u1", 136.0);
  p.record("rts", "rts_teardown_start", "", 140.0);
  p.record("rts", "rts_teardown_stop", "", 155.0);

  OverheadInputs in;
  in.setup_wall_s = 0.002;
  in.mgmt_wall_s = 0.010;
  in.teardown_wall_s = 0.001;
  in.tasks_processed = 1;
  in.host.factor = 1.0;

  const OverheadReport r = compute_overheads(obs::build_trace(p), in);
  EXPECT_DOUBLE_EQ(r.task_exec_s, 100.0);
  EXPECT_DOUBLE_EQ(r.staging_s, 2.0);
  EXPECT_DOUBLE_EQ(r.rts_teardown_s, 15.0);
  // rts_init 30 + lead-in (35-31-2=2) + lead-out (136-135=1).
  EXPECT_NEAR(r.rts_overhead_s, 33.0, 1e-9);
  // Host model: setup 0.1, mgmt ~9.5005, teardown 5.
  EXPECT_NEAR(r.entk_setup_s, 0.102, 1e-9);
  EXPECT_NEAR(r.entk_mgmt_s, 9.5005 + 0.010, 1e-9);
  EXPECT_NEAR(r.entk_teardown_s, 5.001, 1e-9);
  EXPECT_FALSE(r.to_table().empty());
}

TEST(Overheads, TitanHostFactorShrinksEnTKOverheads) {
  Profiler p;
  OverheadInputs vm;
  vm.tasks_processed = 16;
  vm.host.factor = 1.0;
  OverheadInputs titan = vm;
  titan.host.factor = 0.3;
  const OverheadReport rv = compute_overheads(obs::build_trace(p), vm);
  const OverheadReport rt = compute_overheads(obs::build_trace(p), titan);
  EXPECT_LT(rt.entk_setup_s, rv.entk_setup_s);
  EXPECT_LT(rt.entk_mgmt_s, rv.entk_mgmt_s);
  EXPECT_LT(rt.entk_teardown_s, rv.entk_teardown_s);
  EXPECT_NEAR(rt.entk_mgmt_s / rv.entk_mgmt_s, 0.3, 0.01);
}

TEST(Overheads, EmptyProfilerYieldsZeroWorkloadTimes) {
  Profiler p;
  OverheadInputs in;
  const OverheadReport r = compute_overheads(obs::build_trace(p), in);
  EXPECT_DOUBLE_EQ(r.task_exec_s, 0.0);
  EXPECT_DOUBLE_EQ(r.staging_s, 0.0);
  EXPECT_DOUBLE_EQ(r.rts_overhead_s, 0.0);
}

}  // namespace
}  // namespace entk
