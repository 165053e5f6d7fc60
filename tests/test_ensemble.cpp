// Tests for the adaptive-ensemble subsystem: event parsing, ResultView
// aggregation, the JSON rule loader, and end-to-end Controller runs
// (generator loop, group cancellation, mid-run elastic shrink, decision
// journal, post_exec fault capture).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <vector>

#include "src/core/app_manager.hpp"
#include "src/ensemble/controller.hpp"
#include "src/ensemble/rules_json.hpp"
#include "src/rts/pilot_rts.hpp"

namespace entk::ensemble {
namespace {

std::string fresh_path(const std::string& stem) {
  return ::testing::TempDir() + "/entk_ens_" + stem + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(wall_now_us());
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

json::Value task_event(const std::string& uid, const std::string& group,
                       const std::string& outcome, double value = 0.0,
                       const std::string& key = "") {
  json::Value ev;
  ev["event"] = "task";
  ev["uid"] = uid;
  ev["name"] = uid;
  ev["outcome"] = outcome;
  ev["exit_code"] = 0;
  ev["stage"] = "stage.0000";
  ev["pipeline"] = "pipeline.0000";
  ev["metadata"]["ensemble"]["group"] = group;
  if (!key.empty()) ev["metadata"]["ensemble"]["values"][key] = value;
  return ev;
}

// ------------------------------------------------------------- events ---

TEST(EventParse, TaskEventCarriesGroupAndValues) {
  const auto ev = Event::parse(task_event("task.7", "opt", "DONE", 0.25, "x"));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, Event::Kind::Task);
  EXPECT_EQ(ev->uid, "task.7");
  EXPECT_TRUE(ev->done());
  EXPECT_EQ(ev->group(), "opt");
  EXPECT_DOUBLE_EQ(ev->values().get_double("x", -1.0), 0.25);
}

TEST(EventParse, MalformedPayloadsAreRejectedNotFatal) {
  EXPECT_FALSE(Event::parse(json::Value()).has_value());
  EXPECT_FALSE(Event::parse(json::Value(42)).has_value());
  json::Value unknown;
  unknown["event"] = "quorum";
  EXPECT_FALSE(Event::parse(unknown).has_value());
  json::Value no_uid;
  no_uid["event"] = "task";
  no_uid["outcome"] = "DONE";
  EXPECT_FALSE(Event::parse(no_uid).has_value());
}

// --------------------------------------------------------- result view ---

TEST(ResultViewStats, CountsAndStreamingStatsPerGroup) {
  ResultView view;
  for (int i = 1; i <= 5; ++i) {
    view.ingest(*Event::parse(task_event("t" + std::to_string(i), "g",
                                         "DONE", i, "v")));
  }
  view.ingest(*Event::parse(task_event("t6", "g", "FAILED")));
  view.ingest(*Event::parse(task_event("t7", "g", "CANCELED")));
  view.ingest(*Event::parse(task_event("t8", "other", "DONE", 9.0, "v")));

  EXPECT_EQ(view.done_count("g"), 5u);
  EXPECT_EQ(view.failed_count("g"), 1u);
  EXPECT_EQ(view.canceled_count("g"), 1u);
  EXPECT_EQ(view.total_done(), 6u);
  EXPECT_EQ(view.total_failed(), 1u);

  EXPECT_EQ(view.sample_count("g", "v"), 5u);
  EXPECT_DOUBLE_EQ(view.stat("g", "v", Stat::Count), 5.0);
  EXPECT_DOUBLE_EQ(view.stat("g", "v", Stat::Min), 1.0);
  EXPECT_DOUBLE_EQ(view.stat("g", "v", Stat::Max), 5.0);
  EXPECT_DOUBLE_EQ(view.stat("g", "v", Stat::Mean), 3.0);
  EXPECT_DOUBLE_EQ(view.stat("g", "v", Stat::Median), 3.0);
  EXPECT_DOUBLE_EQ(view.stat("g", "v", Stat::Mad), 1.0);
  EXPECT_DOUBLE_EQ(view.stat("g", "v", Stat::Sum), 15.0);
  // Fallback when the series is empty.
  EXPECT_DOUBLE_EQ(view.stat("g", "absent", Stat::Mean, -7.0), -7.0);

  EXPECT_EQ(view.completed("g").size(), 5u);
  const auto last = view.last_with_value("g", "v");
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->uid, "t5");
}

// --------------------------------------------------------- JSON rules ---

TEST(RulesJson, ParsesEveryTriggerAndActionShape) {
  const std::string doc_text = R"({"rules": [
    {"name": "shed", "trigger": {"type": "task_failed", "match": "sim-"},
     "action": {"type": "cancel_group", "group": "low"}, "max_fires": 1},
    {"trigger": {"type": "timer", "interval_s": 5.0},
     "action": {"type": "resize_pilot", "delta_nodes": -1,
                "reason": "pressure"}},
    {"trigger": {"type": "stat_below", "group": "opt", "key": "misfit",
                 "stat": "min", "threshold": 0.01, "min_count": 8},
     "action": {"type": "finish"}},
    {"trigger": {"type": "group_done", "group": "g", "count": 3},
     "action": {"type": "set_param", "key": "k", "value": 1.5}},
    {"trigger": {"type": "after", "delay_s": 9.0},
     "action": {"type": "finish", "pipeline": "pipe.1"}}
  ]})";
  const std::vector<Rule> rules = rules_from_json(json::parse(doc_text));
  ASSERT_EQ(rules.size(), 5u);
  EXPECT_EQ(rules[0].name, "shed");
  EXPECT_EQ(rules[0].max_fires, 1);
  EXPECT_FALSE(rules[1].name.empty());  // auto-named
  for (const Rule& r : rules) {
    EXPECT_TRUE(static_cast<bool>(r.when));
    EXPECT_TRUE(static_cast<bool>(r.then));
  }
}

TEST(RulesJson, MalformedDocumentsThrowValueError) {
  EXPECT_THROW(rules_from_json(json::parse("{}")), ValueError);
  EXPECT_THROW(rules_from_json(json::parse(R"({"rules": 3})")), ValueError);
  EXPECT_THROW(rules_from_json(json::parse(
                   R"({"rules": [{"action": {"type": "finish"}}]})")),
               ValueError);
  EXPECT_THROW(rules_from_json(json::parse(
                   R"({"rules": [{"trigger": {"type": "warp"},
                                  "action": {"type": "finish"}}]})")),
               ValueError);
  EXPECT_THROW(rules_from_json(json::parse(
                   R"({"rules": [{"trigger": {"type": "timer",
                                              "interval_s": 1.0},
                                  "action": {"type": "resize_pilot",
                                             "delta_nodes": 0}}]})")),
               ValueError);
}

// --------------------------------------------------- controller (e2e) ---

TEST(ControllerE2E, GeneratorLoopConvergesAndFinishes) {
  // Three batches of 4, then the generator returns empty: the controller
  // must finish the held-open pipeline, and every task must be DONE
  // exactly once.
  constexpr int kRounds = 3;
  constexpr int kBatch = 4;
  auto round = std::make_shared<int>(0);
  auto executions = std::make_shared<std::atomic<int>>(0);

  auto generator = make_generator(
      [round, executions](ResultView& results, Ops&) -> std::vector<TaskPtr> {
        EXPECT_EQ(results.done_count("gen"),
                  static_cast<std::size_t>(*round * kBatch));
        if (*round >= kRounds) return {};
        std::vector<TaskPtr> batch;
        for (int i = 0; i < kBatch; ++i) {
          batch.push_back(make_task(
              "gen-r" + std::to_string(*round) + "-" + std::to_string(i),
              "gen",
              [executions](json::Value& values) {
                executions->fetch_add(1);
                values["v"] = 1.0;
                return 0;
              },
              /*duration_s=*/1.0));
        }
        ++*round;
        return batch;
      });

  auto controller = Controller::create();
  auto pipeline = std::make_shared<Pipeline>("gen-loop");
  controller->run_generator(pipeline, generator, "gen");

  AppManagerConfig cfg = fast_config();
  controller->attach(cfg);
  AppManager amgr(cfg);
  amgr.add_pipelines({pipeline});
  amgr.run();

  EXPECT_EQ(pipeline->state(), PipelineState::Done);
  EXPECT_FALSE(pipeline->held_open());
  EXPECT_EQ(pipeline->stage_count(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(executions->load(), kRounds * kBatch);

  // Exactly-once at the event level: one DONE event per distinct uid.
  const std::vector<Event> events = controller->results().completed("gen");
  std::set<std::string> uids;
  for (const Event& ev : events) uids.insert(ev.uid);
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kRounds * kBatch));
  EXPECT_EQ(uids.size(), events.size());
  EXPECT_GE(controller->decision_count(), static_cast<std::size_t>(kRounds));
}

TEST(ControllerE2E, CancelGroupResolvesEveryTaskExactlyOnce) {
  // 4 quick "keep" tasks and 12 slow "shed" tasks on 4 cores: when the
  // keep group completes, a rule sheds the rest. Every task must resolve
  // exactly once (DONE or CANCELED), and the pipeline completes without
  // waiting for the canceled work.
  auto pipeline = std::make_shared<Pipeline>("shed-run");
  auto stage = std::make_shared<Stage>("work");
  for (int i = 0; i < 4; ++i) {
    stage->add_task(make_task(
        "keep-" + std::to_string(i), "keep",
        [](json::Value&) { return 0; }, /*duration_s=*/1.0));
  }
  for (int i = 0; i < 12; ++i) {
    stage->add_task(make_task(
        "shed-" + std::to_string(i), "shed",
        [](json::Value&) { return 0; }, /*duration_s=*/200.0));
  }
  pipeline->add_stage(stage);

  auto controller = Controller::create();
  controller->add_rule({
      .name = "shed-when-keep-done",
      .when = trigger::group_done_at_least("keep", 4),
      .then = action::cancel_group("shed"),
      .max_fires = 1,
  });

  AppManagerConfig cfg = fast_config();
  cfg.resource.cpus = 4;
  controller->attach(cfg);
  AppManager amgr(cfg);
  amgr.add_pipelines({pipeline});
  amgr.run();

  EXPECT_EQ(pipeline->state(), PipelineState::Done);
  ResultView& results = controller->results();
  EXPECT_EQ(results.done_count("keep"), 4u);
  EXPECT_EQ(results.done_count("shed") + results.canceled_count("shed"),
            12u);
  EXPECT_GT(results.canceled_count("shed"), 0u);
  // Exactly once: every task object reached a final state.
  for (const StagePtr& s : pipeline->stages()) {
    for (const TaskPtr& t : s->tasks()) {
      EXPECT_TRUE(t->state() == TaskState::Done ||
                  t->state() == TaskState::Canceled)
          << t->name << " in state " << static_cast<int>(t->state());
    }
  }
}

TEST(ControllerStop, DrainsQueuedEventsBeforeStopping) {
  // AppManager stops the controller right after the last pipeline
  // completes, when the final completion events may still be queued: the
  // stop must not drop them from the ResultView.
  auto broker = std::make_shared<mq::Broker>("drain_test");
  broker->declare_queue("q.ensemble.events");
  auto profiler = std::make_shared<Profiler>();
  ObjectRegistry registry;
  WFProcessor wfp(WfConfig{}, broker, &registry, "q.pending", "q.completed",
                  "q.states", profiler);
  auto controller = Controller::create();
  AppManagerConfig cfg = fast_config();
  controller->attach(cfg);
  AdaptiveWiring wiring;
  wiring.broker = broker;
  wiring.events_queue = "q.ensemble.events";
  wiring.registry = &registry;
  wiring.wfprocessor = &wfp;
  wiring.clock = std::make_shared<ScaledClock>(cfg.clock_scale);
  wiring.profiler = profiler;
  wiring.resize = [](const rts::ResizeRequest&) { return false; };
  std::shared_ptr<Component> component = cfg.adaptive_factory(wiring);
  constexpr int kEvents = 300;
  for (int i = 0; i < kEvents; ++i) {
    broker->publish("q.ensemble.events",
                    mq::Message::json_body(
                        "q.ensemble.events",
                        task_event("task." + std::to_string(i), "g", "DONE")));
  }
  component->start();
  component->stop();
  EXPECT_EQ(controller->results().done_count("g"),
            static_cast<std::size_t>(kEvents));
  broker->close();
}

TEST(ControllerE2E, MidRunShrinkDrainsInFlightWork) {
  // Acceptance criterion: shrink the pilot two nodes while work is in
  // flight. The drain must let every task complete (DONE exactly once) and
  // the pilot must end up at the reduced size.
  AppManagerConfig cfg = fast_config();
  cfg.resource.cpus = 0;
  cfg.resource.nodes = 4;  // 4 x 8 cores on local.localhost

  auto clock = std::make_shared<ScaledClock>(cfg.clock_scale);
  auto profiler = std::make_shared<Profiler>();
  auto rts_holder = std::make_shared<std::shared_ptr<rts::PilotRts>>();
  cfg.rts_factory = [clock, profiler, rts_holder, cfg]() -> rts::RtsPtr {
    rts::PilotRtsConfig pc;
    pc.pilot.resource = cfg.resource.resource;
    pc.pilot.nodes = cfg.resource.nodes;
    pc.agent = cfg.resource.agent;
    pc.teardown_base_s = cfg.resource.rts_teardown_base_s;
    pc.teardown_per_unit_s = cfg.resource.rts_teardown_per_unit_s;
    *rts_holder = std::make_shared<rts::PilotRts>(pc, clock, profiler);
    return *rts_holder;
  };

  auto pipeline = std::make_shared<Pipeline>("shrink-run");
  auto stage = std::make_shared<Stage>("work");
  constexpr int kTasks = 48;  // 32 run in wave one, 16 queue behind
  for (int i = 0; i < kTasks; ++i) {
    stage->add_task(make_task(
        "work-" + std::to_string(i), "work",
        [](json::Value&) { return 0; }, /*duration_s=*/10.0));
  }
  pipeline->add_stage(stage);

  auto resized = std::make_shared<std::atomic<bool>>(false);
  auto controller = Controller::create();
  controller->add_rule({
      .name = "shrink-mid-run",
      .when = trigger::after(2.0),
      .then =
          [resized](Ops& ops) {
            (*resized) = ops.resize_pilot(-2, "test shrink");
          },
      .max_fires = 1,
  });

  controller->attach(cfg);
  AppManager amgr(cfg);
  amgr.add_pipelines({pipeline});
  amgr.run();

  EXPECT_EQ(pipeline->state(), PipelineState::Done);
  EXPECT_TRUE(resized->load());
  ASSERT_TRUE(*rts_holder);
  EXPECT_EQ((*rts_holder)->pilot()->nodes(), 2);

  // Drain semantics: nothing was killed — every task is DONE, exactly one
  // completion event each.
  ResultView& results = controller->results();
  EXPECT_EQ(results.done_count("work"), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(results.total_failed(), 0u);
  const std::vector<Event> events = results.completed("work");
  std::set<std::string> uids;
  for (const Event& ev : events) uids.insert(ev.uid);
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(uids.size(), events.size());
  for (const TaskPtr& t : stage->tasks()) {
    EXPECT_EQ(t->state(), TaskState::Done) << t->name;
    // attempts() counts retries; a drained (not killed) task never retries.
    EXPECT_EQ(t->attempts(), 0) << t->name;
  }

  // The decision was journaled with the resize action.
  bool saw_resize = false;
  for (const Decision& d : controller->decisions()) {
    for (const std::string& a : d.actions) {
      if (a.find("resize_pilot:-2") != std::string::npos) saw_resize = true;
    }
  }
  EXPECT_TRUE(saw_resize);
}

TEST(ControllerE2E, DecisionJournalIsReplayableJsonl) {
  const std::string journal = fresh_path("journal") + ".jsonl";
  auto pipeline = std::make_shared<Pipeline>("journaled");
  auto stage = std::make_shared<Stage>("work");
  stage->add_task(make_task(
      "only", "g", [](json::Value& v) { v["x"] = 1.0; return 0; }, 1.0));
  pipeline->add_stage(stage);
  pipeline->hold_open();

  auto controller = Controller::create({.journal_path = journal});
  controller->add_rule({
      .name = "release",
      .when = trigger::stage_done("work"),
      .then = action::sequence({action::set_param("note", "done"),
                                action::finish(pipeline->uid())}),
      .max_fires = 1,
  });

  AppManagerConfig cfg = fast_config();
  controller->attach(cfg);
  AppManager amgr(cfg);
  amgr.add_pipelines({pipeline});
  amgr.run();

  EXPECT_EQ(pipeline->state(), PipelineState::Done);
  EXPECT_EQ(controller->params().get_string("note", ""), "done");

  std::ifstream in(journal);
  ASSERT_TRUE(in.good());
  std::vector<json::Value> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(json::parse(line));
  }
  ASSERT_EQ(lines.size(), controller->decision_count());
  ASSERT_GE(lines.size(), 1u);
  const json::Value& d = lines.front();
  EXPECT_EQ(d.get_string("rule", ""), "release");
  EXPECT_NE(d.get_string("trigger", ""), "");
  EXPECT_GE(d.at("actions").as_array().size(), 2u);
  std::filesystem::remove(journal);
}

TEST(ControllerE2E, DecisionJournalWriteErrorIsAControllerFault) {
  // Writes to /dev/full fail with ENOSPC at flush time: the journal
  // writer's sticky error must fail the controller, not vanish.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  auto pipeline = std::make_shared<Pipeline>("full-disk");
  auto stage = std::make_shared<Stage>("work");
  stage->add_task(make_task(
      "only", "g", [](json::Value& v) { v["x"] = 1.0; return 0; }, 1.0));
  pipeline->add_stage(stage);
  pipeline->hold_open();

  auto controller = Controller::create({.journal_path = "/dev/full"});
  controller->add_rule({
      .name = "release",
      .when = trigger::stage_done("work"),
      .then = action::finish(pipeline->uid()),
      .max_fires = 1,
  });

  AppManagerConfig cfg = fast_config();
  controller->attach(cfg);
  AppManager amgr(cfg);
  amgr.add_pipelines({pipeline});
  amgr.run();

  EXPECT_EQ(pipeline->state(), PipelineState::Done);
  EXPECT_EQ(controller->decision_count(), 1u);  // still kept in memory
  EXPECT_EQ(controller->state(), ComponentState::Failed);
  EXPECT_NE(controller->fault_reason().find("journal: short write to "
                                            "/dev/full"),
            std::string::npos)
      << controller->fault_reason();
}

// ------------------------------------------- post_exec fault contract ---

TEST(PostExecFault, ThrowingHookIsCapturedAndWorkflowCompletes) {
  // A throwing post_exec must become a captured component fault (the
  // supervisor restarts the WFProcessor) — not std::terminate — and the
  // hook must not re-run after the restart (at-most-once).
  auto hook_runs = std::make_shared<std::atomic<int>>(0);

  auto pipeline = std::make_shared<Pipeline>("faulty-hook");
  auto first = std::make_shared<Stage>("first");
  auto t1 = std::make_shared<Task>("t1");
  t1->duration_s = 1.0;
  first->add_task(t1);
  first->post_exec = [hook_runs]() {
    hook_runs->fetch_add(1);
    throw std::runtime_error("user hook exploded");
  };
  pipeline->add_stage(first);
  auto second = std::make_shared<Stage>("second");
  auto t2 = std::make_shared<Task>("t2");
  t2->duration_s = 1.0;
  second->add_task(t2);
  pipeline->add_stage(second);

  AppManagerConfig cfg = fast_config();
  AppManager amgr(cfg);
  amgr.add_pipelines({pipeline});
  amgr.run();

  EXPECT_EQ(pipeline->state(), PipelineState::Done);
  EXPECT_EQ(amgr.tasks_done(), 2u);
  EXPECT_EQ(hook_runs->load(), 1);          // consumed before it ran
  EXPECT_GE(amgr.component_restarts(), 1);  // fault was captured
}

}  // namespace
}  // namespace entk::ensemble
