// Direct tests of the RTS Agent's discrete-event execution machinery:
// staging timelines, dispatch-rate serialization, environment setup,
// placement semantics, worker pool, and process execution helpers.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>

#include "src/rts/agent.hpp"
#include "src/rts/process.hpp"

namespace entk::rts {
namespace {

/// Harness wiring an Agent to an in-process broker with direct access to
/// its queues.
class AgentHarness {
 public:
  explicit AgentHarness(AgentConfig config, int nodes = 4,
                        int cores_per_node = 8,
                        sim::FailureSpec failure = {},
                        double clock_scale = 1e-4)
      : clock_(std::make_shared<ScaledClock>(clock_scale)),
        profiler_(std::make_shared<Profiler>()),
        broker_(std::make_shared<mq::Broker>("agent_test")),
        node_map_(nodes, cores_per_node, 0),
        filesystem_(sim::FilesystemSpec{}),
        failure_model_(failure),
        registry_(std::make_shared<UnitRegistry>()) {
    broker_->declare_queue("in");
    broker_->declare_queue("out");
    agent_ = std::make_unique<Agent>(
        "agent", config, &node_map_, &filesystem_, &failure_model_,
        /*compute_factor=*/1.0, clock_, profiler_, broker_, "in", "out",
        registry_);
    agent_->start();
  }

  ~AgentHarness() {
    if (agent_) agent_->kill();
    broker_->close();
  }

  void submit(TaskUnit unit) {
    const json::Value wire = unit.to_json();
    registry_->put(std::move(unit));
    broker_->publish("in", mq::Message::json_body("in", wire));
  }

  std::vector<UnitResult> collect(std::size_t n, double timeout_s = 10.0) {
    std::vector<UnitResult> results;
    const double deadline = wall_now_s() + timeout_s;
    while (results.size() < n && wall_now_s() < deadline) {
      auto d = broker_->get("out", 0.01);
      if (!d) continue;
      broker_->ack("out", d->delivery_tag);
      results.push_back(UnitResult::from_json(d->message.body_json()));
    }
    return results;
  }

  Agent& agent() { return *agent_; }
  sim::NodeMap& node_map() { return node_map_; }
  ClockPtr clock() { return clock_; }
  ProfilerPtr profiler() { return profiler_; }

 private:
  ClockPtr clock_;
  ProfilerPtr profiler_;
  mq::BrokerPtr broker_;
  sim::NodeMap node_map_;
  sim::SharedFilesystem filesystem_;
  sim::FailureModel failure_model_;
  std::shared_ptr<UnitRegistry> registry_;
  std::unique_ptr<Agent> agent_;
};

AgentConfig fast_agent() {
  AgentConfig cfg;
  cfg.env_setup_s = 1.0;
  cfg.dispatch_rate_per_s = 1000;
  return cfg;
}

TaskUnit unit_of(const std::string& uid, double duration, int cores = 1) {
  TaskUnit u;
  u.uid = uid;
  u.name = uid;
  u.executable = "sleep";
  u.duration_s = duration;
  u.cores = cores;
  return u;
}

TEST(AgentExec, EnvSetupIsChargedPerUnit) {
  AgentConfig cfg = fast_agent();
  cfg.env_setup_s = 3.0;
  AgentHarness h(cfg);
  h.submit(unit_of("u0", 10.0));
  auto results = h.collect(1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NEAR(results[0].exec_end_t - results[0].exec_start_t, 13.0, 0.5);
}

TEST(AgentExec, DispatchRateSerializesStarts) {
  AgentConfig cfg = fast_agent();
  cfg.dispatch_rate_per_s = 10.0;  // one start per 0.1 virtual s
  AgentHarness h(cfg);
  for (int i = 0; i < 8; ++i) h.submit(unit_of('u' + std::to_string(i), 5.0));
  auto results = h.collect(8);
  ASSERT_EQ(results.size(), 8u);
  double min_start = 1e18, max_start = -1e18;
  for (const UnitResult& r : results) {
    min_start = std::min(min_start, r.exec_start_t);
    max_start = std::max(max_start, r.exec_start_t);
  }
  // 8 units at 10/s: the last starts >= 0.7 virtual s after the first.
  EXPECT_GE(max_start - min_start, 0.69);
}

TEST(AgentExec, SequentialStagerSerializesInputStaging) {
  AgentConfig cfg = fast_agent();
  cfg.stager_workers = 1;
  AgentHarness h(cfg);
  // Each unit stages 10 MB at the default 500 MB/s: 25 ms each (+latency).
  for (int i = 0; i < 4; ++i) {
    TaskUnit u = unit_of('u' + std::to_string(i), 1.0);
    u.input_staging.push_back(
        {"in", "sandbox/", saga::StagingAction::Copy, 10'000'000});
    h.submit(std::move(u));
  }
  auto results = h.collect(4);
  ASSERT_EQ(results.size(), 4u);
  double sum = 0;
  for (const UnitResult& r : results) sum += r.staging_in_s;
  EXPECT_NEAR(sum, 4 * (0.005 + 0.02), 0.02);

  // One stager: the four staging windows must be pairwise disjoint on the
  // virtual timeline (sequential staging — the Fig 8 linear-growth cause).
  struct Window {
    double start = -1, stop = -1;
  };
  std::map<std::string, Window> windows;
  for (const ProfileEvent& e : h.profiler()->events()) {
    if (e.event == "unit_stage_in_start") windows[e.uid].start = e.virtual_s;
    if (e.event == "unit_stage_in_stop") windows[e.uid].stop = e.virtual_s;
  }
  ASSERT_EQ(windows.size(), 4u);
  std::vector<Window> sorted;
  for (const auto& [uid, w] : windows) {
    (void)uid;
    ASSERT_GE(w.start, 0.0);
    ASSERT_GT(w.stop, w.start);
    sorted.push_back(w);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_GE(sorted[i].start, sorted[i - 1].stop - 1e-9);
  }
}

TEST(AgentExec, ParallelStagersOverlapStaging) {
  AgentConfig serial = fast_agent();
  serial.stager_workers = 1;
  AgentConfig parallel = fast_agent();
  parallel.stager_workers = 4;

  auto run = [](AgentConfig cfg) {
    // Slower clock (1 ms wall = 1 virtual s): OS scheduling jitter stays
    // small against the multi-second staging charges being compared.
    AgentHarness h(cfg, 4, 8, {}, 1e-3);
    for (int i = 0; i < 4; ++i) {
      TaskUnit u;
      u.uid = 'u' + std::to_string(i);
      u.duration_s = 1.0;
      // 2 GB each (~4 s virtual at 500 MB/s): staging dominates arrival
      // jitter, so the stager count is what decides the makespan.
      u.input_staging.push_back(
          {"in", "sandbox/", saga::StagingAction::Copy, 2'000'000'000});
      h.submit(std::move(u));
    }
    auto results = h.collect(4);
    double last_end = 0;
    for (const UnitResult& r : results) {
      last_end = std::max(last_end, r.exec_end_t);
    }
    return last_end;
  };
  // Serial: ~4 x 4 s of staging backlog; 4 stagers overlap it entirely.
  EXPECT_LT(run(parallel) + 5.0, run(serial));
}

TEST(AgentExec, HeadOfLineBlockingPreservesFifo) {
  // A wide unit blocks the queue head; later narrow units must NOT jump
  // ahead (FIFO agent scheduler).
  AgentHarness h(fast_agent(), /*nodes=*/1, /*cores_per_node=*/4);
  h.submit(unit_of("occupier", 50.0, 4));   // fills the machine
  h.submit(unit_of("wide", 30.0, 4));       // must wait for occupier
  h.submit(unit_of("narrow", 5.0, 1));      // could fit, but FIFO says wait
  auto results = h.collect(3, 20.0);
  ASSERT_EQ(results.size(), 3u);
  double wide_start = -1, narrow_start = -1;
  for (const UnitResult& r : results) {
    if (r.uid == "wide") wide_start = r.exec_start_t;
    if (r.uid == "narrow") narrow_start = r.exec_start_t;
  }
  EXPECT_GE(narrow_start, wide_start);
}

TEST(AgentExec, GeneratinalExecutionWhenOversubscribed) {
  AgentHarness h(fast_agent(), /*nodes=*/1, /*cores_per_node=*/2);
  for (int i = 0; i < 6; ++i) h.submit(unit_of('u' + std::to_string(i), 10.0));
  auto results = h.collect(6, 20.0);
  ASSERT_EQ(results.size(), 6u);
  double first_start = 1e18, last_end = 0;
  for (const UnitResult& r : results) {
    first_start = std::min(first_start, r.exec_start_t);
    last_end = std::max(last_end, r.exec_end_t);
  }
  // 6 tasks, 2 cores: 3 generations of (1 + 10) virtual seconds.
  EXPECT_GE(last_end - first_start, 3 * 11.0 - 1.0);
}

TEST(AgentExec, StopCancelsUnplacedUnits) {
  AgentHarness h(fast_agent(), /*nodes=*/1, /*cores_per_node=*/1);
  h.submit(unit_of("running", 2000.0, 1));
  h.submit(unit_of("waiting", 2000.0, 1));
  // Give the agent time to place the first unit.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread stopper([&h] { h.agent().stop(); });
  auto results = h.collect(2, 10.0);
  stopper.join();
  ASSERT_EQ(results.size(), 2u);
  int canceled = 0, done = 0;
  for (const UnitResult& r : results) {
    if (r.outcome == UnitOutcome::Canceled) ++canceled;
    if (r.outcome == UnitOutcome::Done) ++done;
  }
  EXPECT_EQ(canceled, 1);  // the waiting unit
  EXPECT_EQ(done, 1);      // the running unit drains
}

TEST(AgentExec, ReleasedCoresAreReusable) {
  AgentHarness h(fast_agent(), /*nodes=*/1, /*cores_per_node=*/4);
  for (int i = 0; i < 8; ++i) h.submit(unit_of('u' + std::to_string(i), 2.0, 2));
  auto results = h.collect(8);
  ASSERT_EQ(results.size(), 8u);
  EXPECT_EQ(h.node_map().stats().used_cores, 0);
  EXPECT_EQ(h.agent().completed(), 8u);
}

TEST(AgentExec, MetadataRoundTripsThroughResults) {
  AgentHarness h(fast_agent());
  TaskUnit u = unit_of("meta", 1.0);
  u.metadata["experiment"] = "fig10";
  u.metadata["index"] = 7;
  h.submit(std::move(u));
  auto results = h.collect(1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].metadata.at("experiment").as_string(), "fig10");
  EXPECT_EQ(results[0].metadata.at("index").as_int(), 7);
}

TEST(UnitRegistryTest, TakeRemovesAndFallsBackToWire) {
  UnitRegistry registry;
  TaskUnit u = unit_of("u1", 5.0);
  u.callable = [] { return 0; };
  const json::Value wire = u.to_json();
  registry.put(std::move(u));
  EXPECT_EQ(registry.size(), 1u);
  TaskUnit taken = registry.take("u1", wire);
  EXPECT_TRUE(static_cast<bool>(taken.callable));  // preserved in-process
  EXPECT_EQ(registry.size(), 0u);
  // Second take falls back to wire deserialization: callable lost.
  TaskUnit fallback = registry.take("u1", wire);
  EXPECT_FALSE(static_cast<bool>(fallback.callable));
  EXPECT_DOUBLE_EQ(fallback.duration_s, 5.0);
}

TEST(ProcessExec, SpawnablePredicate) {
  EXPECT_TRUE(is_spawnable("/bin/true"));
  EXPECT_FALSE(is_spawnable("sleep"));
  EXPECT_FALSE(is_spawnable(""));
}

TEST(ProcessExec, RunsRealProcessesAndReportsExitCodes) {
  EXPECT_EQ(run_process("/bin/true", {}), 0);
  EXPECT_EQ(run_process("/bin/false", {}), 1);
  EXPECT_EQ(run_process("/bin/sh", {"-c", "exit 42"}), 42);
  EXPECT_EQ(run_process("/nonexistent/program", {}), 127);
}

}  // namespace
}  // namespace entk::rts
