// Direct tests of the reusable worker runtime (src/worker): inline-unit
// execution without a registry, the at-least-once delivery ledger
// (ack-on-completion, acks only after the confirmed Done publish), bounded
// prefetch, and the registration/liveness directory — the pieces the
// entk_worker daemon is assembled from, tested against an in-process
// broker (plus one loopback BrokerServer for the kill-mid-flush case) so
// no fork is involved.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "src/core/state_store.hpp"
#include "src/core/wfprocessor.hpp"
#include "src/net/broker_server.hpp"
#include "src/net/remote_broker.hpp"
#include "src/rts/local_rts.hpp"
#include "src/worker/registration.hpp"
#include "src/worker/worker_runtime.hpp"

namespace entk {
namespace {

/// Fixture wiring a WorkerRuntime to an in-process broker the way the
/// daemon wires one to a RemoteBroker: no ObjectRegistry, units arrive
/// inline on the Pending queue, results leave on the Done queue.
class WorkerRuntimeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<mq::Broker>("worker_test");
    broker_->declare_queue("q.pending");
    broker_->declare_queue("q.completed");
    broker_->declare_queue("q.states");
    profiler_ = std::make_shared<Profiler>();
    clock_ = std::make_shared<ScaledClock>(1e-4);
    // Empty registry: the synchronizer drains q.states and drops
    // transitions for tasks it does not know, exactly like the manager
    // side before it has seen a worker's states (and proving the runtime
    // itself never needs task objects).
    synchronizer_ = std::make_unique<Synchronizer>(
        broker_, "q.states", &registry_, &store_, profiler_);
    synchronizer_->start();
  }

  void TearDown() override {
    if (runtime_) runtime_->stop();
    synchronizer_->stop();
    broker_->close();
  }

  /// A started runtime over `handle` (default: the in-process broker).
  std::unique_ptr<worker::WorkerRuntime> make_runtime(
      worker::WorkerRuntimeConfig cfg, int rts_workers,
      mq::BrokerHandlePtr handle) {
    cfg.supervision.heartbeat_interval_s = 0.005;
    rts::RtsFactory factory = [this, rts_workers]() -> rts::RtsPtr {
      return std::make_shared<rts::LocalRts>(
          rts::LocalRtsConfig{.workers = rts_workers}, clock_, profiler_);
    };
    // The daemon's resolver: nothing to resolve, units must arrive inline.
    auto runtime = std::make_unique<worker::WorkerRuntime>(
        "worker_runtime", cfg, handle ? handle : broker_,
        worker::UnitResolver{}, "q.pending", "q.completed", "q.states",
        factory, profiler_);
    runtime->acquire_resources();
    runtime->start();
    return runtime;
  }

  void start_runtime(worker::WorkerRuntimeConfig cfg = {}, int rts_workers = 2,
                     mq::BrokerHandlePtr handle = nullptr) {
    runtime_ = make_runtime(std::move(cfg), rts_workers, std::move(handle));
  }

  static rts::TaskUnit make_unit(const std::string& uid, double duration_s) {
    rts::TaskUnit u;
    u.uid = uid;
    u.name = uid;
    u.executable = "sleep";
    u.duration_s = duration_s;
    return u;
  }

  /// Publish units the way the --workers WFProcessor does: one
  /// {"units": [...]} message per call.
  void publish_units(const std::vector<rts::TaskUnit>& units) {
    json::Value msg;
    json::Array arr;
    for (const rts::TaskUnit& u : units) arr.push_back(u.to_json());
    msg["units"] = std::move(arr);
    broker_->publish("q.pending",
                     mq::Message::json_body("q.pending", std::move(msg)));
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

  /// The results a Done message carries, read the way the WFProcessor's
  /// dequeue loop reads them: a {"results": [...]} batch or one result.
  static std::vector<json::Value> results_of(const mq::Delivery& d) {
    const json::Value body = d.message.body_json();
    if (!body.contains("results")) return {body};
    const json::Array& results = body.at("results").as_array();
    return {results.begin(), results.end()};
  }

  mq::QueueDepth depth(const std::string& queue) {
    for (const mq::QueueDepth& d : broker_->depth_snapshot()) {
      if (d.queue == queue) return d;
    }
    return {};
  }

  mq::BrokerPtr broker_;
  ObjectRegistry registry_;
  StateStore store_;
  ProfilerPtr profiler_;
  ClockPtr clock_;
  std::unique_ptr<Synchronizer> synchronizer_;
  std::unique_ptr<worker::WorkerRuntime> runtime_;
};

TEST_F(WorkerRuntimeFixture, ExecutesInlineUnitsWithoutRegistry) {
  start_runtime();
  publish_units({make_unit("task.w1", 0.5), make_unit("task.w2", 0.5),
                 make_unit("task.w3", 0.5)});
  const auto results = collect(3);
  ASSERT_EQ(results.size(), 3u);
  std::set<std::string> seen;
  for (const json::Value& r : results) {
    seen.insert(r.get_string("uid", ""));
    EXPECT_EQ(r.get_string("outcome", ""), "DONE");
  }
  EXPECT_EQ(seen.size(), 3u);
  // The counter increments after the Done publish; allow the callback to
  // finish its bookkeeping.
  for (int spin = 0; spin < 1000 && runtime_->tasks_done() < 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runtime_->tasks_done(), 3u);
}

TEST_F(WorkerRuntimeFixture, AckOnCompletionHoldsDeliveryUntilUnitsFinish) {
  worker::WorkerRuntimeConfig cfg;
  cfg.ack_on_completion = true;
  start_runtime(cfg);
  // 20,000 virtual s = 2 s wall at 1e-4: long enough to observe the
  // delivery parked on the unacked ledger mid-execution.
  publish_units({make_unit("task.held", 20000.0)});
  for (int spin = 0; spin < 2000 && runtime_->in_flight() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(runtime_->in_flight(), 1u);
  // The claim is held open: not ready (fetched), not acked (running). A
  // worker killed here would leave the message requeueable.
  mq::QueueDepth d = depth("q.pending");
  EXPECT_EQ(d.ready, 0u);
  EXPECT_EQ(d.unacked, 1u);
  const auto results = collect(1);
  ASSERT_EQ(results.size(), 1u);
  // Completion releases the claim (ack follows the Done publish).
  for (int spin = 0; spin < 2000 && depth("q.pending").unacked != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  d = depth("q.pending");
  EXPECT_EQ(d.ready, 0u);
  EXPECT_EQ(d.unacked, 0u);
  EXPECT_EQ(runtime_->in_flight(), 0u);
}

TEST_F(WorkerRuntimeFixture, BoundedPrefetchCapsUnitsHeldAtOnce) {
  worker::WorkerRuntimeConfig cfg;
  cfg.ack_on_completion = true;
  cfg.max_in_flight = 2;
  cfg.submit_batch = 64;
  // Plenty of RTS capacity: only the prefetch cap limits concurrency.
  start_runtime(cfg, /*rts_workers=*/8);
  std::vector<std::string> uids;
  for (int i = 0; i < 8; ++i) {
    const std::string uid = "task.cap" + std::to_string(i);
    uids.push_back(uid);
    // One message per unit, as the inline-units WFProcessor publishes.
    publish_units({make_unit(uid, 2000.0)});  // 0.2 s wall each
  }
  // While draining, the runtime never holds more than max_in_flight units;
  // the surplus stays ready on the shared queue for sibling workers.
  std::size_t max_seen = 0;
  std::set<std::string> seen;
  const double deadline = wall_now_s() + 10.0;
  while (seen.size() < uids.size() && wall_now_s() < deadline) {
    max_seen = std::max(max_seen, runtime_->in_flight());
    auto d = broker_->get("q.completed", 0.005);
    if (!d) continue;
    broker_->ack("q.completed", d->delivery_tag);
    for (const json::Value& r : results_of(*d)) {
      seen.insert(r.get_string("uid", ""));
    }
  }
  EXPECT_EQ(seen.size(), uids.size());
  EXPECT_LE(max_seen, 2u);
  EXPECT_GE(max_seen, 1u);
}

TEST_F(WorkerRuntimeFixture, RtsRestartResubmitsCachedInlineUnits) {
  // The daemon has no resolver; a restarted RTS must be refilled from the
  // in-flight unit cache instead.
  worker::WorkerRuntimeConfig cfg;
  cfg.ack_on_completion = true;
  cfg.supervision.rts_restart_limit = 1;
  start_runtime(cfg);
  publish_units({make_unit("task.restart", 20000.0)});
  for (int spin = 0; spin < 2000 && runtime_->in_flight() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(runtime_->in_flight(), 1u);
  runtime_->inject_rts_failure();
  for (int spin = 0; spin < 1000 && runtime_->rts_restarts() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runtime_->rts_restarts(), 1);
  // The cached unit is back in flight on the fresh RTS instance.
  for (int spin = 0; spin < 1000 && runtime_->rts_stats().units_in_flight == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runtime_->rts_stats().units_in_flight, 1u);
  // The pending delivery is still claimed by this runtime, not requeued.
  EXPECT_EQ(depth("q.pending").unacked, 1u);
}

// ------------------------------------------------ ack after the confirm

/// A BrokerHandle decorator recording, in order, every confirmed Done
/// publish (with the uids its results carry) and every ack of a pending
/// delivery, plus which units each pending delivery carried. hold_done()
/// makes Done publishes block until release(), to stop a flush midway;
/// fail_done(n) makes the next n Done publishes throw NetError, as one does
/// after retry_deadline_s of broker outage.
class RecordingBroker : public mq::BrokerHandle {
 public:
  struct Event {
    bool done_confirmed = false;      ///< else an ack of pending tags
    std::vector<std::string> uids;    ///< results of the confirmed publish
    std::vector<std::uint64_t> tags;  ///< acked pending delivery tags
  };

  explicit RecordingBroker(mq::BrokerHandlePtr inner)
      : inner_(std::move(inner)) {}

  void hold_done() {
    std::lock_guard<std::mutex> lock(mutex_);
    holding_ = true;
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      holding_ = false;
    }
    cv_.notify_all();
  }
  void fail_done(int n) {
    std::lock_guard<std::mutex> lock(mutex_);
    failing_ = n;
  }
  /// Done publishes failed by fail_done, and the uids their results carried.
  std::vector<std::string> failed_uids() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_uids_;
  }
  /// True once a Done publish is blocked in hold_done().
  bool wait_held(double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [this] { return held_ > 0; });
  }
  std::vector<Event> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }
  std::map<std::uint64_t, std::vector<std::string>> units_by_tag() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return units_by_tag_;
  }

  std::shared_ptr<mq::Queue> declare_queue(const std::string& queue,
                                           mq::QueueOptions options) override {
    return inner_->declare_queue(queue, options);
  }
  bool has_queue(const std::string& queue) const override {
    return inner_->has_queue(queue);
  }
  std::uint64_t publish(const std::string& queue, mq::Message msg) override {
    if (queue != "q.completed") return inner_->publish(queue, std::move(msg));
    std::vector<std::string> uids;
    const auto body = msg.payload();
    if (body->contains("results")) {
      for (const json::Value& r : body->at("results").as_array()) {
        uids.push_back(r.get_string("uid", ""));
      }
    } else {
      uids.push_back(body->get_string("uid", ""));
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++held_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !holding_; });
      --held_;
      if (failing_ > 0) {
        --failing_;
        failed_uids_.insert(failed_uids_.end(), uids.begin(), uids.end());
        throw net::NetError("net: publish failed after retries");
      }
    }
    const std::uint64_t seq = inner_->publish(queue, std::move(msg));
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back({true, std::move(uids), {}});
    return seq;
  }
  void publish_unconfirmed(const std::string& queue,
                           mq::Message msg) override {
    inner_->publish_unconfirmed(queue, std::move(msg));
  }
  std::uint64_t publish_batch(const std::string& queue,
                              std::vector<mq::Message> msgs) override {
    return inner_->publish_batch(queue, std::move(msgs));
  }
  std::optional<mq::Delivery> get(const std::string& queue,
                                  double timeout_s) override {
    auto d = inner_->get(queue, timeout_s);
    if (d && queue == "q.pending") note_units(*d);
    return d;
  }
  std::vector<mq::Delivery> get_batch(const std::string& queue,
                                      std::size_t max_n,
                                      double timeout_s) override {
    auto batch = inner_->get_batch(queue, max_n, timeout_s);
    if (queue == "q.pending") {
      for (const mq::Delivery& d : batch) note_units(d);
    }
    return batch;
  }
  bool ack(const std::string& queue, std::uint64_t tag) override {
    if (queue == "q.pending") note_ack({tag});
    return inner_->ack(queue, tag);
  }
  bool nack(const std::string& queue, std::uint64_t tag,
            bool requeue) override {
    return inner_->nack(queue, tag, requeue);
  }
  std::size_t ack_batch(const std::string& queue,
                        const std::vector<std::uint64_t>& tags) override {
    if (queue == "q.pending") note_ack(tags);
    return inner_->ack_batch(queue, tags);
  }
  std::size_t requeue_unacked(const std::string& queue) override {
    return inner_->requeue_unacked(queue);
  }
  std::vector<mq::QueueDepth> depth_snapshot() const override {
    return inner_->depth_snapshot();
  }
  void close() override { inner_->close(); }
  bool closed() const override { return inner_->closed(); }

 private:
  void note_units(const mq::Delivery& d) {
    std::vector<std::string> uids;
    for (const json::Value& u : d.message.payload()->at("units").as_array()) {
      uids.push_back(u.get_string("uid", ""));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    units_by_tag_[d.delivery_tag] = std::move(uids);
  }
  void note_ack(const std::vector<std::uint64_t>& tags) {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back({false, {}, tags});
  }

  mq::BrokerHandlePtr inner_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool holding_ = false;
  int held_ = 0;
  int failing_ = 0;
  std::vector<std::string> failed_uids_;
  std::vector<Event> events_;
  std::map<std::uint64_t, std::vector<std::string>> units_by_tag_;
};

/// Releases a held Done publish on every exit path, so a failed assertion
/// cannot leave a flusher blocked for the teardown to join.
struct ReleaseOnExit {
  RecordingBroker& broker;
  ~ReleaseOnExit() { broker.release(); }
};

TEST_F(WorkerRuntimeFixture, AckFollowsConfirmedDonePublish) {
  auto recorder = std::make_shared<RecordingBroker>(broker_);
  worker::WorkerRuntimeConfig cfg;
  cfg.ack_on_completion = true;
  cfg.max_in_flight = 4;
  start_runtime(cfg, /*rts_workers=*/2, recorder);
  // Two units per delivery, so a delivery is acked only once both of its
  // results are confirmed; staggered durations split them across flushes.
  std::set<std::string> uids;
  for (int i = 0; i < 8; ++i) {
    const std::string a = "task.ord" + std::to_string(2 * i);
    const std::string b = "task.ord" + std::to_string(2 * i + 1);
    uids.insert(a);
    uids.insert(b);
    publish_units({make_unit(a, 10.0 * (i % 3)), make_unit(b, 40.0)});
  }
  std::set<std::string> seen;
  const double deadline = wall_now_s() + 10.0;
  while (seen.size() < uids.size() && wall_now_s() < deadline) {
    auto d = broker_->get("q.completed", 0.01);
    if (!d) continue;
    broker_->ack("q.completed", d->delivery_tag);
    for (const json::Value& r : results_of(*d)) {
      seen.insert(r.get_string("uid", ""));
    }
  }
  ASSERT_EQ(seen, uids);
  for (int spin = 0; spin < 2000 && depth("q.pending").unacked != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(depth("q.pending").unacked, 0u);

  const auto units = recorder->units_by_tag();
  ASSERT_EQ(units.size(), 8u);
  std::set<std::string> confirmed;
  std::set<std::uint64_t> acked;
  for (const RecordingBroker::Event& e : recorder->events()) {
    if (e.done_confirmed) {
      confirmed.insert(e.uids.begin(), e.uids.end());
      continue;
    }
    for (const std::uint64_t tag : e.tags) {
      ASSERT_TRUE(units.count(tag)) << "ack of unknown tag " << tag;
      for (const std::string& uid : units.at(tag)) {
        EXPECT_TRUE(confirmed.count(uid))
            << "delivery " << tag << " acked before the Done publish "
            << "carrying " << uid << " was confirmed";
      }
      acked.insert(tag);
    }
  }
  EXPECT_EQ(acked.size(), units.size());
}

TEST_F(WorkerRuntimeFixture, FailedDonePublishHandsDeliveriesBack) {
  auto recorder = std::make_shared<RecordingBroker>(broker_);
  recorder->fail_done(2);
  worker::WorkerRuntimeConfig cfg;
  cfg.ack_on_completion = true;
  cfg.max_in_flight = 2;
  start_runtime(cfg, /*rts_workers=*/2, recorder);
  std::set<std::string> uids;
  for (int i = 0; i < 6; ++i) {
    const std::string uid = "task.fail" + std::to_string(i);
    uids.insert(uid);
    publish_units({make_unit(uid, 10.0)});
  }
  // The first two Done publishes fail. Their results are lost, so their
  // deliveries go back to the queue instead of holding both prefetch
  // slots forever: the runtime runs them again and drains the rest.
  std::set<std::string> seen;
  const double deadline = wall_now_s() + 10.0;
  while (seen.size() < uids.size() && wall_now_s() < deadline) {
    auto d = broker_->get("q.completed", 0.01);
    if (!d) continue;
    broker_->ack("q.completed", d->delivery_tag);
    for (const json::Value& r : results_of(*d)) {
      seen.insert(r.get_string("uid", ""));
    }
  }
  EXPECT_EQ(seen, uids);
  EXPECT_FALSE(recorder->failed_uids().empty());
  EXPECT_TRUE(runtime_->wait_drained(5.0));
  for (int spin = 0; spin < 2000 && depth("q.pending").unacked != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(depth("q.pending").ready, 0u);
  EXPECT_EQ(depth("q.pending").unacked, 0u);
  // No delivery was acked on the strength of a failed publish.
  std::set<std::string> confirmed;
  const auto units = recorder->units_by_tag();
  for (const RecordingBroker::Event& e : recorder->events()) {
    if (e.done_confirmed) {
      confirmed.insert(e.uids.begin(), e.uids.end());
      continue;
    }
    for (const std::uint64_t tag : e.tags) {
      for (const std::string& uid : units.at(tag)) {
        EXPECT_TRUE(confirmed.count(uid)) << "acked " << uid << " unconfirmed";
      }
    }
  }
}

TEST_F(WorkerRuntimeFixture, KillInsideFlushLeavesDeliveriesForASurvivor) {
  net::BrokerServer server(broker_, net::BrokerServerConfig{}, profiler_);
  server.start();
  auto connect = [&server] {
    net::RemoteBrokerConfig cfg;
    cfg.endpoint = server.endpoint();
    cfg.retry_deadline_s = 2.0;
    return std::make_shared<net::RemoteBroker>(cfg);
  };
  auto first_conn = connect();
  auto first = std::make_shared<RecordingBroker>(first_conn);
  ReleaseOnExit release_first{*first};
  first->hold_done();

  std::set<std::string> uids;
  for (int i = 0; i < 3; ++i) {
    const std::string a = "task.kill" + std::to_string(2 * i);
    const std::string b = "task.kill" + std::to_string(2 * i + 1);
    uids.insert(a);
    uids.insert(b);
    publish_units({make_unit(a, 10.0), make_unit(b, 10.0)});
  }
  worker::WorkerRuntimeConfig cfg;
  cfg.ack_on_completion = true;
  cfg.worker_id = "first";
  cfg.ack_queue = "q.ack.first";
  start_runtime(cfg, /*rts_workers=*/2, first);

  // Every unit ran, and the flusher is stuck inside its Done publish.
  ASSERT_TRUE(first->wait_held(5.0));
  for (int spin = 0; spin < 5000 && runtime_->tasks_done() < uids.size();
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(runtime_->tasks_done(), uids.size());
  // Nothing is confirmed, so every delivery is still held unacked.
  mq::QueueDepth pending = depth("q.pending");
  EXPECT_EQ(pending.ready, 0u);
  EXPECT_EQ(pending.unacked, 3u);
  EXPECT_EQ(depth("q.completed").ready, 0u);
  EXPECT_EQ(runtime_->in_flight(), uids.size());

  // The worker dies mid-flush: its connection goes, the server requeues
  // what it held, and the held publish fails on the closed handle.
  first_conn->close();
  first->release();
  runtime_->stop();
  runtime_.reset();
  for (int spin = 0; spin < 2000 && depth("q.pending").ready != 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(depth("q.pending").ready, 3u);
  EXPECT_EQ(first->units_by_tag().size(), 3u);
  for (const RecordingBroker::Event& e : first->events()) {
    EXPECT_TRUE(e.done_confirmed || e.tags.empty()) << "acked before confirm";
  }

  // A surviving worker drains the requeued deliveries: every task DONE,
  // exactly once.
  auto second_conn = connect();
  cfg.worker_id = "second";
  cfg.ack_queue = "q.ack.second";
  auto second = make_runtime(cfg, /*rts_workers=*/2, second_conn);
  std::map<std::string, int> done;
  std::size_t results = 0;
  const double deadline = wall_now_s() + 10.0;
  while (done.size() < uids.size() && wall_now_s() < deadline) {
    auto d = broker_->get("q.completed", 0.01);
    if (!d) continue;
    broker_->ack("q.completed", d->delivery_tag);
    for (const json::Value& r : results_of(*d)) {
      ++results;
      EXPECT_EQ(r.get_string("outcome", ""), "DONE");
      ++done[r.get_string("uid", "")];
    }
  }
  for (int spin = 0; spin < 2000 && second->in_flight() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  second->stop();
  EXPECT_EQ(results, uids.size());
  ASSERT_EQ(done.size(), uids.size());
  for (const std::string& uid : uids) EXPECT_EQ(done[uid], 1) << uid;
  EXPECT_EQ(depth("q.pending").ready, 0u);
  EXPECT_EQ(depth("q.completed").ready, 0u);
  second_conn->close();
  server.stop();
}

// ------------------------------------------------- registration/liveness

TEST(WorkerDirectory, TracksRegisterHeartbeatTtlAndDeregister) {
  auto broker = std::make_shared<mq::Broker>("dir_test");
  auto profiler = std::make_shared<Profiler>();
  worker::WorkerDirectory directory(broker, /*ttl_s=*/0.15, profiler);
  directory.start();
  worker::WorkerAnnouncer announcer(broker, "w_test", 4);

  announcer.announce_register();
  for (int spin = 0; spin < 1000 && directory.registered_workers() == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(directory.registered_workers(), 1u);
  EXPECT_EQ(directory.live_workers(), 1u);
  {
    const auto workers = directory.workers();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_EQ(workers[0].worker_id, "w_test");
    EXPECT_EQ(workers[0].cores, 4);
    EXPECT_FALSE(workers[0].deregistered);
  }

  // Silence past the TTL: still registered, no longer live.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(directory.registered_workers(), 1u);
  EXPECT_EQ(directory.live_workers(), 0u);

  // A heartbeat revives it and carries the progress counters.
  announcer.heartbeat(/*tasks_done=*/7, /*in_flight=*/2);
  for (int spin = 0; spin < 1000 && directory.live_workers() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(directory.live_workers(), 1u);
  {
    const auto workers = directory.workers();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_EQ(workers[0].tasks_done, 7u);
    EXPECT_EQ(workers[0].in_flight, 2u);
  }

  // Deregister: drops out of the live count immediately, keeps history.
  announcer.announce_deregister(/*tasks_done=*/9);
  for (int spin = 0; spin < 1000 && directory.live_workers() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(directory.live_workers(), 0u);
  EXPECT_EQ(directory.registered_workers(), 1u);
  {
    const auto workers = directory.workers();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_TRUE(workers[0].deregistered);
    EXPECT_EQ(workers[0].tasks_done, 9u);
  }
  directory.stop();
  broker->close();
}

// ----------------------------------------- at-least-once deduplication

/// At-least-once delivery means a kill/requeue race can execute one task
/// twice; the WFProcessor must resolve it exactly once. Drive its Dequeue
/// side directly with a duplicated completion.
TEST(WorkerDedup, DuplicateResultResolvesTaskExactlyOnce) {
  auto broker = std::make_shared<mq::Broker>("dedup_test");
  broker->declare_queue("q.pending");
  broker->declare_queue("q.completed");
  broker->declare_queue("q.states");
  auto profiler = std::make_shared<Profiler>();
  ObjectRegistry registry;
  StateStore store;
  Synchronizer synchronizer(broker, "q.states", &registry, &store, profiler);
  synchronizer.start();

  auto pipeline = std::make_shared<Pipeline>("p");
  auto stage = std::make_shared<Stage>("s");
  auto task = std::make_shared<Task>("t");
  task->duration_s = 1.0;
  stage->add_task(task);
  pipeline->add_stage(stage);
  registry.add_pipeline(pipeline);

  WfConfig cfg;
  cfg.inline_units = true;
  WFProcessor wfp(cfg, broker, &registry, "q.pending", "q.completed",
                  "q.states", profiler);
  wfp.start();

  // The worker side: consume the pending unit, advance the states the way
  // a WorkerRuntime does, then deliver the SAME completion twice (as after
  // a kill → requeue → both workers report).
  auto d = broker->get("q.pending", 2.0);
  ASSERT_TRUE(d.has_value());
  broker->ack("q.pending", d->delivery_tag);
  const json::Value body = d->message.body_json();
  ASSERT_TRUE(body.contains("units"));  // inline mode ships full units
  const json::Array& units = body.at("units").as_array();
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].get_string("uid", ""), task->uid());
  // Units carry the registry id, so the worker syncs by id.
  EXPECT_EQ(units[0].get_int("id", -1), task->id());

  SyncClient sync(broker, "fake_worker", "q.states", "q.ack.fake");
  sync.sync({task->id(), TaskState::Scheduled, TaskState::Submitting}, true);
  sync.sync({task->id(), TaskState::Submitting, TaskState::Submitted}, true);
  json::Value result;
  result["uid"] = task->uid();
  result["outcome"] = "DONE";
  result["exit_code"] = 0;
  broker->publish("q.completed", mq::Message::json_body("q.completed", result));
  // Second copy claims FAILED with a nonzero exit code: if dedup ever
  // regressed, the task state or exit code would change observably.
  result["outcome"] = "FAILED";
  result["exit_code"] = 13;
  broker->publish("q.completed", mq::Message::json_body("q.completed", result));

  for (int spin = 0; spin < 3000 && task->state() != TaskState::Done; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(task->state(), TaskState::Done);
  // Give the duplicate time to flow through Dequeue, then re-check: the
  // first resolution stands.
  for (int spin = 0; spin < 2000; ++spin) {
    bool drained = true;
    for (const mq::QueueDepth& qd : broker->depth_snapshot()) {
      if (qd.queue == "q.completed" && (qd.ready != 0 || qd.unacked != 0)) {
        drained = false;
      }
    }
    if (drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(task->state(), TaskState::Done);
  EXPECT_EQ(task->exit_code(), 0);
  EXPECT_EQ(stage->state(), StageState::Done);

  wfp.stop();
  synchronizer.stop();
  broker->close();
}

}  // namespace
}  // namespace entk
