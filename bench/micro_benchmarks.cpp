// Microbenchmark / ablation suite (google-benchmark).
//
// Measures the substrate costs behind the figure benches and the design
// choices DESIGN.md calls out: broker publish/consume throughput vs the
// number of consumers, journal durability cost, JSON round-trip cost of a
// task description, state-store commit throughput with and without a disk
// journal, sync-protocol round trips with and without acks, and NodeMap
// placement cost at pilot scale.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "src/core/state_store.hpp"
#include "src/core/sync.hpp"
#include "src/core/task.hpp"
#include "src/mq/broker.hpp"
#include "src/sim/node_map.hpp"

static std::string make_temp_dir() {
  static int counter = 0;
  const std::string dir = "/tmp/entk_bench_" + std::to_string(::getpid()) +
                          "_" + std::to_string(counter++);
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------ mq broker

static void BM_BrokerPublishConsume(benchmark::State& state) {
  using namespace entk::mq;
  Broker broker;
  broker.declare_queue("bench");
  Message msg;
  msg.set_body("{\"uid\":\"task.0001\",\"duration_s\":100}");
  for (auto _ : state) {
    broker.publish("bench", msg);
    auto d = broker.get("bench", 0.0);
    broker.ack("bench", d->delivery_tag);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrokerPublishConsume);

static void BM_BrokerDurablePublish(benchmark::State& state) {
  using namespace entk::mq;
  const std::string dir = make_temp_dir();
  Broker broker("durable", dir);
  broker.declare_queue("bench", {.durable = true});
  Message msg;
  msg.set_body("{\"uid\":\"task.0001\"}");
  for (auto _ : state) {
    broker.publish("bench", msg);
    auto d = broker.get("bench", 0.0);
    broker.ack("bench", d->delivery_tag);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrokerDurablePublish);

static void BM_BrokerFanIn(benchmark::State& state) {
  // Ablation for Fig 6: aggregate throughput with N producer threads
  // hammering one queue while this thread consumes.
  using namespace entk::mq;
  const int producers = static_cast<int>(state.range(0));
  Broker broker;
  broker.declare_queue("fan");
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&broker, &stop] {
      Message msg;
      msg.set_body("x");
      while (!stop.load()) {
        try {
          broker.publish("fan", msg);
        } catch (const entk::MqError&) {
          return;
        }
      }
    });
  }
  for (auto _ : state) {
    auto d = broker.get("fan", 0.01);
    if (d) broker.ack("fan", d->delivery_tag);
  }
  stop = true;
  broker.close();
  for (auto& t : threads) t.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrokerFanIn)->Arg(1)->Arg(4);

// ----------------------------------------------------------------- json

static void BM_TaskJsonRoundTrip(benchmark::State& state) {
  entk::Task task("bench");
  task.executable = "mdrun";
  task.arguments = {"-deffnm", "md", "-ntomp", "1"};
  task.duration_s = 600.0;
  task.input_staging.push_back(
      {"conf.gro", "sandbox/", entk::saga::StagingAction::Copy, 550000});
  for (auto _ : state) {
    const std::string wire = task.to_json().dump();
    benchmark::DoNotOptimize(entk::json::parse(wire));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaskJsonRoundTrip);

// ---------------------------------------------------------- state store

// Commits Scheduled -> Submitting for 1024 subjects round-robin, the way
// the Synchronizer does: registry id, uid and an interned component.
static void commit_round_robin(benchmark::State& state,
                               entk::StateStore& store) {
  std::vector<std::string> uids;
  for (int i = 0; i < 1024; ++i) uids.push_back("task." + std::to_string(i));
  const std::uint16_t component = store.intern("bench");
  std::uint32_t i = 0;
  for (auto _ : state) {
    const std::uint32_t id = i++ % 1024;
    store.commit({id, entk::TaskState::Scheduled, entk::TaskState::Submitting},
                 uids[id], component);
  }
  state.SetItemsProcessed(state.iterations());
}

static void BM_StateStoreCommitMemory(benchmark::State& state) {
  entk::StateStore store;
  commit_round_robin(state, store);
}
BENCHMARK(BM_StateStoreCommitMemory);

static void BM_StateStoreCommitJournaled(benchmark::State& state) {
  const std::string dir = make_temp_dir();
  entk::StateStore store(dir + "/states.jsonl");
  commit_round_robin(state, store);
}
BENCHMARK(BM_StateStoreCommitJournaled);

// -------------------------------------------------------- sync protocol

class SyncBench {
 public:
  SyncBench() {
    broker_ = std::make_shared<entk::mq::Broker>("sync_bench");
    broker_->declare_queue("q.states");
    auto pipeline = std::make_shared<entk::Pipeline>("p");
    auto stage = std::make_shared<entk::Stage>("s");
    task_ = std::make_shared<entk::Task>("t");
    task_->duration_s = 1;
    stage->add_task(task_);
    pipeline->add_stage(stage);
    registry_.add_pipeline(pipeline);
    sync_ = std::make_unique<entk::Synchronizer>(
        broker_, "q.states", &registry_, &store_,
        std::make_shared<entk::Profiler>());
    sync_->start();
    client_ = std::make_unique<entk::SyncClient>(broker_, "bench", "q.states",
                                                 "q.ack.bench");
  }
  ~SyncBench() {
    sync_->stop();
    broker_->close();
  }

  entk::SyncClient& client() { return *client_; }
  entk::TaskPtr task() { return task_; }

 private:
  entk::mq::BrokerPtr broker_;
  entk::ObjectRegistry registry_;
  entk::StateStore store_;
  std::unique_ptr<entk::Synchronizer> sync_;
  std::unique_ptr<entk::SyncClient> client_;
  entk::TaskPtr task_;
};

static void BM_SyncRoundTripAcked(benchmark::State& state) {
  SyncBench bench;
  // Ping-pong between two states that are mutually reachable:
  // Failed -> Described -> ... is the only cycle, so drive it via
  // Scheduling/Failed transitions.
  bench.task()->set_state(entk::TaskState::Scheduling);
  bool to_failed = true;
  for (auto _ : state) {
    const std::uint32_t id = bench.task()->id();
    if (to_failed) {
      bench.client().sync(
          {id, entk::TaskState::Scheduling, entk::TaskState::Failed}, true);
    } else {
      bench.client().sync(
          {id, entk::TaskState::Failed, entk::TaskState::Described}, true);
      bench.client().sync(
          {id, entk::TaskState::Described, entk::TaskState::Scheduling}, true);
    }
    to_failed = !to_failed;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyncRoundTripAcked);

// -------------------------------------------------------------- nodemap

static void BM_NodeMapPlacement(benchmark::State& state) {
  // Pilot-scale first-fit placement: Titan-like 4,096 nodes, 1-core units.
  entk::sim::NodeMap nm(4096, 16, 0);
  std::vector<std::uint64_t> allocs;
  allocs.reserve(1024);
  for (auto _ : state) {
    auto a = nm.try_allocate({.cores = 1});
    if (a) {
      allocs.push_back(a->id);
    }
    if (allocs.size() >= 1024) {
      for (auto id : allocs) nm.release(id);
      allocs.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeMapPlacement);

static void BM_NodeMapExclusiveNodes(benchmark::State& state) {
  // The Fig-10 shape: 384-node exclusive allocations on 12,288 nodes.
  entk::sim::NodeMap nm(12288, 16, 1);
  std::vector<std::uint64_t> allocs;
  for (auto _ : state) {
    auto a = nm.try_allocate(
        {.cores = 384 * 16, .gpus = 0, .exclusive_nodes = true});
    if (a) {
      allocs.push_back(a->id);
    } else {
      for (auto id : allocs) nm.release(id);
      allocs.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeMapExclusiveNodes);

BENCHMARK_MAIN();
