// Worker-scaling bench: N WorkerRuntimes (the entk_worker daemon's core,
// in-process to keep the measurement free of TCP noise) drain one shared
// Pending queue of duration-modeled tasks, exactly like the distributed
// execution plane. Measures ensemble completion rate vs the worker count.
//
// The acceptance gate (--check) is the ISSUE's scaling proof: 4 workers
// must complete the same ensemble at >= 2x the rate of 1 worker — i.e.
// the sharded-claim machinery (per-task messages, bounded prefetch,
// ack-on-completion ledgers) actually distributes work instead of letting
// one consumer swallow the queue.
//
// usage: worker_scaling [--tasks N] [--duration-vs S] [--clock-scale S]
//        [--cores N] [--reps N] [--check] [--json-out PATH]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/util.hpp"
#include "src/common/clock.hpp"
#include "src/rts/local_rts.hpp"
#include "src/worker/worker_runtime.hpp"

namespace {

using namespace entk;

struct Run {
  double elapsed_s = 0.0;
  double tasks_per_s = 0.0;
};

/// One measured drain: `workers` runtimes, each with `cores` executor
/// threads, against one freshly filled Pending queue.
Run drain_ensemble(int workers, int cores, int tasks, double duration_vs,
                   double clock_scale) {
  auto broker = std::make_shared<mq::Broker>("bench_workers");
  broker->declare_queue("q.pending");
  broker->declare_queue("q.completed");
  broker->declare_queue("q.states");  // transitions accumulate, undrained
  auto profiler = std::make_shared<Profiler>();
  auto clock = std::make_shared<ScaledClock>(clock_scale);

  std::vector<std::unique_ptr<worker::WorkerRuntime>> fleet;
  for (int w = 0; w < workers; ++w) {
    worker::WorkerRuntimeConfig cfg;
    cfg.worker_id = "bw" + std::to_string(w);
    cfg.ack_queue = "q.ack." + cfg.worker_id;
    cfg.ack_on_completion = true;
    cfg.max_in_flight = static_cast<std::size_t>(2 * cores);
    cfg.sample_queue_depths = false;
    rts::RtsFactory factory = [clock, profiler, cores]() -> rts::RtsPtr {
      return std::make_shared<rts::LocalRts>(
          rts::LocalRtsConfig{.workers = cores}, clock, profiler);
    };
    // Daemon mode: no resolver, units arrive inline.
    fleet.push_back(std::make_unique<worker::WorkerRuntime>(
        cfg.worker_id, cfg, broker, worker::UnitResolver{}, "q.pending",
        "q.completed", "q.states", factory, profiler));
    fleet.back()->acquire_resources();
    fleet.back()->start();
  }

  // One message per task, as the --workers WFProcessor publishes: the
  // work-sharing granule the fleet splits.
  std::vector<mq::Message> msgs;
  msgs.reserve(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i) {
    rts::TaskUnit unit;
    unit.uid = "task.bench" + std::to_string(i);
    unit.name = unit.uid;
    unit.executable = "sleep";
    unit.duration_s = duration_vs;
    json::Value msg;
    json::Array arr;
    arr.push_back(unit.to_json());
    msg["units"] = std::move(arr);
    msgs.push_back(mq::Message::json_body("q.pending", std::move(msg)));
  }

  const double t0 = wall_now_s();
  broker->publish_batch("q.pending", std::move(msgs));
  int done = 0;
  const double deadline = t0 + 120.0;
  while (done < tasks && wall_now_s() < deadline) {
    const auto batch = broker->get_batch("q.completed", 64, 0.01);
    if (batch.empty()) continue;
    std::vector<std::uint64_t> tags;
    tags.reserve(batch.size());
    for (const mq::Delivery& d : batch) {
      tags.push_back(d.delivery_tag);
      // A Done message carries one result, or a {"results": [...]} batch
      // from a coalescing worker; count results, not messages.
      const auto body = d.message.payload();
      done += body->contains("results")
                  ? static_cast<int>(body->at("results").as_array().size())
                  : 1;
    }
    broker->ack_batch("q.completed", tags);
  }
  const double elapsed = wall_now_s() - t0;

  for (auto& runtime : fleet) runtime->stop();
  broker->close();

  Run r;
  r.elapsed_s = elapsed;
  r.tasks_per_s = done >= tasks ? tasks / elapsed : 0.0;
  return r;
}

Run best_of(int reps, int workers, int cores, int tasks, double duration_vs,
            double clock_scale) {
  Run best;
  for (int i = 0; i < reps; ++i) {
    const Run r = drain_ensemble(workers, cores, tasks, duration_vs,
                                 clock_scale);
    if (r.tasks_per_s > best.tasks_per_s) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using entk::bench::flag_double;
  using entk::bench::flag_int;
  using entk::bench::flag_present;

  const int tasks = static_cast<int>(flag_int(argc, argv, "--tasks", 32));
  const double duration_vs = flag_double(argc, argv, "--duration-vs", 100.0);
  const double clock_scale = flag_double(argc, argv, "--clock-scale", 1e-3);
  const int cores = static_cast<int>(flag_int(argc, argv, "--cores", 2));
  const int reps = static_cast<int>(flag_int(argc, argv, "--reps", 3));
  const bool check = flag_present(argc, argv, "--check");
  std::string json_out = "BENCH_workers.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json-out") json_out = argv[i + 1];
  }

  std::printf(
      "worker scaling: %d tasks x %.0f virtual s (%.1f ms wall each), "
      "%d cores/worker, best of %d\n",
      tasks, duration_vs, duration_vs * clock_scale * 1e3, cores, reps);
  std::printf("%8s %14s %14s %9s\n", "workers", "tasks/s", "elapsed (s)",
              "speedup");

  const Run one = best_of(reps, 1, cores, tasks, duration_vs, clock_scale);
  std::printf("%8d %14.1f %14.3f %9s\n", 1, one.tasks_per_s, one.elapsed_s,
              "1.00x");
  const Run two = best_of(reps, 2, cores, tasks, duration_vs, clock_scale);
  std::printf("%8d %14.1f %14.3f %8.2fx\n", 2, two.tasks_per_s,
              two.elapsed_s,
              one.tasks_per_s > 0 ? two.tasks_per_s / one.tasks_per_s : 0.0);
  const Run four = best_of(reps, 4, cores, tasks, duration_vs, clock_scale);
  const double speedup =
      one.tasks_per_s > 0 ? four.tasks_per_s / one.tasks_per_s : 0.0;
  std::printf("%8d %14.1f %14.3f %8.2fx\n", 4, four.tasks_per_s,
              four.elapsed_s, speedup);

  entk::json::Value doc;
  doc["bench"] = "worker_scaling";
  doc["tasks"] = tasks;
  doc["duration_virtual_s"] = duration_vs;
  doc["clock_scale"] = clock_scale;
  doc["cores_per_worker"] = cores;
  doc["reps"] = reps;
  doc["rate_1w_tasks_per_s"] = one.tasks_per_s;
  doc["rate_2w_tasks_per_s"] = two.tasks_per_s;
  doc["rate_4w_tasks_per_s"] = four.tasks_per_s;
  doc["speedup_4w_vs_1w"] = speedup;
  std::ofstream out(json_out);
  out << doc.dump() << "\n";
  std::printf("results written to %s\n", json_out.c_str());

  if (check) {
    if (one.tasks_per_s <= 0 || four.tasks_per_s <= 0) {
      std::fprintf(stderr,
                   "WORKER SCALING CHECK FAILED: a configuration did not "
                   "drain the ensemble\n");
      return 1;
    }
    if (speedup < 2.0) {
      std::fprintf(stderr,
                   "WORKER SCALING CHECK FAILED: expected 4 workers >= 2x "
                   "the 1-worker completion rate, got %.2fx\n",
                   speedup);
      return 1;
    }
    std::printf("check passed: 4 workers = %.2fx the 1-worker rate\n",
                speedup);
  }
  return 0;
}
