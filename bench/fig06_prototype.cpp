// Fig 6: performance of the EnTK prototype — task throughput and memory
// for multiple producers/consumers/queues.
//
// Reproduces the paper's prototype benchmark: P producers push serialized
// task objects into Q broker queues, C consumers pull them, deserialize,
// hand them to an empty RTS sink and ack. Configurations (1,1,1), (2,2,2),
// (4,4,4), (8,8,8). Each message costs one simulated broker round trip
// (--latency-us, default 200), standing in for the network RTT to the
// RabbitMQ server that dominated the Python prototype's per-message cost;
// that latency is what the added producers/consumers hide, so processing
// time scales ~1/P while memory rises with the number of live components.
//
// Each configuration runs in a forked child so per-configuration peak RSS
// is measurable. Default 100k tasks (the paper used 1e6; scale with
// --tasks 1000000 to match — runtimes scale linearly).
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/util.hpp"
#include "src/mq/broker.hpp"

namespace {

struct ConfigResult {
  double producer_s = 0.0;
  double consumer_s = 0.0;
  double total_s = 0.0;
  double base_mb = 0.0;
  double peak_mb = 0.0;
};

ConfigResult run_config(int n, long total_tasks, long latency_us) {
  using namespace entk;
  auto broker = std::make_shared<mq::Broker>("prototype");
  for (int q = 0; q < n; ++q) {
    broker->declare_queue('q' + std::to_string(q));
  }

  // Pre-serialize the task descriptions (the prototype instantiates its
  // task objects up front; this is the "baseline memory" of the paper).
  std::vector<std::string> bodies;
  bodies.reserve(static_cast<std::size_t>(total_tasks));
  for (long i = 0; i < total_tasks; ++i) {
    Task t;
    t.executable = "sleep";
    t.duration_s = 100;
    bodies.push_back(t.to_json().dump());
  }

  ConfigResult result;
  result.base_mb = bench::rss_mb();

  const auto rtt = std::chrono::microseconds(latency_us);
  std::atomic<long> consumed{0};
  const double t0 = wall_now_s();
  double producers_done = 0.0;

  std::vector<std::thread> threads;
  std::atomic<int> producers_left{n};
  for (int p = 0; p < n; ++p) {
    threads.emplace_back([&, p] {
      const std::string queue = 'q' + std::to_string(p % n);
      const long lo = total_tasks * p / n;
      const long hi = total_tasks * (p + 1) / n;
      for (long i = lo; i < hi; ++i) {
        std::this_thread::sleep_for(rtt);  // broker round trip
        mq::Message m;
        m.set_body(bodies[static_cast<std::size_t>(i)]);
        broker->publish(queue, std::move(m));
      }
      if (--producers_left == 0) producers_done = wall_now_s() - t0;
    });
  }
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      const std::string queue = 'q' + std::to_string(c % n);
      while (consumed.load() < total_tasks) {
        auto d = broker->get(queue, 0.001);
        if (!d) continue;
        std::this_thread::sleep_for(rtt);  // broker round trip
        // Deserialize and hand to the empty RTS module.
        try {
          (void)entk::json::parse(d->message.body());
        } catch (const entk::json::ParseError&) {
        }
        broker->ack(queue, d->delivery_tag);
        ++consumed;
      }
    });
  }
  for (auto& t : threads) t.join();
  result.total_s = wall_now_s() - t0;
  result.producer_s = producers_done;
  result.consumer_s = result.total_s;
  result.peak_mb = bench::peak_rss_mb();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace entk::bench;
  const long tasks = flag_int(argc, argv, "--tasks", 100000);
  const long latency_us = flag_int(argc, argv, "--latency-us", 200);

  std::printf(
      "Fig 6: EnTK prototype — %ld tasks through P producers, C consumers,\n"
      "Q queues; simulated broker round trip %ld us/message\n\n",
      tasks, latency_us);
  std::printf("%-14s %12s %12s %12s %12s %12s\n", "(P,C,Q)", "producers(s)",
              "consumers(s)", "total(s)", "base RSS(MB)", "peak RSS(MB)");

  for (const int n : {1, 2, 4, 8}) {
    int pipefd[2];
    if (pipe(pipefd) != 0) return 1;
    const pid_t pid = fork();
    if (pid == 0) {
      close(pipefd[0]);
      const ConfigResult r = run_config(n, tasks, latency_us);
      char buf[256];
      const int len =
          std::snprintf(buf, sizeof(buf), "%f %f %f %f %f", r.producer_s,
                        r.consumer_s, r.total_s, r.base_mb, r.peak_mb);
      ssize_t ignored = write(pipefd[1], buf, static_cast<std::size_t>(len));
      (void)ignored;
      close(pipefd[1]);
      _exit(0);
    }
    close(pipefd[1]);
    char buf[256] = {0};
    ssize_t got = read(pipefd[0], buf, sizeof(buf) - 1);
    (void)got;
    close(pipefd[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    ConfigResult r;
    std::sscanf(buf, "%lf %lf %lf %lf %lf", &r.producer_s, &r.consumer_s,
                &r.total_s, &r.base_mb, &r.peak_mb);
    char label[24];
    std::snprintf(label, sizeof(label), "(%d,%d,%d)", n, n, n);
    std::printf("%-14s %12.2f %12.2f %12.2f %12.1f %12.1f\n", label,
                r.producer_s, r.consumer_s, r.total_s, r.base_mb, r.peak_mb);
  }

  std::printf(
      "\nPaper shape: processing time drops ~linearly with P=C=Q (1e6 tasks:\n"
      "~800s at 1 producer to 107s at 8); memory grows moderately with the\n"
      "number of components. Uneven P/C splits are less efficient.\n");
  return 0;
}
