// End-to-end tests of the entk_run CLI: JSON workflow in, execution
// through the full stack, exit code out; plus entk_trace reading the trace
// file entk_run writes. The binary and workflow paths are injected by CMake
// as ENTK_RUN_BINARY / ENTK_BROKER_BINARY / ENTK_TRACE_BINARY /
// ENTK_WORKFLOWS_DIR.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/clock.hpp"
#include "src/net/remote_broker.hpp"

#ifndef ENTK_RUN_BINARY
#define ENTK_RUN_BINARY "entk_run"
#endif
#ifndef ENTK_BROKER_BINARY
#define ENTK_BROKER_BINARY "entk_broker"
#endif
#ifndef ENTK_TRACE_BINARY
#define ENTK_TRACE_BINARY "entk_trace"
#endif
#ifndef ENTK_WORKFLOWS_DIR
#define ENTK_WORKFLOWS_DIR "examples/workflows"
#endif

namespace {

std::string write_workflow(const std::string& body) {
  const std::string path = ::testing::TempDir() + "/wf_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(entk::wall_now_us()) + ".json";
  std::ofstream out(path);
  out << body;
  return path;
}

int run_tool(const std::string& args) {
  const std::string cmd =
      std::string(ENTK_RUN_BINARY) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(EntkRun, ExecutesSimulatedWorkflow) {
  const std::string path = write_workflow(R"({
    "resource": {"resource": "local.localhost", "cpus": 8,
                 "clock_scale": 0.0001},
    "pipelines": [
      {"name": "p", "stages": [
        {"name": "s", "tasks": [
          {"name": "a", "executable": "sleep", "duration_s": 5},
          {"name": "b", "executable": "sleep", "duration_s": 5}
        ]}
      ]}
    ]
  })");
  EXPECT_EQ(run_tool(path), 0);
}

TEST(EntkRun, RealProcessesRunAndGateLaterStages) {
  const std::string probe = ::testing::TempDir() + "/entk_run_test_probe_" +
                            std::to_string(::getpid());
  std::filesystem::remove(probe);
  const std::string path = write_workflow(R"({
    "resource": {"resource": "local.localhost", "cpus": 2,
                 "local_processes": true},
    "pipelines": [
      {"name": "p", "stages": [
        {"name": "create", "tasks": [
          {"name": "touch", "executable": "/usr/bin/touch",
           "arguments": [")" + probe + R"("]}
        ]},
        {"name": "check", "tasks": [
          {"name": "ls", "executable": "/bin/ls",
           "arguments": [")" + probe + R"("]}
        ]}
      ]}
    ]
  })");
  EXPECT_EQ(run_tool(path), 0);
  EXPECT_TRUE(std::filesystem::exists(probe));
  std::filesystem::remove(probe);
}

TEST(EntkRun, FailingProcessYieldsNonZeroExit) {
  const std::string path = write_workflow(R"({
    "resource": {"resource": "local.localhost", "cpus": 2,
                 "local_processes": true},
    "pipelines": [
      {"name": "p", "stages": [
        {"name": "s", "tasks": [
          {"name": "bad", "executable": "/bin/false"}
        ]}
      ]}
    ]
  })");
  EXPECT_EQ(run_tool(path), 1);
}

TEST(EntkRun, RetriesFlakyProcessesPerConfig) {
  // /bin/false always fails: with retries the tool still exits 1, but the
  // run completes (no hang) after the budget is consumed.
  const std::string path = write_workflow(R"({
    "resource": {"resource": "local.localhost", "cpus": 2,
                 "task_retry_limit": 2, "local_processes": true},
    "pipelines": [
      {"name": "p", "stages": [
        {"name": "s", "tasks": [
          {"name": "bad", "executable": "/bin/false"}
        ]}
      ]}
    ]
  })");
  EXPECT_EQ(run_tool(path), 1);
}

// Forks the entk_broker daemon with its stdout on a pipe; parses the
// "listening on HOST:PORT" line for the ephemeral port. Extra flags
// (sharding, journal, recovery) are appended after "--port 0".
class BrokerDaemon {
 public:
  explicit BrokerDaemon(std::vector<std::string> extra_args = {}) {
    int out[2];
    if (::pipe(out) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>("entk_broker"));
      argv.push_back(const_cast<char*>("--port"));
      argv.push_back(const_cast<char*>("0"));
      for (auto& arg : extra_args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(ENTK_BROKER_BINARY, argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_ = ::fdopen(out[0], "r");
    // A recovering daemon reports the replay before the listening line, so
    // scan until the line that carries the port.
    char line[256] = {0};
    while (stdout_ != nullptr && std::fgets(line, sizeof line, stdout_)) {
      if (std::strstr(line, "listening on") == nullptr) continue;
      const char* colon = std::strrchr(line, ':');
      if (colon != nullptr) port_ = std::atoi(colon + 1);
      break;
    }
  }

  ~BrokerDaemon() { kill_hard(); }

  int port() const { return port_; }

  /// SIGTERM the daemon and return its exit code (-1 on abnormal exit).
  int terminate() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// SIGKILL: simulates a crash — no drain, no final journal flush.
  void kill_hard() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (stdout_ != nullptr) {
      std::fclose(stdout_);
      stdout_ = nullptr;
    }
  }

 private:
  pid_t pid_ = -1;
  std::FILE* stdout_ = nullptr;
  int port_ = 0;
};

TEST(EntkBroker, ServesWorkflowOverTcpAndShutsDownGracefully) {
  BrokerDaemon daemon;
  ASSERT_GT(daemon.port(), 0) << "daemon did not report a listening port";

  const std::string path = write_workflow(R"({
    "resource": {"resource": "local.localhost", "cpus": 8,
                 "clock_scale": 0.0001},
    "pipelines": [
      {"name": "p", "stages": [
        {"name": "s", "tasks": [
          {"name": "a", "executable": "sleep", "duration_s": 5},
          {"name": "b", "executable": "sleep", "duration_s": 5}
        ]}
      ]}
    ]
  })");
  EXPECT_EQ(
      run_tool(path + " --broker 127.0.0.1:" + std::to_string(daemon.port())),
      0);
  EXPECT_EQ(daemon.terminate(), 0);  // graceful drain on SIGTERM
}

TEST(EntkBroker, ShardedDaemonRecoversJournal) {
  // Crash/recover e2e across the sharded daemon: a --shards 3 daemon
  // journals durable queues into one file per shard; after a SIGKILL a
  // fresh daemon pointed at the shard-0 journal path must replay every
  // sibling shard file and hand the unacked backlog to a reconnecting
  // client, in FIFO order per queue.
  const std::string dir = ::testing::TempDir() + "/entk_broker_shards_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(entk::wall_now_us());
  std::filesystem::create_directories(dir);
  constexpr int kQueues = 6;
  constexpr int kPerQueue = 3;

  {
    BrokerDaemon daemon({"--shards", "3", "--journal-dir", dir,
                         "--journal-max-delay-ms", "0"});
    ASSERT_GT(daemon.port(), 0) << "daemon did not report a listening port";

    entk::net::RemoteBrokerConfig cfg;
    cfg.endpoint = "127.0.0.1:" + std::to_string(daemon.port());
    entk::net::RemoteBroker client(cfg);
    for (int q = 0; q < kQueues; ++q) {
      const std::string queue = "shardq" + std::to_string(q);
      client.declare_queue(queue, {.durable = true});
      for (int i = 0; i < kPerQueue; ++i) {
        entk::mq::Message m;
        m.set_body(queue + "#" + std::to_string(i));
        ASSERT_GT(client.publish(queue, std::move(m)), 0u);
      }
      // Ack the head of each queue: the replay must skip it.
      auto d = client.get(queue, 1.0);
      ASSERT_TRUE(d);
      EXPECT_EQ(d->message.body(), queue + "#0");
      EXPECT_TRUE(client.ack(queue, d->delivery_tag));
    }
    client.close();
    daemon.kill_hard();  // crash: unacked backlog only survives on disk
  }

  // Shard 0 journals at the historical single-file path; shards 1..N-1
  // add a ".K" suffix. The crash must have left more than one behind.
  const std::string journal = dir + "/entk_broker.journal";
  ASSERT_TRUE(std::filesystem::exists(journal));
  EXPECT_TRUE(std::filesystem::exists(journal + ".1"));
  EXPECT_TRUE(std::filesystem::exists(journal + ".2"));

  BrokerDaemon daemon({"--shards", "3", "--journal-dir", dir,
                       "--journal-max-delay-ms", "0", "--recover", journal});
  ASSERT_GT(daemon.port(), 0) << "recovered daemon did not report a port";

  entk::net::RemoteBrokerConfig cfg;
  cfg.endpoint = "127.0.0.1:" + std::to_string(daemon.port());
  entk::net::RemoteBroker client(cfg);
  for (int q = 0; q < kQueues; ++q) {
    const std::string queue = "shardq" + std::to_string(q);
    EXPECT_TRUE(client.has_queue(queue));
    auto batch = client.get_batch(queue, kPerQueue + 1, 1.0);
    ASSERT_EQ(batch.size(), std::size_t{kPerQueue - 1}) << queue;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].message.body(),
                queue + "#" + std::to_string(i + 1));
      EXPECT_TRUE(client.ack(queue, batch[i].delivery_tag));
    }
  }
  client.close();
  EXPECT_EQ(daemon.terminate(), 0);
  std::filesystem::remove_all(dir);
}

TEST(EntkBroker, ParkedGetFailsFastOnDisconnectAndWorksAfterReconnect) {
  // A long-poll get_batch parked on the server when the daemon dies must
  // fail its pending correlation slot single-shot — returning empty
  // promptly instead of hanging out its full timeout — and the SAME
  // client must serve gets again once a daemon is back on that port.
  const int port = [] {
    // Grab an ephemeral port, then free it for the daemon.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ::close(fd);
    return static_cast<int>(ntohs(addr.sin_port));
  }();
  ASSERT_GT(port, 0);
  const std::string port_s = std::to_string(port);

  auto daemon = std::make_unique<BrokerDaemon>(
      std::vector<std::string>{"--port", port_s});
  ASSERT_EQ(daemon->port(), port);

  entk::net::RemoteBrokerConfig cfg;
  cfg.endpoint = "127.0.0.1:" + port_s;
  entk::net::RemoteBroker client(cfg);
  client.declare_queue("parked");

  std::atomic<double> parked_wall{0.0};
  std::thread parked([&] {
    const double t0 = entk::wall_now_s();
    // 30 s long poll on an empty queue: parks server-side.
    const auto batch = client.get_batch("parked", 4, 30.0);
    parked_wall = entk::wall_now_s() - t0;
    EXPECT_TRUE(batch.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  daemon->kill_hard();  // connection reset while the get is outstanding
  parked.join();
  // Fail-fast, not timeout: well under the 30 s poll window.
  EXPECT_LT(parked_wall.load(), 10.0);

  // New daemon on the same port; the client reconnects, re-declares its
  // queues, and the next publish/get round-trip succeeds.
  daemon = std::make_unique<BrokerDaemon>(
      std::vector<std::string>{"--port", port_s});
  ASSERT_EQ(daemon->port(), port);
  entk::mq::Message m;
  m.set_body("after-reconnect");
  ASSERT_GT(client.publish("parked", std::move(m)), 0u);
  std::optional<entk::mq::Delivery> d;
  const double deadline = entk::wall_now_s() + 10.0;
  while (!d && entk::wall_now_s() < deadline) {
    d = client.get("parked", 0.5);
  }
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->message.body(), "after-reconnect");
  EXPECT_TRUE(client.ack("parked", d->delivery_tag));
  client.close();
  EXPECT_EQ(daemon->terminate(), 0);
}

TEST(EntkRun, RejectsMissingAndMalformedInput) {
  EXPECT_EQ(run_tool("/nonexistent/wf.json"), 2);
  EXPECT_EQ(run_tool(write_workflow("{not json")), 2);
  EXPECT_EQ(run_tool(""), 2);  // usage
  // Valid JSON but no pipelines key.
  EXPECT_EQ(run_tool(write_workflow("{\"resource\": {}}")), 2);
}

/// Run entk_trace with `args`; returns its exit code and stdout+stderr.
std::pair<int, std::string> run_entk_trace(const std::string& args) {
  const std::string cmd = std::string(ENTK_TRACE_BINARY) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(EntkTrace, SummarizesTheTraceFileEntkRunWrote) {
  const std::string trace = ::testing::TempDir() + "/entk_trace_" +
                            std::to_string(::getpid()) + ".json";
  ASSERT_EQ(run_tool(std::string(ENTK_WORKFLOWS_DIR) +
                     "/ensemble.json --trace-out " + trace),
            0);
  const auto [code, out] = run_entk_trace(trace + " --summarize");
  ASSERT_EQ(code, 0) << out;
  // One row per chain segment plus the whole chain, each over the
  // workflow's 6 tasks.
  for (const char* span :
       {"enqueue", "schedule", "exec", "sync", "done", "total"}) {
    bool found = false;
    std::size_t pos = 0;
    while (pos < out.size()) {
      const std::size_t eol = out.find('\n', pos);
      const std::string line = out.substr(pos, eol - pos);
      pos = eol == std::string::npos ? out.size() : eol + 1;
      char name[32];
      unsigned long long count = 0;
      if (std::sscanf(line.c_str(), " %31s %llu", name, &count) == 2 &&
          std::string(name) == span) {
        found = true;
        EXPECT_EQ(count, 6u) << line;
      }
    }
    EXPECT_TRUE(found) << span << " row missing from:\n" << out;
  }
}

TEST(EntkTrace, RejectsFilesThatAreNotTraceFiles) {
  const std::string csv =
      write_workflow("wall_us,virtual_s,component,event,uid\n1,1,c,e,u\n");
  auto [code, out] = run_entk_trace(csv + " --summarize");
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("entk_trace: "), std::string::npos) << out;

  const std::string truncated =
      write_workflow(R"({"traceEvents":[],"entkEvents":[[1,1,"c")");
  std::tie(code, out) = run_entk_trace(truncated + " --summarize");
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("entk_trace: "), std::string::npos) << out;

  std::tie(code, out) = run_entk_trace("/nonexistent/trace.json --summarize");
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("/nonexistent/trace.json"), std::string::npos) << out;
  EXPECT_EQ(run_entk_trace("").first, 2);  // usage
}

}  // namespace
