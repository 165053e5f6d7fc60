// entk_worker: a standalone execution-plane daemon.
//
// Connects to an entk_broker daemon, announces itself as a worker, and
// runs the full Rmgr/Emgr/RtsCallback stack against the shared Pending
// queue — so N worker processes (on N machines) drain one ensemble
// concurrently while the entk_run side only publishes work and tracks
// states. Deliveries are held unacked until their units complete: a
// worker killed mid-task loses nothing, the broker requeues its claims
// for the survivors (at-least-once; the manager deduplicates).
//
// SIGINT/SIGTERM request a graceful drain: stop fetching, finish (or
// give back) in-flight work, deregister, exit 0.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/error.hpp"
#include "src/obs/trace.hpp"
#include "src/worker/worker_daemon.hpp"

namespace {

entk::worker::WorkerDaemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_drain();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: entk_worker --broker HOST:PORT\n"
      "                   [--worker-id ID] [--tenant ID] [--cores N]\n"
      "                   [--sim-ci RESOURCE] [--clock-scale S]\n"
      "                   [--batch N] [--max-in-flight N]\n"
      "                   [--drain-timeout S] [--trace-out OUT.json]\n"
      "       executes tasks from the Pending queue of the entk_broker at\n"
      "       HOST:PORT (required). --cores N sets the worker's pilot\n"
      "       size (default 4); --sim-ci names the simulated CI profile\n"
      "       the pilot runs on (default local.localhost); --clock-scale\n"
      "       sets wall seconds per virtual second (default 1e-3).\n"
      "       --batch bounds one Pending fetch/submit (default 64);\n"
      "       --max-in-flight caps unfinished units held at once\n"
      "       (0 = 2 x cores, the default). --drain-timeout bounds the\n"
      "       graceful-shutdown wait for in-flight work (default 10).\n"
      "       --trace-out writes this worker's trace file on exit (the\n"
      "       format entk_run --trace-out writes; read it with\n"
      "       entk_trace).\n"
      "       --tenant binds this worker inside tenant ID's namespace on\n"
      "       a shared daemon — it drains that tenant's queues only (must\n"
      "       match the ensemble's entk_run --tenant).\n"
      "       SIGINT/SIGTERM drain gracefully; unfinished deliveries\n"
      "       return to the queue for other workers.\n");
  return 2;
}

bool parse_long(const char* s, long* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace entk;

  worker::WorkerDaemonConfig config;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return usage();
    if (i + 1 >= argc) return usage();  // every flag takes a value
    const char* value = argv[i + 1];
    if (flag == "--broker") {
      config.endpoint = value;
    } else if (flag == "--worker-id") {
      config.worker_id = value;
    } else if (flag == "--tenant") {
      config.tenant = value;
    } else if (flag == "--cores") {
      long cores = 0;
      if (!parse_long(value, &cores) || cores <= 0) return usage();
      config.cores = static_cast<int>(cores);
    } else if (flag == "--sim-ci") {
      config.resource = value;
    } else if (flag == "--clock-scale") {
      double scale = 0.0;
      if (!parse_double(value, &scale) || scale <= 0.0) return usage();
      config.clock_scale = scale;
    } else if (flag == "--batch") {
      long batch = 0;
      if (!parse_long(value, &batch) || batch <= 0) return usage();
      config.batch = static_cast<std::size_t>(batch);
    } else if (flag == "--max-in-flight") {
      long cap = 0;
      if (!parse_long(value, &cap) || cap < 0) return usage();
      config.max_in_flight = static_cast<std::size_t>(cap);
    } else if (flag == "--drain-timeout") {
      double timeout = 0.0;
      if (!parse_double(value, &timeout) || timeout < 0.0) return usage();
      config.drain_timeout_s = timeout;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
    ++i;
  }
  if (config.endpoint.empty()) return usage();

  try {
    worker::WorkerDaemon daemon(config);
    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    daemon.start();
    // Parsed by spawning tests/scripts: keep the format stable and flush
    // before entering the main loop.
    std::printf("entk_worker: %s serving %s\n", daemon.worker_id().c_str(),
                config.endpoint.c_str());
    std::fflush(stdout);

    const int code = daemon.run();
    if (!trace_out.empty()) {
      const std::vector<ProfileEvent> events = daemon.profiler()->events();
      obs::write_chrome_trace(obs::build_trace(events), events, trace_out);
      std::printf("entk_worker: trace written to %s\n", trace_out.c_str());
    }
    std::printf("entk_worker: %s exiting (%zu task(s) done)\n",
                daemon.worker_id().c_str(), daemon.runtime().tasks_done());
    g_daemon = nullptr;
    return code;
  } catch (const EnTKError& e) {
    std::fprintf(stderr, "entk_worker: %s\n", e.what());
    return 2;
  }
}
