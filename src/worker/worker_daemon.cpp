#include "src/worker/worker_daemon.hpp"

#include <unistd.h>

#include <chrono>
#include <thread>

#include "src/common/clock.hpp"
#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/net/remote_broker.hpp"
#include "src/rts/pilot_rts.hpp"

namespace entk::worker {

namespace {

std::string default_worker_id() {
  return 'w' + std::to_string(static_cast<long>(::getpid()));
}

}  // namespace

WorkerDaemon::WorkerDaemon(WorkerDaemonConfig config)
    : config_(std::move(config)),
      worker_id_(config_.worker_id.empty() ? default_worker_id()
                                           : config_.worker_id),
      profiler_(std::make_shared<Profiler>()),
      clock_(std::make_shared<ScaledClock>(config_.clock_scale)) {
  if (config_.endpoint.empty()) {
    throw MissingError("worker " + worker_id_, "broker endpoint");
  }
  if (config_.max_in_flight == 0) {
    config_.max_in_flight = 2 * static_cast<std::size_t>(config_.cores);
  }

  net::RemoteBrokerConfig remote_cfg;
  remote_cfg.endpoint = config_.endpoint;
  remote_cfg.worker_id = worker_id_;
  remote_cfg.tenant = config_.tenant;
  broker_ = std::make_shared<net::RemoteBroker>(remote_cfg);
  if (config_.metrics) broker_->set_metrics(config_.metrics);

  // The AppManager usually declared these already; re-declaring is
  // idempotent and lets workers start before the manager.
  for (const std::string& queue :
       {config_.pending_queue, config_.done_queue, config_.states_queue}) {
    broker_->declare_queue(queue);
  }

  rts::RtsFactory factory = config_.rts_factory;
  if (!factory) {
    // Mirror AppManager::default_rts_factory: a pilot on the named CI,
    // scaled-virtual time, capped at this worker's core count.
    const WorkerDaemonConfig cfg = config_;
    ClockPtr clock = clock_;
    ProfilerPtr profiler = profiler_;
    factory = [cfg, clock, profiler]() -> rts::RtsPtr {
      rts::PilotRtsConfig pilot_cfg;
      pilot_cfg.pilot.resource = cfg.resource;
      pilot_cfg.pilot.cores = cfg.cores;
      pilot_cfg.pilot.walltime_s = cfg.walltime_s;
      return std::make_shared<rts::PilotRts>(pilot_cfg, clock, profiler);
    };
  }

  WorkerRuntimeConfig rt_cfg;
  rt_cfg.supervision = config_.supervision;
  rt_cfg.submit_batch = config_.batch;
  rt_cfg.ack_queue = "q.ack." + worker_id_;
  rt_cfg.ack_on_completion = true;
  rt_cfg.max_in_flight = config_.max_in_flight;
  rt_cfg.worker_id = worker_id_;
  // Daemons have no ObjectRegistry: units arrive inline on the Pending
  // queue; an ids-only message cannot be served here.
  runtime_ = std::make_unique<WorkerRuntime>(
      worker_id_, rt_cfg, broker_, UnitResolver{},
      config_.pending_queue, config_.done_queue, config_.states_queue,
      std::move(factory), profiler_);
  if (config_.metrics) runtime_->set_metrics(config_.metrics);

  announcer_ =
      std::make_unique<WorkerAnnouncer>(broker_, worker_id_, config_.cores);
}

WorkerDaemon::~WorkerDaemon() {
  if (started_ && !stopped_) drain();
}

void WorkerDaemon::start() {
  profiler_->record(worker_id_, "worker_start");
  runtime_->acquire_resources();
  runtime_->start();
  announcer_->announce_register();
  started_ = true;
  ENTK_INFO(worker_id_) << "worker up: broker=" << config_.endpoint
                        << " cores=" << config_.cores
                        << " resource=" << config_.resource
                        << " max_in_flight=" << config_.max_in_flight;
}

int WorkerDaemon::run() {
  using namespace std::chrono;
  auto next_heartbeat = steady_clock::now();
  int code = 0;
  while (!drain_requested()) {
    if (runtime_->state() == ComponentState::Failed) {
      ENTK_ERROR(worker_id_) << "runtime failed; shutting down";
      code = 1;
      break;
    }
    const auto now = steady_clock::now();
    if (now >= next_heartbeat) {
      announcer_->heartbeat(runtime_->tasks_done(), runtime_->in_flight());
      next_heartbeat =
          now + duration_cast<steady_clock::duration>(
                    duration<double>(config_.heartbeat_interval_s));
    }
    std::this_thread::sleep_for(milliseconds(50));
  }
  drain();
  return code;
}

void WorkerDaemon::drain() {
  if (stopped_) return;
  stopped_ = true;
  profiler_->record(worker_id_, "worker_drain");
  // Stop fetching new work first, then let what the RTS already owns
  // finish within the drain budget.
  runtime_->Component::stop();
  if (!runtime_->wait_drained(config_.drain_timeout_s)) {
    const std::size_t leftover = runtime_->in_flight();
    ENTK_WARN(worker_id_)
        << "draining with " << leftover
        << " unit(s) still in flight; their deliveries return to the "
           "queue for other workers";
  }
  announcer_->announce_deregister(runtime_->tasks_done());
  runtime_->stop();  // terminates the RTS
  broker_->close();  // server requeues whatever we still held
  profiler_->record(worker_id_, "worker_stop");
  ENTK_INFO(worker_id_) << "worker down after " << runtime_->tasks_done()
                        << " task(s)";
}

}  // namespace entk::worker
