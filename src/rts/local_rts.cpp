#include "src/rts/local_rts.hpp"

#include <algorithm>
#include <chrono>
#include <random>

#include "src/common/error.hpp"
#include "src/common/ids.hpp"
#include "src/rts/process.hpp"
#include "src/common/log.hpp"

namespace entk::rts {

LocalRts::LocalRts(LocalRtsConfig config, ClockPtr clock, ProfilerPtr profiler)
    : Component(generate_uid("rts.local"), std::move(profiler)),
      config_(config),
      clock_(std::move(clock)) {}

LocalRts::~LocalRts() { kill(); }

void LocalRts::initialize() {
  profiler_->record(name(), "rts_init_start", "", clock_->now());
  Component::start();
  healthy_ = true;
  profiler_->record(name(), "rts_init_stop", "", clock_->now());
}

void LocalRts::on_start() {
  for (int i = 0; i < config_.workers; ++i) {
    const std::uint64_t seed = config_.seed + static_cast<std::uint64_t>(i);
    add_worker("worker-" + std::to_string(i),
               [this, seed] { worker_loop(seed); });
  }
}

void LocalRts::on_stop_requested() {
  // The stop flag is set outside mutex_; taking it before notifying keeps
  // a worker between its predicate check and its untimed wait from
  // missing this wake-up (kill() would then join it forever).
  { std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_all();
}

void LocalRts::set_completion_callback(
    std::function<void(const UnitResult&)> callback) {
  callback_ = std::move(callback);
}

void LocalRts::submit(std::vector<TaskUnit> units) {
  if (!healthy_.load()) throw RtsError(name() + ": submit on unhealthy RTS");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (TaskUnit& u : units) {
      in_flight_.insert(u.uid);
      queue_.push_back(std::move(u));
      ++submitted_;
    }
  }
  cv_.notify_all();
}

bool LocalRts::is_healthy() const { return healthy_.load(); }

void LocalRts::terminate() {
  healthy_ = false;
  if (state() != ComponentState::Running) return;  // never started / killed
  // Drain: wait for queued units to finish before stopping workers. Bail
  // out if a worker faults mid-drain: nothing would empty the queue.
  while (state() == ComponentState::Running) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty() && in_flight_.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Component::stop();
  profiler_->record(name(), "rts_teardown_stop", "", clock_->now());
}

void LocalRts::kill() {
  healthy_ = false;
  const ComponentState s = state();
  if (s != ComponentState::Running && s != ComponentState::Draining) return;
  // In-flight units deliberately stay tracked: the ExecManager heartbeat
  // reads in_flight_units() off the dead instance to resubmit them.
  fail("killed");
}

RtsStats LocalRts::stats() const {
  RtsStats s;
  s.units_submitted = submitted_.load();
  s.units_completed = completed_.load();
  s.units_failed = failed_.load();
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(mutex_));
  s.units_in_flight = in_flight_.size();
  return s;
}

std::vector<std::string> LocalRts::in_flight_units() const {
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(mutex_));
  return {in_flight_.begin(), in_flight_.end()};
}

void LocalRts::worker_loop(std::uint64_t worker_seed) {
  std::mt19937_64 rng(worker_seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  while (true) {
    beat();
    TaskUnit unit;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_requested() || !queue_.empty(); });
      if (stop_requested()) return;
      unit = std::move(queue_.front());
      queue_.pop_front();
    }
    UnitResult result;
    result.uid = unit.uid;
    result.name = unit.name;
    result.metadata = unit.metadata;
    result.submit_t = clock_->now();
    result.sched_t = result.submit_t;
    result.exec_start_t = clock_->now();
    profiler_->record(name(), "unit_exec_start", unit.uid, result.exec_start_t);

    int exit_code = 0;
    const bool injected_failure =
        config_.failure_probability > 0.0 &&
        dist(rng) < config_.failure_probability;
    if (injected_failure) {
      exit_code = 1;
    } else {
      if (unit.duration_s > 0) {
        // Interruptible sleep: a kill() must not wait out long durations.
        double remaining_wall = unit.duration_s * clock_->scale();
        while (remaining_wall > 0 && !stop_requested()) {
          const double slice = std::min(remaining_wall, 0.005);
          std::this_thread::sleep_for(std::chrono::duration<double>(slice));
          remaining_wall -= slice;
        }
        if (stop_requested()) {
          // Hard death mid-execution: the unit is lost (stays in-flight,
          // no result) — the paper's RTS-failure semantics.
          return;
        }
      }
      if (unit.callable) {
        try {
          exit_code = unit.callable();
        } catch (const std::exception& e) {
          ENTK_WARN(name()) << "unit " << unit.uid << " threw: " << e.what();
          exit_code = 255;
        }
      } else if (is_spawnable(unit.executable)) {
        // A real stand-alone executable: spawn it and adopt its exit code.
        exit_code = run_process(unit.executable, unit.arguments);
      }
    }
    result.exec_end_t = clock_->now();
    result.done_t = result.exec_end_t;
    result.exit_code = exit_code;
    result.outcome = exit_code == 0 ? UnitOutcome::Done : UnitOutcome::Failed;
    profiler_->record(name(), "unit_exec_stop", unit.uid, result.exec_end_t);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      in_flight_.erase(unit.uid);
    }
    if (exit_code == 0) ++completed_; else ++failed_;
    if (callback_) callback_(result);
  }
}

}  // namespace entk::rts
