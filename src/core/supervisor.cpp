#include "src/core/supervisor.hpp"

#include <chrono>

#include "src/common/log.hpp"

namespace entk {

Supervisor::Supervisor(SupervisionConfig config, ProfilerPtr profiler)
    : Component("supervisor", std::move(profiler)), config_(config) {}

Supervisor::~Supervisor() { stop(); }

void Supervisor::supervise(Component* component) {
  {
    std::lock_guard<std::mutex> lock(entries_mutex_);
    entries_.push_back(Entry{component});
  }
  // The listener runs on the failing component's dying worker thread: only
  // kick the probe loop, never restart inline. It captures the kick state,
  // not `this`, because that thread can outlive the supervisor.
  component->set_fault_listener(
      [kick = kick_](Component&, const std::string&) { kick->kick(); });
}

void Supervisor::watch_broker(mq::BrokerHandlePtr broker) {
  watched_broker_ = std::move(broker);
}

void Supervisor::set_fatal_handler(
    std::function<void(const std::string&, const std::string&)> handler) {
  std::lock_guard<std::mutex> lock(entries_mutex_);
  fatal_handler_ = std::move(handler);
}

int Supervisor::total_restarts() const {
  std::lock_guard<std::mutex> lock(entries_mutex_);
  int total = 0;
  for (const Entry& entry : entries_) total += entry.restarts;
  return total;
}

int Supervisor::restarts_of(const std::string& name) const {
  std::lock_guard<std::mutex> lock(entries_mutex_);
  for (const Entry& entry : entries_) {
    if (entry.component->name() == name) return entry.restarts;
  }
  return 0;
}

void Supervisor::on_start() {
  add_worker("probe", [this] { probe_loop(); });
}

void Supervisor::on_stop_requested() { kick_->kick(); }

void Supervisor::KickState::kick() {
  {
    std::lock_guard<std::mutex> lock(mutex);
    kicked = true;
  }
  cv.notify_all();
}

void Supervisor::probe_loop() {
  while (!stop_requested()) {
    beat();
    {
      std::unique_lock<std::mutex> lock(kick_->mutex);
      kick_->cv.wait_for(
          lock, std::chrono::duration<double>(config_.heartbeat_interval_s),
          [this] { return kick_->kicked || stop_requested(); });
      kick_->kicked = false;
    }
    if (stop_requested()) break;
    // Collect actions under the lock, act outside it: Component::start()
    // can do real work, and the fatal handler (AppManager's abort path)
    // does confirmed syncs.
    std::vector<Component*> to_restart;
    std::vector<std::pair<std::string, std::string>> fatals;
    {
      std::lock_guard<std::mutex> lock(entries_mutex_);
      for (Entry& entry : entries_) {
        if (entry.given_up ||
            entry.component->state() != ComponentState::Failed) {
          continue;
        }
        if (entry.restarts < config_.component_restart_limit) {
          ++entry.restarts;
          to_restart.push_back(entry.component);
        } else {
          entry.given_up = true;
          fatals.emplace_back(entry.component->name(),
                              entry.component->fault_reason());
        }
      }
    }
    for (Component* component : to_restart) {
      if (profiler_) {
        profiler_->record("supervisor", "component_restart", component->name());
      }
      // Restarts are rare; resolving through the registry here is fine.
      if (auto* reg = metrics()) reg->counter("supervisor.restarts").add(1);
      ENTK_WARN("supervisor")
          << "restarting failed component '" << component->name() << "' ("
          << component->fault_reason() << ")";
      try {
        component->start();
      } catch (const std::exception& e) {
        // Still Failed; the next probe retries until the budget runs out.
        ENTK_WARN("supervisor") << "restart of '" << component->name()
                                << "' failed: " << e.what();
      }
    }
    if (watched_broker_ && !broker_fatal_reported_) {
      // "" = healthy. Anything else is a sticky durability failure (e.g.
      // the journal flusher hit a full disk): not restartable, so it goes
      // straight to the fatal path instead of a restart budget.
      const std::string health = watched_broker_->health();
      if (!health.empty()) {
        broker_fatal_reported_ = true;
        fatals.emplace_back("broker", health);
      }
    }
    std::function<void(const std::string&, const std::string&)> handler;
    {
      std::lock_guard<std::mutex> lock(entries_mutex_);
      handler = fatal_handler_;
    }
    for (const auto& [name, reason] : fatals) {
      if (profiler_) profiler_->record("supervisor", "component_fatal", name);
      ENTK_ERROR("supervisor") << "component '" << name
                               << "' exhausted its restart budget: " << reason;
      if (handler) handler(name, reason);
    }
  }
}

}  // namespace entk
