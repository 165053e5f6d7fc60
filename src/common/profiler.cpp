#include "src/common/profiler.hpp"

#include "src/common/clock.hpp"

namespace entk {

void Profiler::record(std::string_view component, std::string_view event,
                      std::string_view uid, double virtual_s) {
  Event e;
  e.wall_us = wall_now_us();
  e.virtual_s = virtual_s;
  e.uid = uid;
  std::lock_guard<std::mutex> lock(mutex_);
  e.component = intern_locked(component);
  e.event = intern_locked(event);
  events_.push_back(std::move(e));
}

std::uint32_t Profiler::intern_locked(std::string_view name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

std::vector<ProfileEvent> Profiler::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ProfileEvent> out;
  out.reserve(events_.size());
  for (const Event& e : events_) {
    out.push_back(
        {e.wall_us, e.virtual_s, names_[e.component], names_[e.event], e.uid});
  }
  return out;
}

std::size_t Profiler::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

}  // namespace entk
