#include "perfbench/src/timed_rts.hpp"

#include <algorithm>
#include <chrono>

namespace entk::perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- Ledger

namespace {
constexpr std::size_t kUidReserve = 32;

void reserve_uids(std::vector<Ledger::Stamp>& stamps) {
  for (Ledger::Stamp& s : stamps) s.uid.reserve(kUidReserve);
}
}  // namespace

Ledger::Ledger(std::size_t capacity)
    : submits_(capacity), completions_(capacity) {
  reserve_uids(submits_);
  reserve_uids(completions_);
}

void Ledger::submitted(const std::string& uid, std::int64_t ns) {
  const std::size_t i = n_submits_.fetch_add(1, std::memory_order_relaxed);
  if (i >= submits_.size()) return;
  submits_[i].uid.assign(uid);
  submits_[i].ns = ns;
}

void Ledger::completed(const std::string& uid, std::int64_t ns, bool done) {
  const std::size_t i = n_completions_.fetch_add(1, std::memory_order_relaxed);
  if (i >= completions_.size()) return;
  completions_[i].uid.assign(uid);
  completions_[i].ns = ns;
  completions_[i].done = done;
}

std::size_t Ledger::submit_count() const {
  return std::min(n_submits_.load(), submits_.size());
}

std::size_t Ledger::completion_count() const {
  return std::min(n_completions_.load(), completions_.size());
}

bool Ledger::overflowed() const {
  return n_submits_.load() > submits_.size() ||
         n_completions_.load() > completions_.size();
}

// -------------------------------------------------------------- TimedRts

namespace {
// Callback time accumulated on this thread; submit() subtracts the part
// that ran nested inside it.
thread_local std::int64_t tl_callback_ns = 0;
}  // namespace

TimedRts::TimedRts(rts::RtsPtr inner, Ledger* ledger, CallTimes* calls)
    : ledger_(ledger), calls_(calls), inner_(std::move(inner)) {}

void TimedRts::initialize() { inner_->initialize(); }

void TimedRts::set_completion_callback(
    std::function<void(const rts::UnitResult&)> callback) {
  inner_->set_completion_callback(
      [this, callback = std::move(callback)](const rts::UnitResult& r) {
        const std::int64_t t0 = now_ns();
        ledger_->completed(r.uid, t0, r.outcome == rts::UnitOutcome::Done);
        callback(r);
        if (calls_ != nullptr) {
          const std::int64_t spent = now_ns() - t0;
          tl_callback_ns += spent;
          calls_->callback_ns.fetch_add(spent, std::memory_order_relaxed);
          calls_->callbacks.fetch_add(1, std::memory_order_relaxed);
        }
      });
}

void TimedRts::submit(std::vector<rts::TaskUnit> units) {
  const std::int64_t t0 = now_ns();
  for (const rts::TaskUnit& u : units) ledger_->submitted(u.uid, t0);
  if (calls_ == nullptr) {
    inner_->submit(std::move(units));
    return;
  }
  const std::int64_t nested_before = tl_callback_ns;
  inner_->submit(std::move(units));
  const std::int64_t nested = tl_callback_ns - nested_before;
  calls_->submit_self_ns.fetch_add(now_ns() - t0 - nested,
                                   std::memory_order_relaxed);
  calls_->submit_calls.fetch_add(1, std::memory_order_relaxed);
}

bool TimedRts::is_healthy() const { return inner_->is_healthy(); }
void TimedRts::terminate() { inner_->terminate(); }
void TimedRts::kill() { inner_->kill(); }
bool TimedRts::resize(const rts::ResizeRequest& request) {
  return inner_->resize(request);
}
rts::RtsStats TimedRts::stats() const { return inner_->stats(); }
std::vector<std::string> TimedRts::in_flight_units() const {
  return inner_->in_flight_units();
}

// ------------------------------------------------------------ InstantRts

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void InstantRts::submit(std::vector<rts::TaskUnit> units) {
  submitted_ += units.size();
  for (rts::TaskUnit& unit : units) {
    rts::UnitResult result;
    result.uid = std::move(unit.uid);
    result.name = std::move(unit.name);
    result.outcome = rts::UnitOutcome::Done;
    if (check_ != nullptr && unit.metadata.contains("sum")) {
      const std::string& payload = unit.metadata.at("payload").as_string();
      const auto sum = static_cast<std::uint64_t>(
          unit.metadata.at("sum").as_int());
      if (fnv1a64(payload) == sum) {
        ++check_->verified;
      } else {
        ++check_->mismatched;
        result.outcome = rts::UnitOutcome::Failed;
        result.exit_code = 1;
      }
    }
    result.metadata = std::move(unit.metadata);  // echoed back upstream
    if (result.outcome == rts::UnitOutcome::Done) {
      ++completed_;
    } else {
      ++failed_;
    }
    callback_(result);
  }
}

rts::RtsStats InstantRts::stats() const {
  rts::RtsStats s;
  s.units_submitted = submitted_.load();
  s.units_completed = completed_.load();
  s.units_failed = failed_.load();
  return s;
}

}  // namespace entk::perfbench
