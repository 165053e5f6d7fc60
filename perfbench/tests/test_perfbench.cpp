// Tests of the benchmark's own instrumentation: the TimedRts decorator, its
// ledger, the instant RTS and the span/statistics helpers. Self-contained
// (no test framework), run by ctest in the benchmark's build directory.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/stats.hpp"
#include "perfbench/src/timed_rts.hpp"

namespace {

using namespace entk;
using namespace entk::perfbench;

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

/// Records every call and returns distinctive values, so forwarding of
/// both the call and its result is observable.
class FakeRts final : public rts::Rts {
 public:
  std::vector<std::string> calls;
  std::function<void(const rts::UnitResult&)> callback;

  void initialize() override { calls.push_back("initialize"); }
  void set_completion_callback(
      std::function<void(const rts::UnitResult&)> cb) override {
    calls.push_back("set_completion_callback");
    callback = std::move(cb);
  }
  void submit(std::vector<rts::TaskUnit> units) override {
    calls.push_back("submit:" + std::to_string(units.size()));
  }
  bool is_healthy() const override { return false; }
  void terminate() override { calls.push_back("terminate"); }
  void kill() override { calls.push_back("kill"); }
  bool resize(const rts::ResizeRequest& request) override {
    calls.push_back("resize:" + std::to_string(request.delta_nodes));
    return true;
  }
  rts::RtsStats stats() const override {
    rts::RtsStats s;
    s.units_submitted = 7;
    s.units_in_flight = 3;
    return s;
  }
  std::vector<std::string> in_flight_units() const override {
    return {"u.1", "u.2"};
  }
};

std::vector<rts::TaskUnit> make_units(int n) {
  std::vector<rts::TaskUnit> units;
  for (int i = 0; i < n; ++i) {
    rts::TaskUnit u;
    u.uid = "task." + std::to_string(i);
    units.push_back(std::move(u));
  }
  return units;
}

void forwards_every_virtual() {
  auto fake = std::make_shared<FakeRts>();
  Ledger ledger(8);
  TimedRts timed(fake, &ledger, nullptr);
  timed.initialize();
  int delivered = 0;
  timed.set_completion_callback(
      [&delivered](const rts::UnitResult&) { ++delivered; });
  timed.submit(make_units(2));
  CHECK(!timed.is_healthy());
  CHECK(timed.resize({.delta_nodes = -2, .reason = "test"}));
  CHECK(timed.stats().units_submitted == 7);
  CHECK(timed.stats().units_in_flight == 3);
  CHECK(timed.in_flight_units() == (std::vector<std::string>{"u.1", "u.2"}));
  timed.terminate();
  timed.kill();
  const std::vector<std::string> expected = {
      "initialize", "set_completion_callback", "submit:2", "resize:-2",
      "terminate", "kill"};
  CHECK(fake->calls == expected);

  // The wrapped callback reaches EnTK's and stamps the completion.
  rts::UnitResult r;
  r.uid = "task.1";
  r.outcome = rts::UnitOutcome::Failed;
  fake->callback(r);
  CHECK(delivered == 1);
  CHECK(ledger.completion_count() == 1);
  CHECK(ledger.completion(0).uid == "task.1");
  CHECK(!ledger.completion(0).done);
}

void one_stamp_per_unit() {
  Ledger ledger(16);
  TimedRts timed(std::make_shared<InstantRts>(), &ledger, nullptr);
  std::vector<std::string> seen;
  timed.set_completion_callback(
      [&seen](const rts::UnitResult& r) { seen.push_back(r.uid); });
  timed.submit(make_units(3));
  timed.submit(make_units(2));
  CHECK(seen.size() == 5);
  CHECK(ledger.submit_count() == 5);
  CHECK(ledger.completion_count() == 5);
  CHECK(!ledger.overflowed());
  for (std::size_t i = 0; i < 3; ++i) {
    CHECK(ledger.submit(i).uid == "task." + std::to_string(i));
    CHECK(ledger.completion(i).uid == ledger.submit(i).uid);
    CHECK(ledger.completion(i).done);
    CHECK(ledger.completion(i).ns >= ledger.submit(i).ns);
  }
}

void ledger_flags_overflow() {
  Ledger ledger(2);
  TimedRts timed(std::make_shared<InstantRts>(), &ledger, nullptr);
  timed.set_completion_callback([](const rts::UnitResult&) {});
  timed.submit(make_units(3));
  CHECK(ledger.submit_count() == 2);
  CHECK(ledger.overflowed());
}

void submit_self_time_excludes_nested_callbacks() {
  Ledger ledger(8);
  CallTimes calls;
  TimedRts timed(std::make_shared<InstantRts>(), &ledger, &calls);
  timed.set_completion_callback([](const rts::UnitResult&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  timed.submit(make_units(2));
  CHECK(calls.submit_calls.load() == 1);
  CHECK(calls.callbacks.load() == 2);
  CHECK(calls.callback_ns.load() >= 40'000'000);
  // InstantRts runs both callbacks inside submit(); none of their 40 ms may
  // count as submit() self time.
  CHECK(calls.submit_self_ns.load() < 10'000'000);
  CHECK(calls.submit_self_ns.load() >= 0);
}

void instant_rts_verifies_payloads() {
  PayloadCheck check;
  InstantRts rts(&check);
  std::vector<rts::UnitResult> results;
  rts.set_completion_callback(
      [&results](const rts::UnitResult& r) { results.push_back(r); });
  std::vector<rts::TaskUnit> units = make_units(2);
  const std::string payload(1024, 'q');
  for (rts::TaskUnit& u : units) {
    u.metadata["payload"] = payload;
    u.metadata["sum"] = static_cast<std::int64_t>(fnv1a64(payload));
  }
  units[1].metadata["payload"] = std::string(1024, 'r');  // corrupted
  rts.submit(std::move(units));
  CHECK(results.size() == 2);
  CHECK(results[0].outcome == rts::UnitOutcome::Done);
  CHECK(results[0].metadata.at("payload").as_string() == payload);
  CHECK(results[1].outcome == rts::UnitOutcome::Failed);
  CHECK(check.verified.load() == 1);
  CHECK(check.mismatched.load() == 1);
  CHECK(rts.stats().units_completed == 1);
  CHECK(rts.stats().units_failed == 1);
}

void quantiles_interpolate() {
  CHECK(quantile({}, 0.5) == 0.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({1.0, 2.0, 3.0, 4.0}) == 2.5);
  CHECK(quantile({0.0, 10.0}, 0.95) == 9.5);
}

void self_time_subtracts_covered_children() {
  std::vector<Span> spans = {
      {-1, "run", "r", 0, 100},
      {0, "pipeline", "a", 10, 50},  // overlaps b: union 10..60
      {0, "pipeline", "b", 40, 60},
      {0, "pipeline", "c", 90, 120},  // sticks out: counts 90..100
      {1, "stage", "s", 20, 30},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  CHECK(self[0] == 100 - 50 - 10);
  CHECK(self[1] == 40 - 10);
  CHECK(self[2] == 20);
  CHECK(self[3] == 30);
  CHECK(self[4] == 10);
}

}  // namespace

int main() {
  forwards_every_virtual();
  one_stamp_per_unit();
  ledger_flags_overflow();
  submit_self_time_excludes_nested_callbacks();
  instant_rts_verifies_payloads();
  quantiles_interpolate();
  self_time_subtracts_covered_children();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
