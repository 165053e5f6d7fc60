// RTS-boundary instrumentation for the benchmark.
//
// TimedRts decorates any rts::Rts and is installed through
// AppManagerConfig::rts_factory (or WorkerDaemonConfig::rts_factory), so the
// toolkit is timed from outside, at the public seam between EnTK and its
// runtime system. Every virtual is forwarded unchanged: a wrapped pilot
// behaves exactly as the unwrapped one.
//
// Untraced, the decorator costs one clock read per submit() call and one per
// completion, plus a copy of the unit uid into a preallocated Ledger slot.
// Traced (a CallTimes sink attached), it also times each submit() call and
// each completion callback, and reports submit()'s self time: the callbacks
// an RTS runs synchronously inside submit() are subtracted.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/rts/rts.hpp"

namespace entk::perfbench {

/// Monotonic nanoseconds (steady_clock); every benchmark stamp uses it.
std::int64_t now_ns();

/// Append-only, preallocated record of unit submissions and completions.
/// Writers from any thread claim a slot with one atomic increment; readers
/// look only after every writer has been joined (AppManager::run() returns
/// after the RTS is terminated).
class Ledger {
 public:
  struct Stamp {
    std::string uid;
    std::int64_t ns = 0;
    bool done = false;  ///< completions only: outcome was Done
  };

  /// Room for `capacity` submissions and `capacity` completions. Uid
  /// storage is reserved up front so recording does not allocate.
  explicit Ledger(std::size_t capacity);

  void submitted(const std::string& uid, std::int64_t ns);
  void completed(const std::string& uid, std::int64_t ns, bool done);

  std::size_t submit_count() const;
  std::size_t completion_count() const;
  const Stamp& submit(std::size_t i) const { return submits_[i]; }
  const Stamp& completion(std::size_t i) const { return completions_[i]; }
  /// True when more stamps arrived than the ledger could hold.
  bool overflowed() const;

 private:
  std::vector<Stamp> submits_;
  std::vector<Stamp> completions_;
  std::atomic<std::size_t> n_submits_{0};
  std::atomic<std::size_t> n_completions_{0};
};

/// Per-call timing of the traced run, summed over all calls.
struct CallTimes {
  std::atomic<std::int64_t> submit_self_ns{0};  ///< submit() minus callbacks
  std::atomic<std::int64_t> callback_ns{0};     ///< inside EnTK's callback
  std::atomic<std::uint64_t> submit_calls{0};
  std::atomic<std::uint64_t> callbacks{0};
};

class TimedRts final : public rts::Rts {
 public:
  /// `calls` null = untraced (stamps only).
  TimedRts(rts::RtsPtr inner, Ledger* ledger, CallTimes* calls);

  void initialize() override;
  void set_completion_callback(
      std::function<void(const rts::UnitResult&)> callback) override;
  void submit(std::vector<rts::TaskUnit> units) override;
  bool is_healthy() const override;
  void terminate() override;
  void kill() override;
  bool resize(const rts::ResizeRequest& request) override;
  rts::RtsStats stats() const override;
  std::vector<std::string> in_flight_units() const override;

 private:
  Ledger* const ledger_;
  CallTimes* const calls_;
  // Declared last so it is destroyed first: its threads may still be
  // running callbacks that touch the members above.
  const rts::RtsPtr inner_;
};

/// Payload integrity counters of InstantRts (remote_durable's checksums).
struct PayloadCheck {
  std::atomic<std::uint64_t> verified{0};
  std::atomic<std::uint64_t> mismatched{0};
};

/// FNV-1a 64-bit hash, the payload checksum.
std::uint64_t fnv1a64(const std::string& bytes);

/// A runtime system that completes every unit inside submit(), on the
/// caller's thread, echoing the unit metadata into the result. When the
/// metadata carries {"payload": bytes, "sum": fnv1a64(bytes)} and `check` is
/// set, the checksum is verified and a mismatch fails the unit.
class InstantRts final : public rts::Rts {
 public:
  explicit InstantRts(PayloadCheck* check = nullptr) : check_(check) {}

  void initialize() override {}
  void set_completion_callback(
      std::function<void(const rts::UnitResult&)> callback) override {
    callback_ = std::move(callback);
  }
  void submit(std::vector<rts::TaskUnit> units) override;
  bool is_healthy() const override { return true; }
  void terminate() override {}
  void kill() override {}
  rts::RtsStats stats() const override;
  std::vector<std::string> in_flight_units() const override { return {}; }

 private:
  PayloadCheck* const check_;
  std::function<void(const rts::UnitResult&)> callback_;
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> failed_{0};
};

}  // namespace entk::perfbench
