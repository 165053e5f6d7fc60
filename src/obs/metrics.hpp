// Metrics registry: the live half of the observability subsystem.
//
// Named counters, gauges and fixed-bucket latency histograms with
// nanosecond-class record paths: every hot-path mutation is a handful of
// relaxed atomic operations on pre-resolved handles — no locks, no string
// lookups, no allocation. The registry mutex is touched only on handle
// creation and on snapshots.
//
// Layering: this header is deliberately self-contained (std only) and
// header-only, so the low layers that record into it — entk_common's
// Component runtime and entk_mq's Broker — can include it without a link
// dependency on the entk_obs library (which itself depends on
// entk_common for the profiler-fed tracer, src/obs/trace.hpp).
//
// Usage:
//   obs::MetricsRegistry reg;
//   obs::Counter& published = reg.counter("mq.published");   // resolve once
//   published.add(n);                                        // hot path
//   obs::Histogram& h = reg.histogram("mq.publish_us");
//   h.observe(3.7);                                          // microseconds
//   for (const obs::MetricSnapshot& m : reg.snapshot()) ...;
//   reg.dump_jsonl("metrics.jsonl");
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace entk::obs {

/// Monotone counter, sharded across cache lines so concurrent producers
/// (broker publishers, RTS workers) never contend on one atomic.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t shard_index() {
    // One slot per thread, assigned on first use: cheaper and more evenly
    // spread than hashing std::thread::id on every add().
    static std::atomic<std::size_t> next{0};
    static thread_local const std::size_t slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot % kShards;
  }

  Shard shards_[kShards];
};

/// Last-write-wins instantaneous value (queue depths, in-flight units).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram over double samples (latencies in microseconds by
/// convention). Bucket bounds are frozen at construction; observe() is a
/// short bound scan plus four relaxed atomics.
class Histogram {
 public:
  /// Log-spaced microsecond bounds covering 1 us .. 5 s.
  static std::vector<double> default_latency_bounds_us() {
    return {1,    2,    5,    10,   20,   50,   100,  200,
            500,  1e3,  2e3,  5e3,  1e4,  2e4,  5e4,  1e5,
            2e5,  5e5,  1e6,  2e6,  5e6};
  }

  explicit Histogram(std::vector<double> bounds = default_latency_bounds_us())
      : bounds_(std::move(bounds)),
        buckets_(std::make_unique<Bucket[]>(bounds_.size() + 1)) {}

  void observe(double sample) {
    std::size_t i = 0;
    while (i < bounds_.size() && sample > bounds_[i]) ++i;
    buckets_[i].c.fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(static_cast<std::int64_t>(sample * 1e3),
                      std::memory_order_relaxed);
    std::int64_t prev = max_ns_.load(std::memory_order_relaxed);
    const std::int64_t ns = static_cast<std::int64_t>(sample * 1e3);
    while (prev < ns &&
           !max_ns_.compare_exchange_weak(prev, ns,
                                          std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-3;
  }
  double max() const {
    return static_cast<double>(max_ns_.load(std::memory_order_relaxed)) * 1e-3;
  }
  const std::vector<double>& bounds() const { return bounds_; }

  std::vector<std::uint64_t> bucket_counts() const {
    std::vector<std::uint64_t> out(bounds_.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = buckets_[i].c.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  struct alignas(64) Bucket {
    std::atomic<std::uint64_t> c{0};
  };

  const std::vector<double> bounds_;
  std::unique_ptr<Bucket[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_ns_{0};
  std::atomic<std::int64_t> max_ns_{0};
};

/// Point-in-time view of one metric.
struct MetricSnapshot {
  std::string name;
  std::string type;  ///< "counter" | "gauge" | "histogram"
  double value = 0;  ///< counter total / gauge value / histogram sum
  std::uint64_t count = 0;            ///< histogram samples
  double max = 0;                     ///< histogram max sample
  std::vector<double> bounds;         ///< histogram bucket upper bounds
  std::vector<std::uint64_t> buckets; ///< histogram bucket counts (+overflow)

  /// Estimate quantile q in [0,1] by linear interpolation within the
  /// bucket holding the target rank. Returns `max` for samples landing in
  /// the overflow bucket; 0 with no samples.
  double quantile(double q) const {
    if (type != "histogram" || count == 0) return 0.0;
    const double target = q * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const std::uint64_t in_bucket = buckets[i];
      if (cumulative + in_bucket < target) {
        cumulative += in_bucket;
        continue;
      }
      if (i >= bounds.size()) return max;  // overflow bucket
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      if (in_bucket == 0) return hi;
      const double frac =
          (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return std::min(max > 0 ? max : hi, lo + frac * (hi - lo));
    }
    return max;
  }
};

/// One periodic snapshot: a label plus every metric's state.
struct TimedSnapshot {
  std::int64_t wall_us = 0;
  std::string label;
  std::vector<MetricSnapshot> metrics;
};

class MetricsRegistry {
 public:
  /// Resolve (create on first use) a handle. Handles stay valid for the
  /// registry's lifetime; resolve once and keep the reference on hot paths.
  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
  }

  Gauge& gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
  }

  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds =
                           Histogram::default_latency_bounds_us()) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
  }

  std::vector<MetricSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return snapshot_locked();
  }

  // --- periodic snapshots -------------------------------------------------

  void set_snapshot_interval(double seconds) {
    snapshot_interval_us_.store(static_cast<std::int64_t>(seconds * 1e6),
                                std::memory_order_relaxed);
  }

  /// Append a labeled snapshot to the history unconditionally.
  void take_snapshot(std::int64_t wall_us, const std::string& label = "") {
    std::lock_guard<std::mutex> lock(mutex_);
    history_.push_back({wall_us, label, snapshot_locked()});
  }

  /// Rate-limited take_snapshot: appends only when the configured interval
  /// elapsed since the previous periodic snapshot. Designed to ride an
  /// existing heartbeat loop.
  void maybe_snapshot(std::int64_t wall_us) {
    const std::int64_t interval =
        snapshot_interval_us_.load(std::memory_order_relaxed);
    if (interval <= 0) return;
    std::int64_t last = last_snapshot_us_.load(std::memory_order_relaxed);
    if (wall_us - last < interval) return;
    if (!last_snapshot_us_.compare_exchange_strong(last, wall_us)) return;
    take_snapshot(wall_us, "periodic");
  }

  std::vector<TimedSnapshot> history() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return history_;
  }

  /// Write the snapshot history plus a final snapshot as JSONL: one object
  /// per metric per snapshot. Throws std::runtime_error naming `path` when
  /// the file cannot be opened or written.
  void dump_jsonl(const std::string& path, std::int64_t wall_us) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("MetricsRegistry: cannot open " + path);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const TimedSnapshot& s : history_) write_snapshot(f, s);
      write_snapshot(f, {wall_us, "final", snapshot_locked()});
    }
    const bool failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || failed) {
      throw std::runtime_error("MetricsRegistry: cannot write " + path);
    }
  }

 private:
  std::vector<MetricSnapshot> snapshot_locked() const {
    std::vector<MetricSnapshot> out;
    out.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (const auto& [name, c] : counters_) {
      MetricSnapshot m;
      m.name = name;
      m.type = "counter";
      m.value = static_cast<double>(c->value());
      out.push_back(std::move(m));
    }
    for (const auto& [name, g] : gauges_) {
      MetricSnapshot m;
      m.name = name;
      m.type = "gauge";
      m.value = static_cast<double>(g->value());
      out.push_back(std::move(m));
    }
    for (const auto& [name, h] : histograms_) {
      MetricSnapshot m;
      m.name = name;
      m.type = "histogram";
      m.value = h->sum();
      m.count = h->count();
      m.max = h->max();
      m.bounds = h->bounds();
      m.buckets = h->bucket_counts();
      out.push_back(std::move(m));
    }
    return out;
  }

  static void write_snapshot(std::FILE* f, const TimedSnapshot& s) {
    for (const MetricSnapshot& m : s.metrics) {
      // Metric names and labels are code-controlled identifiers (no
      // quotes/backslashes), so plain %s is JSON-safe here.
      std::fprintf(f,
                   "{\"wall_us\":%lld,\"label\":\"%s\",\"name\":\"%s\","
                   "\"type\":\"%s\",\"value\":%.6f",
                   static_cast<long long>(s.wall_us), s.label.c_str(),
                   m.name.c_str(), m.type.c_str(), m.value);
      if (m.type == "histogram") {
        std::fprintf(f, ",\"count\":%llu,\"max\":%.3f,\"p50\":%.3f,"
                        "\"p95\":%.3f,\"buckets\":[",
                     static_cast<unsigned long long>(m.count), m.max,
                     m.quantile(0.50), m.quantile(0.95));
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          std::fprintf(f, "%s%llu", i == 0 ? "" : ",",
                       static_cast<unsigned long long>(m.buckets[i]));
        }
        std::fputc(']', f);
      }
      std::fputs("}\n", f);
    }
  }

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<TimedSnapshot> history_;
  std::atomic<std::int64_t> snapshot_interval_us_{0};
  std::atomic<std::int64_t> last_snapshot_us_{0};
};

using MetricsPtr = std::shared_ptr<MetricsRegistry>;

/// Observability knobs carried by AppManagerConfig (and entk_run flags).
struct ObsConfig {
  bool metrics = false;       ///< enable the live metrics registry
  std::string trace_out;      ///< Chrome trace_event JSON path ("" = off)
  std::string metrics_out;    ///< metrics JSONL path ("" = off)
  double snapshot_interval_s = 0.05;  ///< periodic snapshot cadence

  /// Metrics are live when requested explicitly or needed for an export.
  bool metrics_enabled() const { return metrics || !metrics_out.empty(); }
};

}  // namespace entk::obs
