// Tests for the post-mortem run analysis (timelines, concurrency,
// utilization), both on synthetic traces and on a real AppManager run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "src/analytics/analysis.hpp"
#include "src/analytics/streaming.hpp"
#include "src/core/app_manager.hpp"

namespace entk::analytics {
namespace {

void fill_synthetic_trace(Profiler& p) {
  // Two tasks, partially overlapping, with staging on the first.
  p.record("agent", "unit_received", "t1", 0.0);
  p.record("agent", "unit_stage_in_start", "t1", 0.0);
  p.record("agent", "unit_stage_in_stop", "t1", 2.0);
  p.record("agent", "unit_exec_start", "t1", 5.0);
  p.record("agent", "unit_exec_stop", "t1", 15.0);
  p.record("agent", "unit_done", "t1", 15.5);
  p.record("agent", "unit_received", "t2", 1.0);
  p.record("agent", "unit_exec_start", "t2", 10.0);
  p.record("agent", "unit_exec_stop", "t2", 30.0);
  p.record("agent", "unit_done", "t2", 30.0);
  // Wall-only events (no virtual time) must be ignored.
  p.record("amgr", "amgr_setup_start");
}

RunAnalysis synthetic_analysis() {
  Profiler p;
  fill_synthetic_trace(p);
  return RunAnalysis(obs::build_trace(p));
}

TEST(RunAnalysisTest, TimelinesParsed) {
  const RunAnalysis a = synthetic_analysis();
  ASSERT_EQ(a.task_count(), 2u);
  EXPECT_EQ(a.units().begin()->first, "t1");
  const obs::UnitVirtualTimes& t1 = a.units().at("t1");
  EXPECT_DOUBLE_EQ(t1.received, 0.0);
  EXPECT_DOUBLE_EQ(t1.exec_s(), 10.0);
  // Queue wait of t1: 5.0 total minus 2.0 staging = 3.0.
  EXPECT_DOUBLE_EQ(t1.queue_wait(), 3.0);
  const obs::UnitVirtualTimes& t2 = a.units().at("t2");
  EXPECT_DOUBLE_EQ(t2.queue_wait(), 9.0);
}

TEST(RunAnalysisTest, MakespanAndConcurrency) {
  const RunAnalysis a = synthetic_analysis();
  EXPECT_DOUBLE_EQ(a.makespan(), 25.0);  // 5 .. 30
  EXPECT_EQ(a.peak_concurrency(), 2);
  const auto curve = a.concurrency_curve();
  // 5: +t1 -> 1; 10: +t2 -> 2; 15: -t1 -> 1; 30: -t2 -> 0.
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0].t, 5.0);
  EXPECT_EQ(curve[0].executing, 1);
  EXPECT_EQ(curve[1].executing, 2);
  EXPECT_EQ(curve[2].executing, 1);
  EXPECT_EQ(curve[3].executing, 0);
}

TEST(RunAnalysisTest, UtilizationAccountsForCores) {
  const RunAnalysis a = synthetic_analysis();
  // Busy core-time with 1 core each: 10 + 20 = 30; 2 cores x 25 s span.
  EXPECT_NEAR(a.core_utilization(2), 30.0 / 50.0, 1e-12);
  // t1 uses 4 cores: busy = 40 + 20 = 60 over 4 x 25.
  EXPECT_NEAR(a.core_utilization(4, {{"t1", 4}}), 60.0 / 100.0, 1e-12);
}

TEST(RunAnalysisTest, StagingTotals) {
  const RunAnalysis a = synthetic_analysis();
  EXPECT_DOUBLE_EQ(a.total_staging(), 2.0);
}

TEST(RunAnalysisTest, EmptyTraceIsSafe) {
  Profiler p;
  const RunAnalysis a(obs::build_trace(p));
  EXPECT_EQ(a.task_count(), 0u);
  EXPECT_DOUBLE_EQ(a.makespan(), 0.0);
  EXPECT_EQ(a.peak_concurrency(), 0);
  EXPECT_DOUBLE_EQ(a.core_utilization(16), 0.0);
  EXPECT_DOUBLE_EQ(a.mean_queue_wait(), 0.0);
  EXPECT_FALSE(a.summary(16).empty());
}

TEST(RunAnalysisTest, RealRunProducesConsistentNumbers) {
  AppManagerConfig cfg;
  cfg.resource.resource = "local.localhost";
  cfg.resource.cpus = 8;
  cfg.resource.agent.env_setup_s = 0.5;
  cfg.resource.agent.dispatch_rate_per_s = 1000;
  cfg.resource.rts_teardown_base_s = 0.01;
  cfg.clock_scale = 1e-4;
  AppManager amgr(cfg);
  auto pipeline = std::make_shared<Pipeline>("p");
  auto stage = std::make_shared<Stage>("s");
  for (int i = 0; i < 8; ++i) {
    auto t = std::make_shared<Task>("t");
    t->duration_s = 10.0;
    stage->add_task(t);
  }
  pipeline->add_stage(stage);
  amgr.add_pipelines({pipeline});
  amgr.run();

  const RunAnalysis a(amgr.trace());
  EXPECT_EQ(a.task_count(), 8u);
  // 8 single-core tasks on 8 cores, fully concurrent.
  EXPECT_EQ(a.peak_concurrency(), 8);
  EXPECT_GE(a.makespan(), 10.0);
  // Utilization is high: every core busy for most of the span. A second
  // execution wave would cap it at 0.5, so 0.6 still proves one concurrent
  // wave; not tighter because the span is virtual time (scale 1e-4) and a
  // fraction of a wall millisecond of scheduler noise shifts it visibly.
  EXPECT_GT(a.core_utilization(8), 0.6);
  // Consistent with the overhead report's exec span.
  EXPECT_NEAR(a.makespan(), amgr.overheads().task_exec_s, 1e-9);
}

// --- StreamingStats property tests -----------------------------------------
// The ensemble Controller folds results in completion order, which is
// arbitrary; the contract (streaming.hpp) is that incremental estimates are
// *exact* — identical to batch recomputation over the same multiset, for any
// ingestion order. Checked here property-style with seeded generators.

double batch_median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double batch_mad(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const double med = batch_median(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::fabs(x - med));
  return batch_median(dev);
}

TEST(StreamingStatsTest, EmptyIsAllZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.median(), 0.0);
  EXPECT_EQ(s.mad(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(StreamingStatsTest, IncrementalMatchesBatchForAnyIngestionOrder) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> value(-100.0, 100.0);
  std::uniform_int_distribution<int> size(1, 97);

  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> data(static_cast<std::size_t>(size(rng)));
    for (double& x : data) x = value(rng);
    // Duplicates are realistic (quantized metrics) — inject some.
    if (data.size() > 3) data[1] = data[0], data[2] = data[0];

    // Ingest in shuffled (out-of-order) sequence.
    std::vector<double> shuffled = data;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    StreamingStats s;
    for (const double x : shuffled) s.observe(x);

    ASSERT_EQ(s.count(), data.size());
    EXPECT_DOUBLE_EQ(s.min(), *std::min_element(data.begin(), data.end()));
    EXPECT_DOUBLE_EQ(s.max(), *std::max_element(data.begin(), data.end()));
    // Sum/mean: same addend multiset in a different order; allow one ulp-ish
    // tolerance since FP addition is not associative.
    double sum = 0.0;
    for (const double x : data) sum += x;
    EXPECT_NEAR(s.sum(), sum, 1e-9 * data.size());
    EXPECT_NEAR(s.mean(), sum / static_cast<double>(data.size()),
                1e-9);
    // Order statistics are exact: the internal sample set is sorted, so the
    // result is bit-identical to batch recomputation.
    EXPECT_DOUBLE_EQ(s.median(), batch_median(data));
    EXPECT_DOUBLE_EQ(s.mad(), batch_mad(data));
  }
}

TEST(StreamingStatsTest, PrefixEstimatesMatchBatchAtEveryStep) {
  std::mt19937 rng(7);
  std::normal_distribution<double> value(5.0, 2.5);
  std::vector<double> data(64);
  for (double& x : data) x = value(rng);

  StreamingStats s;
  std::vector<double> prefix;
  for (const double x : data) {
    s.observe(x);
    prefix.push_back(x);
    EXPECT_DOUBLE_EQ(s.median(), batch_median(prefix));
    EXPECT_DOUBLE_EQ(s.mad(), batch_mad(prefix));
    EXPECT_EQ(s.count(), prefix.size());
  }
}

}  // namespace
}  // namespace entk::analytics
