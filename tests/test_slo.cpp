// SloEngine: per-class windowed burn rates, breach detection and
// forwarding to the FleetHealthMonitor, report/JSONL rendering, and the
// histogram-side burn computation a scrape consumer would run.

#include "arbiterq/monitor/slo.hpp"

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arbiterq/monitor/health.hpp"
#include "arbiterq/report/jsonl.hpp"
#include "arbiterq/telemetry/metrics.hpp"

namespace {

using namespace arbiterq;
using monitor::SloClass;
using monitor::SloEngine;
using monitor::SloObjective;
using monitor::SloPolicy;

/// Tight policy for tests: 4-job windows, 100us target, 25% budget.
SloPolicy tight_policy() {
  SloPolicy p;
  p.objectives[0] = {100.0, 0.25};  // latency_bound
  p.objectives[1] = {100.0, 0.25};  // throughput_bound
  p.objectives[2] = {0.0, 0.25};    // best_effort: success-only
  p.window_jobs = 4;
  p.breach_burn_rate = 1.0;
  return p;
}

TEST(SloClassName, CoversAllClasses) {
  EXPECT_EQ(monitor::slo_class_name(SloClass::kLatencyBound),
            "latency_bound");
  EXPECT_EQ(monitor::slo_class_name(SloClass::kThroughputBound),
            "throughput_bound");
  EXPECT_EQ(monitor::slo_class_name(SloClass::kBestEffort), "best_effort");
}

TEST(SloPolicyDefaults, MatchTheDocumentedObjectives) {
  const SloPolicy p = SloPolicy::defaults();
  EXPECT_DOUBLE_EQ(p.objectives[0].latency_target_us, 5000.0);
  EXPECT_DOUBLE_EQ(p.objectives[0].error_budget, 0.01);
  EXPECT_DOUBLE_EQ(p.objectives[1].latency_target_us, 50000.0);
  EXPECT_DOUBLE_EQ(p.objectives[1].error_budget, 0.05);
  EXPECT_DOUBLE_EQ(p.objectives[2].latency_target_us, 0.0);
  EXPECT_DOUBLE_EQ(p.objectives[2].error_budget, 0.10);
  EXPECT_EQ(p.window_jobs, 64U);
}

TEST(SloEngine, RejectsInvalidPolicy) {
  SloPolicy p = SloPolicy::defaults();
  p.window_jobs = 0;
  EXPECT_THROW(SloEngine{p}, std::invalid_argument);
  p = SloPolicy::defaults();
  p.objectives[0].error_budget = 0.0;
  EXPECT_THROW(SloEngine{p}, std::invalid_argument);
  p.objectives[0].error_budget = 1.5;
  EXPECT_THROW(SloEngine{p}, std::invalid_argument);
}

TEST(SloEngine, IdleReportIsFullyCompliant) {
  const SloEngine engine;
  const monitor::SloReport rep = engine.report();
  ASSERT_EQ(rep.classes.size(), monitor::kNumSloClasses);
  for (const monitor::SloClassReport& c : rep.classes) {
    EXPECT_EQ(c.jobs, 0U);
    EXPECT_DOUBLE_EQ(c.compliance, 1.0);
    EXPECT_DOUBLE_EQ(c.overall_burn, 0.0);
    EXPECT_EQ(c.breaches, 0U);
  }
  EXPECT_TRUE(rep.breaches.empty());
}

TEST(SloEngine, LatencyTargetAndFailureBothViolate) {
  SloEngine engine(tight_policy());
  engine.observe_job(SloClass::kLatencyBound, 50.0, true);    // complies
  engine.observe_job(SloClass::kLatencyBound, 150.0, true);   // too slow
  engine.observe_job(SloClass::kLatencyBound, 50.0, false);   // failed
  // best_effort has no latency term: only the failure violates.
  engine.observe_job(SloClass::kBestEffort, 1e9, true);
  engine.observe_job(SloClass::kBestEffort, 1.0, false);
  const monitor::SloReport rep = engine.report();
  EXPECT_EQ(rep.classes[0].jobs, 3U);
  EXPECT_EQ(rep.classes[0].violations, 2U);
  EXPECT_EQ(rep.classes[2].jobs, 2U);
  EXPECT_EQ(rep.classes[2].violations, 1U);
  // overall burn = (violations/jobs)/budget = (2/3)/0.25.
  EXPECT_NEAR(rep.classes[0].overall_burn, (2.0 / 3.0) / 0.25, 1e-12);
}

TEST(SloEngine, WindowRolloverDetectsBreaches) {
  SloEngine engine(tight_policy());
  // Window 1 (4 jobs): 2 violations -> burn (2/4)/0.25 = 2.0 > 1 -> breach.
  engine.observe_job(SloClass::kLatencyBound, 150.0, true);
  engine.observe_job(SloClass::kLatencyBound, 150.0, true);
  engine.observe_job(SloClass::kLatencyBound, 50.0, true);
  engine.observe_job(SloClass::kLatencyBound, 50.0, true);
  // Window 2: 1 violation -> burn (1/4)/0.25 = 1.0, not > 1 -> clean.
  engine.observe_job(SloClass::kLatencyBound, 150.0, true);
  for (int i = 0; i < 3; ++i) {
    engine.observe_job(SloClass::kLatencyBound, 50.0, true);
  }
  const monitor::SloReport rep = engine.report();
  EXPECT_EQ(rep.classes[0].breaches, 1U);
  ASSERT_EQ(rep.breaches.size(), 1U);
  EXPECT_EQ(rep.breaches[0].cls, SloClass::kLatencyBound);
  EXPECT_EQ(rep.breaches[0].window_index, 0U);
  EXPECT_EQ(rep.breaches[0].violations, 2U);
  EXPECT_DOUBLE_EQ(rep.breaches[0].burn_rate, 2.0);
}

TEST(SloEngine, PartialWindowShowsInWindowBurn) {
  SloEngine engine(tight_policy());
  engine.observe_job(SloClass::kThroughputBound, 500.0, true);  // violation
  engine.observe_job(SloClass::kThroughputBound, 50.0, true);
  const monitor::SloReport rep = engine.report();
  // 1 violation over 2 observed of a 4-job window: (1/2)/0.25 = 2.0.
  EXPECT_DOUBLE_EQ(rep.classes[1].window_burn, 2.0);
  EXPECT_TRUE(rep.breaches.empty()) << "no window closed yet";
}

TEST(SloEngine, BreachesForwardToFleetHealthMonitor) {
  monitor::FleetHealthMonitor health(4);
  SloEngine engine(tight_policy(), &health);
  // Two breached windows with different burns: 4/4 -> 4.0, 2/4 -> 2.0.
  for (int i = 0; i < 4; ++i) {
    engine.observe_job(SloClass::kLatencyBound, 150.0, true);
  }
  engine.observe_job(SloClass::kLatencyBound, 150.0, true);
  engine.observe_job(SloClass::kLatencyBound, 150.0, true);
  engine.observe_job(SloClass::kLatencyBound, 50.0, true);
  engine.observe_job(SloClass::kLatencyBound, 50.0, true);
  const monitor::FleetHealthReport rep = health.report();
  EXPECT_EQ(rep.slo_breaches, 2U);
  EXPECT_DOUBLE_EQ(rep.slo_worst_burn, 4.0);
  EXPECT_NE(rep.to_table_string().find("slo breaches 2"),
            std::string::npos);
}

TEST(SloEngine, CountersReachTheMetricsRegistry) {
  telemetry::set_telemetry_runtime_enabled(true);
  telemetry::MetricsRegistry::global().reset_values();
  SloEngine engine(tight_policy());
  engine.observe_job(SloClass::kLatencyBound, 150.0, true);
  // Shard 2 appears before shard 0: growing the table resolves both.
  engine.observe_job(SloClass::kLatencyBound, 150.0, true, 2);
  engine.observe_job(SloClass::kLatencyBound, 50.0, true, 0);
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  std::map<std::string, double> counters;
  for (const telemetry::CounterSnapshot& c : snap.counters) {
    counters[c.name] = static_cast<double>(c.value);
  }
  EXPECT_DOUBLE_EQ(counters["slo.jobs.latency_bound"], 3.0);
  EXPECT_DOUBLE_EQ(counters["slo.violations.latency_bound"], 2.0);
  EXPECT_DOUBLE_EQ(counters["slo.jobs.shard2"], 1.0);
  EXPECT_DOUBLE_EQ(counters["slo.violations.shard2"], 1.0);
  EXPECT_DOUBLE_EQ(counters["slo.jobs.shard0"], 1.0);
  EXPECT_DOUBLE_EQ(counters["slo.violations.shard0"], 0.0);
}

TEST(SloReport, TableAndJsonlCarryEveryClass) {
  SloEngine engine(tight_policy());
  for (int i = 0; i < 4; ++i) {
    engine.observe_job(SloClass::kBestEffort, 1.0, false);
  }
  const monitor::SloReport rep = engine.report();
  const std::string table = rep.to_table_string();
  EXPECT_NE(table.find("latency_bound"), std::string::npos);
  EXPECT_NE(table.find("throughput_bound"), std::string::npos);
  EXPECT_NE(table.find("best_effort"), std::string::npos);

  const std::string jsonl = rep.to_jsonl();
  std::size_t slo_lines = 0, breach_lines = 0;
  std::string line;
  std::istringstream is(jsonl);
  while (std::getline(is, line)) {
    const auto obj = report::parse_json_line(line);
    ASSERT_TRUE(obj.has_value()) << line;
    const std::string type = obj->at("type").string;
    if (type == "slo") ++slo_lines;
    if (type == "slo_breach") ++breach_lines;
  }
  EXPECT_EQ(slo_lines, monitor::kNumSloClasses);
  EXPECT_EQ(breach_lines, 1U);
}

// ------------------------------------------------- burn from histograms

telemetry::HistogramSnapshot snap_of(telemetry::Histogram& h) {
  telemetry::HistogramSnapshot s;
  s.upper_bounds = h.upper_bounds();
  s.bucket_counts = h.bucket_counts();
  s.count = h.count();
  s.sum = h.sum();
  return s;
}

TEST(BurnFromHistogram, EmptyAndDisabledTargetsAreZero) {
  telemetry::Histogram h({10.0, 100.0});
  EXPECT_DOUBLE_EQ(
      SloEngine::burn_rate_from_histogram(snap_of(h), {50.0, 0.1}), 0.0);
  h.observe(1000.0);
  EXPECT_DOUBLE_EQ(
      SloEngine::burn_rate_from_histogram(snap_of(h), {0.0, 0.1}), 0.0);
}

TEST(BurnFromHistogram, InterpolatesInsideTheStraddlingBucket) {
  // 100 observations 1..100, decade buckets; target 75us, budget 10%:
  // fraction above = 0.25, burn = 2.5.
  telemetry::Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  const double burn =
      SloEngine::burn_rate_from_histogram(snap_of(h), {75.0, 0.10});
  EXPECT_NEAR(burn, 2.5, 1e-9);
}

TEST(BurnFromHistogram, AllOverflowCountsAgainstFiniteTargets) {
  telemetry::Histogram h({10.0});
  h.observe(1e6);
  h.observe(1e6);
  // Target below the highest finite bound: both observations violate;
  // fraction 1.0 over a 0.5 budget burns at 2x.
  EXPECT_DOUBLE_EQ(
      SloEngine::burn_rate_from_histogram(snap_of(h), {5.0, 0.5}), 2.0);
  // Target above every finite bound: the overflow bucket's position is
  // unknowable, so it is not attributed.
  EXPECT_DOUBLE_EQ(
      SloEngine::burn_rate_from_histogram(snap_of(h), {100.0, 0.5}), 0.0);
}

}  // namespace
