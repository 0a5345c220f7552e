// aq_monitor: convergence trackers (stalled vs converged flatness),
// behavioral drift against a calibration baseline, similarity-graph
// introspection and edge churn, and the FleetHealthMonitor riding a real
// DistributedTrainer run through the TrainConfig::monitor hook.

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arbiterq/core/similarity.hpp"
#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/monitor/health.hpp"
#include "arbiterq/monitor/introspect.hpp"
#include "arbiterq/report/jsonl.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/sink.hpp"

namespace {

using namespace arbiterq;

/// Behavioral vector whose concatenated form is {base, base, 0, 0}.
core::BehavioralVector bv(double base) {
  core::BehavioralVector v;
  v.contextual = {base, base};
  v.topological = {0.0, 0.0};
  return v;
}

telemetry::EpochQpuRecord epoch_record(int epoch, int qpu, double loss,
                                       bool online = true) {
  telemetry::EpochQpuRecord r;
  r.strategy = "ArbiterQ";
  r.epoch = epoch;
  r.qpu = qpu;
  r.online = online;
  r.loss = loss;
  r.grad_norm = 0.1;
  return r;
}

TEST(ConvergenceTracker, FrozenLossStalls) {
  monitor::ConvergenceTracker t;
  for (int e = 0; e < 12; ++e) t.observe(0.5, 0.01);
  EXPECT_TRUE(t.stalled());
  EXPECT_NEAR(t.loss_ema(), 0.5, 1e-12);
  EXPECT_NEAR(t.relative_improvement(), 0.0, 1e-12);
  EXPECT_GE(t.plateau_length(), 5);
}

TEST(ConvergenceTracker, ConvergedCurveIsNotStalled) {
  // Improves by ~90% then goes flat: flat but *converged*, so healthy.
  monitor::ConvergenceTracker t;
  for (int e = 0; e < 60; ++e) {
    t.observe(0.1 + 0.9 * std::pow(0.6, e), 0.1);
  }
  EXPECT_GE(t.plateau_length(), 5);  // the tail is flat...
  EXPECT_GT(t.relative_improvement(), 0.5);
  EXPECT_FALSE(t.stalled());  // ...but it earned the flatness
}

TEST(ConvergenceTracker, TooFewEpochsNeverStall) {
  monitor::ConvergenceTracker t;
  for (int e = 0; e < 7; ++e) t.observe(0.5, 0.01);
  EXPECT_FALSE(t.stalled());  // min_epochs = 8
}

TEST(Introspect, DegreesGroupsAndIsolation) {
  // Nodes 0 and 1 nearly identical, node 2 far away.
  const std::vector<core::BehavioralVector> vecs = {bv(0.10), bv(0.1001),
                                                    bv(0.20)};
  const core::SimilarityGraph graph(vecs, /*kappa=*/2000.0);
  const auto view = monitor::introspect(graph, /*threshold=*/1e-3);
  EXPECT_EQ(view.n, 3u);
  ASSERT_EQ(view.edges.size(), 1u);
  EXPECT_EQ(view.edges[0], (std::pair<int, int>(0, 1)));
  EXPECT_EQ(view.degree, (std::vector<int>{1, 1, 0}));
  EXPECT_EQ(view.group[0], view.group[1]);
  EXPECT_NE(view.group[0], view.group[2]);
  EXPECT_EQ(view.group_size, (std::vector<int>{2, 2, 1}));
  EXPECT_EQ(view.isolated, (std::vector<int>{2}));
}

TEST(Introspect, EdgeChurnDiffsTheEdgeSets) {
  const auto churn = monitor::edge_churn({{0, 1}, {1, 2}}, {{1, 2}, {2, 3}});
  EXPECT_EQ(churn.added, (std::vector<std::pair<int, int>>{{2, 3}}));
  EXPECT_EQ(churn.removed, (std::vector<std::pair<int, int>>{{0, 1}}));
  EXPECT_EQ(churn.kept, 1u);
  EXPECT_EQ(churn.total_changed(), 2u);
}

TEST(FleetHealth, RejectsEmptyFleetAndIgnoresOutOfRangeRecords) {
  EXPECT_THROW(monitor::FleetHealthMonitor(0), std::invalid_argument);
  monitor::FleetHealthMonitor mon(2);
  mon.on_epoch(epoch_record(0, 5, 0.3));   // beyond the fleet
  mon.on_epoch(epoch_record(0, -1, 0.3));  // nonsense index
  const auto rep = mon.report();
  EXPECT_EQ(rep.qpus[0].epochs, 0);
  EXPECT_EQ(rep.qpus[1].epochs, 0);
}

TEST(FleetHealth, FlagsFrozenQpuAsStalledOnly) {
  monitor::FleetHealthMonitor mon(2);
  for (int e = 0; e < 12; ++e) {
    // QPU 0 improves steadily; QPU 1's loss is frozen.
    mon.on_epoch(epoch_record(e, 0, 0.8 * std::pow(0.7, e)));
    mon.on_epoch(epoch_record(e, 1, 0.62));
  }
  const auto rep = mon.report();
  EXPECT_EQ(rep.qpus[0].status, monitor::QpuStatus::kHealthy);
  EXPECT_EQ(rep.qpus[1].status, monitor::QpuStatus::kStalled);
  EXPECT_EQ(rep.healthy, 1u);
  EXPECT_EQ(rep.stalled, 1u);
  EXPECT_EQ(rep.drifting, 0u);
}

TEST(FleetHealth, FlagsDriftedQpuAgainstBaseline) {
  monitor::FleetHealthMonitor mon(3);
  const std::vector<core::BehavioralVector> baseline = {bv(0.10), bv(0.12),
                                                        bv(0.14)};
  mon.set_baseline(baseline);
  // QPU 1's behavior moves; the others recalibrate onto the baseline.
  std::vector<core::BehavioralVector> drifted = baseline;
  drifted[1] = bv(0.12 + 0.01);
  mon.observe_calibration(drifted);

  const auto rep = mon.report();
  EXPECT_EQ(rep.qpus[0].status, monitor::QpuStatus::kHealthy);
  EXPECT_EQ(rep.qpus[1].status, monitor::QpuStatus::kDrifting);
  EXPECT_EQ(rep.qpus[2].status, monitor::QpuStatus::kHealthy);
  EXPECT_DOUBLE_EQ(
      rep.qpus[1].drift,
      core::behavioral_distance(baseline[1], drifted[1]));
  EXPECT_EQ(rep.drifting, 1u);
}

TEST(FleetHealth, DriftGaugesFollowEveryCalibration) {
  telemetry::set_telemetry_runtime_enabled(true);
  auto& reg = telemetry::MetricsRegistry::global();
  monitor::FleetHealthMonitor mon(3);
  const std::vector<core::BehavioralVector> baseline = {bv(0.10), bv(0.12),
                                                        bv(0.14)};
  mon.set_baseline(baseline);
  for (const double shift : {0.01, 0.02}) {
    std::vector<core::BehavioralVector> drifted = baseline;
    drifted[2] = bv(0.14 + shift);
    mon.observe_calibration(drifted);
    const double d = core::behavioral_distance(baseline[2], drifted[2]);
    EXPECT_DOUBLE_EQ(reg.gauge("monitor.qpu.drift.q2").value(), d);
    EXPECT_DOUBLE_EQ(reg.gauge("monitor.qpu.drift.q0").value(), 0.0);
    EXPECT_DOUBLE_EQ(reg.gauge("monitor.fleet.drift.max").value(), d);
  }
}

TEST(FleetHealth, FlagsIsolatedQpuAndTracksChurn) {
  monitor::FleetHealthMonitor mon(3);
  const std::vector<core::BehavioralVector> before = {bv(0.10), bv(0.1001),
                                                      bv(0.20)};
  const core::SimilarityGraph g1(before, 2000.0);
  mon.observe_similarity(g1, 1e-3);
  auto rep = mon.report();
  EXPECT_EQ(rep.qpus[2].status, monitor::QpuStatus::kIsolated);
  EXPECT_EQ(rep.isolated, 1u);

  // After recalibration node 2 joins node 1's neighborhood instead.
  const std::vector<core::BehavioralVector> after = {bv(0.10), bv(0.2001),
                                                     bv(0.20)};
  const core::SimilarityGraph g2(after, 2000.0);
  mon.observe_similarity(g2, 1e-3);
  rep = mon.report();
  EXPECT_EQ(rep.churn.added,
            (std::vector<std::pair<int, int>>{{1, 2}}));
  EXPECT_EQ(rep.churn.removed,
            (std::vector<std::pair<int, int>>{{0, 1}}));
  EXPECT_EQ(rep.qpus[0].status, monitor::QpuStatus::kIsolated);
  EXPECT_EQ(rep.qpus[2].status, monitor::QpuStatus::kHealthy);
}

TEST(FleetHealth, StalledOutranksDriftAndIsolation) {
  monitor::FleetHealthMonitor mon(2);
  mon.set_baseline({bv(0.10), bv(0.12)});
  mon.observe_calibration({bv(0.10), bv(0.20)});  // QPU 1 drifts hard
  for (int e = 0; e < 12; ++e) {
    mon.on_epoch(epoch_record(e, 1, 0.5));  // ...and its loss is frozen
  }
  const auto rep = mon.report();
  EXPECT_EQ(rep.qpus[1].status, monitor::QpuStatus::kStalled);
}

TEST(FleetHealth, CountsOnlineChurnFlips) {
  monitor::FleetHealthMonitor mon(1);
  const bool states[] = {true, false, false, true, false};
  for (int e = 0; e < 5; ++e) {
    mon.on_epoch(epoch_record(e, 0, 0.5, states[e]));
  }
  const auto rep = mon.report();
  EXPECT_EQ(rep.qpus[0].churn_flips, 3);
  EXPECT_FALSE(rep.qpus[0].online);
}

TEST(FleetHealth, ObserveMembershipTracksServingTransitions) {
  monitor::FleetHealthMonitor mon(2);
  // First observation sets the state without counting a flip.
  mon.observe_membership(0, true);
  auto rep = mon.report();
  EXPECT_TRUE(rep.qpus[0].online);
  EXPECT_EQ(rep.qpus[0].churn_flips, 0);

  // online -> offline -> online: two flips; repeating a state is free.
  mon.observe_membership(0, false);
  mon.observe_membership(0, false);
  mon.observe_membership(0, true);
  rep = mon.report();
  EXPECT_TRUE(rep.qpus[0].online);
  EXPECT_EQ(rep.qpus[0].churn_flips, 2);

  // A serving-side dropout flips a QPU the trainer never touched, and
  // mixes with on_epoch's own churn accounting.
  mon.observe_membership(1, false);
  mon.on_epoch(epoch_record(0, 1, 0.5, true));
  rep = mon.report();
  EXPECT_TRUE(rep.qpus[1].online);
  EXPECT_EQ(rep.qpus[1].churn_flips, 1);

  // Out-of-range QPUs are ignored, like on_epoch.
  mon.observe_membership(7, false);
  mon.observe_membership(-1, false);
  EXPECT_EQ(mon.report().qpus.size(), 2U);
}

TEST(FleetHealth, SloBreachesRollUpIntoTheSummary) {
  monitor::FleetHealthMonitor mon(2);
  EXPECT_EQ(mon.report().slo_breaches, 0U);
  mon.observe_slo_breach("latency_bound", 2.5);
  mon.observe_slo_breach("best_effort", 1.25);
  const auto rep = mon.report();
  EXPECT_EQ(rep.slo_breaches, 2U);
  EXPECT_DOUBLE_EQ(rep.slo_worst_burn, 2.5);
  EXPECT_NE(rep.to_table_string().find("slo breaches 2 (worst burn 2.50)"),
            std::string::npos);
  std::istringstream is(rep.to_jsonl());
  std::string line;
  bool saw_summary = false;
  while (std::getline(is, line)) {
    const auto obj = report::parse_json_line(line);
    ASSERT_TRUE(obj.has_value()) << line;
    if (obj->at("type").string == "health_summary") {
      saw_summary = true;
      EXPECT_DOUBLE_EQ(obj->at("slo_breaches").number, 2.0);
      EXPECT_DOUBLE_EQ(obj->at("slo_worst_burn").number, 2.5);
    }
  }
  EXPECT_TRUE(saw_summary);
}

TEST(FleetHealth, TableAndJsonlCarryTheReport) {
  monitor::FleetHealthMonitor mon(2);
  for (int e = 0; e < 12; ++e) {
    mon.on_epoch(epoch_record(e, 0, 0.8 * std::pow(0.7, e)));
    mon.on_epoch(epoch_record(e, 1, 0.62));
  }
  const auto rep = mon.report();
  const std::string table = rep.to_table_string();
  EXPECT_NE(table.find("stalled"), std::string::npos);
  EXPECT_NE(table.find("healthy"), std::string::npos);
  EXPECT_NE(table.find("1 healthy, 0 drifting, 1 stalled"),
            std::string::npos);

  std::istringstream is(rep.to_jsonl());
  std::string line;
  int health_lines = 0, summary_lines = 0;
  while (std::getline(is, line)) {
    const auto obj = report::parse_json_line(line);
    ASSERT_TRUE(obj.has_value()) << line;
    const std::string type = obj->at("type").string;
    if (type == "health") {
      ++health_lines;
      if (obj->at("qpu").number == 1.0) {
        EXPECT_EQ(obj->at("status").string, "stalled");
        EXPECT_DOUBLE_EQ(obj->at("loss").number, 0.62);
      }
    } else if (type == "health_summary") {
      ++summary_lines;
      EXPECT_DOUBLE_EQ(obj->at("stalled").number, 1.0);
    }
  }
  EXPECT_EQ(health_lines, 2);
  EXPECT_EQ(summary_lines, 1);
}

TEST(FleetHealth, RidesTrainerThroughConfigHookWithoutPerturbing) {
  const data::BenchmarkCase bc{"iris", 2, 2};
  const data::EncodedSplit split = data::prepare_case(bc, 7);
  const qnn::QnnModel model(qnn::Backbone::kCRz, bc.num_qubits,
                            bc.num_layers);
  core::TrainConfig cfg;
  cfg.epochs = 4;

  monitor::FleetHealthMonitor mon(3);
  cfg.monitor = &mon;
  const core::DistributedTrainer trainer(
      model, device::table3_fleet_subset(3, bc.num_qubits), cfg);
  mon.set_baseline(trainer.behavioral_vectors());
  mon.observe_similarity(trainer.similarity(), cfg.distance_threshold);
  const auto result = trainer.train(core::Strategy::kArbiterQ, split);

  const auto rep = mon.report();
  ASSERT_EQ(rep.qpus.size(), 3u);
  for (const auto& h : rep.qpus) {
    EXPECT_EQ(h.epochs, 4);
    EXPECT_TRUE(std::isfinite(h.loss));
    EXPECT_GE(h.group, 0);
  }
  // Baseline == current vectors, so nothing can read as drifted.
  EXPECT_EQ(rep.drifting, 0u);

  // The hook is observational: an unmonitored trainer reproduces the
  // exact loss curve.
  core::TrainConfig plain_cfg = cfg;
  plain_cfg.monitor = nullptr;
  const core::DistributedTrainer plain(
      model, device::table3_fleet_subset(3, bc.num_qubits), plain_cfg);
  const auto plain_result = plain.train(core::Strategy::kArbiterQ, split);
  EXPECT_EQ(plain_result.epoch_test_loss, result.epoch_test_loss);

  // And it sees the same records a train()-argument sink would.
  telemetry::RecordingTelemetry rec;
  (void)plain.train(core::Strategy::kArbiterQ, split, &rec);
  EXPECT_EQ(rec.epochs.size(), 4u * 3u);
}

}  // namespace
