#include "arbiterq/monitor/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "arbiterq/core/similarity.hpp"
#include "arbiterq/report/jsonl.hpp"
#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::monitor {

std::string status_name(QpuStatus status) {
  switch (status) {
    case QpuStatus::kHealthy:
      return "healthy";
    case QpuStatus::kDrifting:
      return "drifting";
    case QpuStatus::kStalled:
      return "stalled";
    case QpuStatus::kIsolated:
      return "isolated";
  }
  throw std::logic_error("status_name: unknown status");
}

ConvergenceTracker::ConvergenceTracker(HealthConfig config)
    : config_(config) {}

void ConvergenceTracker::observe(double loss, double grad_norm) {
  const double a = config_.ema_alpha;
  if (epochs_ == 0) {
    first_loss_ = loss;
    loss_ema_ = loss;
    grad_ema_ = grad_norm;
  } else {
    const double prev_loss_ema = loss_ema_;
    const double prev_grad_ema = grad_ema_;
    loss_ema_ = a * loss + (1.0 - a) * loss_ema_;
    grad_ema_ = a * grad_norm + (1.0 - a) * grad_ema_;
    slope_ema_ = a * (loss_ema_ - prev_loss_ema) + (1.0 - a) * slope_ema_;
    grad_slope_ema_ =
        a * (grad_ema_ - prev_grad_ema) + (1.0 - a) * grad_slope_ema_;
    const double scale = std::max(std::abs(loss_ema_), 1e-12);
    if (std::abs(slope_ema_) < config_.flat_slope_tol * scale) {
      ++plateau_;
    } else {
      plateau_ = 0;
    }
  }
  last_loss_ = loss;
  ++epochs_;
}

double ConvergenceTracker::relative_improvement() const noexcept {
  if (epochs_ == 0) return 0.0;
  return (first_loss_ - loss_ema_) / std::max(std::abs(first_loss_), 1e-12);
}

bool ConvergenceTracker::stalled() const noexcept {
  return epochs_ >= config_.min_epochs &&
         plateau_ >= config_.stall_epochs &&
         relative_improvement() < config_.min_improvement;
}

FleetHealthMonitor::FleetHealthMonitor(std::size_t fleet_size,
                                       HealthConfig config)
    : config_(config),
      trackers_(fleet_size, ConvergenceTracker(config)),
      drift_(fleet_size, 0.0),
      online_(fleet_size, true),
      have_online_(fleet_size, false),
      churn_flips_(fleet_size, 0) {
  if (fleet_size == 0) {
    throw std::invalid_argument("FleetHealthMonitor: empty fleet");
  }
}

void FleetHealthMonitor::on_epoch(const telemetry::EpochQpuRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.qpu < 0 ||
      static_cast<std::size_t>(record.qpu) >= trackers_.size()) {
    return;
  }
  const auto i = static_cast<std::size_t>(record.qpu);
  trackers_[i].observe(record.loss, record.grad_norm);
  if (have_online_[i] && online_[i] != record.online) ++churn_flips_[i];
  online_[i] = record.online;
  have_online_[i] = true;
}

void FleetHealthMonitor::observe_membership(int qpu, bool online) {
  std::lock_guard<std::mutex> lock(mu_);
  if (qpu < 0 || static_cast<std::size_t>(qpu) >= online_.size()) return;
  const auto i = static_cast<std::size_t>(qpu);
  if (have_online_[i] && online_[i] != online) ++churn_flips_[i];
  online_[i] = online;
  have_online_[i] = true;
}

void FleetHealthMonitor::set_shard_map(std::vector<int> shard_by_qpu) {
  std::lock_guard<std::mutex> lock(mu_);
  shard_map_ = std::move(shard_by_qpu);
}

void FleetHealthMonitor::observe_slo_breach(const std::string& slo_class,
                                            double burn_rate) {
  (void)slo_class;  // per-class detail lives in the SloReport itself
  std::lock_guard<std::mutex> lock(mu_);
  ++slo_breaches_;
  slo_worst_burn_ = std::max(slo_worst_burn_, burn_rate);
}

void FleetHealthMonitor::observe_anomaly(const std::string& series,
                                         const std::string& kind,
                                         double score) {
  std::lock_guard<std::mutex> lock(mu_);
  ++anomalies_;
  if (std::abs(score) >= std::abs(worst_anomaly_score_)) {
    worst_anomaly_score_ = score;
    worst_anomaly_ = series + " " + kind;
  }
}

void FleetHealthMonitor::on_assignment(
    const telemetry::AssignmentRecord& record) {
  (void)record;
  std::lock_guard<std::mutex> lock(mu_);
  ++assignments_;
}

void FleetHealthMonitor::set_baseline(
    const std::vector<core::BehavioralVector>& vectors) {
  std::lock_guard<std::mutex> lock(mu_);
  baseline_ = vectors;
  std::fill(drift_.begin(), drift_.end(), 0.0);
}

void FleetHealthMonitor::observe_calibration(
    const std::vector<core::BehavioralVector>& vectors) {
  std::lock_guard<std::mutex> lock(mu_);
  if (baseline_.empty()) {
    baseline_ = vectors;
    return;
  }
  const std::size_t n =
      std::min({vectors.size(), baseline_.size(), drift_.size()});
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    drift_[i] = core::behavioral_distance(baseline_[i], vectors[i]);
    worst = std::max(worst, drift_[i]);
  }
  // Publish the distances as gauges so the time-series collector (and
  // the watchdog's drift-velocity detector) can follow their trajectory.
  if (telemetry::telemetry_runtime_enabled()) {
    if (drift_max_gauge_ == nullptr) {
      auto& reg = telemetry::MetricsRegistry::global();
      drift_max_gauge_ = &reg.gauge("monitor.fleet.drift.max");
      drift_gauges_.reserve(drift_.size());
      for (std::size_t i = 0; i < drift_.size(); ++i) {
        drift_gauges_.push_back(
            &reg.gauge("monitor.qpu.drift.q" + std::to_string(i)));
      }
    }
    for (std::size_t i = 0; i < n; ++i) drift_gauges_[i]->set(drift_[i]);
    drift_max_gauge_->set(worst);
  }
}

void FleetHealthMonitor::observe_similarity(
    const core::SimilarityGraph& graph, double threshold) {
  SimilarityView view = introspect(graph, threshold);
  std::lock_guard<std::mutex> lock(mu_);
  if (have_similarity_) {
    churn_ = edge_churn(similarity_.edges, view.edges);
  }
  similarity_ = std::move(view);
  have_similarity_ = true;
}

std::size_t FleetHealthMonitor::assignments_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return assignments_;
}

FleetHealthReport FleetHealthMonitor::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetHealthReport rep;
  rep.churn = churn_;
  rep.slo_breaches = slo_breaches_;
  rep.slo_worst_burn = slo_worst_burn_;
  rep.anomalies = anomalies_;
  rep.worst_anomaly = worst_anomaly_;
  rep.worst_anomaly_score = worst_anomaly_score_;
  rep.qpus.reserve(trackers_.size());
  for (std::size_t i = 0; i < trackers_.size(); ++i) {
    const ConvergenceTracker& t = trackers_[i];
    QpuHealth h;
    h.qpu = static_cast<int>(i);
    h.epochs = t.epochs();
    h.loss = t.last_loss();
    h.loss_ema = t.loss_ema();
    h.loss_slope = t.loss_slope();
    h.improvement = t.relative_improvement();
    h.grad_norm_ema = t.grad_norm_ema();
    h.grad_norm_slope = t.grad_norm_slope();
    h.drift = drift_[i];
    h.online = online_[i];
    h.churn_flips = churn_flips_[i];
    if (i < shard_map_.size()) h.shard = shard_map_[i];
    const bool in_graph = have_similarity_ && i < similarity_.degree.size();
    if (in_graph) {
      h.degree = similarity_.degree[i];
      h.group = similarity_.group[i];
      h.group_size = similarity_.group_size[i];
    }
    if (t.stalled()) {
      h.status = QpuStatus::kStalled;
    } else if (h.drift > config_.drift_threshold) {
      h.status = QpuStatus::kDrifting;
    } else if (in_graph && similarity_.n > 1 && h.degree == 0) {
      h.status = QpuStatus::kIsolated;
    }
    switch (h.status) {
      case QpuStatus::kHealthy: ++rep.healthy; break;
      case QpuStatus::kDrifting: ++rep.drifting; break;
      case QpuStatus::kStalled: ++rep.stalled; break;
      case QpuStatus::kIsolated: ++rep.isolated; break;
    }
    rep.qpus.push_back(h);
  }
  return rep;
}

std::string FleetHealthReport::to_table_string() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%4s %5s %-9s %6s %10s %10s %11s %8s %10s %6s %6s %6s\n",
                "qpu", "shard", "status", "epochs", "loss", "loss_ema",
                "slope", "improve", "drift", "deg", "group", "flips");
  out += buf;
  for (const QpuHealth& h : qpus) {
    std::snprintf(buf, sizeof buf,
                  "%4d %5d %-9s %6d %10.4f %10.4f %11.2e %7.1f%% %10.2e "
                  "%6d %6d %6d\n",
                  h.qpu, h.shard, status_name(h.status).c_str(), h.epochs,
                  h.loss, h.loss_ema, h.loss_slope, 100.0 * h.improvement,
                  h.drift, h.degree, h.group, h.churn_flips);
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "fleet: %zu healthy, %zu drifting, %zu stalled, "
                "%zu isolated | edge churn +%zu -%zu (kept %zu)"
                " | slo breaches %zu (worst burn %.2f)"
                " | anomalies %zu%s%s\n",
                healthy, drifting, stalled, isolated, churn.added.size(),
                churn.removed.size(), churn.kept, slo_breaches,
                slo_worst_burn, anomalies,
                worst_anomaly.empty() ? "" : " worst ",
                worst_anomaly.c_str());
  out += buf;
  return out;
}

std::string FleetHealthReport::to_jsonl() const {
  std::string out;
  for (const QpuHealth& h : qpus) {
    out += report::JsonLine()
               .field("type", "health")
               .field("qpu", h.qpu)
               .field("status", status_name(h.status))
               .field("epochs", h.epochs)
               .field("loss", h.loss)
               .field("loss_ema", h.loss_ema)
               .field("loss_slope", h.loss_slope)
               .field("improvement", h.improvement)
               .field("grad_norm_ema", h.grad_norm_ema)
               .field("grad_norm_slope", h.grad_norm_slope)
               .field("drift", h.drift)
               .field("degree", h.degree)
               .field("group", h.group)
               .field("group_size", h.group_size)
               .field("online", h.online)
               .field("churn_flips", h.churn_flips)
               .field("shard", h.shard)
               .finish() +
           "\n";
  }
  out += report::JsonLine()
             .field("type", "health_summary")
             .field("healthy", static_cast<std::uint64_t>(healthy))
             .field("drifting", static_cast<std::uint64_t>(drifting))
             .field("stalled", static_cast<std::uint64_t>(stalled))
             .field("isolated", static_cast<std::uint64_t>(isolated))
             .field("edges_added",
                    static_cast<std::uint64_t>(churn.added.size()))
             .field("edges_removed",
                    static_cast<std::uint64_t>(churn.removed.size()))
             .field("edges_kept", static_cast<std::uint64_t>(churn.kept))
             .field("slo_breaches", static_cast<std::uint64_t>(slo_breaches))
             .field("slo_worst_burn", slo_worst_burn)
             .field("anomalies", static_cast<std::uint64_t>(anomalies))
             .field("worst_anomaly", worst_anomaly)
             .field("worst_anomaly_score", worst_anomaly_score)
             .finish() +
         "\n";
  return out;
}

}  // namespace arbiterq::monitor
