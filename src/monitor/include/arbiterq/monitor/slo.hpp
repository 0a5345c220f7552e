#pragma once
// SLO engine for the fleet serving path: per-class latency objectives,
// windowed burn-rate computation, and breach events.
//
// Jobs are served under one of three service classes (the ROADMAP's
// multi-tenant QoS taxonomy):
//
//   latency-bound    — tight virtual-latency target, small error budget
//                      (interactive inference);
//   throughput-bound — loose latency target, larger budget (bulk
//                      scoring: finishing matters, tail latency less);
//   best-effort      — success-only objective, widest budget.
//
// A job *violates* its objective when it did not complete ok, or when
// its modeled (virtual) latency exceeds the class target. The engine
// rolls observations into fixed-size windows per class and computes the
// *burn rate* each time a window closes:
//
//   burn = (violations / window_jobs) / error_budget
//
// burn == 1 means the class is consuming its error budget exactly as
// fast as allowed; burn > breach_burn_rate closes the window as a
// breach: an SloBreach event is appended to the report, counters fire,
// and the FleetHealthMonitor (when attached) tallies it — this is the
// substrate the ROADMAP's pluggable arbiters will be judged against.
//
// Latencies are *modeled* hardware time, so every number the engine
// produces from a seeded serving run is deterministic.
//
// burn_rate_from_histogram() computes the same quantity over an
// exported `serve.job.*` HistogramSnapshot (cumulative-bucket
// interpolation at the target bound) so a scrape-side consumer can
// derive burn from /metrics without per-job hooks.

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "arbiterq/monitor/health.hpp"
#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::monitor {

enum class SloClass { kLatencyBound = 0, kThroughputBound = 1, kBestEffort = 2 };
inline constexpr std::size_t kNumSloClasses = 3;

/// Stable snake_case name ("latency_bound", ...), used as a metric-name
/// suffix and in reports.
std::string slo_class_name(SloClass cls);

struct SloObjective {
  /// Virtual-latency target (us); a completed job complies when its
  /// virtual latency is <= this. <= 0 disables the latency term — the
  /// objective is success-only.
  double latency_target_us = 0.0;
  /// Allowed fraction of violating jobs (the error budget), in (0, 1].
  double error_budget = 0.05;
};

struct SloPolicy {
  std::array<SloObjective, kNumSloClasses> objectives;  ///< by SloClass
  /// Observations per burn-rate window (per class).
  std::size_t window_jobs = 64;
  /// A closed window whose burn exceeds this is a breach.
  double breach_burn_rate = 1.0;

  /// latency-bound 5ms @ 1%, throughput-bound 50ms @ 5%, best-effort
  /// success-only @ 10%.
  static SloPolicy defaults();
};

/// One breached window.
struct SloBreach {
  SloClass cls = SloClass::kBestEffort;
  std::size_t window_index = 0;  ///< per-class, 0-based
  std::size_t window_jobs = 0;
  std::size_t violations = 0;
  double burn_rate = 0.0;
};

struct SloClassReport {
  SloClass cls = SloClass::kBestEffort;
  SloObjective objective;
  std::size_t jobs = 0;
  std::size_t violations = 0;
  double compliance = 1.0;    ///< 1 - violations/jobs (1.0 when idle)
  double overall_burn = 0.0;  ///< lifetime violation rate / budget
  double window_burn = 0.0;   ///< current (possibly partial) window
  std::size_t breaches = 0;
};

/// Per-serving-shard roll-up across all classes (only shards that
/// observed at least one job appear).
struct SloShardReport {
  int shard = -1;
  std::size_t jobs = 0;
  std::size_t violations = 0;
  double compliance = 1.0;  ///< 1 - violations/jobs
};

/// Per-tenant roll-up across all classes (only tenants that observed at
/// least one job appear; jobs observed with an empty tenant stay
/// unattributed).
struct SloTenantReport {
  std::string tenant;
  std::size_t jobs = 0;
  std::size_t violations = 0;
  double compliance = 1.0;  ///< 1 - violations/jobs
};

struct SloReport {
  std::vector<SloClassReport> classes;   ///< all classes, fixed order
  std::vector<SloShardReport> shards;    ///< ascending shard id
  std::vector<SloTenantReport> tenants;  ///< ascending tenant name
  std::vector<SloBreach> breaches;       ///< in detection order

  std::string to_table_string() const;
  /// One {"type":"slo",...} line per class then one {"type":
  /// "slo_breach",...} line per breach.
  std::string to_jsonl() const;
};

/// Thread-safe: observe_job may be driven from serving workers while
/// report() is read from a scrape handler.
class SloEngine {
 public:
  /// `monitor` is optional, non-owning, and must outlive the engine;
  /// each breach is forwarded to it via observe_slo_breach.
  explicit SloEngine(SloPolicy policy = SloPolicy::defaults(),
                     FleetHealthMonitor* monitor = nullptr);

  const SloPolicy& policy() const noexcept { return policy_; }

  /// Record one finished job. `ok` is final-disposition success;
  /// `virtual_latency_us` is the job's modeled latency (ignored for the
  /// compliance test when the class target is disabled). `shard`, when
  /// >= 0, attributes the observation to a serving shard so the report
  /// (and per-shard counters) can localize which slice of the fleet is
  /// burning budget; -1 keeps the observation unsharded. `tenant`, when
  /// non-empty, additionally attributes the observation to a serving
  /// tenant so the multi-tenant QoS report can show who is burning
  /// whose budget.
  void observe_job(SloClass cls, double virtual_latency_us, bool ok,
                   int shard = -1, const std::string& tenant = {});

  SloReport report() const;

  /// Burn rate implied by an exported latency histogram: the fraction
  /// of observations above the objective's target (cumulative buckets,
  /// linear interpolation inside the straddling bucket) divided by the
  /// error budget. Returns 0 for an empty histogram; a disabled
  /// latency target always yields 0 (the histogram carries no success
  /// signal).
  static double burn_rate_from_histogram(
      const telemetry::HistogramSnapshot& histogram,
      const SloObjective& objective);

 private:
  struct ClassState {
    std::size_t jobs = 0;
    std::size_t violations = 0;
    std::size_t window_jobs = 0;
    std::size_t window_violations = 0;
    std::size_t windows_closed = 0;
    std::size_t breaches = 0;
  };

  struct ShardState {
    std::size_t jobs = 0;
    std::size_t violations = 0;
    /// slo.jobs.shard<k> / slo.violations.shard<k>, resolved when
    /// shard_state_ grows (null for tenant rows, which publish none).
    telemetry::Counter* jobs_counter = nullptr;
    telemetry::Counter* violations_counter = nullptr;
  };

  /// slo.{jobs,violations,breaches}.<class>, resolved in the constructor.
  struct ClassCounters {
    telemetry::Counter* jobs = nullptr;
    telemetry::Counter* violations = nullptr;
    telemetry::Counter* breaches = nullptr;
  };

  SloPolicy policy_;
  FleetHealthMonitor* monitor_;
  std::array<ClassCounters, kNumSloClasses> class_counters_;
  mutable std::mutex mu_;
  std::array<ClassState, kNumSloClasses> state_;
  /// Indexed by shard id (grown on demand; shard counts are small).
  std::vector<ShardState> shard_state_;
  /// Keyed by tenant name; ordered so report() rows are stable.
  std::map<std::string, ShardState> tenant_state_;
  std::vector<SloBreach> breaches_;
};

}  // namespace arbiterq::monitor
