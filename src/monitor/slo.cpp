#include "arbiterq/monitor/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "arbiterq/report/jsonl.hpp"

namespace arbiterq::monitor {

namespace {

SloClass class_at(std::size_t i) { return static_cast<SloClass>(i); }

}  // namespace

std::string slo_class_name(SloClass cls) {
  switch (cls) {
    case SloClass::kLatencyBound:
      return "latency_bound";
    case SloClass::kThroughputBound:
      return "throughput_bound";
    case SloClass::kBestEffort:
      return "best_effort";
  }
  throw std::logic_error("slo_class_name: unknown class");
}

SloPolicy SloPolicy::defaults() {
  SloPolicy p;
  p.objectives[static_cast<std::size_t>(SloClass::kLatencyBound)] = {5'000.0,
                                                                     0.01};
  p.objectives[static_cast<std::size_t>(SloClass::kThroughputBound)] = {
      50'000.0, 0.05};
  p.objectives[static_cast<std::size_t>(SloClass::kBestEffort)] = {0.0, 0.10};
  return p;
}

SloEngine::SloEngine(SloPolicy policy, FleetHealthMonitor* monitor)
    : policy_(policy), monitor_(monitor) {
  if (policy_.window_jobs == 0) {
    throw std::invalid_argument("SloEngine: window_jobs must be > 0");
  }
  for (const SloObjective& o : policy_.objectives) {
    if (o.error_budget <= 0.0 || o.error_budget > 1.0) {
      throw std::invalid_argument("SloEngine: error_budget outside (0, 1]");
    }
  }
  auto& reg = telemetry::MetricsRegistry::global();
  for (std::size_t i = 0; i < kNumSloClasses; ++i) {
    const std::string name = slo_class_name(class_at(i));
    class_counters_[i] = {&reg.counter("slo.jobs." + name),
                          &reg.counter("slo.violations." + name),
                          &reg.counter("slo.breaches." + name)};
  }
}

void SloEngine::observe_job(SloClass cls, double virtual_latency_us,
                            bool ok, int shard, const std::string& tenant) {
  const auto ci = static_cast<std::size_t>(cls);
  if (ci >= kNumSloClasses) {
    throw std::invalid_argument("SloEngine: unknown class");
  }
  const SloObjective& obj = policy_.objectives[ci];
  const bool violation =
      !ok ||
      (obj.latency_target_us > 0.0 && virtual_latency_us > obj.latency_target_us);

  SloBreach breach;
  bool breached = false;
  telemetry::Counter* shard_jobs = nullptr;
  telemetry::Counter* shard_violations = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ClassState& st = state_[ci];
    ++st.jobs;
    ++st.window_jobs;
    if (violation) {
      ++st.violations;
      ++st.window_violations;
    }
    if (shard >= 0) {
      const auto si = static_cast<std::size_t>(shard);
      if (si >= shard_state_.size()) {
        // New shard rows resolve their counters here, once.
        auto& reg = telemetry::MetricsRegistry::global();
        for (std::size_t s = shard_state_.size(); s <= si; ++s) {
          const std::string sname = "shard" + std::to_string(s);
          shard_state_.push_back({0, 0, &reg.counter("slo.jobs." + sname),
                                  &reg.counter("slo.violations." + sname)});
        }
      }
      ShardState& ss = shard_state_[si];
      ++ss.jobs;
      if (violation) ++ss.violations;
      shard_jobs = ss.jobs_counter;
      shard_violations = ss.violations_counter;
    }
    if (!tenant.empty()) {
      ShardState& ts = tenant_state_[tenant];
      ++ts.jobs;
      if (violation) ++ts.violations;
    }
    if (st.window_jobs >= policy_.window_jobs) {
      const double burn =
          (static_cast<double>(st.window_violations) /
           static_cast<double>(st.window_jobs)) /
          obj.error_budget;
      if (burn > policy_.breach_burn_rate) {
        breach.cls = cls;
        breach.window_index = st.windows_closed;
        breach.window_jobs = st.window_jobs;
        breach.violations = st.window_violations;
        breach.burn_rate = burn;
        breaches_.push_back(breach);
        ++st.breaches;
        breached = true;
      }
      ++st.windows_closed;
      st.window_jobs = 0;
      st.window_violations = 0;
    }
  }

  if (telemetry::telemetry_runtime_enabled()) {
    const ClassCounters& cc = class_counters_[ci];
    cc.jobs->add(1);
    if (violation) cc.violations->add(1);
    if (breached) cc.breaches->add(1);
    if (shard_jobs != nullptr) {
      shard_jobs->add(1);
      if (violation) shard_violations->add(1);
    }
  }
  if (breached && monitor_ != nullptr) {
    monitor_->observe_slo_breach(slo_class_name(cls), breach.burn_rate);
  }
}

SloReport SloEngine::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  SloReport rep;
  rep.classes.reserve(kNumSloClasses);
  for (std::size_t i = 0; i < kNumSloClasses; ++i) {
    const ClassState& st = state_[i];
    const SloObjective& obj = policy_.objectives[i];
    SloClassReport c;
    c.cls = class_at(i);
    c.objective = obj;
    c.jobs = st.jobs;
    c.violations = st.violations;
    c.breaches = st.breaches;
    if (st.jobs > 0) {
      const double rate = static_cast<double>(st.violations) /
                          static_cast<double>(st.jobs);
      c.compliance = 1.0 - rate;
      c.overall_burn = rate / obj.error_budget;
    }
    if (st.window_jobs > 0) {
      c.window_burn = (static_cast<double>(st.window_violations) /
                       static_cast<double>(st.window_jobs)) /
                      obj.error_budget;
    }
    rep.classes.push_back(c);
  }
  for (std::size_t s = 0; s < shard_state_.size(); ++s) {
    const ShardState& st = shard_state_[s];
    if (st.jobs == 0) continue;
    SloShardReport sh;
    sh.shard = static_cast<int>(s);
    sh.jobs = st.jobs;
    sh.violations = st.violations;
    sh.compliance = 1.0 - static_cast<double>(st.violations) /
                              static_cast<double>(st.jobs);
    rep.shards.push_back(sh);
  }
  for (const auto& [name, st] : tenant_state_) {
    if (st.jobs == 0) continue;
    SloTenantReport t;
    t.tenant = name;
    t.jobs = st.jobs;
    t.violations = st.violations;
    t.compliance = 1.0 - static_cast<double>(st.violations) /
                             static_cast<double>(st.jobs);
    rep.tenants.push_back(t);
  }
  rep.breaches = breaches_;
  return rep;
}

double SloEngine::burn_rate_from_histogram(
    const telemetry::HistogramSnapshot& histogram,
    const SloObjective& objective) {
  if (objective.latency_target_us <= 0.0 || histogram.count == 0) return 0.0;
  const double target = objective.latency_target_us;
  // Count observations above the target: whole buckets strictly above
  // it, plus a linear share of the bucket the target falls in. Bucket b
  // covers (lower, upper_bounds[b]] with lower = previous bound (or 0).
  double above = 0.0;
  double lower = 0.0;
  for (std::size_t b = 0; b < histogram.bucket_counts.size(); ++b) {
    const double n = static_cast<double>(histogram.bucket_counts[b]);
    const bool overflow = b >= histogram.upper_bounds.size();
    const double upper =
        overflow ? lower : histogram.upper_bounds[b];
    if (overflow) {
      // Overflow bucket: everything in it is above any finite bound
      // <= the highest finite bound; a target beyond that cannot be
      // resolved, so attribute the whole bucket when target <= lower.
      if (target <= lower) above += n;
      break;
    }
    if (target <= lower) {
      above += n;
    } else if (target < upper) {
      above += n * (upper - target) / (upper - lower);
    }
    lower = upper;
  }
  const double fraction = above / static_cast<double>(histogram.count);
  return fraction / objective.error_budget;
}

std::string SloReport::to_table_string() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-17s %10s %8s %6s %9s %8s %8s %8s\n",
                "class", "target_us", "budget", "jobs", "violate",
                "comply", "burn", "breach");
  out += buf;
  for (const SloClassReport& c : classes) {
    std::snprintf(buf, sizeof buf,
                  "%-17s %10.0f %7.1f%% %6zu %9zu %7.1f%% %8.2f %8zu\n",
                  slo_class_name(c.cls).c_str(), c.objective.latency_target_us,
                  100.0 * c.objective.error_budget, c.jobs, c.violations,
                  100.0 * c.compliance, c.overall_burn, c.breaches);
    out += buf;
  }
  for (const SloShardReport& s : shards) {
    std::snprintf(buf, sizeof buf,
                  "shard %-3d %6zu jobs %6zu violations %7.1f%% comply\n",
                  s.shard, s.jobs, s.violations, 100.0 * s.compliance);
    out += buf;
  }
  for (const SloTenantReport& t : tenants) {
    std::snprintf(buf, sizeof buf,
                  "tenant %-16s %6zu jobs %6zu violations %7.1f%% comply\n",
                  t.tenant.c_str(), t.jobs, t.violations,
                  100.0 * t.compliance);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "slo: %zu breach window(s) recorded\n",
                breaches.size());
  out += buf;
  return out;
}

std::string SloReport::to_jsonl() const {
  std::string out;
  for (const SloClassReport& c : classes) {
    out += report::JsonLine()
               .field("type", "slo")
               .field("class", slo_class_name(c.cls))
               .field("latency_target_us", c.objective.latency_target_us)
               .field("error_budget", c.objective.error_budget)
               .field("jobs", static_cast<std::uint64_t>(c.jobs))
               .field("violations", static_cast<std::uint64_t>(c.violations))
               .field("compliance", c.compliance)
               .field("overall_burn", c.overall_burn)
               .field("window_burn", c.window_burn)
               .field("breaches", static_cast<std::uint64_t>(c.breaches))
               .finish() +
           "\n";
  }
  for (const SloShardReport& s : shards) {
    out += report::JsonLine()
               .field("type", "slo_shard")
               .field("shard", s.shard)
               .field("jobs", static_cast<std::uint64_t>(s.jobs))
               .field("violations", static_cast<std::uint64_t>(s.violations))
               .field("compliance", s.compliance)
               .finish() +
           "\n";
  }
  for (const SloTenantReport& t : tenants) {
    out += report::JsonLine()
               .field("type", "slo_tenant")
               .field("tenant", t.tenant)
               .field("jobs", static_cast<std::uint64_t>(t.jobs))
               .field("violations", static_cast<std::uint64_t>(t.violations))
               .field("compliance", t.compliance)
               .finish() +
           "\n";
  }
  for (const SloBreach& b : breaches) {
    out += report::JsonLine()
               .field("type", "slo_breach")
               .field("class", slo_class_name(b.cls))
               .field("window", static_cast<std::uint64_t>(b.window_index))
               .field("window_jobs",
                      static_cast<std::uint64_t>(b.window_jobs))
               .field("violations", static_cast<std::uint64_t>(b.violations))
               .field("burn_rate", b.burn_rate)
               .finish() +
           "\n";
  }
  return out;
}

}  // namespace arbiterq::monitor
