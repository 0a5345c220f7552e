#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include "arbiterq/math/rng.hpp"
#include "arbiterq/sim/kernels.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double exact_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The 1e-9 keeps q * n from rounding one rank up (0.99 * 1000).
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * n - 1e-9)));
  return samples[std::min(rank, samples.size()) - 1];
}

double tail_level(std::size_t n) {
  if (n < 20) return 0.5;
  const double nn = static_cast<double>(n);
  return std::min(0.99, (nn - 10.0) / nn);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Arrival> poisson_schedule(const data::EncodedSplit& split,
                                      std::uint64_t seed, std::size_t jobs,
                                      double rate_per_s) {
  arbiterq::math::Rng rng =
      arbiterq::math::Rng(seed).split("perfbench/poisson");
  std::vector<Arrival> out;
  out.reserve(jobs);
  double t_us = 0.0;
  for (std::size_t i = 0; i < jobs; ++i) {
    t_us += -std::log1p(-rng.uniform()) / rate_per_s * 1e6;
    const std::size_t k = rng.uniform_int(split.test_features.size());
    Arrival a;
    a.due_us = t_us;
    a.spec.features = split.test_features[k];
    a.spec.label = split.test_labels[k];
    a.spec.arrival_us = t_us;
    out.push_back(std::move(a));
  }
  return out;
}

serve::TrafficConfig bursty_mix(std::uint64_t seed, double duration_s,
                                double capacity_jobs_s) {
  serve::TrafficConfig cfg;
  cfg.pattern = serve::TrafficPattern::kBursty;
  cfg.duration_s = duration_s;
  cfg.seed = seed;
  cfg.feature_dim = 2;
  // Mean of the bursty envelope relative to the base rate: `duty` of each
  // cycle at burst_multiplier, the rest at burst_idle_multiplier. Base
  // rates are scaled so the offered load averages a quarter of capacity;
  // inside a burst it is 4x that, at capacity, and Poisson clumps push
  // past it.
  const double envelope = cfg.burst_duty * cfg.burst_multiplier +
                          (1.0 - cfg.burst_duty) * cfg.burst_idle_multiplier;
  const double base = capacity_jobs_s / 4.0 / envelope;

  serve::TenantProfile flood;
  flood.name = "flood";
  flood.weight = 1.0;
  flood.slo_class = arbiterq::monitor::SloClass::kBestEffort;
  flood.rate_per_s = 0.35 * base;
  flood.admit_rate_per_s = 0.5 * 0.35 * base * envelope;
  flood.admit_burst = 8.0;

  serve::TenantProfile bulk;
  bulk.name = "bulk";
  bulk.weight = 2.0;
  bulk.slo_class = arbiterq::monitor::SloClass::kThroughputBound;
  bulk.rate_per_s = 0.35 * base;

  cfg.tenants = {flood, bulk};
  for (const char* name : {"int0", "int1"}) {
    serve::TenantProfile inter;
    inter.name = name;
    inter.weight = 8.0;
    inter.slo_class = arbiterq::monitor::SloClass::kLatencyBound;
    inter.rate_per_s = 0.15 * base;
    inter.shots = 64;
    inter.max_in_flight = 64;
    cfg.tenants.push_back(inter);
  }
  return cfg;
}

std::vector<Arrival> traffic_schedule(const serve::TrafficConfig& config) {
  serve::TrafficGenerator gen(config);
  std::vector<Arrival> out;
  while (auto job = gen.next()) {
    Arrival a;
    a.due_us = job->arrival_us;
    a.spec = std::move(job->spec);
    out.push_back(std::move(a));
  }
  return out;
}

namespace {

template <typename T>
void put(std::string* out, const T& v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

}  // namespace

std::string schedule_bytes(const std::vector<Arrival>& schedule) {
  std::string out;
  for (const Arrival& a : schedule) {
    put(&out, a.due_us);
    put(&out, a.spec.features.size());
    for (double f : a.spec.features) put(&out, f);
    put(&out, a.spec.label);
    put(&out, static_cast<int>(a.spec.priority));
    put(&out, a.spec.deadline_us);
    put(&out, a.spec.tenant.size());
    out += a.spec.tenant;
    put(&out, static_cast<int>(a.spec.slo_class));
    put(&out, a.spec.shots);
    put(&out, a.spec.arrival_us);
  }
  return out;
}

std::string host_json(const std::string& git_sha) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string safe;
  for (char c : cpu) {
    if (c != '"' && c != '\\') safe += c;
  }
  namespace sim = arbiterq::sim::kernels;
  return "{\"cpu\": \"" + safe + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd\": \"" + sim::arch_name(sim::active_arch()) +
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"git_sha\": \"" +
         git_sha + "\"}";
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"data.prepare_s", "s"},
      {"qnn.compile_s", "s"},
      {"core.vectorize_s", "s"},
      {"core.torus_build_s", "s"},
      {"math.mds_s", "s"},
      {"serve.runtime_ctor_s", "s"},
      {"core.train_epoch_s", "s"},
      {"qnn.loss_gradient_ms", "ms"},
      {"qnn.dataset_loss_ms", "ms"},
      {"exec.parallel_efficiency", "ratio"},
      {"qnn.grad.calls_per_epoch", "count"},
      {"sim.plan.batched_columns_per_epoch", "count"},
      {"exec.pool.tasks_per_epoch", "count"},
      {"qnn.sampled_probability_us", "us"},
      {"serve.submit_p50_us", "us"},
      {"serve.submit_p99_us", "us"},
      {"serve.admit_jobs_s", "1/s"},
      {"serve.batch.wait_self_p50_us", "us"},
      {"serve.batch.wait_self_p99_us", "us"},
      {"serve.batch.exec_self_p50_us", "us"},
      {"serve.batch.exec_self_p99_us", "us"},
      {"serve.shard.lock_wait_ms", "ms"},
      {"serve.shard.lock_contentions", "count"},
      {"serve.shard.mailbox_full_spins", "count"},
      {"serve.shard.cross_shard_out", "count"},
      {"serve.shard.reserve_rejects", "count"},
      {"serve.shard.doorbell_backstops", "count"},
      {"serve.shard.doorbell_wakeups", "count"},
      {"serve.retries", "count"},
      {"serve.repartitions", "count"},
      {"serve.rejected.quota", "count"},
      {"serve.rejected.throttled", "count"},
      {"serve.error_ratio", "ratio"},
      {"serve.batches_per_job", "count"},
      {"serve.qpu_busy_imbalance", "ratio"},
      {"gen.lateness_p50_us", "us"},
      {"gen.lateness_p99_us", "us"},
      {"trace.overhead_ratio", "ratio"},
      {"latency_wall_p50_ms", "ms"},
      {"latency_wall_p90_ms", "ms"},
      {"latency_tail_ms", "ms"},
  };
  return defs;
}

}  // namespace perfbench
