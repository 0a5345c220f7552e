#pragma once
// Helpers shared by the benchmark program (main.cpp) and its self-test
// (selftest.cpp): exact sample quantiles, seeded arrival schedules, the
// host fingerprint, and the metric tables BENCHMARK.json mirrors.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/serve/runtime.hpp"
#include "arbiterq/serve/trafficgen.hpp"

namespace perfbench {

namespace data = arbiterq::data;
namespace serve = arbiterq::serve;

/// Monotonic seconds (steady_clock).
double now_s();

/// Nearest-rank quantile of `samples` (+inf allowed: a refused or failed
/// job is a sample that never met any limit): the smallest sample x with
/// at least ceil(q * n) samples <= x. q in (0, 1]; NaN on an empty set.
double exact_quantile(std::vector<double> samples, double q);

/// Highest quantile level with at least ten samples beyond it, capped at
/// 0.99 (0.5 when fewer than twenty samples exist).
double tail_level(std::size_t n);

/// Middle sample, or the mean of the middle two (statistics.median).
double median(std::vector<double> samples);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// One arrival of an open-loop schedule: when it is due (us from the
/// start of the loop) and the job to submit.
struct Arrival {
  double due_us = 0.0;
  serve::JobSpec spec;
};

/// serve-mnist arrivals: `jobs` Poisson arrivals at `rate_per_s`, each
/// carrying a test sample drawn from `split`. Pure function of its
/// arguments.
std::vector<Arrival> poisson_schedule(const data::EncodedSplit& split,
                                      std::uint64_t seed, std::size_t jobs,
                                      double rate_per_s);

/// fleet256-bursty tenant mix for a fleet whose staged capacity is about
/// `capacity_jobs_s`: a throttled best-effort flood, a throughput-bound
/// bulk tenant and two latency-bound interactive tenants with an
/// in-flight cap, on a bursty envelope averaging ~1/3 of capacity.
serve::TrafficConfig bursty_mix(std::uint64_t seed, double duration_s,
                                double capacity_jobs_s);

/// The generator's stream for `config` as open-loop arrivals.
std::vector<Arrival> traffic_schedule(const serve::TrafficConfig& config);

/// Byte serialization of a schedule (due times, specs) for identity
/// checks.
std::string schedule_bytes(const std::vector<Arrival>& schedule);

/// Host fingerprint as a JSON object: CPU model, nproc, SIMD arm, build
/// type, git sha.
std::string host_json(const std::string& git_sha);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics printed with --trace 0 (every workload prints all of them).
const std::vector<MetricDef>& end_to_end_metrics();
/// Metrics printed with --trace 1.
const std::vector<MetricDef>& per_layer_metrics();

}  // namespace perfbench
