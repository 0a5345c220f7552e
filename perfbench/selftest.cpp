// Self-tests of the benchmark's helpers: exact quantiles against a
// brute-force definition, and seeded arrival schedules (same seed, same
// bytes; another seed, other bytes). run.py runs this before every
// workload and also checks the emitted metric names against
// BENCHMARK.json.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "arbiterq/math/rng.hpp"
#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// The definition, evaluated by brute force: the smallest sample x such
/// that at least ceil(q * n) samples are <= x.
double brute_quantile(const std::vector<double>& xs, double q) {
  const auto need = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(xs.size()) - 1e-9)));
  double best = std::numeric_limits<double>::quiet_NaN();
  for (double x : xs) {
    std::size_t le = 0;
    for (double y : xs) le += y <= x ? 1 : 0;
    if (le >= need && !(x >= best)) best = x;
  }
  return best;
}

void test_quantiles() {
  arbiterq::math::Rng rng(2024);
  const double levels[] = {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(300);
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      // Coarse values force ties; a few +inf stand for refused jobs.
      const double u = rng.uniform();
      xs.push_back(u < 0.03 ? INFINITY
                            : std::floor(rng.uniform(0.0, 50.0)) * 0.5);
    }
    for (double q : levels) {
      const double a = perfbench::exact_quantile(xs, q);
      const double b = brute_quantile(xs, q);
      expect(a == b, "exact_quantile n=" + std::to_string(n) +
                         " q=" + std::to_string(q));
    }
  }
  expect(std::isnan(perfbench::exact_quantile({}, 0.5)), "empty quantile");
  expect(perfbench::exact_quantile({1, 2, 3, 4}, 0.5) == 2.0,
         "nearest-rank median of 4");
  expect(perfbench::median({1, 2, 3, 4}) == 2.5, "median of 4");
  // 0.99 * 1000 must not round up to rank 991.
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  expect(perfbench::exact_quantile(ramp, 0.99) == 990.0, "p99 of 1..1000");
}

void test_tail_level() {
  expect(perfbench::tail_level(10) == 0.5, "tail level, too few samples");
  expect(perfbench::tail_level(1000) == 0.99, "tail level caps at p99");
  for (std::size_t n = 20; n < 3000; n += 7) {
    const double q = perfbench::tail_level(n);
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    expect(n - rank >= 10, "ten samples beyond the tail, n=" +
                               std::to_string(n));
  }
}

void test_schedules() {
  arbiterq::data::EncodedSplit split;
  for (int i = 0; i < 8; ++i) {
    split.test_features.push_back({0.1 * i, 0.2 * i});
    split.test_labels.push_back(i % 2);
  }
  using perfbench::schedule_bytes;
  const auto p1 = schedule_bytes(perfbench::poisson_schedule(split, 1, 500, 1000));
  const auto p1b = schedule_bytes(perfbench::poisson_schedule(split, 1, 500, 1000));
  const auto p2 = schedule_bytes(perfbench::poisson_schedule(split, 2, 500, 1000));
  expect(!p1.empty() && p1 == p1b, "poisson schedule: same seed, same bytes");
  expect(p1 != p2, "poisson schedule: other seed, other bytes");

  const auto t1 = schedule_bytes(perfbench::traffic_schedule(perfbench::bursty_mix(1, 0.5, 3000)));
  const auto t1b = schedule_bytes(perfbench::traffic_schedule(perfbench::bursty_mix(1, 0.5, 3000)));
  const auto t2 = schedule_bytes(perfbench::traffic_schedule(perfbench::bursty_mix(2, 0.5, 3000)));
  expect(!t1.empty() && t1 == t1b, "bursty schedule: same seed, same bytes");
  expect(t1 != t2, "bursty schedule: other seed, other bytes");
}

}  // namespace

int main() {
  test_quantiles();
  test_tail_level();
  test_schedules();
  if (failures == 0) std::printf("perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
