#include "arbiterq/math/dft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "arbiterq/math/rng.hpp"

namespace arbiterq::math {
namespace {

TEST(Nudft, DcBinIsSum) {
  const std::vector<double> pos = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> val = {1.0, 2.0, 3.0, 4.0};
  const auto f = nudft(pos, val, 2);
  EXPECT_NEAR(f[0].real(), 10.0, 1e-12);
  EXPECT_NEAR(f[0].imag(), 0.0, 1e-12);
}

TEST(Nudft, SizeMismatchThrows) {
  EXPECT_THROW(nudft({0.0, 1.0}, {1.0}, 2), std::invalid_argument);
  EXPECT_THROW(nudft({}, {}, 2), std::invalid_argument);
}

TEST(Nudft, ZeroSpanThrows) {
  EXPECT_THROW(nudft({1.0, 1.0}, {1.0, 2.0}, 2), std::invalid_argument);
}

TEST(Nudft, MatchesAnalyticSingleTone) {
  // values = cos(2*pi*f0*x/span) sampled uniformly: bin f0 dominates.
  const std::size_t n = 32;
  const double span = 8.0;
  const int f0 = 3;
  std::vector<double> pos(n);
  std::vector<double> val(n);
  for (std::size_t j = 0; j < n; ++j) {
    pos[j] = span * static_cast<double>(j) / static_cast<double>(n - 1);
    val[j] = std::cos(2.0 * std::numbers::pi * f0 * pos[j] / span);
  }
  const auto f = nudft(pos, val, n / 2);
  double best = 0.0;
  std::size_t best_k = 0;
  for (std::size_t k = 1; k < f.size(); ++k) {
    if (std::abs(f[k]) > best) {
      best = std::abs(f[k]);
      best_k = k;
    }
  }
  EXPECT_EQ(best_k, static_cast<std::size_t>(f0));
}

/// The textbook direct sum over raw positions, n K sin/cos pairs: the
/// reference for nudft's offset-and-recurrence evaluation.
std::vector<std::complex<double>> direct_nudft(const std::vector<double>& pos,
                                               const std::vector<double>& val,
                                               std::size_t num_bins) {
  const auto [lo, hi] = std::minmax_element(pos.begin(), pos.end());
  const double base = 2.0 * std::numbers::pi / (*hi - *lo);
  std::vector<std::complex<double>> out(num_bins);
  for (std::size_t k = 0; k < num_bins; ++k) {
    for (std::size_t j = 0; j < pos.size(); ++j) {
      const double phase = -base * static_cast<double>(k) * pos[j];
      out[k] += val[j] * std::complex<double>(std::cos(phase),
                                              std::sin(phase));
    }
  }
  return out;
}

std::size_t argmax_from_1(const std::vector<std::complex<double>>& f) {
  std::size_t best = 1;
  for (std::size_t k = 2; k < f.size(); ++k) {
    if (std::abs(f[k]) > std::abs(f[best])) best = k;
  }
  return best;
}

TEST(Nudft, RecurrenceMatchesDirectSum) {
  // MDS-like irregular positions with a nonzero minimum and noisy model
  // values, n bins as the torus builder asks, 6 to 1024 samples (past
  // several 64-bin reseeds).
  for (std::size_t n : {6U, 10U, 37U, 64U, 65U, 256U, 1000U, 1024U}) {
    SCOPED_TRACE(n);
    Rng rng(n);
    std::vector<double> pos(n), val(n);
    for (std::size_t j = 0; j < n; ++j) {
      pos[j] = rng.uniform(-0.3, 0.7);
      val[j] = std::sin(9.0 * pos[j]) + rng.normal(0.0, 0.5);
    }
    const auto got = nudft(pos, val, n);
    const auto want = direct_nudft(pos, val, n);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(argmax_from_1(got), argmax_from_1(want));
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_LE(std::abs(std::abs(got[k]) - std::abs(want[k])),
                1e-9 * std::abs(want[k]))
          << "bin " << k;
    }
  }
}

TEST(DominantCycle, FindsPeriodOfTone) {
  const std::size_t n = 40;
  const double span = 10.0;
  const int f0 = 4;
  std::vector<double> pos(n);
  std::vector<double> val(n);
  for (std::size_t j = 0; j < n; ++j) {
    pos[j] = span * static_cast<double>(j) / static_cast<double>(n - 1);
    val[j] = std::sin(2.0 * std::numbers::pi * f0 * pos[j] / span);
  }
  const DominantCycle c = dominant_cycle(pos, val);
  EXPECT_EQ(c.frequency_index, static_cast<std::size_t>(f0));
  EXPECT_NEAR(c.period, span / f0, 1e-9);
  EXPECT_GT(c.magnitude, 0.0);
}

TEST(DominantCycle, NonUniformSamplingStillFindsTone) {
  // Irregular positions (the MDS output is irregular): period recovery
  // must survive.
  const std::vector<double> pos = {0.0, 0.3, 1.1, 1.9, 2.6, 3.3,
                                   4.2, 5.0, 5.8, 6.7, 7.5, 8.0};
  const double span = 8.0;
  const int f0 = 2;
  std::vector<double> val;
  val.reserve(pos.size());
  for (double p : pos) {
    val.push_back(std::cos(2.0 * std::numbers::pi * f0 * p / span));
  }
  const DominantCycle c = dominant_cycle(pos, val, 6);
  EXPECT_EQ(c.frequency_index, static_cast<std::size_t>(f0));
}

TEST(DominantCycle, TooFewBinsThrows) {
  EXPECT_THROW(dominant_cycle({0.0}, {1.0}, 1), std::invalid_argument);
}

TEST(DominantCycle, ExcludesDcBin) {
  // A constant signal has all its energy at k=0; the dominant cycle must
  // still pick a k >= 1.
  const std::vector<double> pos = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> val = {5.0, 5.0, 5.0, 5.0};
  const DominantCycle c = dominant_cycle(pos, val);
  EXPECT_GE(c.frequency_index, 1U);
}

}  // namespace
}  // namespace arbiterq::math
