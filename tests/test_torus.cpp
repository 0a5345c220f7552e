#include "arbiterq/core/torus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "arbiterq/math/rng.hpp"

namespace arbiterq::core {
namespace {

BehavioralVector bv1(double v) {
  BehavioralVector b;
  b.contextual = {v, v / 2};
  b.topological = {0.0, v / 3};
  return b;
}

struct Fixture {
  std::vector<BehavioralVector> behavioral;
  std::vector<std::vector<double>> models;
};

Fixture make_fleet(std::size_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  Fixture f;
  for (std::size_t i = 0; i < n; ++i) {
    f.behavioral.push_back(bv1(rng.uniform(0.0, 0.05)));
    f.models.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                        rng.uniform(-1.0, 1.0)});
  }
  return f;
}

TEST(TorusDefaults, MatchTableIvCounts) {
  EXPECT_EQ(default_torus_count(1), 1);
  EXPECT_EQ(default_torus_count(3), 1);
  EXPECT_EQ(default_torus_count(6), 2);
  EXPECT_EQ(default_torus_count(8), 2);
  EXPECT_EQ(default_torus_count(10), 3);
}

class TorusPartitionSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TorusPartitionSizes, CoversAllQpusDisjointly) {
  const std::size_t n = GetParam();
  const Fixture f = make_fleet(n, 100 + n);
  const TorusPartition p = build_torus_partition(f.behavioral, f.models);
  std::set<int> seen;
  for (const auto& torus : p.tori) {
    EXPECT_FALSE(torus.empty());
    for (int q : torus) {
      EXPECT_TRUE(seen.insert(q).second) << "duplicate qpu " << q;
      EXPECT_GE(q, 0);
      EXPECT_LT(q, static_cast<int>(n));
    }
  }
  EXPECT_EQ(seen.size(), n);
  EXPECT_EQ(p.tori.size(),
            static_cast<std::size_t>(default_torus_count(n)));
}

TEST_P(TorusPartitionSizes, ChunksNearEqual) {
  const std::size_t n = GetParam();
  const Fixture f = make_fleet(n, 200 + n);
  const TorusPartition p = build_torus_partition(f.behavioral, f.models);
  std::size_t lo = n;
  std::size_t hi = 0;
  for (const auto& t : p.tori) {
    lo = std::min(lo, t.size());
    hi = std::max(hi, t.size());
  }
  EXPECT_LE(hi - lo, 1U);
}

INSTANTIATE_TEST_SUITE_P(FleetSizes, TorusPartitionSizes,
                         ::testing::Values<std::size_t>(3, 6, 8, 10, 13));

TEST(TorusPartition, PhasesInUnitInterval) {
  const Fixture f = make_fleet(10, 7);
  const TorusPartition p = build_torus_partition(f.behavioral, f.models);
  for (double ph : p.phase) {
    EXPECT_GE(ph, 0.0);
    EXPECT_LT(ph, 1.0 + 1e-12);
  }
  EXPECT_GT(p.cycle_period, 0.0);
  EXPECT_GE(p.dominant_frequency, 1U);
}

TEST(TorusPartition, TorusOfFindsMember) {
  const Fixture f = make_fleet(6, 9);
  const TorusPartition p = build_torus_partition(f.behavioral, f.models);
  for (int q = 0; q < 6; ++q) {
    const std::size_t t = p.torus_of(q);
    const auto& members = p.tori[t];
    EXPECT_NE(std::find(members.begin(), members.end(), q), members.end());
  }
  EXPECT_THROW(p.torus_of(99), std::out_of_range);
}

TEST(TorusPartition, ExplicitTorusCountHonored) {
  const Fixture f = make_fleet(9, 11);
  const TorusPartition p =
      build_torus_partition(f.behavioral, f.models, 4);
  EXPECT_EQ(p.tori.size(), 4U);
  EXPECT_THROW(build_torus_partition(f.behavioral, f.models, 10),
               std::invalid_argument);
}

TEST(TorusPartition, InputValidation) {
  Fixture f = make_fleet(4, 13);
  f.models.pop_back();
  EXPECT_THROW(build_torus_partition(f.behavioral, f.models),
               std::invalid_argument);
  EXPECT_THROW(build_torus_partition({}, {}), std::invalid_argument);
}

TEST(TorusPartition, NonFiniteInputsThrow) {
  // One NaN weight would poison every |F[k]| and silently fall back to
  // contiguous chunking; it must be rejected instead.
  Fixture f = make_fleet(64, 29);
  f.models[17][1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(build_torus_partition(f.behavioral, f.models),
               std::invalid_argument);
  f = make_fleet(64, 29);
  f.behavioral[40].topological[1] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(build_torus_partition(f.behavioral, f.models),
               std::invalid_argument);
}

TEST(TorusPartition, TopOfAxisWrapsToPhaseZero) {
  // Offsets 0, T, 2T, 3T = span with k = 3: all four land at phase 0
  // exactly, so the top QPU shares the bottom's torus slot.
  const TorusPartition p =
      torus_from_coords({0.0, 0.1, 0.2, 0.3, 0.05, 0.25},
                        {1.0, 1.0, 1.0, 1.0, -1.0, -1.0}, 2);
  ASSERT_EQ(p.dominant_frequency, 3U);
  EXPECT_EQ(p.phase[0], 0.0);
  EXPECT_EQ(p.phase[3], 0.0);
}

TEST(TorusPartition, DegenerateTwoNodeFleet) {
  const Fixture f = make_fleet(2, 17);
  const TorusPartition p = build_torus_partition(f.behavioral, f.models);
  EXPECT_EQ(p.tori.size(), 1U);
  EXPECT_EQ(p.tori[0].size(), 2U);
}

TEST(TorusPartition, IdenticalDevicesDoNotCrash) {
  std::vector<BehavioralVector> same(5, bv1(0.02));
  std::vector<std::vector<double>> models(5, {0.3, -0.1});
  const TorusPartition p = build_torus_partition(same, models);
  std::size_t total = 0;
  for (const auto& t : p.tori) total += t.size();
  EXPECT_EQ(total, 5U);
}

TEST(TorusPartition, SameTorusMembersSpreadInBehavioralSpace) {
  // Construct a fleet whose behavioral axis has two clusters; the
  // wrap-by-period partition should mix members from both clusters into
  // the same torus more often than a naive contiguous split would.
  std::vector<BehavioralVector> behavioral;
  std::vector<std::vector<double>> models;
  math::Rng rng(23);
  for (int c = 0; c < 2; ++c) {
    for (int k = 0; k < 4; ++k) {
      behavioral.push_back(bv1(0.01 * c + 0.001 * k));
      models.push_back({0.5 * c + rng.uniform(-0.05, 0.05)});
    }
  }
  const TorusPartition p = build_torus_partition(behavioral, models, 2);
  // Sanity: both tori exist, all QPUs covered.
  EXPECT_EQ(p.tori.size(), 2U);
  std::size_t total = 0;
  for (const auto& t : p.tori) total += t.size();
  EXPECT_EQ(total, 8U);
}

}  // namespace
}  // namespace arbiterq::core
