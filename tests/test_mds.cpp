#include "arbiterq/math/mds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "arbiterq/math/rng.hpp"

namespace arbiterq::math {
namespace {

TEST(PairwiseDistances, KnownValues) {
  const Matrix d = pairwise_distances({{0.0, 0.0}, {3.0, 4.0}, {0.0, 1.0}});
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(PairwiseDistances, RaggedThrows) {
  EXPECT_THROW(pairwise_distances({{0.0, 0.0}, {1.0}}),
               std::invalid_argument);
}

TEST(Mds, OneDimensionalPointsEmbedExactly) {
  // Points already on a line: 1-D MDS must preserve all distances.
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {3.0}, {7.0}};
  const Matrix d = pairwise_distances(pts);
  const Matrix e = mds_embed(d, 1);
  EXPECT_LT(mds_stress(d, e), 1e-9);
}

TEST(Mds, TwoDimensionalPointsEmbedExactlyIn2D) {
  Rng rng(5);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back({rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)});
  }
  const Matrix d = pairwise_distances(pts);
  EXPECT_LT(mds_stress(d, mds_embed(d, 2)), 1e-8);
}

TEST(Mds, EmbeddingDimensionBounds) {
  const Matrix d = pairwise_distances({{0.0}, {1.0}, {2.0}});
  EXPECT_THROW(mds_embed(d, 0), std::invalid_argument);
  EXPECT_THROW(mds_embed(d, 4), std::invalid_argument);
  EXPECT_THROW(mds_embed(Matrix(2, 3), 1), std::invalid_argument);
}

TEST(Mds, Embed1dPreservesOrderingOfCollinearPoints) {
  const std::vector<std::vector<double>> pts = {{0.0}, {2.0}, {5.0}, {6.0}};
  const Matrix d = pairwise_distances(pts);
  const auto coords = mds_embed_1d(d);
  ASSERT_EQ(coords.size(), 4U);
  // MDS result is unique up to reflection: orientation can flip, but the
  // order along the axis must match (or be reversed).
  const bool ascending = coords[0] < coords[3];
  for (std::size_t i = 1; i < coords.size(); ++i) {
    if (ascending) {
      EXPECT_LT(coords[i - 1], coords[i]);
    } else {
      EXPECT_GT(coords[i - 1], coords[i]);
    }
  }
  // And pairwise gaps are preserved.
  EXPECT_NEAR(std::abs(coords[1] - coords[0]), 2.0, 1e-9);
  EXPECT_NEAR(std::abs(coords[3] - coords[2]), 1.0, 1e-9);
}

TEST(Mds, HighDimToOneDimKeepsNeighborStructure) {
  // Three tight clusters far apart in 6-D: after 1-D MDS, intra-cluster
  // gaps must stay much smaller than inter-cluster gaps.
  Rng rng(17);
  std::vector<std::vector<double>> pts;
  for (int c = 0; c < 3; ++c) {
    for (int k = 0; k < 3; ++k) {
      std::vector<double> p(6);
      for (auto& v : p) v = 10.0 * c + rng.uniform(-0.1, 0.1);
      pts.push_back(p);
    }
  }
  const auto coords = mds_embed_1d(pairwise_distances(pts));
  for (int c = 0; c < 3; ++c) {
    const double a = coords[static_cast<std::size_t>(3 * c)];
    for (int k = 1; k < 3; ++k) {
      const double b = coords[static_cast<std::size_t>(3 * c + k)];
      EXPECT_LT(std::abs(a - b), 2.0);
    }
  }
  EXPECT_GT(std::abs(coords[0] - coords[4]), 5.0);
  EXPECT_GT(std::abs(coords[4] - coords[8]), 5.0);
}

TEST(Mds, StressZeroForPerfectEmbedding) {
  const std::vector<std::vector<double>> pts = {{0.0, 0.0}, {1.0, 0.0},
                                                {0.0, 1.0}};
  const Matrix d = pairwise_distances(pts);
  Matrix e(3, 2);
  e(0, 0) = 0.0;
  e(1, 0) = 1.0;
  e(2, 1) = 1.0;
  EXPECT_NEAR(mds_stress(d, e), 0.0, 1e-12);
}

TEST(Mds, StressDetectsBadEmbedding) {
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {2.0}};
  const Matrix d = pairwise_distances(pts);
  Matrix e(3, 1);  // all points collapsed to 0
  EXPECT_GT(mds_stress(d, e), 0.9);
}

TEST(Mds, IdenticalPointsGiveZeroCoordinates) {
  const std::vector<std::vector<double>> pts = {{1.0, 1.0}, {1.0, 1.0}};
  const auto coords = mds_embed_1d(pairwise_distances(pts));
  EXPECT_NEAR(coords[0], coords[1], 1e-12);
}

TEST(Mds, DistanceRoutePinsSign) {
  // Reversing the input order reverses the axis; the pinned sign keeps
  // the largest-|x| coordinate positive either way.
  for (const auto& pts : {std::vector<std::vector<double>>{
                              {0.0}, {1.0}, {3.0}, {7.0}},
                          std::vector<std::vector<double>>{
                              {7.0}, {3.0}, {1.0}, {0.0}}}) {
    const auto coords = mds_embed_1d(pairwise_distances(pts));
    const auto top = std::max_element(
        coords.begin(), coords.end(),
        [](double a, double b) { return std::abs(a) < std::abs(b); });
    EXPECT_GT(*top, 0.0);
  }
}

TEST(MdsPoints, CovarianceSideMatchesDistanceRoute) {
  // d = 3 <= n = 12: the covariance side.
  Rng rng(31);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({rng.uniform(-1.0, 1.0), 3.0 * rng.uniform(-1.0, 1.0),
                   rng.uniform(-0.1, 0.1)});
  }
  const auto got = mds_embed_1d(pts);
  const auto want = mds_embed_1d(pairwise_distances(pts));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9);
  }
}

TEST(MdsPoints, GramSideMatchesDistanceRoute) {
  // d = 40 > n = 5: the Gram side.
  Rng rng(37);
  std::vector<std::vector<double>> pts(5, std::vector<double>(40));
  for (auto& p : pts) {
    for (double& x : p) x = rng.uniform(-1.0, 1.0);
  }
  const auto got = mds_embed_1d(pts);
  const auto want = mds_embed_1d(pairwise_distances(pts));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9);
  }
}

TEST(MdsPoints, SignTieGoesToLowestIndex) {
  // Symmetric about the mean: |x| ties exactly, index 0 wins.
  const std::vector<std::vector<double>> two = {{-1.0, 2.0}, {1.0, 2.0}};
  EXPECT_EQ(mds_embed_1d(two), (std::vector<double>{1.0, -1.0}));
  const std::vector<std::vector<double>> two_rev = {{1.0, 2.0},
                                                    {-1.0, 2.0}};
  EXPECT_EQ(mds_embed_1d(two_rev), (std::vector<double>{1.0, -1.0}));
}

TEST(MdsPoints, DegenerateAndBadInput) {
  const std::vector<std::vector<double>> same = {{1.0, 1.0}, {1.0, 1.0}};
  for (double c : mds_embed_1d(same)) EXPECT_EQ(c, 0.0);
  EXPECT_THROW(mds_embed_1d(std::vector<std::vector<double>>{}),
               std::invalid_argument);
  const std::vector<std::vector<double>> ragged = {{0.0, 0.0}, {1.0}};
  EXPECT_THROW(mds_embed_1d(ragged), std::invalid_argument);
}

}  // namespace
}  // namespace arbiterq::math
