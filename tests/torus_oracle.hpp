#pragma once
// Reference oracle for core::build_torus_partition: the distance-matrix
// MDS route.
//
// Production computes each 1-D MDS axis from the points
// (math::mds_embed_1d(points), a min(n, d)-sized eigensolve). This header
// takes the textbook route instead — the n x n Euclidean distance matrix,
// double-centered and eigensolved by Jacobi (math::mds_embed_1d of
// math::pairwise_distances) — and hands the coordinates to the same
// core::torus_from_coords. Both routes pin the same eigenvector sign, so
// partitions and dominant frequencies must be equal (EXPECT_EQ) and
// coordinates equal up to rounding.
//
// Header-only, like executor_oracle.hpp. O(n^3): keep fleets at a few
// hundred QPUs.

#include <vector>

#include "arbiterq/core/behavioral_vector.hpp"
#include "arbiterq/core/torus.hpp"
#include "arbiterq/math/mds.hpp"

namespace arbiterq::oracle {

/// build_torus_partition with the distance-matrix MDS route.
inline core::TorusPartition torus_partition(
    const std::vector<core::BehavioralVector>& behavioral,
    const std::vector<std::vector<double>>& model_vectors,
    int num_tori = 0) {
  std::vector<std::vector<double>> b_points;
  b_points.reserve(behavioral.size());
  for (const auto& bv : behavioral) b_points.push_back(bv.concatenated());
  return core::torus_from_coords(
      math::mds_embed_1d(math::pairwise_distances(b_points)),
      math::mds_embed_1d(math::pairwise_distances(model_vectors)),
      num_tori);
}

}  // namespace arbiterq::oracle
