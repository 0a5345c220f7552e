#pragma once
// Classical multidimensional scaling (Torgerson MDS). ArbiterQ (§IV-A)
// reduces the behavioral-vector space and the model-vector space to
// one-dimensional sequences that approximately preserve pairwise
// distances, as the first step of torus construction.
//
// Both of ArbiterQ's spaces are Euclidean, and for Euclidean distances
// classical MDS equals PCA of the centered points (Torgerson/Gower). The
// production path is therefore mds_embed_1d(points), which never forms a
// distance matrix: it eigensolves whichever of the d x d covariance or
// the n x n Gram matrix is smaller. The distance-matrix route
// (pairwise_distances + mds_embed) double-centers an n x n matrix; it is
// kept as the test oracle for the points route.
//
// Sign convention (both routes): each output axis is reflected so that
// its largest-|x| coordinate is positive, the lowest index winning ties.

#include <cstddef>
#include <vector>

#include "arbiterq/math/matrix.hpp"

namespace arbiterq::math {

/// Pairwise Euclidean distance matrix of n points given as rows of `points`.
Matrix pairwise_distances(const std::vector<std::vector<double>>& points);

/// Classical MDS embedding into `dim` dimensions from a symmetric distance
/// matrix. Returns an n x dim matrix of coordinates. Eigenvalues that are
/// negative (non-Euclidean distances) are clamped to zero. O(n^3): the
/// test oracle, not the torus builder's path.
Matrix mds_embed(const Matrix& distances, std::size_t dim);

/// Convenience: 1-D MDS coordinates (column 0 of mds_embed(d, 1)).
std::vector<double> mds_embed_1d(const Matrix& distances);

/// 1-D classical MDS of n points in R^d under Euclidean distance, computed
/// from the centered points Xc: the projection Xc v1 onto the top
/// eigenvector of the d x d covariance when d <= n, else sqrt(lambda1) u1
/// of the n x n Gram matrix Xc Xc^T. O(n d min(n, d) + min(n, d)^3).
/// Equals mds_embed_1d(pairwise_distances(points)) up to rounding. Throws
/// on an empty or ragged point set.
std::vector<double> mds_embed_1d(
    const std::vector<std::vector<double>>& points);

/// Stress-1 goodness-of-fit of an embedding against target distances:
/// sqrt( sum (d_ij - dhat_ij)^2 / sum d_ij^2 ), over i<j. 0 = perfect.
double mds_stress(const Matrix& distances, const Matrix& embedding);

}  // namespace arbiterq::math
