#pragma once
// Symmetric eigensolver (cyclic Jacobi rotations), O(n^3) per sweep.
// Sufficient for the small matrices MDS and PCA produce: the torus
// builder's MDS solves min(QPUs, features) square (a covariance or a
// Gram matrix, see mds.hpp), PCA the feature covariance.

#include <vector>

#include "arbiterq/math/matrix.hpp"

namespace arbiterq::math {

struct EigenResult {
  /// Eigenvalues sorted in descending order.
  std::vector<double> values;
  /// Column k of `vectors` is the unit eigenvector for values[k].
  Matrix vectors;
};

/// Full eigendecomposition of a symmetric matrix.
/// Throws std::invalid_argument if `a` is not symmetric within `sym_tol`.
EigenResult eigen_symmetric(const Matrix& a, double sym_tol = 1e-9,
                            int max_sweeps = 100);

}  // namespace arbiterq::math
