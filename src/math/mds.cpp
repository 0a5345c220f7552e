#include "arbiterq/math/mds.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "arbiterq/math/eigen.hpp"

namespace arbiterq::math {

namespace {

/// The pinned reflection: flip `coords` so that its largest-|x| entry is
/// positive (the lowest index wins ties). Eigenvectors are only defined
/// up to sign; pinning it makes both MDS routes return the same axis.
void pin_sign(double* coords, std::size_t n, std::size_t stride) {
  std::size_t arg = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (std::abs(coords[i * stride]) > std::abs(coords[arg * stride])) {
      arg = i;
    }
  }
  if (n > 0 && coords[arg * stride] < 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      coords[i * stride] = -coords[i * stride];
    }
  }
}

}  // namespace

Matrix pairwise_distances(const std::vector<std::vector<double>>& points) {
  const std::size_t n = points.size();
  for (const auto& p : points) {
    if (p.size() != points[0].size()) {
      throw std::invalid_argument("pairwise_distances: ragged point set");
    }
  }
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < points[i].size(); ++k) {
        const double diff = points[i][k] - points[j][k];
        s += diff * diff;
      }
      d(i, j) = d(j, i) = std::sqrt(s);
    }
  }
  return d;
}

Matrix mds_embed(const Matrix& distances, std::size_t dim) {
  if (distances.rows() != distances.cols()) {
    throw std::invalid_argument("mds_embed: distance matrix must be square");
  }
  const std::size_t n = distances.rows();
  if (dim == 0 || dim > n) {
    throw std::invalid_argument("mds_embed: invalid target dimension");
  }

  // B = -1/2 * J D^2 J with J = I - 11^T/n (double centering).
  Matrix d2(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      d2(i, j) = distances(i, j) * distances(i, j);
    }
  }
  std::vector<double> row_mean(n, 0.0);
  double grand = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) row_mean[i] += d2(i, j);
    row_mean[i] /= static_cast<double>(n);
    grand += row_mean[i];
  }
  grand /= static_cast<double>(n);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b(i, j) = -0.5 * (d2(i, j) - row_mean[i] - row_mean[j] + grand);
    }
  }
  // Symmetrize against rounding before the eigensolver.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (b(i, j) + b(j, i));
      b(i, j) = b(j, i) = avg;
    }
  }

  const EigenResult eig = eigen_symmetric(b);
  Matrix coords(n, dim);
  for (std::size_t k = 0; k < dim; ++k) {
    const double lambda = std::max(0.0, eig.values[k]);
    const double scale = std::sqrt(lambda);
    for (std::size_t i = 0; i < n; ++i) {
      coords(i, k) = scale * eig.vectors(i, k);
    }
    pin_sign(&coords(0, k), n, dim);
  }
  return coords;
}

std::vector<double> mds_embed_1d(const Matrix& distances) {
  const Matrix coords = mds_embed(distances, 1);
  return coords.data();
}

std::vector<double> mds_embed_1d(
    const std::vector<std::vector<double>>& points) {
  const std::size_t n = points.size();
  if (n == 0) throw std::invalid_argument("mds_embed_1d: empty point set");
  const std::size_t d = points[0].size();
  std::vector<double> mean(d, 0.0);
  for (const auto& p : points) {
    if (p.size() != d) {
      throw std::invalid_argument("mds_embed_1d: ragged point set");
    }
    for (std::size_t k = 0; k < d; ++k) mean[k] += p[k];
  }
  for (double& m : mean) m /= static_cast<double>(n);
  Matrix xc(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < d; ++k) xc(i, k) = points[i][k] - mean[k];
  }

  std::vector<double> coords(n, 0.0);
  if (d <= n) {
    // Covariance side: coordinates are the projections Xc v1 onto the
    // top eigenvector of the d x d matrix Xc^T Xc.
    Matrix cov(d, d);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t a = 0; a < d; ++a) {
        const double xa = xc(i, a);
        for (std::size_t b = a; b < d; ++b) cov(a, b) += xa * xc(i, b);
      }
    }
    for (std::size_t a = 0; a < d; ++a) {
      for (std::size_t b = a + 1; b < d; ++b) cov(b, a) = cov(a, b);
    }
    const EigenResult eig = eigen_symmetric(cov);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t a = 0; a < d; ++a) {
        coords[i] += xc(i, a) * eig.vectors(a, 0);
      }
    }
  } else {
    // Gram side: the n x n matrix Xc Xc^T is the double-centered B of
    // classical MDS, so the coordinates are sqrt(lambda1) u1.
    Matrix gram(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        double s = 0.0;
        for (std::size_t k = 0; k < d; ++k) s += xc(i, k) * xc(j, k);
        gram(i, j) = gram(j, i) = s;
      }
    }
    const EigenResult eig = eigen_symmetric(gram);
    const double scale = std::sqrt(std::max(0.0, eig.values[0]));
    for (std::size_t i = 0; i < n; ++i) coords[i] = scale * eig.vectors(i, 0);
  }
  pin_sign(coords.data(), n, 1);
  return coords;
}

double mds_stress(const Matrix& distances, const Matrix& embedding) {
  if (distances.rows() != embedding.rows()) {
    throw std::invalid_argument("mds_stress: size mismatch");
  }
  const std::size_t n = distances.rows();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < embedding.cols(); ++k) {
        const double diff = embedding(i, k) - embedding(j, k);
        s += diff * diff;
      }
      const double dhat = std::sqrt(s);
      num += (distances(i, j) - dhat) * (distances(i, j) - dhat);
      den += distances(i, j) * distances(i, j);
    }
  }
  return den == 0.0 ? 0.0 : std::sqrt(num / den);
}

}  // namespace arbiterq::math
