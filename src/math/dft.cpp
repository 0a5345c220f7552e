#include "arbiterq/math/dft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace arbiterq::math {

std::vector<std::complex<double>> nudft(const std::vector<double>& positions,
                                        const std::vector<double>& values,
                                        std::size_t num_bins) {
  if (positions.empty() || positions.size() != values.size()) {
    throw std::invalid_argument("nudft: positions/values size mismatch");
  }
  const auto [lo_it, hi_it] =
      std::minmax_element(positions.begin(), positions.end());
  const double span = *hi_it - *lo_it;
  if (span <= 0.0) {
    throw std::invalid_argument("nudft: zero position span");
  }
  // Per-sample phasor recurrence: z_j(k+1) = z_j(k) * w_j with
  // w_j = exp(-i base x_j), one complex multiply per (sample, bin) instead
  // of a sin/cos pair. z is reseeded from sin/cos every kReseedBins bins,
  // which bounds the rounding drift of the repeated products. Samples go
  // kLanes at a time so the independent recurrences overlap; padding
  // lanes carry value 0.
  constexpr std::size_t kReseedBins = 64;
  constexpr std::size_t kLanes = 4;
  const std::size_t n = positions.size();
  const double lo = *lo_it;
  const double base = 2.0 * std::numbers::pi / span;
  std::vector<double> re(num_bins, 0.0);
  std::vector<double> im(num_bins, 0.0);
  for (std::size_t j0 = 0; j0 < n; j0 += kLanes) {
    double x[kLanes] = {}, v[kLanes] = {}, wr[kLanes], wi[kLanes];
    for (std::size_t l = 0; l < kLanes && j0 + l < n; ++l) {
      x[l] = positions[j0 + l] - lo;
      v[l] = values[j0 + l];
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      wr[l] = std::cos(base * x[l]);
      wi[l] = -std::sin(base * x[l]);
    }
    for (std::size_t k0 = 0; k0 < num_bins; k0 += kReseedBins) {
      double zr[kLanes], zi[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double phase = base * static_cast<double>(k0) * x[l];
        zr[l] = std::cos(phase);
        zi[l] = -std::sin(phase);
      }
      const std::size_t k1 = std::min(num_bins, k0 + kReseedBins);
      for (std::size_t k = k0; k < k1; ++k) {
        double sr = 0.0, si = 0.0;
        for (std::size_t l = 0; l < kLanes; ++l) {
          sr += v[l] * zr[l];
          si += v[l] * zi[l];
          const double nr = zr[l] * wr[l] - zi[l] * wi[l];
          zi[l] = zr[l] * wi[l] + zi[l] * wr[l];
          zr[l] = nr;
        }
        re[k] += sr;
        im[k] += si;
      }
    }
  }
  std::vector<std::complex<double>> out(num_bins);
  for (std::size_t k = 0; k < num_bins; ++k) out[k] = {re[k], im[k]};
  return out;
}

DominantCycle dominant_cycle(const std::vector<double>& positions,
                             const std::vector<double>& values,
                             std::size_t num_bins) {
  if (num_bins == 0) num_bins = positions.size();
  if (num_bins < 2) {
    throw std::invalid_argument("dominant_cycle: need at least 2 bins");
  }
  const auto spectrum = nudft(positions, values, num_bins);
  DominantCycle cycle;
  cycle.frequency_index = 1;
  cycle.magnitude = std::abs(spectrum[1]);
  for (std::size_t k = 2; k < spectrum.size(); ++k) {
    const double mag = std::abs(spectrum[k]);
    if (mag > cycle.magnitude) {
      cycle.magnitude = mag;
      cycle.frequency_index = k;
    }
  }
  const auto [lo_it, hi_it] =
      std::minmax_element(positions.begin(), positions.end());
  cycle.period = (*hi_it - *lo_it) / static_cast<double>(cycle.frequency_index);
  return cycle;
}

}  // namespace arbiterq::math
