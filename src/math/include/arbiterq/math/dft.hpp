#pragma once
// Non-uniform discrete Fourier transform over irregularly spaced sample
// positions, plus the dominant-period extraction ArbiterQ's torus builder
// uses (paper Eq. 2 and Eq. 3): the 1-D model sequence {m_t} is treated as
// a signal sampled at the 1-D behavioral positions {b_j}; the frequency
// bin with the largest magnitude defines the cycle period
//   T = (max b - min b) / argmax_k |F_m[k]|.

#include <complex>
#include <cstddef>
#include <vector>

namespace arbiterq::math {

/// F[k] = sum_j values[j] * exp(-i * 2*pi/span * k * (pos[j] - min(pos)))
/// with span = max(pos) - min(pos), evaluated for k = 0 .. num_bins-1.
/// Measuring positions from min(pos) multiplies each bin by a unit
/// phasor, so |F[k]| is that of the textbook sum over raw positions.
/// Cost: one complex multiply per (sample, bin) via a phasor recurrence,
/// with sin/cos only every 64th bin. `positions` and `values` must have
/// the same nonzero length and a nonzero position span.
std::vector<std::complex<double>> nudft(const std::vector<double>& positions,
                                        const std::vector<double>& values,
                                        std::size_t num_bins);

struct DominantCycle {
  std::size_t frequency_index = 0;  ///< argmax over k >= 1 of |F[k]|
  double period = 0.0;              ///< span / frequency_index (Eq. 3)
  double magnitude = 0.0;           ///< |F[frequency_index]|
};

/// Dominant cycle of the (positions, values) signal. The DC bin (k = 0) is
/// excluded: it carries the signal mean and has no period. `num_bins`
/// defaults to the number of samples when 0.
DominantCycle dominant_cycle(const std::vector<double>& positions,
                             const std::vector<double>& values,
                             std::size_t num_bins = 0);

}  // namespace arbiterq::math
