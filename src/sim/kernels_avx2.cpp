// AVX2(+FMA) arms of the gate kernels. This file is compiled with
// -mavx2 -mfma -ffp-contract=off (see src/sim/CMakeLists.txt) only when
// the toolchain targets x86; ARBITERQ_SIMD_AVX2 is defined for the
// whole aq_sim target in that case, and kernels.cpp gates every call on
// a runtime __builtin_cpu_supports check.
//
// -ffp-contract=off keeps the compiler from contracting the scalar
// tail loops' mul/add chains into FMA; the vector mul/addsub pairs of
// the Fma=false arm additionally carry a register barrier inside cmul,
// because GCC's combine pass fuses a mul feeding an addsub intrinsic
// into vfmaddsub regardless of the contract mode. The Fma=true arm
// uses explicit _mm256_fmaddsub_pd, so fusion there is opt-in.
//
// Layout notes. Amplitudes are interleaved [re, im] pairs, two complex
// values per 256-bit vector. A complex multiply by a scalar m lowers to
//     swapped = permute(v, 0b0101)            // [im, re]
//     addsub(mr * v, mi * swapped)            // [mr*re - mi*im,
//                                             //  mr*im + mi*re]
// which performs exactly the four products and two add/subs of
// std::complex multiplication, in the same order — the non-FMA arm is
// therefore bit-identical to the scalar loops, lane for lane.
//
// Butterfly vectorization pairs two groups per vector. For stride
// >= 2 consecutive groups touch consecutive amplitude indices and load
// directly; for stride 1 (qubit 0) the pair/partner amplitudes are
// interleaved in memory and one permute2f128 deinterleaves them.

#include "kernels_impl.hpp"

#if defined(ARBITERQ_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>

namespace arbiterq::sim::kernels::detail {

namespace {

inline __m256d bc(double v) noexcept { return _mm256_set1_pd(v); }

/// Two-rounding scalar complex multiply for the tail/fallback loops.
/// This TU is compiled with -mfma, and GCC contracts even the
/// _Complex-lowering of std::complex operator* into vfmaddsub there
/// (ignoring -ffp-contract=off), so the four products are pinned in
/// registers to keep tails bit-identical to the scalar-TU kernels.
inline Complex csmul(Complex x, Complex y) noexcept {
  double rr = x.real() * y.real();
  double ii = x.imag() * y.imag();
  double ri = x.real() * y.imag();
  double ir = x.imag() * y.real();
  asm("" : "+x"(rr), "+x"(ii), "+x"(ri), "+x"(ir));
  return Complex{rr - ii, ri + ir};
}

/// m[0]*a0 + m[1]*a1 with csmul products (left-to-right sum).
inline Complex csrow2(const Complex* m, Complex a0, Complex a1) noexcept {
  return csmul(m[0], a0) + csmul(m[1], a1);
}

/// m[0]*a00 + m[1]*a01 + m[2]*a10 + m[3]*a11, left-to-right.
inline Complex csrow4(const Complex* m, Complex a00, Complex a01, Complex a10,
                      Complex a11) noexcept {
  return csmul(m[0], a00) + csmul(m[1], a01) + csmul(m[2], a10) +
         csmul(m[3], a11);
}

/// Complex multiply of two complex lanes by a broadcast scalar whose
/// real/imag parts are pre-splatted in mr/mi.
template <bool Fma>
inline __m256d cmul(__m256d mr, __m256d mi, __m256d v) noexcept {
  const __m256d sw = _mm256_permute_pd(v, 0x5);
  if constexpr (Fma) {
    return _mm256_fmaddsub_pd(mr, v, _mm256_mul_pd(mi, sw));
  }
  // -ffp-contract=off does not stop GCC's combine pass from fusing the
  // mul feeding an addsub intrinsic into vfmaddsub (the flag only gates
  // plain mul+add contraction), so pin the product in a register to
  // keep the non-FMA arm's two-rounding arithmetic — and with it the
  // bit-identity to the scalar kernels.
  __m256d pr = _mm256_mul_pd(mr, v);
  asm("" : "+x"(pr));
  return _mm256_addsub_pd(pr, _mm256_mul_pd(mi, sw));
}

template <bool Fma>
inline __m256d cmulc(const Complex& c, __m256d v) noexcept {
  return cmul<Fma>(bc(c.real()), bc(c.imag()), v);
}

/// [a[k] dup | b[k] dup]: per-lane scalars for two-sample kernels.
inline __m256d dup2(const double* a, const double* b) noexcept {
  return _mm256_set_m128d(_mm_loaddup_pd(b), _mm_loaddup_pd(a));
}

/// row[0..count) *= d, two amplitudes per vector.
template <bool Fma>
inline void scale_run(Complex* row, Complex d, std::size_t count) noexcept {
  const __m256d dr = bc(d.real());
  const __m256d di = bc(d.imag());
  double* p = reinterpret_cast<double*>(row);
  std::size_t b = 0;
  for (; b + 2 <= count; b += 2) {
    _mm256_storeu_pd(p + 2 * b, cmul<Fma>(dr, di, _mm256_loadu_pd(p + 2 * b)));
  }
  for (; b < count; ++b) row[b] = csmul(row[b], d);
}

}  // namespace

// ---------------------------------------------------------------------------
// Unbatched statevector kernels

template <bool Fma>
void mat2_range_avx2(Complex* amps, const Mat2& m, int q, std::size_t lo,
                     std::size_t hi) {
  const std::size_t bit = std::size_t{1} << q;
  double* const base = reinterpret_cast<double*>(amps);
  const __m256d m0r = bc(m[0].real()), m0i = bc(m[0].imag());
  const __m256d m1r = bc(m[1].real()), m1i = bc(m[1].imag());
  const __m256d m2r = bc(m[2].real()), m2i = bc(m[2].imag());
  const __m256d m3r = bc(m[3].real()), m3i = bc(m[3].imag());
  auto scalar_group = [&](std::size_t p) {
    const std::size_t i0 = insert_zero_bit(p, q);
    const std::size_t i1 = i0 | bit;
    const Complex a0 = amps[i0];
    const Complex a1 = amps[i1];
    amps[i0] = csrow2(&m[0], a0, a1);
    amps[i1] = csrow2(&m[2], a0, a1);
  };
  if (q == 0) {
    // Groups are adjacent [a0, a1] pairs: deinterleave two groups with
    // 128-bit permutes, butterfly, re-interleave.
    std::size_t p = lo;
    for (; p + 2 <= hi; p += 2) {
      double* ptr = base + 4 * p;
      const __m256d va = _mm256_loadu_pd(ptr);
      const __m256d vb = _mm256_loadu_pd(ptr + 4);
      const __m256d a0 = _mm256_permute2f128_pd(va, vb, 0x20);
      const __m256d a1 = _mm256_permute2f128_pd(va, vb, 0x31);
      const __m256d o0 =
          _mm256_add_pd(cmul<Fma>(m0r, m0i, a0), cmul<Fma>(m1r, m1i, a1));
      const __m256d o1 =
          _mm256_add_pd(cmul<Fma>(m2r, m2i, a0), cmul<Fma>(m3r, m3i, a1));
      _mm256_storeu_pd(ptr, _mm256_permute2f128_pd(o0, o1, 0x20));
      _mm256_storeu_pd(ptr + 4, _mm256_permute2f128_pd(o0, o1, 0x31));
    }
    for (; p < hi; ++p) scalar_group(p);
    return;
  }
  // Stride >= 2: consecutive groups inside one stride-run touch
  // consecutive indices, so both butterfly arms load contiguously.
  std::size_t p = lo;
  while (p < hi) {
    if (p + 1 < hi && (p & (bit - 1)) != bit - 1) {
      const std::size_t i0 = insert_zero_bit(p, q);
      double* p0 = base + 2 * i0;
      double* p1 = base + 2 * (i0 | bit);
      const __m256d a0 = _mm256_loadu_pd(p0);
      const __m256d a1 = _mm256_loadu_pd(p1);
      _mm256_storeu_pd(
          p0, _mm256_add_pd(cmul<Fma>(m0r, m0i, a0), cmul<Fma>(m1r, m1i, a1)));
      _mm256_storeu_pd(
          p1, _mm256_add_pd(cmul<Fma>(m2r, m2i, a0), cmul<Fma>(m3r, m3i, a1)));
      p += 2;
    } else {
      scalar_group(p);
      ++p;
    }
  }
}

template <bool Fma>
void diag2_range_avx2(Complex* amps, Complex d0, Complex d1, std::size_t bit,
                      std::size_t lo, std::size_t hi) {
  double* const base = reinterpret_cast<double*>(amps);
  if (bit == 1) {
    // The factor alternates [d0, d1] per amplitude pair.
    std::size_t i = lo;
    if ((i & 1) != 0 && i < hi) {
      amps[i] = csmul(amps[i], d1);
      ++i;
    }
    const __m256d dr =
        _mm256_setr_pd(d0.real(), d0.real(), d1.real(), d1.real());
    const __m256d di =
        _mm256_setr_pd(d0.imag(), d0.imag(), d1.imag(), d1.imag());
    for (; i + 2 <= hi; i += 2) {
      double* p = base + 2 * i;
      _mm256_storeu_pd(p, cmul<Fma>(dr, di, _mm256_loadu_pd(p)));
    }
    if (i < hi) amps[i] = csmul(amps[i], d0);
    return;
  }
  // Runs of `bit` consecutive indices share one factor.
  std::size_t i = lo;
  while (i < hi) {
    const Complex d = (i & bit) ? d1 : d0;
    const std::size_t run_end = std::min(hi, (i | (bit - 1)) + 1);
    scale_run<Fma>(amps + i, d, run_end - i);
    i = run_end;
  }
}

template <bool Fma>
void mat4_range_avx2(Complex* amps, const Mat4& m, int qb, int qa,
                     std::size_t lo, std::size_t hi) {
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  const int q_lo = qb < qa ? qb : qa;
  const int q_hi = qb < qa ? qa : qb;
  const std::size_t low_lo = (std::size_t{1} << q_lo) - 1;
  const std::size_t low_hi = (std::size_t{1} << q_hi) - 1;
  double* const base = reinterpret_cast<double*>(amps);
  // Left-to-right fold, matching the scalar row sums exactly.
  auto row4 = [&](const Complex* r, __m256d a00, __m256d a01, __m256d a10,
                  __m256d a11) {
    __m256d acc = cmulc<Fma>(r[0], a00);
    acc = _mm256_add_pd(acc, cmulc<Fma>(r[1], a01));
    acc = _mm256_add_pd(acc, cmulc<Fma>(r[2], a10));
    acc = _mm256_add_pd(acc, cmulc<Fma>(r[3], a11));
    return acc;
  };
  auto scalar_group = [&](std::size_t g) {
    const std::size_t i00 = insert_zero_bit(insert_zero_bit(g, q_lo), q_hi);
    const std::size_t i01 = i00 | bit_a;
    const std::size_t i10 = i00 | bit_b;
    const std::size_t i11 = i00 | bit_b | bit_a;
    const Complex a00 = amps[i00];
    const Complex a01 = amps[i01];
    const Complex a10 = amps[i10];
    const Complex a11 = amps[i11];
    amps[i00] = csrow4(&m[0], a00, a01, a10, a11);
    amps[i01] = csrow4(&m[4], a00, a01, a10, a11);
    amps[i10] = csrow4(&m[8], a00, a01, a10, a11);
    amps[i11] = csrow4(&m[12], a00, a01, a10, a11);
  };
  if (q_lo >= 1) {
    // Consecutive groups inside a q_lo-run touch consecutive indices in
    // all four butterfly arms.
    std::size_t g = lo;
    while (g < hi) {
      const std::size_t j = insert_zero_bit(g, q_lo);
      if (g + 1 < hi && (g & low_lo) != low_lo && (j & low_hi) != low_hi) {
        const std::size_t i00 = insert_zero_bit(j, q_hi);
        double* p00 = base + 2 * i00;
        double* p01 = base + 2 * (i00 | bit_a);
        double* p10 = base + 2 * (i00 | bit_b);
        double* p11 = base + 2 * (i00 | bit_b | bit_a);
        const __m256d a00 = _mm256_loadu_pd(p00);
        const __m256d a01 = _mm256_loadu_pd(p01);
        const __m256d a10 = _mm256_loadu_pd(p10);
        const __m256d a11 = _mm256_loadu_pd(p11);
        _mm256_storeu_pd(p00, row4(&m[0], a00, a01, a10, a11));
        _mm256_storeu_pd(p01, row4(&m[4], a00, a01, a10, a11));
        _mm256_storeu_pd(p10, row4(&m[8], a00, a01, a10, a11));
        _mm256_storeu_pd(p11, row4(&m[12], a00, a01, a10, a11));
        g += 2;
      } else {
        scalar_group(g);
        ++g;
      }
    }
    return;
  }
  // q_lo == 0: the qubit-0 partner of every index is adjacent in
  // memory, so each contiguous quad holds two groups' worth of one
  // butterfly arm pair — deinterleave with permute2f128 as in the 1q
  // stride-1 case. The other arm pair sits bit_hi complex values away.
  const std::size_t bit_hi = std::size_t{1} << q_hi;
  std::size_t g = lo;
  while (g < hi) {
    const std::size_t j = insert_zero_bit(g, 0);  // == 2 * g
    if (g + 1 < hi && (j & low_hi) != low_hi - 1) {
      const std::size_t i00 = insert_zero_bit(j, q_hi);
      double* p_lo = base + 2 * i00;
      double* p_hi = base + 2 * (i00 | bit_hi);
      const __m256d va = _mm256_loadu_pd(p_lo);
      const __m256d vb = _mm256_loadu_pd(p_lo + 4);
      const __m256d vc = _mm256_loadu_pd(p_hi);
      const __m256d vd = _mm256_loadu_pd(p_hi + 4);
      const __m256d w0 = _mm256_permute2f128_pd(va, vb, 0x20);
      const __m256d w1 = _mm256_permute2f128_pd(va, vb, 0x31);
      const __m256d y0 = _mm256_permute2f128_pd(vc, vd, 0x20);
      const __m256d y1 = _mm256_permute2f128_pd(vc, vd, 0x31);
      // qubit 0 is `qa` (bit_a == 1): quad partner is a01/a11;
      // otherwise qubit 0 is `qb` and the partner is a10/a11.
      const __m256d a00 = w0;
      const __m256d a01 = bit_a == 1 ? w1 : y0;
      const __m256d a10 = bit_a == 1 ? y0 : w1;
      const __m256d a11 = y1;
      const __m256d o00 = row4(&m[0], a00, a01, a10, a11);
      const __m256d o01 = row4(&m[4], a00, a01, a10, a11);
      const __m256d o10 = row4(&m[8], a00, a01, a10, a11);
      const __m256d o11 = row4(&m[12], a00, a01, a10, a11);
      const __m256d ow = bit_a == 1 ? o01 : o10;
      const __m256d oy = bit_a == 1 ? o10 : o01;
      _mm256_storeu_pd(p_lo, _mm256_permute2f128_pd(o00, ow, 0x20));
      _mm256_storeu_pd(p_lo + 4, _mm256_permute2f128_pd(o00, ow, 0x31));
      _mm256_storeu_pd(p_hi, _mm256_permute2f128_pd(oy, o11, 0x20));
      _mm256_storeu_pd(p_hi + 4, _mm256_permute2f128_pd(oy, o11, 0x31));
      g += 2;
    } else {
      scalar_group(g);
      ++g;
    }
  }
}

template <bool Fma>
void diag4_range_avx2(Complex* amps, const Complex* d, std::size_t bit_b,
                      std::size_t bit_a, std::size_t lo, std::size_t hi) {
  const std::size_t bit_min = bit_a < bit_b ? bit_a : bit_b;
  const std::size_t bit_max = bit_a < bit_b ? bit_b : bit_a;
  auto sel_of = [&](std::size_t i) {
    return ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
  };
  if (bit_min >= 2) {
    // Runs of bit_min consecutive indices share one selector (bit_max
    // runs are unions of bit_min runs).
    std::size_t i = lo;
    while (i < hi) {
      const std::size_t run_end = std::min(hi, (i | (bit_min - 1)) + 1);
      scale_run<Fma>(amps + i, d[sel_of(i)], run_end - i);
      i = run_end;
    }
    return;
  }
  // One of the qubits is 0: the selector alternates per amplitude, the
  // other bit holds over runs of bit_max.
  const unsigned low_contrib = bit_a == 1 ? 1U : 2U;
  double* const base = reinterpret_cast<double*>(amps);
  std::size_t i = lo;
  if ((i & 1) != 0 && i < hi) {
    amps[i] = csmul(amps[i], d[sel_of(i)]);
    ++i;
  }
  while (i < hi) {
    const unsigned s0 = sel_of(i);  // i even: qubit-0 bit clear
    const Complex e0 = d[s0];
    const Complex e1 = d[s0 | low_contrib];
    const __m256d dr =
        _mm256_setr_pd(e0.real(), e0.real(), e1.real(), e1.real());
    const __m256d di =
        _mm256_setr_pd(e0.imag(), e0.imag(), e1.imag(), e1.imag());
    const std::size_t run_end = std::min(hi, (i | (bit_max - 1)) + 1);
    std::size_t j = i;
    for (; j + 2 <= run_end; j += 2) {
      double* p = base + 2 * j;
      _mm256_storeu_pd(p, cmul<Fma>(dr, di, _mm256_loadu_pd(p)));
    }
    if (j < run_end) amps[j] = csmul(amps[j], e0);  // j even
    i = run_end;
  }
}

// ---------------------------------------------------------------------------
// Sample-batched register kernels: within a row the columns are
// contiguous, so every butterfly group is a straight loop over column
// pairs. An odd trailing column of a broadcast butterfly packs the
// group's output rows into one vector ([row 0 | row 1] and, for 2q,
// [row 2 | row 3]) against a broadcast amplitude, which performs the
// same products and sums per lane as the column-pair body; narrow
// registers (the 1–3-column prefix of a trajectory walk) lean on it.

/// [x.re, x.im, y.re, y.im] splats of matrix entries x | y.
inline __m256d pair_re(const Complex& x, const Complex& y) noexcept {
  return _mm256_setr_pd(x.real(), x.real(), y.real(), y.real());
}
inline __m256d pair_im(const Complex& x, const Complex& y) noexcept {
  return _mm256_setr_pd(x.imag(), x.imag(), y.imag(), y.imag());
}

/// Column b of a row broadcast to both lanes.
inline __m256d bcast_col(const Complex* row, std::size_t b) noexcept {
  return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(row + b));
}

/// Store lanes [lo | hi] to column b of two rows.
inline void store_split(Complex* lo, Complex* hi, std::size_t b,
                        __m256d v) noexcept {
  _mm_storeu_pd(reinterpret_cast<double*>(lo + b), _mm256_castpd256_pd128(v));
  _mm_storeu_pd(reinterpret_cast<double*>(hi + b),
                _mm256_extractf128_pd(v, 1));
}

template <bool Fma>
void batched_mat2_avx2(Complex* amps, std::size_t dim, std::size_t stride,
                       std::size_t count, const Mat2& m, int q) {
  const __m256d m0r = bc(m[0].real()), m0i = bc(m[0].imag());
  const __m256d m1r = bc(m[1].real()), m1i = bc(m[1].imag());
  const __m256d m2r = bc(m[2].real()), m2i = bc(m[2].imag());
  const __m256d m3r = bc(m[3].real()), m3i = bc(m[3].imag());
  // Odd-column tail: [m0 | m2] * a0 + [m1 | m3] * a1.
  const __m256d t0r = pair_re(m[0], m[2]), t0i = pair_im(m[0], m[2]);
  const __m256d t1r = pair_re(m[1], m[3]), t1i = pair_im(m[1], m[3]);
  const std::size_t even = count & ~std::size_t{1};
  for_each_pair(amps, dim, stride, q, [&](Complex* r0, Complex* r1) {
    double* p0 = reinterpret_cast<double*>(r0);
    double* p1 = reinterpret_cast<double*>(r1);
    for (std::size_t b = 0; b < even; b += 2) {
      const __m256d a0 = _mm256_loadu_pd(p0 + 2 * b);
      const __m256d a1 = _mm256_loadu_pd(p1 + 2 * b);
      _mm256_storeu_pd(p0 + 2 * b, _mm256_add_pd(cmul<Fma>(m0r, m0i, a0),
                                                 cmul<Fma>(m1r, m1i, a1)));
      _mm256_storeu_pd(p1 + 2 * b, _mm256_add_pd(cmul<Fma>(m2r, m2i, a0),
                                                 cmul<Fma>(m3r, m3i, a1)));
    }
    if (even != count) {
      const __m256d a0 = bcast_col(r0, even);
      const __m256d a1 = bcast_col(r1, even);
      store_split(r0, r1, even,
                  _mm256_add_pd(cmul<Fma>(t0r, t0i, a0),
                                cmul<Fma>(t1r, t1i, a1)));
    }
  });
}

template <bool Fma>
void batched_mat2_each_avx2(Complex* amps, std::size_t dim,
                            std::size_t stride, std::size_t count,
                            const Mat2* mats, int q) {
  for_each_pair(amps, dim, stride, q, [&](Complex* r0, Complex* r1) {
    double* p0 = reinterpret_cast<double*>(r0);
    double* p1 = reinterpret_cast<double*>(r1);
    std::size_t b = 0;
    for (; b + 2 <= count; b += 2) {
      const double* ma = reinterpret_cast<const double*>(mats + b);
      const double* mb = reinterpret_cast<const double*>(mats + b + 1);
      const __m256d a0 = _mm256_loadu_pd(p0 + 2 * b);
      const __m256d a1 = _mm256_loadu_pd(p1 + 2 * b);
      const __m256d o0 = _mm256_add_pd(
          cmul<Fma>(dup2(ma + 0, mb + 0), dup2(ma + 1, mb + 1), a0),
          cmul<Fma>(dup2(ma + 2, mb + 2), dup2(ma + 3, mb + 3), a1));
      const __m256d o1 = _mm256_add_pd(
          cmul<Fma>(dup2(ma + 4, mb + 4), dup2(ma + 5, mb + 5), a0),
          cmul<Fma>(dup2(ma + 6, mb + 6), dup2(ma + 7, mb + 7), a1));
      _mm256_storeu_pd(p0 + 2 * b, o0);
      _mm256_storeu_pd(p1 + 2 * b, o1);
    }
    for (; b < count; ++b) {
      const Mat2& m = mats[b];
      const Complex a0 = r0[b];
      const Complex a1 = r1[b];
      r0[b] = csrow2(&m[0], a0, a1);
      r1[b] = csrow2(&m[2], a0, a1);
    }
  });
}

template <bool Fma>
void batched_mat4_avx2(Complex* amps, std::size_t dim, std::size_t stride,
                       std::size_t count, const Mat4& m, int qb, int qa) {
  auto row4 = [&](const Complex* r, __m256d a00, __m256d a01, __m256d a10,
                  __m256d a11) {
    __m256d s = cmulc<Fma>(r[0], a00);
    s = _mm256_add_pd(s, cmulc<Fma>(r[1], a01));
    s = _mm256_add_pd(s, cmulc<Fma>(r[2], a10));
    s = _mm256_add_pd(s, cmulc<Fma>(r[3], a11));
    return s;
  };
  // Odd-column tail: output rows r and r + 1 share one vector, lane
  // half h holding row r + h's left-to-right sum over the four inputs.
  auto rows2 = [&](std::size_t r, __m256d a00, __m256d a01, __m256d a10,
                   __m256d a11) {
    const Complex* lo = &m[4 * r];
    const Complex* hi = &m[4 * r + 4];
    __m256d s = cmul<Fma>(pair_re(lo[0], hi[0]), pair_im(lo[0], hi[0]), a00);
    s = _mm256_add_pd(
        s, cmul<Fma>(pair_re(lo[1], hi[1]), pair_im(lo[1], hi[1]), a01));
    s = _mm256_add_pd(
        s, cmul<Fma>(pair_re(lo[2], hi[2]), pair_im(lo[2], hi[2]), a10));
    s = _mm256_add_pd(
        s, cmul<Fma>(pair_re(lo[3], hi[3]), pair_im(lo[3], hi[3]), a11));
    return s;
  };
  const std::size_t even = count & ~std::size_t{1};
  for_each_quad(
      amps, dim, stride, qb, qa,
      [&](Complex* r00, Complex* r01, Complex* r10, Complex* r11) {
        double* p00 = reinterpret_cast<double*>(r00);
        double* p01 = reinterpret_cast<double*>(r01);
        double* p10 = reinterpret_cast<double*>(r10);
        double* p11 = reinterpret_cast<double*>(r11);
        for (std::size_t b = 0; b < even; b += 2) {
          const __m256d a00 = _mm256_loadu_pd(p00 + 2 * b);
          const __m256d a01 = _mm256_loadu_pd(p01 + 2 * b);
          const __m256d a10 = _mm256_loadu_pd(p10 + 2 * b);
          const __m256d a11 = _mm256_loadu_pd(p11 + 2 * b);
          _mm256_storeu_pd(p00 + 2 * b, row4(&m[0], a00, a01, a10, a11));
          _mm256_storeu_pd(p01 + 2 * b, row4(&m[4], a00, a01, a10, a11));
          _mm256_storeu_pd(p10 + 2 * b, row4(&m[8], a00, a01, a10, a11));
          _mm256_storeu_pd(p11 + 2 * b, row4(&m[12], a00, a01, a10, a11));
        }
        if (even != count) {
          const __m256d a00 = bcast_col(r00, even);
          const __m256d a01 = bcast_col(r01, even);
          const __m256d a10 = bcast_col(r10, even);
          const __m256d a11 = bcast_col(r11, even);
          const __m256d o0 = rows2(0, a00, a01, a10, a11);
          const __m256d o1 = rows2(2, a00, a01, a10, a11);
          store_split(r00, r01, even, o0);
          store_split(r10, r11, even, o1);
        }
      });
}

template <bool Fma>
void batched_mat4_each_avx2(Complex* amps, std::size_t dim,
                            std::size_t stride, std::size_t count,
                            const Mat4* mats, int qb, int qa) {
  for_each_quad(
      amps, dim, stride, qb, qa,
      [&](Complex* r00, Complex* r01, Complex* r10, Complex* r11) {
        double* p00 = reinterpret_cast<double*>(r00);
        double* p01 = reinterpret_cast<double*>(r01);
        double* p10 = reinterpret_cast<double*>(r10);
        double* p11 = reinterpret_cast<double*>(r11);
        std::size_t b = 0;
        for (; b + 2 <= count; b += 2) {
          const double* ma = reinterpret_cast<const double*>(mats + b);
          const double* mb = reinterpret_cast<const double*>(mats + b + 1);
          const __m256d a00 = _mm256_loadu_pd(p00 + 2 * b);
          const __m256d a01 = _mm256_loadu_pd(p01 + 2 * b);
          const __m256d a10 = _mm256_loadu_pd(p10 + 2 * b);
          const __m256d a11 = _mm256_loadu_pd(p11 + 2 * b);
          auto row4 = [&](unsigned r) {
            const std::size_t o = 8 * r;  // 4 complex = 8 doubles per row
            __m256d s = cmul<Fma>(dup2(ma + o, mb + o),
                                  dup2(ma + o + 1, mb + o + 1), a00);
            s = _mm256_add_pd(s, cmul<Fma>(dup2(ma + o + 2, mb + o + 2),
                                           dup2(ma + o + 3, mb + o + 3), a01));
            s = _mm256_add_pd(s, cmul<Fma>(dup2(ma + o + 4, mb + o + 4),
                                           dup2(ma + o + 5, mb + o + 5), a10));
            s = _mm256_add_pd(s, cmul<Fma>(dup2(ma + o + 6, mb + o + 6),
                                           dup2(ma + o + 7, mb + o + 7), a11));
            return s;
          };
          const __m256d o00 = row4(0);
          const __m256d o01 = row4(1);
          const __m256d o10 = row4(2);
          const __m256d o11 = row4(3);
          _mm256_storeu_pd(p00 + 2 * b, o00);
          _mm256_storeu_pd(p01 + 2 * b, o01);
          _mm256_storeu_pd(p10 + 2 * b, o10);
          _mm256_storeu_pd(p11 + 2 * b, o11);
        }
        for (; b < count; ++b) {
          const Mat4& m = mats[b];
          const Complex a00 = r00[b];
          const Complex a01 = r01[b];
          const Complex a10 = r10[b];
          const Complex a11 = r11[b];
          r00[b] = csrow4(&m[0], a00, a01, a10, a11);
          r01[b] = csrow4(&m[4], a00, a01, a10, a11);
          r10[b] = csrow4(&m[8], a00, a01, a10, a11);
          r11[b] = csrow4(&m[12], a00, a01, a10, a11);
        }
      });
}

template <bool Fma>
void batched_diag_avx2(Complex* amps, std::size_t dim, std::size_t stride,
                       std::size_t count, const Complex* d, std::size_t bit_b,
                       std::size_t bit_a) {
  for_each_row(amps, dim, stride, bit_b, bit_a,
               [&](Complex* row, unsigned sel) {
                 scale_run<Fma>(row, d[sel], count);
               });
}

template <bool Fma>
void batched_diag_each_avx2(Complex* amps, std::size_t dim,
                            std::size_t stride, std::size_t count,
                            const Complex* ds, std::size_t bit_b,
                            std::size_t bit_a) {
  for_each_row(amps, dim, stride, bit_b, bit_a,
               [&](Complex* row, unsigned sel) {
                 const Complex* const f = ds + sel * count;
                 double* p = reinterpret_cast<double*>(row);
                 std::size_t b = 0;
                 for (; b + 2 <= count; b += 2) {
                   const double* da = reinterpret_cast<const double*>(f + b);
                   const double* db =
                       reinterpret_cast<const double*>(f + b + 1);
                   _mm256_storeu_pd(
                       p + 2 * b,
                       cmul<Fma>(dup2(da + 0, db + 0), dup2(da + 1, db + 1),
                                 _mm256_loadu_pd(p + 2 * b)));
                 }
                 for (; b < count; ++b) row[b] = csmul(row[b], f[b]);
               });
}

// ---------------------------------------------------------------------------
// Explicit instantiations: Fma = false is the strict (bit-identical)
// arm, Fma = true the fast arm.

// ---------------------------------------------------------------------------
// Batched brackets (both AVX2 arms): two columns per vector, rows in
// basis order, each column's sum accumulated exactly as the scalar
// bracket does — two-rounding products (no FMA even in the fast arm)
// and the same left-to-right sums — so every column stays bitwise the
// scalar bracket. Up to four column pairs keep their accumulators in
// registers for the whole row walk; an odd trailing column runs the
// csmul tail.

namespace {

/// conj(l) * v per complex lane: (lr*vr - (-li)*vi, lr*vi + (-li)*vr),
/// std::complex's operation sequence on the conjugated operand. The
/// first product is pinned so it cannot fuse into the addsub.
inline __m256d cconjmul_strict(__m256d l, __m256d v) noexcept {
  const __m256d lr = _mm256_movedup_pd(l);
  const __m256d li = _mm256_permute_pd(l, 0xF);
  __m256d pr = _mm256_mul_pd(lr, v);
  asm("" : "+x"(pr));
  const __m256d t = _mm256_mul_pd(li, _mm256_permute_pd(v, 0x5));
  return _mm256_addsub_pd(pr, _mm256_xor_pd(t, _mm256_set1_pd(-0.0)));
}

inline __m256d load_col(const Complex* row, std::size_t b) noexcept {
  return _mm256_loadu_pd(reinterpret_cast<const double*>(row + b));
}

/// The bracket matrices as vector lanes: one matrix splatted once
/// (broadcast), or column b's and b + 1's entries paired per use.
template <typename Mat, bool kEach>
class MatLanes {
 public:
  static constexpr std::size_t kEntries = std::tuple_size_v<Mat>;

  explicit MatLanes(const Mat* mats) : mats_(mats) {
    if constexpr (!kEach) {
      for (std::size_t k = 0; k < kEntries; ++k) {
        re_[k] = bc(mats[0][k].real());
        im_[k] = bc(mats[0][k].imag());
      }
    }
  }

  /// Entry k of columns (b, b + 1) times the two-column vector v.
  __m256d mul(std::size_t k, std::size_t b, __m256d v) const noexcept {
    if constexpr (kEach) {
      const auto* x = reinterpret_cast<const double*>(mats_[b].data() + k);
      const auto* y =
          reinterpret_cast<const double*>(mats_[b + 1].data() + k);
      return cmul<false>(dup2(x, y), dup2(x + 1, y + 1), v);
    } else {
      return cmul<false>(re_[k], im_[k], v);
    }
  }
  const Complex& at(std::size_t b, std::size_t k) const noexcept {
    return mats_[kEach ? b : 0][k];
  }

 private:
  const Mat* mats_;
  __m256d re_[kEach ? 1 : kEntries]{};
  __m256d im_[kEach ? 1 : kEntries]{};
};

/// Columns [b0, b0 + 2 * NP): accumulators in registers across rows.
template <int NP, typename MuPair>
void bracket_block(const Complex* lam, std::size_t dim, std::size_t stride,
                   std::size_t b0, Complex* out, const MuPair& mu_pair) {
  __m256d acc[NP];
  for (int v = 0; v < NP; ++v) acc[v] = _mm256_setzero_pd();
  for (std::size_t i = 0; i < dim; ++i) {
    const Complex* const l = lam + i * stride;
    for (int v = 0; v < NP; ++v) {
      const std::size_t b = b0 + 2 * static_cast<std::size_t>(v);
      acc[v] = _mm256_add_pd(acc[v],
                             cconjmul_strict(load_col(l, b), mu_pair(i, b)));
    }
  }
  auto* const o = reinterpret_cast<double*>(out + b0);
  for (int v = 0; v < NP; ++v) _mm256_storeu_pd(o + 4 * v, acc[v]);
}

/// out[b] = sum over rows i of conj(lam[i][b]) * mu(i, b). mu_pair
/// yields the vector for columns (b, b + 1), mu_one the scalar (csmul)
/// value for the odd trailing column.
template <typename MuPair, typename MuOne>
void bracket_columns(const Complex* lam, std::size_t dim, std::size_t stride,
                     std::size_t count, Complex* out, const MuPair& mu_pair,
                     const MuOne& mu_one) {
  std::size_t b = 0;
  for (; b + 8 <= count; b += 8) {
    bracket_block<4>(lam, dim, stride, b, out, mu_pair);
  }
  switch ((count - b) / 2) {
    case 3:
      bracket_block<3>(lam, dim, stride, b, out, mu_pair);
      b += 6;
      break;
    case 2:
      bracket_block<2>(lam, dim, stride, b, out, mu_pair);
      b += 4;
      break;
    case 1:
      bracket_block<1>(lam, dim, stride, b, out, mu_pair);
      b += 2;
      break;
    default:
      break;
  }
  if (b < count) {
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < dim; ++i) {
      acc += csmul(std::conj(lam[i * stride + b]), mu_one(i, b));
    }
    out[b] = acc;
  }
}

template <bool kEach>
void bracket_1q_lanes(const Complex* lam, const Complex* psi, std::size_t dim,
                      std::size_t stride, std::size_t count,
                      const Mat2* mats, bool diagonal, int q, Complex* out) {
  const MatLanes<Mat2, kEach> m(mats);
  const std::size_t bit = std::size_t{1} << q;
  if (diagonal) {
    bracket_columns(
        lam, dim, stride, count, out,
        [&](std::size_t i, std::size_t b) {
          return m.mul((i & bit) ? 3 : 0, b, load_col(psi + i * stride, b));
        },
        [&](std::size_t i, std::size_t b) {
          return csmul(psi[i * stride + b], m.at(b, (i & bit) ? 3 : 0));
        });
    return;
  }
  // Row i mixes the pair (i0, i1) with the matrix row its q bit selects.
  bracket_columns(
      lam, dim, stride, count, out,
      [&](std::size_t i, std::size_t b) {
        const std::size_t e = (i & bit) ? 2 : 0;
        return _mm256_add_pd(
            m.mul(e, b, load_col(psi + (i & ~bit) * stride, b)),
            m.mul(e + 1, b, load_col(psi + (i | bit) * stride, b)));
      },
      [&](std::size_t i, std::size_t b) {
        const std::size_t e = (i & bit) ? 2 : 0;
        return csmul(m.at(b, e), psi[(i & ~bit) * stride + b]) +
               csmul(m.at(b, e + 1), psi[(i | bit) * stride + b]);
      });
}

template <bool kEach>
void bracket_2q_lanes(const Complex* lam, const Complex* psi, std::size_t dim,
                      std::size_t stride, std::size_t count,
                      const Mat4* mats, bool diagonal, int qb, int qa,
                      Complex* out) {
  const MatLanes<Mat4, kEach> m(mats);
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  const std::size_t mask = bit_b | bit_a;
  const auto sel = [=](std::size_t i) {
    return ((i & bit_b) ? std::size_t{2} : 0) | ((i & bit_a) ? 1 : 0);
  };
  if (diagonal) {
    bracket_columns(
        lam, dim, stride, count, out,
        [&](std::size_t i, std::size_t b) {
          return m.mul(5 * sel(i), b, load_col(psi + i * stride, b));
        },
        [&](std::size_t i, std::size_t b) {
          return csmul(psi[i * stride + b], m.at(b, 5 * sel(i)));
        });
    return;
  }
  bracket_columns(
      lam, dim, stride, count, out,
      [&](std::size_t i, std::size_t b) {
        const std::size_t e = 4 * sel(i);
        const std::size_t base = i & ~mask;
        const auto mul = [&](std::size_t k, std::size_t row) {
          return m.mul(e + k, b, load_col(psi + row * stride, b));
        };
        return _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(mul(0, base), mul(1, base | bit_a)),
                          mul(2, base | bit_b)),
            mul(3, base | bit_b | bit_a));
      },
      [&](std::size_t i, std::size_t b) {
        const std::size_t e = 4 * sel(i);
        const std::size_t base = i & ~mask;
        const Complex row[4] = {m.at(b, e), m.at(b, e + 1), m.at(b, e + 2),
                                m.at(b, e + 3)};
        return csrow4(row, psi[base * stride + b],
                      psi[(base | bit_a) * stride + b],
                      psi[(base | bit_b) * stride + b],
                      psi[(base | bit_b | bit_a) * stride + b]);
      });
}

}  // namespace

void batched_bracket_1q_run_avx2(const Complex* lam, const Complex* psi,
                                 std::size_t dim, std::size_t stride,
                                 std::size_t count, const Mat2* mats,
                                 std::size_t step, bool diagonal, int q,
                                 Complex* out) {
  if (step == 0) {
    bracket_1q_lanes<false>(lam, psi, dim, stride, count, mats, diagonal, q,
                            out);
  } else {
    bracket_1q_lanes<true>(lam, psi, dim, stride, count, mats, diagonal, q,
                           out);
  }
}

void batched_bracket_2q_run_avx2(const Complex* lam, const Complex* psi,
                                 std::size_t dim, std::size_t stride,
                                 std::size_t count, const Mat4* mats,
                                 std::size_t step, bool diagonal, int qb,
                                 int qa, Complex* out) {
  if (step == 0) {
    bracket_2q_lanes<false>(lam, psi, dim, stride, count, mats, diagonal, qb,
                            qa, out);
  } else {
    bracket_2q_lanes<true>(lam, psi, dim, stride, count, mats, diagonal, qb,
                           qa, out);
  }
}

template void mat2_range_avx2<false>(Complex*, const Mat2&, int, std::size_t,
                                     std::size_t);
template void mat2_range_avx2<true>(Complex*, const Mat2&, int, std::size_t,
                                    std::size_t);
template void diag2_range_avx2<false>(Complex*, Complex, Complex, std::size_t,
                                      std::size_t, std::size_t);
template void diag2_range_avx2<true>(Complex*, Complex, Complex, std::size_t,
                                     std::size_t, std::size_t);
template void mat4_range_avx2<false>(Complex*, const Mat4&, int, int,
                                     std::size_t, std::size_t);
template void mat4_range_avx2<true>(Complex*, const Mat4&, int, int,
                                    std::size_t, std::size_t);
template void diag4_range_avx2<false>(Complex*, const Complex*, std::size_t,
                                      std::size_t, std::size_t, std::size_t);
template void diag4_range_avx2<true>(Complex*, const Complex*, std::size_t,
                                     std::size_t, std::size_t, std::size_t);
template void batched_mat2_avx2<false>(Complex*, std::size_t, std::size_t,
                                       std::size_t, const Mat2&, int);
template void batched_mat2_avx2<true>(Complex*, std::size_t, std::size_t,
                                      std::size_t, const Mat2&, int);
template void batched_mat2_each_avx2<false>(Complex*, std::size_t,
                                            std::size_t, std::size_t,
                                            const Mat2*, int);
template void batched_mat2_each_avx2<true>(Complex*, std::size_t, std::size_t,
                                           std::size_t, const Mat2*, int);
template void batched_mat4_avx2<false>(Complex*, std::size_t, std::size_t,
                                       std::size_t, const Mat4&, int, int);
template void batched_mat4_avx2<true>(Complex*, std::size_t, std::size_t,
                                      std::size_t, const Mat4&, int, int);
template void batched_mat4_each_avx2<false>(Complex*, std::size_t,
                                            std::size_t, std::size_t,
                                            const Mat4*, int, int);
template void batched_mat4_each_avx2<true>(Complex*, std::size_t, std::size_t,
                                           std::size_t, const Mat4*, int,
                                           int);
template void batched_diag_avx2<false>(Complex*, std::size_t, std::size_t,
                                       std::size_t, const Complex*,
                                       std::size_t, std::size_t);
template void batched_diag_avx2<true>(Complex*, std::size_t, std::size_t,
                                      std::size_t, const Complex*, std::size_t,
                                      std::size_t);
template void batched_diag_each_avx2<false>(Complex*, std::size_t,
                                            std::size_t, std::size_t,
                                            const Complex*, std::size_t,
                                            std::size_t);
template void batched_diag_each_avx2<true>(Complex*, std::size_t, std::size_t,
                                           std::size_t, const Complex*,
                                           std::size_t, std::size_t);

}  // namespace arbiterq::sim::kernels::detail

#endif  // ARBITERQ_SIMD_AVX2
