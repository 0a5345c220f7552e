#pragma once
// Private bridge between the kernel dispatcher (kernels.cpp) and the
// AVX2 translation unit (kernels_avx2.cpp, compiled with -mavx2 -mfma
// -ffp-contract=off and only when the toolchain targets x86). The
// templates are explicitly instantiated there for Fma = false (the
// strict, bit-identical arm) and Fma = true (the fast arm).

#include <cstddef>

#include "arbiterq/sim/kernels.hpp"

namespace arbiterq::sim::kernels::detail {

/// Spread `p` over the basis indices whose bit `q` is clear (the same
/// butterfly-group enumeration statevector.cpp has always used).
inline std::size_t insert_zero_bit(std::size_t p, int q) noexcept {
  const std::size_t low = (std::size_t{1} << q) - 1;
  return ((p & ~low) << 1) | (p & low);
}

/// Batched-register walkers shared by both arms: call `fn` with the row
/// pointers of every 1q butterfly group (r0, r1), every 2q group
/// (r00, r01, r10, r11, with a = the qa bit), or every row with its
/// diagonal selector. Rows are `stride` amplitudes apart.
template <typename Fn>
inline void for_each_pair(Complex* amps, std::size_t dim, std::size_t stride,
                          int q, Fn&& fn) {
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t p = 0; p < dim >> 1; ++p) {
    const std::size_t i0 = insert_zero_bit(p, q);
    fn(amps + i0 * stride, amps + (i0 | bit) * stride);
  }
}

template <typename Fn>
inline void for_each_quad(Complex* amps, std::size_t dim, std::size_t stride,
                          int qb, int qa, Fn&& fn) {
  const std::size_t bit_b = std::size_t{1} << qb;
  const std::size_t bit_a = std::size_t{1} << qa;
  const int q_lo = qb < qa ? qb : qa;
  const int q_hi = qb < qa ? qa : qb;
  for (std::size_t g = 0; g < dim >> 2; ++g) {
    const std::size_t i00 = insert_zero_bit(insert_zero_bit(g, q_lo), q_hi);
    fn(amps + i00 * stride, amps + (i00 | bit_a) * stride,
       amps + (i00 | bit_b) * stride, amps + (i00 | bit_b | bit_a) * stride);
  }
}

template <typename Fn>
inline void for_each_row(Complex* amps, std::size_t dim, std::size_t stride,
                         std::size_t bit_b, std::size_t bit_a, Fn&& fn) {
  for (std::size_t i = 0; i < dim; ++i) {
    const unsigned sel = ((i & bit_b) ? 2U : 0U) | ((i & bit_a) ? 1U : 0U);
    fn(amps + i * stride, sel);
  }
}

#if defined(ARBITERQ_SIMD_AVX2)

template <bool Fma>
void mat2_range_avx2(Complex* amps, const Mat2& m, int q, std::size_t lo,
                     std::size_t hi);
template <bool Fma>
void diag2_range_avx2(Complex* amps, Complex d0, Complex d1, std::size_t bit,
                      std::size_t lo, std::size_t hi);
template <bool Fma>
void mat4_range_avx2(Complex* amps, const Mat4& m, int qb, int qa,
                     std::size_t lo, std::size_t hi);
template <bool Fma>
void diag4_range_avx2(Complex* amps, const Complex* d, std::size_t bit_b,
                      std::size_t bit_a, std::size_t lo, std::size_t hi);

template <bool Fma>
void batched_mat2_avx2(Complex* amps, std::size_t dim, std::size_t stride,
                       std::size_t count, const Mat2& m, int q);
template <bool Fma>
void batched_mat2_each_avx2(Complex* amps, std::size_t dim,
                            std::size_t stride, std::size_t count,
                            const Mat2* mats, int q);
template <bool Fma>
void batched_mat4_avx2(Complex* amps, std::size_t dim, std::size_t stride,
                       std::size_t count, const Mat4& m, int qb, int qa);
template <bool Fma>
void batched_mat4_each_avx2(Complex* amps, std::size_t dim,
                            std::size_t stride, std::size_t count,
                            const Mat4* mats, int qb, int qa);
template <bool Fma>
void batched_diag_avx2(Complex* amps, std::size_t dim, std::size_t stride,
                       std::size_t count, const Complex* d, std::size_t bit_b,
                       std::size_t bit_a);
template <bool Fma>
void batched_diag_each_avx2(Complex* amps, std::size_t dim,
                            std::size_t stride, std::size_t count,
                            const Complex* ds, std::size_t bit_b,
                            std::size_t bit_a);

/// Batched brackets for both AVX2 arms (strict arithmetic in each):
/// column b reads mats[b * step]; `diagonal` picks the arm every
/// column's matrix takes (callers split runs, see kernels.cpp).
void batched_bracket_1q_run_avx2(const Complex* lam, const Complex* psi,
                                 std::size_t dim, std::size_t stride,
                                 std::size_t count, const Mat2* mats,
                                 std::size_t step, bool diagonal, int q,
                                 Complex* out);
void batched_bracket_2q_run_avx2(const Complex* lam, const Complex* psi,
                                 std::size_t dim, std::size_t stride,
                                 std::size_t count, const Mat4* mats,
                                 std::size_t step, bool diagonal, int qb,
                                 int qa, Complex* out);

#endif  // ARBITERQ_SIMD_AVX2

}  // namespace arbiterq::sim::kernels::detail
