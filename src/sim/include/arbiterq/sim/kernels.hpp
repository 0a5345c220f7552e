#pragma once
// Gate-application kernels behind a runtime CPU-dispatch layer.
//
// Every statevector butterfly (1q/2q, diagonal fast paths, the adjoint
// bracket reductions, and the sample-batched register kernels) funnels
// through the free functions below. Each call selects one of three
// arms, cached after first use:
//
//  * scalar    — portable reference loops, the exact arithmetic the
//                simulator has always used. Always compiled.
//  * AVX2      — non-FMA intrinsics. Complex multiply is lowered as
//                mul/addsub with the same operand order and the same
//                two roundings as std::complex, so the butterfly arms
//                are *bit-identical* to scalar, just 2 amplitudes per
//                instruction. This is the default on AVX2 hardware.
//  * AVX2+FMA  — fused multiply-add intrinsics. One rounding fewer per
//                complex multiply, so results differ from scalar by
//                ≤ 2 ULP per arithmetic step (tested in
//                test_kernels.cpp). Enabled only when strict
//                reproducibility is turned off.
//
// Dispatch controls, mirroring the telemetry kill-switch:
//  * ARBITERQ_SIMD=OFF (env) or set_simd_runtime_enabled(false) forces
//    the scalar arm — field regressions stay bisectable.
//  * ARBITERQ_STRICT_REPRO=0 (env) or set_strict_reproducibility(false)
//    opts into the FMA arm. The default is strict: every public result
//    is bit-identical to the scalar build.
//
// Reduction caveat: the bracket kernels accumulate over amplitude
// indices, so a vector accumulator would change the summation
// association. The unbatched brackets (used by the circuit-walk
// adjoint, the reference oracle) therefore run scalar in every arm;
// the batched brackets vectorize across columns, not indices, so their
// AVX2 form keeps the scalar association in every arm too.

#include <complex>
#include <cstddef>
#include <cstdint>

#include "arbiterq/circuit/unitary.hpp"

namespace arbiterq::sim::kernels {

using circuit::Complex;
using circuit::Mat2;
using circuit::Mat4;

// ---------------------------------------------------------------------------
// Matrix classification

/// What a gate matrix lets a kernel skip, checked in this order:
///  * kDiagonal      — every off-diagonal entry is an exact zero (of
///                     either sign): one multiply per amplitude.
///  * kTransposition — every entry is exactly 1 (+-0i) or an exact zero,
///                     one 1 per row and column, and exactly two basis
///                     rows trade places (CX either way round, SWAP, X):
///                     a pure amplitude move, no arithmetic.
///  * kDense         — anything else, including near misses (1 + 1 ulp,
///                     a -1 entry, a 3-cycle).
/// Rows are numbered like batched_diag's selector: 2 * (qb bit) + (qa
/// bit) for a 4x4 matrix, the q bit for a 2x2 one.
struct MatShape {
  enum class Kind : std::uint8_t { kDiagonal, kTransposition, kDense };
  Kind kind = Kind::kDense;
  /// kTransposition only: the two rows that trade places, from < to.
  std::uint8_t from = 0;
  std::uint8_t to = 0;
  bool operator==(const MatShape&) const = default;
};

MatShape classify(const Mat2& m) noexcept;
MatShape classify(const Mat4& m) noexcept;

// ---------------------------------------------------------------------------
// Dispatch control

/// True when the AVX2 arms were compiled into this binary.
bool simd_compiled() noexcept;
/// True when the running CPU reports AVX2 + FMA.
bool simd_supported() noexcept;

/// Runtime kill-switch. First call reads ARBITERQ_SIMD from the
/// environment ("0"/"off"/"false" disable); set_simd_runtime_enabled
/// overrides it for the process.
bool simd_runtime_enabled() noexcept;
void set_simd_runtime_enabled(bool enabled) noexcept;

/// Strict-reproducibility flag (default on). First call reads
/// ARBITERQ_STRICT_REPRO ("0"/"off"/"false" relax it). While strict,
/// every kernel result is bit-identical to the scalar arm.
bool strict_reproducibility() noexcept;
void set_strict_reproducibility(bool strict) noexcept;

enum class KernelArch { kScalar, kAvx2, kAvx2Fma };

/// The arm the next kernel call will take.
KernelArch active_arch() noexcept;
const char* arch_name(KernelArch arch) noexcept;

// ---------------------------------------------------------------------------
// Unbatched statevector kernels
//
// The range kernels cover butterfly groups (or raw amplitude indices
// for the diagonal forms) [lo, hi), matching the chunking of
// exec::parallel_for: every chunk writes a disjoint index slice and
// per-amplitude arithmetic is chunk-independent, so the thread-count
// determinism contract is untouched.

/// General 1q butterfly over groups [lo, hi); group p targets
/// amplitude pair (insert_zero_bit(p, q), | 1<<q).
void apply_mat2_range(Complex* amps, const Mat2& m, int q, std::size_t lo,
                      std::size_t hi);
/// Diagonal 1q fast path over amplitude indices [lo, hi).
void apply_diag2_range(Complex* amps, Complex d0, Complex d1, std::size_t bit,
                       std::size_t lo, std::size_t hi);
/// General 2q butterfly over groups [lo, hi).
void apply_mat4_range(Complex* amps, const Mat4& m, int qb, int qa,
                      std::size_t lo, std::size_t hi);
/// Diagonal 2q fast path over amplitude indices [lo, hi); d holds the
/// four diagonal entries selected by (bit_b, bit_a).
void apply_diag4_range(Complex* amps, const Complex* d, std::size_t bit_b,
                       std::size_t bit_a, std::size_t lo, std::size_t hi);

/// <lambda| M |psi> accumulated in amplitude-index order, including the
/// diagonal dispatch of Statevector::apply_mat2/apply_mat4 (which treat
/// a transposition as dense; see adjoint.cpp for the contract).
Complex bracket_1q(const Complex* lam, const Complex* psi, std::size_t n,
                   const Mat2& m, int q);
Complex bracket_2q(const Complex* lam, const Complex* psi, std::size_t n,
                   const Mat4& m, int qb, int qa);

// ---------------------------------------------------------------------------
// Sample-batched register kernels
//
// A batched register stores `dim` rows of `stride` amplitudes, one row
// per basis index (structure of arrays). Each kernel applies one gate to
// columns [0, count) of every row (count <= stride), so the arm is
// chosen once per gate rather than once per butterfly group. Per-column
// arithmetic is identical to the unbatched kernels and independent of
// count and of the column's position in the row, so under strict
// reproducibility a column evolves bit-identically to an unbatched
// Statevector. A caller addressing a column sub-range passes
// `amps + first_column` with the same stride.

/// Broadcast 1q butterfly on qubit q: every column shares matrix m.
void batched_mat2(Complex* amps, std::size_t dim, std::size_t stride,
                  std::size_t count, const Mat2& m, int q);
/// Per-column matrices: mats[b] applies to column b.
void batched_mat2_each(Complex* amps, std::size_t dim, std::size_t stride,
                       std::size_t count, const Mat2* mats, int q);
/// Broadcast / per-column 2q butterflies on qubits (qb, qa).
void batched_mat4(Complex* amps, std::size_t dim, std::size_t stride,
                  std::size_t count, const Mat4& m, int qb, int qa);
void batched_mat4_each(Complex* amps, std::size_t dim, std::size_t stride,
                       std::size_t count, const Mat4* mats, int qb, int qa);
/// Diagonal fast path: row i is scaled by d[sel], where
/// sel = ((i & bit_b) ? 2 : 0) | ((i & bit_a) ? 1 : 0). A 1q diagonal
/// passes bit_b = 0 and its two entries in d[0], d[1].
void batched_diag(Complex* amps, std::size_t dim, std::size_t stride,
                  std::size_t count, const Complex* d, std::size_t bit_b,
                  std::size_t bit_a);
/// Per-column diagonal: row i, column b is scaled by ds[sel * count + b].
void batched_diag_each(Complex* amps, std::size_t dim, std::size_t stride,
                       std::size_t count, const Complex* ds,
                       std::size_t bit_b, std::size_t bit_a);
/// Transposition fast path: every row whose selector (as in
/// batched_diag) is `from` trades columns [0, count) with the row that
/// differs only in having selector `to`. A pure move with no arithmetic,
/// so there is one arm for every architecture. Against the dense kernel
/// on the same 0/1 matrix (which computes 1*a + 0*b + ...) every entry
/// compares ==, and every nonzero entry has identical bits: the dense
/// sum can differ only in the sign of an exact zero.
void batched_swap_rows(Complex* amps, std::size_t dim, std::size_t stride,
                       std::size_t count, std::size_t bit_b,
                       std::size_t bit_a, unsigned from, unsigned to);

/// Batched adjoint brackets: out[b] = <lam_b| M |psi_b> for columns
/// [0, count) of two registers with the same shape. Rows are walked in
/// basis order with the columns as lanes, so every column's sum has the
/// exact association (and the same diagonal dispatch) as bracket_1q /
/// bracket_2q's scalar arm run on that column alone. That holds in
/// every arm: the AVX2 form keeps two-rounding products even when
/// strict reproducibility is off, as its lanes are columns rather than
/// a reassociated sum. The _each forms take mats[b] for column b.
void batched_bracket_1q(const Complex* lam, const Complex* psi,
                        std::size_t dim, std::size_t stride,
                        std::size_t count, const Mat2& m, int q,
                        Complex* out);
void batched_bracket_1q_each(const Complex* lam, const Complex* psi,
                             std::size_t dim, std::size_t stride,
                             std::size_t count, const Mat2* mats, int q,
                             Complex* out);
void batched_bracket_2q(const Complex* lam, const Complex* psi,
                        std::size_t dim, std::size_t stride,
                        std::size_t count, const Mat4& m, int qb, int qa,
                        Complex* out);
void batched_bracket_2q_each(const Complex* lam, const Complex* psi,
                             std::size_t dim, std::size_t stride,
                             std::size_t count, const Mat4* mats, int qb,
                             int qa, Complex* out);

}  // namespace arbiterq::sim::kernels
