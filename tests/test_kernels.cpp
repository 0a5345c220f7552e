// Randomized kernel-equivalence suite for the CPU-dispatch layer
// (sim/kernels.hpp): every SIMD arm against the scalar reference, over
// the full gate set (including noise-biased angles and fully random
// matrices), adjoint brackets (scalar in every arm), 1..8-qubit
// registers, partial dispatch ranges, and the sample-batched register
// kernels at live widths 1..33 inside rows of equal or greater stride. Under strict reproducibility
// (the default) the comparison is bitwise; with strict relaxed the FMA
// arm is held to a tight ULP-scale bound. The matrix classifier, the
// row-swap arm (against the dense kernels on registers that hold exact
// signed zeros) and the batched brackets (against the scalar bracket per
// column) are checked in both modes.

#include "arbiterq/sim/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/statevector.hpp"

namespace arbiterq::sim {
namespace {

using circuit::GateKind;
using circuit::Mat2;
using circuit::Mat4;

/// Restores the dispatch flags on scope exit so one test's overrides
/// never leak into another (or into a different test binary ordering).
class FlagGuard {
 public:
  FlagGuard()
      : simd_(kernels::simd_runtime_enabled()),
        strict_(kernels::strict_reproducibility()) {}
  ~FlagGuard() {
    kernels::set_simd_runtime_enabled(simd_);
    kernels::set_strict_reproducibility(strict_);
  }

 private:
  bool simd_;
  bool strict_;
};

AmpVector random_state(int nq, math::Rng& rng) {
  AmpVector v(std::size_t{1} << nq);
  for (Complex& a : v) a = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return v;
}

std::array<double, 3> random_angles(math::Rng& rng) {
  // A coherent calibration bias folded into the polar angle — the shape
  // noisy plans feed the kernels — is just another random angle here.
  return {rng.uniform(-3.0, 3.0) + rng.uniform(-0.1, 0.1),
          rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
}

std::vector<Mat2> all_mat2(math::Rng& rng) {
  std::vector<Mat2> ms;
  for (GateKind k :
       {GateKind::kI, GateKind::kX, GateKind::kY, GateKind::kZ, GateKind::kH,
        GateKind::kS, GateKind::kSdg, GateKind::kSX, GateKind::kRX,
        GateKind::kRY, GateKind::kRZ, GateKind::kU3}) {
    ms.push_back(circuit::gate_matrix_1q(k, random_angles(rng)));
  }
  Mat2 r;
  for (Complex& c : r) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  ms.push_back(r);  // non-unitary: the kernels must not assume unitarity
  return ms;
}

std::vector<Mat4> all_mat4(math::Rng& rng) {
  std::vector<Mat4> ms;
  for (GateKind k : {GateKind::kCX, GateKind::kCZ, GateKind::kCRX,
                     GateKind::kCRY, GateKind::kCRZ, GateKind::kSwap}) {
    ms.push_back(circuit::gate_matrix_2q(k, random_angles(rng)));
  }
  Mat4 r;
  for (Complex& c : r) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  ms.push_back(r);
  return ms;
}

void expect_bitwise(const AmpVector& got, const AmpVector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "amp " << i;
  }
}

void expect_ulp_close(const AmpVector& got, const AmpVector& want,
                      double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(std::abs(got[i] - want[i]), 0.0, tol) << "amp " << i;
  }
}

/// Applies `apply` to a copy of `init` under (a) forced scalar, (b) the
/// active dispatch arm, and checks bitwise equality when `strict`.
template <typename Apply>
void compare_arms(const AmpVector& init, bool strict, double tol,
                  const Apply& apply) {
  AmpVector ref = init;
  kernels::set_simd_runtime_enabled(false);
  apply(ref.data());
  AmpVector got = init;
  kernels::set_simd_runtime_enabled(true);
  apply(got.data());
  if (strict) {
    expect_bitwise(got, ref);
  } else {
    expect_ulp_close(got, ref, tol);
  }
}

TEST(KernelDispatch, KillSwitchForcesScalar) {
  FlagGuard guard;
  kernels::set_simd_runtime_enabled(false);
  EXPECT_EQ(kernels::active_arch(), kernels::KernelArch::kScalar);
  kernels::set_simd_runtime_enabled(true);
  if (kernels::simd_compiled() && kernels::simd_supported()) {
    EXPECT_NE(kernels::active_arch(), kernels::KernelArch::kScalar);
  } else {
    EXPECT_EQ(kernels::active_arch(), kernels::KernelArch::kScalar);
  }
}

TEST(KernelDispatch, StrictModeNeverSelectsFma) {
  FlagGuard guard;
  kernels::set_simd_runtime_enabled(true);
  kernels::set_strict_reproducibility(true);
  EXPECT_NE(kernels::active_arch(), kernels::KernelArch::kAvx2Fma);
  kernels::set_strict_reproducibility(false);
  if (kernels::simd_compiled() && kernels::simd_supported()) {
    EXPECT_EQ(kernels::active_arch(), kernels::KernelArch::kAvx2Fma);
  }
}

TEST(KernelDispatch, ArchNamesAreStable) {
  EXPECT_STREQ(kernels::arch_name(kernels::KernelArch::kScalar), "scalar");
}

class KernelEquivalence : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    kernels::set_simd_runtime_enabled(true);
    kernels::set_strict_reproducibility(GetParam());
  }
  bool strict() const { return GetParam(); }
  /// Tolerance for the FMA arm: a handful of ULPs per arithmetic step
  /// on O(1) amplitudes.
  static constexpr double kTol = 1e-13;

  FlagGuard guard_;
};

TEST_P(KernelEquivalence, Mat2AllQubitsAndKinds) {
  math::Rng rng(101);
  for (int nq = 1; nq <= 8; ++nq) {
    const AmpVector init = random_state(nq, rng);
    const std::size_t groups = init.size() >> 1;
    for (int q = 0; q < nq; ++q) {
      for (const Mat2& m : all_mat2(rng)) {
        compare_arms(init, strict(), kTol, [&](Complex* amps) {
          kernels::apply_mat2_range(amps, m, q, 0, groups);
        });
      }
    }
  }
}

TEST_P(KernelEquivalence, Diag2AllBits) {
  math::Rng rng(102);
  for (int nq = 1; nq <= 8; ++nq) {
    const AmpVector init = random_state(nq, rng);
    for (int q = 0; q < nq; ++q) {
      const Complex d0{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      const Complex d1{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      compare_arms(init, strict(), kTol, [&](Complex* amps) {
        kernels::apply_diag2_range(amps, d0, d1, std::size_t{1} << q, 0,
                                   init.size());
      });
    }
  }
}

TEST_P(KernelEquivalence, Mat4AllQubitPairsAndKinds) {
  math::Rng rng(103);
  for (int nq = 2; nq <= 8; ++nq) {
    const AmpVector init = random_state(nq, rng);
    const std::size_t groups = init.size() >> 2;
    for (int qb = 0; qb < nq; ++qb) {
      for (int qa = 0; qa < nq; ++qa) {
        if (qa == qb) continue;
        for (const Mat4& m : all_mat4(rng)) {
          compare_arms(init, strict(), kTol, [&](Complex* amps) {
            kernels::apply_mat4_range(amps, m, qb, qa, 0, groups);
          });
        }
      }
    }
  }
}

TEST_P(KernelEquivalence, Diag4AllBitPairs) {
  math::Rng rng(104);
  for (int nq = 2; nq <= 8; ++nq) {
    const AmpVector init = random_state(nq, rng);
    for (int qb = 0; qb < nq; ++qb) {
      for (int qa = 0; qa < nq; ++qa) {
        if (qa == qb) continue;
        Complex d[4];
        for (Complex& c : d) {
          c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        }
        compare_arms(init, strict(), kTol, [&](Complex* amps) {
          kernels::apply_diag4_range(amps, d, std::size_t{1} << qb,
                                     std::size_t{1} << qa, 0, init.size());
        });
      }
    }
  }
}

TEST_P(KernelEquivalence, PartialRangesExerciseHeadsAndTails) {
  // parallel_for hands the kernels arbitrary [lo, hi) chunks; the SIMD
  // heads/tails must land on exactly the same amplitudes as scalar.
  math::Rng rng(105);
  const int nq = 7;
  const AmpVector init = random_state(nq, rng);
  for (int rep = 0; rep < 24; ++rep) {
    const int q = static_cast<int>(rng.uniform_int(nq));
    const Mat2 m = circuit::gate_matrix_1q(GateKind::kU3, random_angles(rng));
    const std::size_t groups = init.size() >> 1;
    std::size_t lo = rng.uniform_int(groups);
    std::size_t hi = rng.uniform_int(groups + 1);
    if (lo > hi) std::swap(lo, hi);
    compare_arms(init, strict(), kTol, [&](Complex* amps) {
      kernels::apply_mat2_range(amps, m, q, lo, hi);
    });
    const std::size_t dlo = rng.uniform_int(init.size());
    compare_arms(init, strict(), kTol, [&](Complex* amps) {
      kernels::apply_diag2_range(amps, Complex{0.6, -0.8}, Complex{0.0, 1.0},
                                 std::size_t{1} << q, dlo, init.size());
    });
  }
}

TEST_P(KernelEquivalence, BracketsMatchScalarReference) {
  // The unbatched brackets back the circuit-walk oracle and keep the
  // scalar reduction in every arm and mode.
  math::Rng rng(106);
  for (int nq = 1; nq <= 8; ++nq) {
    const AmpVector lam = random_state(nq, rng);
    const AmpVector psi = random_state(nq, rng);
    for (int q = 0; q < nq; ++q) {
      for (const Mat2& m : all_mat2(rng)) {
        kernels::set_simd_runtime_enabled(false);
        const Complex ref =
            kernels::bracket_1q(lam.data(), psi.data(), psi.size(), m, q);
        kernels::set_simd_runtime_enabled(true);
        EXPECT_EQ(kernels::bracket_1q(lam.data(), psi.data(), psi.size(), m,
                                      q),
                  ref);
      }
    }
    if (nq < 2) continue;
    for (int qb = 0; qb < nq; ++qb) {
      for (int qa = 0; qa < nq; ++qa) {
        if (qa == qb) continue;
        for (const Mat4& m : all_mat4(rng)) {
          kernels::set_simd_runtime_enabled(false);
          const Complex ref = kernels::bracket_2q(lam.data(), psi.data(),
                                                  psi.size(), m, qb, qa);
          kernels::set_simd_runtime_enabled(true);
          EXPECT_EQ(kernels::bracket_2q(lam.data(), psi.data(), psi.size(),
                                        m, qb, qa),
                    ref);
        }
      }
    }
  }
}

TEST_P(KernelEquivalence, BatchedRegisterKernelsMatchPerColumnScalar) {
  // Every register kernel at live widths 1..33, in rows exactly that
  // wide and in wider rows (live < stride, the trajectory sampler's
  // shape), on every qubit and ordered qubit pair of a 3-qubit
  // register. Three checks per op: the active arm equals the scalar
  // arm, the scalar arm equals the unbatched scalar kernel run on each
  // column alone, and columns past the live width are untouched.
  math::Rng rng(107);
  constexpr int kQubits = 3;
  constexpr std::size_t kDim = std::size_t{1} << kQubits;
  struct Op {
    std::function<void(Complex*)> batched;
    /// Unbatched equivalent on column b, extracted to kDim amplitudes.
    std::function<void(Complex*, std::size_t)> column;
  };
  for (std::size_t count = 1; count <= 33; ++count) {
    for (const std::size_t stride : {count, count + 3}) {
      AmpVector init(kDim * stride);
      for (Complex& a : init) {
        a = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      }
      std::vector<Mat2> m2s;
      std::vector<Mat4> m4s;
      std::vector<Complex> ds(4 * count);
      for (std::size_t b = 0; b < count; ++b) {
        m2s.push_back(circuit::gate_matrix_1q(
            b % 3 == 0 ? GateKind::kRY : GateKind::kU3, random_angles(rng)));
        m4s.push_back(circuit::gate_matrix_2q(
            b % 2 == 0 ? GateKind::kCRX : GateKind::kCRY, random_angles(rng)));
      }
      for (Complex& c : ds) {
        c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      }
      Complex d[4];
      for (Complex& c : d) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      const Mat2 m2 =
          circuit::gate_matrix_1q(GateKind::kU3, random_angles(rng));
      const Mat4 m4 =
          circuit::gate_matrix_2q(GateKind::kCRX, random_angles(rng));

      std::vector<Op> ops;
      for (int q = 0; q < kQubits; ++q) {
        const std::size_t bit = std::size_t{1} << q;
        ops.push_back(
            {[&, q](Complex* a) {
               kernels::batched_mat2(a, kDim, stride, count, m2, q);
             },
             [&, q](Complex* c, std::size_t) {
               kernels::apply_mat2_range(c, m2, q, 0, kDim / 2);
             }});
        ops.push_back(
            {[&, q](Complex* a) {
               kernels::batched_mat2_each(a, kDim, stride, count, m2s.data(),
                                          q);
             },
             [&, q](Complex* c, std::size_t b) {
               kernels::apply_mat2_range(c, m2s[b], q, 0, kDim / 2);
             }});
        // 1q diagonal fast path: bit_b = 0 selects d[0] / d[1].
        ops.push_back(
            {[&, bit](Complex* a) {
               kernels::batched_diag(a, kDim, stride, count, d, 0, bit);
             },
             [&, bit](Complex* c, std::size_t) {
               kernels::apply_diag2_range(c, d[0], d[1], bit, 0, kDim);
             }});
        ops.push_back(
            {[&, bit](Complex* a) {
               kernels::batched_diag_each(a, kDim, stride, count, ds.data(),
                                          0, bit);
             },
             [&, bit](Complex* c, std::size_t b) {
               kernels::apply_diag2_range(c, ds[b], ds[count + b], bit, 0,
                                          kDim);
             }});
      }
      for (int qb = 0; qb < kQubits; ++qb) {
        for (int qa = 0; qa < kQubits; ++qa) {
          if (qa == qb) continue;
          const std::size_t bb = std::size_t{1} << qb;
          const std::size_t ba = std::size_t{1} << qa;
          ops.push_back(
              {[&, qb, qa](Complex* a) {
                 kernels::batched_mat4(a, kDim, stride, count, m4, qb, qa);
               },
               [&, qb, qa](Complex* c, std::size_t) {
                 kernels::apply_mat4_range(c, m4, qb, qa, 0, kDim / 4);
               }});
          ops.push_back(
              {[&, qb, qa](Complex* a) {
                 kernels::batched_mat4_each(a, kDim, stride, count,
                                            m4s.data(), qb, qa);
               },
               [&, qb, qa](Complex* c, std::size_t b) {
                 kernels::apply_mat4_range(c, m4s[b], qb, qa, 0, kDim / 4);
               }});
          // 2q diagonal fast path.
          ops.push_back(
              {[&, bb, ba](Complex* a) {
                 kernels::batched_diag(a, kDim, stride, count, d, bb, ba);
               },
               [&, bb, ba](Complex* c, std::size_t) {
                 kernels::apply_diag4_range(c, d, bb, ba, 0, kDim);
               }});
          ops.push_back(
              {[&, bb, ba](Complex* a) {
                 kernels::batched_diag_each(a, kDim, stride, count, ds.data(),
                                            bb, ba);
               },
               [&, bb, ba](Complex* c, std::size_t b) {
                 const Complex col_d[4] = {ds[b], ds[count + b],
                                           ds[2 * count + b],
                                           ds[3 * count + b]};
                 kernels::apply_diag4_range(c, col_d, bb, ba, 0, kDim);
               }});
        }
      }

      for (std::size_t k = 0; k < ops.size(); ++k) {
        SCOPED_TRACE(::testing::Message() << "count " << count << " stride "
                                          << stride << " op " << k);
        compare_arms(init, strict(), kTol, ops[k].batched);
        AmpVector reg = init;
        kernels::set_simd_runtime_enabled(false);
        ops[k].batched(reg.data());
        for (std::size_t b = 0; b < stride; ++b) {
          AmpVector col(kDim);
          for (std::size_t i = 0; i < kDim; ++i) col[i] = init[i * stride + b];
          if (b < count) ops[k].column(col.data(), b);
          for (std::size_t i = 0; i < kDim; ++i) {
            EXPECT_EQ(reg[i * stride + b], col[i]) << "col " << b << " amp "
                                                   << i;
          }
        }
        kernels::set_simd_runtime_enabled(true);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Matrix classifier and the transposition (row-swap) arm

using Shape = kernels::MatShape;

Shape transposition(unsigned from, unsigned to) {
  return {Shape::Kind::kTransposition, static_cast<std::uint8_t>(from),
          static_cast<std::uint8_t>(to)};
}

/// CX with the roles of the two qubits exchanged: control on the qa
/// (low) bit, so rows 01 and 11 trade places.
Mat4 cx_reversed() {
  Mat4 m{};
  m[4 * 0 + 0] = m[4 * 2 + 2] = 1.0;  // rows 00 and 10 fixed
  m[4 * 1 + 3] = m[4 * 3 + 1] = 1.0;
  return m;
}

TEST(MatrixClassifier, GateSetShapes) {
  const std::array<double, 3> a{{0.7, -0.3, 1.1}};
  const auto m1 = [&](GateKind k) { return circuit::gate_matrix_1q(k, a); };
  const auto m2 = [&](GateKind k) { return circuit::gate_matrix_2q(k, a); };
  const Shape diag{Shape::Kind::kDiagonal, 0, 0};
  const Shape dense{};
  for (GateKind k : {GateKind::kI, GateKind::kZ, GateKind::kS,
                     GateKind::kSdg, GateKind::kRZ}) {
    EXPECT_EQ(kernels::classify(m1(k)), diag) << static_cast<int>(k);
  }
  for (GateKind k : {GateKind::kY, GateKind::kH, GateKind::kSX, GateKind::kRX,
                     GateKind::kRY, GateKind::kU3}) {
    EXPECT_EQ(kernels::classify(m1(k)), dense) << static_cast<int>(k);
  }
  EXPECT_EQ(kernels::classify(m1(GateKind::kX)), transposition(0, 1));
  EXPECT_EQ(kernels::classify(m2(GateKind::kCZ)), diag);
  EXPECT_EQ(kernels::classify(m2(GateKind::kCRZ)), diag);
  EXPECT_EQ(kernels::classify(m2(GateKind::kCRX)), dense);
  EXPECT_EQ(kernels::classify(m2(GateKind::kCRY)), dense);
  EXPECT_EQ(kernels::classify(m2(GateKind::kCX)), transposition(2, 3));
  EXPECT_EQ(kernels::classify(m2(GateKind::kSwap)), transposition(1, 2));
  EXPECT_EQ(kernels::classify(cx_reversed()), transposition(1, 3));

  // Near misses take the dense path: one entry a ulp off 1, a -1, a
  // tiny imaginary part, a 3-cycle, two disjoint transpositions, and a
  // 0/1 matrix that is not a permutation.
  const double one_up = std::nextafter(1.0, 2.0);
  std::vector<Mat4> near4;
  for (const Complex v : {Complex{one_up, 0.0}, Complex{-1.0, 0.0},
                          Complex{1.0, 1e-300}}) {
    Mat4 m = m2(GateKind::kCX);
    m[4 * 2 + 3] = v;
    near4.push_back(m);
  }
  Mat4 cycle{};
  cycle[4 * 0 + 0] = cycle[4 * 1 + 2] = cycle[4 * 2 + 3] = cycle[4 * 3 + 1] =
      1.0;
  near4.push_back(cycle);
  Mat4 xx{};
  xx[4 * 0 + 3] = xx[4 * 3 + 0] = xx[4 * 1 + 2] = xx[4 * 2 + 1] = 1.0;
  near4.push_back(xx);
  Mat4 twice = m2(GateKind::kCX);
  twice[4 * 2 + 3] = 0.0;
  twice[4 * 2 + 2] = 1.0;  // rows 10 and 11 both read column 10
  near4.push_back(twice);
  for (std::size_t i = 0; i < near4.size(); ++i) {
    EXPECT_EQ(kernels::classify(near4[i]), dense) << "near miss " << i;
  }
  Mat2 x_up = m1(GateKind::kX);
  x_up[1] = one_up;
  EXPECT_EQ(kernels::classify(x_up), dense);
  Mat2 x_neg = m1(GateKind::kX);
  x_neg[2] = -1.0;
  EXPECT_EQ(kernels::classify(x_neg), dense);
  // Signed zeros are zeros: -0 off the diagonal keeps a matrix diagonal
  // and a -0 imaginary part keeps an entry exactly one.
  Mat2 z = m1(GateKind::kZ);
  z[1] = Complex{-0.0, -0.0};
  EXPECT_EQ(kernels::classify(z), diag);
  Mat2 x = m1(GateKind::kX);
  x[1] = Complex{1.0, -0.0};
  EXPECT_EQ(kernels::classify(x), transposition(0, 1));
}

/// A random amplitude with exact +0 / -0 components about half the time.
Complex signed_zero_amp(math::Rng& rng) {
  const auto part = [&rng] {
    const double u = rng.uniform();
    if (u < 0.25) return 0.0;
    if (u < 0.5) return -0.0;
    return rng.uniform(-1.0, 1.0);
  };
  const double re = part();
  return {re, part()};
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// `got` (the swap arm) against `want` (the dense kernel): == on every
/// entry, identical bits on every nonzero component.
void expect_swap_matches_dense(const AmpVector& got, const AmpVector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "amp " << i;
    const double g[2] = {got[i].real(), got[i].imag()};
    const double w[2] = {want[i].real(), want[i].imag()};
    for (int k = 0; k < 2; ++k) {
      if (w[k] != 0.0) {
        EXPECT_EQ(bits_of(g[k]), bits_of(w[k])) << "amp " << i;
      }
    }
  }
}

TEST_P(KernelEquivalence, SwapRowsMatchDenseOnExactTranspositions) {
  // CX both ways round and SWAP on every ordered pair of a 4-qubit
  // register, X on every qubit; live widths 1..33 at row stride live and
  // live + 3; the dense reference from both arms. Columns past the live
  // width must keep their exact bits.
  math::Rng rng(109);
  constexpr int kQubits = 4;
  constexpr std::size_t kDim = std::size_t{1} << kQubits;
  const Mat2 x = circuit::gate_matrix_1q(GateKind::kX, {});
  const std::vector<Mat4> m4s = {circuit::gate_matrix_2q(GateKind::kCX, {}),
                                 cx_reversed(),
                                 circuit::gate_matrix_2q(GateKind::kSwap, {})};
  std::size_t signed_zero_flips = 0;
  for (std::size_t count = 1; count <= 33; ++count) {
    for (const std::size_t stride : {count, count + 3}) {
      AmpVector init(kDim * stride);
      for (Complex& a : init) a = signed_zero_amp(rng);
      struct Case {
        std::function<void(Complex*)> swap;
        std::function<void(Complex*)> dense;
      };
      std::vector<Case> cases;
      for (int q = 0; q < kQubits; ++q) {
        const Shape s = kernels::classify(x);
        const std::size_t bit = std::size_t{1} << q;
        cases.push_back(
            {[&, s, bit](Complex* a) {
               kernels::batched_swap_rows(a, kDim, stride, count, 0, bit,
                                          s.from, s.to);
             },
             [&, q](Complex* a) {
               kernels::batched_mat2(a, kDim, stride, count, x, q);
             }});
      }
      for (int qb = 0; qb < kQubits; ++qb) {
        for (int qa = 0; qa < kQubits; ++qa) {
          if (qa == qb) continue;
          for (const Mat4& m : m4s) {
            const Shape s = kernels::classify(m);
            const std::size_t bb = std::size_t{1} << qb;
            const std::size_t ba = std::size_t{1} << qa;
            cases.push_back(
                {[&, s, bb, ba](Complex* a) {
                   kernels::batched_swap_rows(a, kDim, stride, count, bb, ba,
                                              s.from, s.to);
                 },
                 [&, qb, qa](Complex* a) {
                   kernels::batched_mat4(a, kDim, stride, count, m, qb, qa);
                 }});
          }
        }
      }
      for (std::size_t k = 0; k < cases.size(); ++k) {
        SCOPED_TRACE(::testing::Message() << "count " << count << " stride "
                                          << stride << " case " << k);
        AmpVector got = init;
        cases[k].swap(got.data());
        for (const bool simd : {false, true}) {
          kernels::set_simd_runtime_enabled(simd);
          AmpVector want = init;
          cases[k].dense(want.data());
          expect_swap_matches_dense(got, want);
          for (std::size_t i = 0; i < got.size(); ++i) {
            if (std::signbit(got[i].real()) != std::signbit(want[i].real()) ||
                std::signbit(got[i].imag()) != std::signbit(want[i].imag())) {
              ++signed_zero_flips;
            }
          }
        }
        for (std::size_t i = 0; i < kDim; ++i) {
          for (std::size_t b = count; b < stride; ++b) {
            const Complex& g = got[i * stride + b];
            const Complex& w = init[i * stride + b];
            EXPECT_EQ(bits_of(g.real()), bits_of(w.real()));
            EXPECT_EQ(bits_of(g.imag()), bits_of(w.imag()));
          }
        }
      }
    }
  }
  // The registers do reach the case the == contract exists for.
  EXPECT_GT(signed_zero_flips, 0U);
}

TEST_P(KernelEquivalence, RegisterTakesDenseArmOnNearMisses) {
  // Through BatchedStatevector's own dispatch: a near-miss matrix must
  // give exactly the dense kernel's bits, and an exact CX the swap's.
  math::Rng rng(110);
  constexpr int kQubits = 3;
  constexpr std::size_t kDim = std::size_t{1} << kQubits;
  constexpr std::size_t kBatch = 5;
  Mat4 cx_up = circuit::gate_matrix_2q(GateKind::kCX, {});
  cx_up[4 * 3 + 2] = std::nextafter(1.0, 2.0);
  Mat4 cx_neg = circuit::gate_matrix_2q(GateKind::kCX, {});
  cx_neg[4 * 2 + 3] = -1.0;
  BatchedStatevector st;
  st.configure(kQubits, kBatch);
  for (const Mat4& m : {cx_up, cx_neg}) {
    for (std::size_t i = 0; i < kDim; ++i) {
      for (std::size_t b = 0; b < kBatch; ++b) {
        st.row(i)[b] = signed_zero_amp(rng);
      }
    }
    AmpVector want(st.row(0), st.row(0) + kDim * kBatch);
    kernels::batched_mat4(want.data(), kDim, kBatch, kBatch, m, 2, 0);
    st.apply_mat4_all(m, 2, 0);
    for (std::size_t i = 0; i < kDim * kBatch; ++i) {
      EXPECT_EQ(bits_of(st.row(0)[i].real()), bits_of(want[i].real()));
      EXPECT_EQ(bits_of(st.row(0)[i].imag()), bits_of(want[i].imag()));
    }
  }
  const AmpVector before(st.row(0), st.row(0) + kDim * kBatch);
  st.apply_mat4_all(circuit::gate_matrix_2q(GateKind::kCX, {}), 2, 0);
  for (std::size_t i = 0; i < kDim; ++i) {
    // Control bit 2 set: rows with qubit 0 = 0 and 1 trade places.
    const std::size_t src = (i & 4) ? i ^ 1 : i;
    for (std::size_t b = 0; b < kBatch; ++b) {
      EXPECT_EQ(bits_of(st.row(i)[b].real()),
                bits_of(before[src * kBatch + b].real()));
      EXPECT_EQ(bits_of(st.row(i)[b].imag()),
                bits_of(before[src * kBatch + b].imag()));
    }
  }
}

TEST_P(KernelEquivalence, BatchedBracketsMatchPerColumnScalar) {
  // Every batched bracket, broadcast and per column (with diagonal and
  // dense matrices mixed across columns), at live widths 1..33 in rows
  // of stride live and live + 3: each column equals the scalar bracket
  // on that column alone, in every arm and mode.
  math::Rng rng(111);
  constexpr int kQubits = 3;
  constexpr std::size_t kDim = std::size_t{1} << kQubits;
  for (std::size_t count = 1; count <= 33; ++count) {
    for (const std::size_t stride : {count, count + 3}) {
      AmpVector lam(kDim * stride);
      AmpVector psi(kDim * stride);
      for (Complex& a : lam) a = signed_zero_amp(rng);
      for (Complex& a : psi) a = signed_zero_amp(rng);
      std::vector<Mat2> m2s;
      std::vector<Mat4> m4s;
      for (std::size_t b = 0; b < count; ++b) {
        m2s.push_back(circuit::d_gate_matrix_1q(
            (b / 3) % 2 == 0 ? GateKind::kRZ : GateKind::kRY,
            random_angles(rng), 0));
        m4s.push_back(circuit::d_gate_matrix_2q(
            (b / 2) % 2 == 0 ? GateKind::kCRZ : GateKind::kCRX,
            random_angles(rng)));
      }
      const auto column = [&](const AmpVector& reg, std::size_t b) {
        AmpVector col(kDim);
        for (std::size_t i = 0; i < kDim; ++i) col[i] = reg[i * stride + b];
        return col;
      };
      std::vector<Complex> out(count);
      for (const bool simd : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "count " << count << " stride "
                                          << stride << " simd " << simd);
        for (int q = 0; q < kQubits; ++q) {
          for (const bool each : {false, true}) {
            kernels::set_simd_runtime_enabled(simd);
            if (each) {
              kernels::batched_bracket_1q_each(lam.data(), psi.data(), kDim,
                                               stride, count, m2s.data(), q,
                                               out.data());
            } else {
              kernels::batched_bracket_1q(lam.data(), psi.data(), kDim,
                                          stride, count, m2s[0], q,
                                          out.data());
            }
            kernels::set_simd_runtime_enabled(false);
            for (std::size_t b = 0; b < count; ++b) {
              const AmpVector l = column(lam, b);
              const AmpVector p = column(psi, b);
              EXPECT_EQ(out[b], kernels::bracket_1q(l.data(), p.data(), kDim,
                                                    m2s[each ? b : 0], q))
                  << "1q q " << q << " each " << each << " col " << b;
            }
          }
        }
        for (int qb = 0; qb < kQubits; ++qb) {
          for (int qa = 0; qa < kQubits; ++qa) {
            if (qa == qb) continue;
            for (const bool each : {false, true}) {
              kernels::set_simd_runtime_enabled(simd);
              if (each) {
                kernels::batched_bracket_2q_each(lam.data(), psi.data(), kDim,
                                                 stride, count, m4s.data(),
                                                 qb, qa, out.data());
              } else {
                kernels::batched_bracket_2q(lam.data(), psi.data(), kDim,
                                            stride, count, m4s[0], qb, qa,
                                            out.data());
              }
              kernels::set_simd_runtime_enabled(false);
              for (std::size_t b = 0; b < count; ++b) {
                const AmpVector l = column(lam, b);
                const AmpVector p = column(psi, b);
                EXPECT_EQ(out[b],
                          kernels::bracket_2q(l.data(), p.data(), kDim,
                                              m4s[each ? b : 0], qb, qa))
                    << "2q " << qb << qa << " each " << each << " col " << b;
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelEquivalence, FullCircuitEvolutionViaStatevector) {
  // End-to-end through Statevector's own dispatch (diag detection,
  // chunking): a deep random evolution stays equivalent across arms.
  math::Rng rng(108);
  for (int nq = 2; nq <= 6; nq += 2) {
    Statevector ref(nq);
    Statevector got(nq);
    std::vector<std::pair<Mat2, int>> ops1;
    std::vector<std::pair<Mat4, std::pair<int, int>>> ops2;
    math::Rng mrng(200 + static_cast<std::uint64_t>(nq));
    for (int i = 0; i < 30; ++i) {
      ops1.emplace_back(all_mat2(mrng)[mrng.uniform_int(13)],
                        static_cast<int>(mrng.uniform_int(nq)));
      int qb = static_cast<int>(mrng.uniform_int(nq));
      int qa = qb;
      while (qa == qb) qa = static_cast<int>(mrng.uniform_int(nq));
      ops2.emplace_back(all_mat4(mrng)[mrng.uniform_int(7)],
                        std::make_pair(qb, qa));
    }
    kernels::set_simd_runtime_enabled(false);
    for (int i = 0; i < 30; ++i) {
      ref.apply_mat2(ops1[static_cast<std::size_t>(i)].first,
                     ops1[static_cast<std::size_t>(i)].second);
      ref.apply_mat4(ops2[static_cast<std::size_t>(i)].first,
                     ops2[static_cast<std::size_t>(i)].second.first,
                     ops2[static_cast<std::size_t>(i)].second.second);
    }
    kernels::set_simd_runtime_enabled(true);
    for (int i = 0; i < 30; ++i) {
      got.apply_mat2(ops1[static_cast<std::size_t>(i)].first,
                     ops1[static_cast<std::size_t>(i)].second);
      got.apply_mat4(ops2[static_cast<std::size_t>(i)].first,
                     ops2[static_cast<std::size_t>(i)].second.first,
                     ops2[static_cast<std::size_t>(i)].second.second);
    }
    for (std::size_t i = 0; i < ref.dim(); ++i) {
      if (strict()) {
        EXPECT_EQ(got.amplitudes()[i], ref.amplitudes()[i]) << "amp " << i;
      } else {
        EXPECT_NEAR(std::abs(got.amplitudes()[i] - ref.amplitudes()[i]), 0.0,
                    1e-10)
            << "amp " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StrictAndFast, KernelEquivalence,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "strict" : "fast";
                         });

}  // namespace
}  // namespace arbiterq::sim
