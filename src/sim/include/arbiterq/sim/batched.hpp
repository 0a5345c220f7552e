#pragma once
// Sample-batched forward execution: evaluate one compiled ExecPlan
// against B parameter bindings in a single pass over the register.
//
// A BatchedStatevector stores amplitudes structure-of-arrays: basis
// index i holds a contiguous row of B complex values, one per sample.
// Applying a fused gate then becomes a cache-blocked mini-GEMM — the
// butterfly walks rows once and the kernels stream B-wide down each
// row — instead of B separate sweeps of the full register. This
// amortizes everything that is per-sweep in the unbatched path
// (dispatch, counters, workspace traffic, matrix reloads) across the
// batch, which dominates at QNN register sizes (dim 16..64).
//
// Reproducibility contract: per-column arithmetic is identical to the
// unbatched kernels (kernels.hpp), the batched bind replays bind()'s
// fold per column, and the Z-expectation accumulates in the same basis
// order per sample — so batched results are bit-identical across batch
// sizes, and under strict reproducibility equal (==) to the unbatched
// path, with identical bits on every nonzero value. The one departure
// is the transposition arm: CX/SWAP/X move amplitudes here where the
// unbatched register computes 1*a + 0*b + ..., which can differ only in
// the sign of an exact zero. (In the opt-in fast arm an odd trailing
// column of a per-column kernel runs the scalar tail loop and may
// differ from the FMA lanes by ULPs.)
//
// Only columns [0, live) evolve. A forward pass keeps every column
// live; the trajectory sampler (StatevectorSimulator::
// sample_marginal_ones) starts a block of trajectories on one live
// column and forks a column only where their noise paths diverge.
// Callers block samples into groups of kBatchBlock columns: at the
// 6-qubit QNN register (64 rows) a 32-wide block is 32 KiB of
// amplitudes — resident in L1 while the whole gate stream replays.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/sim/statevector.hpp"

namespace arbiterq::sim {

/// Preferred number of sample columns per batched evolution.
inline constexpr std::size_t kBatchBlock = 32;

/// Structure-of-arrays register: dim rows x batch columns, row i
/// starting at amplitudes()[i * batch]. Each live column b evolves
/// exactly as an unbatched Statevector would.
class BatchedStatevector {
 public:
  BatchedStatevector() = default;

  /// Shape the register to `num_qubits` x `batch`, reset every column
  /// to |0...0> and make columns [0, live) live (all of them when
  /// `live` is omitted). Reuses the existing allocation when possible.
  void configure(int num_qubits, std::size_t batch) {
    configure(num_qubits, batch, batch);
  }
  void configure(int num_qubits, std::size_t batch, std::size_t live);

  int num_qubits() const noexcept { return num_qubits_; }
  std::size_t dim() const noexcept { return dim_; }
  /// Row stride: the column capacity.
  std::size_t batch() const noexcept { return batch_; }
  /// Columns [0, live()) are evolved by the apply_* calls.
  std::size_t live() const noexcept { return live_; }

  /// Copy live column `src` into the first non-live column, make it
  /// live and return its index. Throws std::out_of_range when `src` is
  /// not live or every column already is.
  std::size_t fork_column(std::size_t src);

  Complex* row(std::size_t i) noexcept { return amps_.data() + i * batch_; }
  const Complex* row(std::size_t i) const noexcept {
    return amps_.data() + i * batch_;
  }

  /// Apply one matrix to every live column, one kernel call per gate.
  /// Dispatch follows kernels::classify: a diagonal matrix scales rows,
  /// an exact transposition (CX, SWAP, X) swaps rows, anything else
  /// runs the dense broadcast mini-GEMM. Statevector keeps transpositions
  /// dense; the two agree under == (kernels::batched_swap_rows).
  void apply_mat2_all(const circuit::Mat2& m, int q);
  void apply_mat4_all(const circuit::Mat4& m, int qb, int qa);

  /// Apply mats[b] to live column b. Dispatch is per matrix, so columns
  /// are partitioned into maximal runs of equal kernels::classify shape
  /// and each run takes the kernel apply_*_all would give its matrices.
  void apply_mat2_each(const circuit::Mat2* mats, int q);
  void apply_mat4_each(const circuit::Mat4* mats, int qb, int qa);

  /// Apply one matrix to a single column (scalar walk, same dispatch
  /// order; used for sparse per-trajectory Pauli insertions).
  void apply_mat2_col(const circuit::Mat2& m, int q, std::size_t col);
  void apply_pauli_col(int pauli, int q, std::size_t col);

  /// out[b] = P(qubit q reads 1) for live column b, accumulated in
  /// basis order — the exact association of
  /// Statevector::probability_of_one.
  void probability_of_one_all(int q, double* out) const;

 private:
  int num_qubits_ = 0;
  std::size_t dim_ = 0;
  std::size_t batch_ = 0;
  std::size_t live_ = 0;
  AmpVector amps_;
  /// Scratch for per-sample diagonal factors in the _each paths.
  std::vector<Complex> diag_scratch_;
};

/// Per-evaluation scratch for batched plan execution, the batched
/// sibling of Workspace. Fields follow the same convention: grown on
/// first bind against a plan, reused thereafter (zero steady-state
/// allocations for a fixed plan and block size).
class BatchedWorkspace {
 public:
  BatchedWorkspace() = default;

  BatchedStatevector& state() noexcept { return state_; }
  /// The batched adjoint's second register (lambda = Z psi, walked
  /// backwards alongside state()).
  BatchedStatevector& lambda() noexcept { return lambda_; }

  /// Caller scratch: packed per-sample parameters (sample b's binding
  /// at [b * stride, b * stride + num_params)) and per-sample outputs.
  std::vector<double> params;
  std::vector<double> values;

  /// Filled by ExecPlan::bind_batched — slot-major bound matrices
  /// (slot s, column b at [s * batch + b]) plus a per-slot flag telling
  /// run_batched the whole batch shares one matrix (broadcast kernel).
  std::vector<circuit::Mat2> bound1q_cols;
  std::vector<circuit::Mat4> bound2q_cols;
  std::vector<std::uint8_t> uniform1q;
  std::vector<std::uint8_t> uniform2q;
  /// Bind-time angle scratch (previous/current column per dynamic op).
  std::vector<std::array<double, 3>> angles_prev;
  std::vector<std::array<double, 3>> angles_cur;
  /// Shape stamp: plan identity and batch width the buffers were last
  /// sized for.
  std::uint64_t plan_id = 0;
  std::size_t batch = 0;

  /// Unbatched workspace for walks that bind the per-gate table
  /// (batched trajectory sampling reuses bind_gates' matrices).
  Workspace gates;

  /// Trajectory-sampler scratch (StatevectorSimulator::
  /// sample_marginal_ones), resized per call and reused across calls.
  struct TrajectoryScratch {
    std::vector<int> shots_of;  ///< shot allotment per trajectory
    /// Pre-drawn Pauli per (trajectory, noise site), trajectory-major;
    /// 0 = no error, 1..3 = X, Y, Z.
    std::vector<std::uint8_t> decision;
    std::vector<double> u_out;   ///< per-shot outcome uniforms
    std::vector<double> u_flip;  ///< per-shot readout-flip uniforms
    std::vector<double> p1;      ///< P(1) per live column of a block
    /// Column each trajectory of the current block reads from.
    std::vector<std::size_t> column_of;
    /// Per-site branch table: [column * 4 + decision] -> the column
    /// that column's trajectories with that decision continue in.
    std::vector<std::size_t> fork_to;
  };
  TrajectoryScratch traj;

  /// Batched-adjoint scratch. col_gates holds one gate-table binding
  /// per sample column: bind_gates' matrices, their adjoints and the
  /// derivative matrices, each under that column's own angle memo, so
  /// weight gates skip their trig rebuild after warm-up. Only the bound
  /// matrices live there; both halves of the walk run on state() and
  /// lambda(). gate_uniform flags, per gate-table entry, a gate whose
  /// bound angles agree across the block (broadcast kernels, one
  /// matrix); the scratch vectors gather per-column matrices for the
  /// other gates and hold the per-column bracket results.
  std::vector<std::unique_ptr<Workspace>> col_gates;
  std::vector<std::uint8_t> gate_uniform;
  std::vector<circuit::Mat2> mat2_scratch;
  std::vector<circuit::Mat4> mat4_scratch;
  std::vector<Complex> brackets;

 private:
  BatchedStatevector state_;
  BatchedStatevector lambda_;
};

/// Mutex-guarded free list of BatchedWorkspaces, mirroring
/// WorkspacePool (copying yields a fresh pool).
class BatchedWorkspacePool {
 public:
  BatchedWorkspacePool() = default;
  BatchedWorkspacePool(const BatchedWorkspacePool&) noexcept {}
  BatchedWorkspacePool& operator=(const BatchedWorkspacePool&) noexcept {
    return *this;
  }

  class Lease {
   public:
    Lease(BatchedWorkspacePool* pool,
          std::unique_ptr<BatchedWorkspace> ws) noexcept
        : pool_(pool), ws_(std::move(ws)) {}
    ~Lease() {
      if (ws_ != nullptr) pool_->release(std::move(ws_));
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), ws_(std::move(other.ws_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    BatchedWorkspace& operator*() noexcept { return *ws_; }
    BatchedWorkspace* operator->() noexcept { return ws_.get(); }

   private:
    BatchedWorkspacePool* pool_;
    std::unique_ptr<BatchedWorkspace> ws_;
  };

  Lease acquire();

 private:
  void release(std::unique_ptr<BatchedWorkspace> ws);

  std::mutex mu_;
  std::vector<std::unique_ptr<BatchedWorkspace>> free_;
};

}  // namespace arbiterq::sim
