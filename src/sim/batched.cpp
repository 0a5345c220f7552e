// Sample-batched forward execution (batched.hpp) plus the plan-based
// trajectory sampler (a branch-on-divergence walk). The ExecPlan
// batched entry points live here as member functions so the
// stream/slot internals stay private to the plan.

#include "arbiterq/sim/batched.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/simulator.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/trace.hpp"
#include "kernels_impl.hpp"

namespace arbiterq::sim {

namespace {

using circuit::Mat2;
using circuit::Mat4;
using kernels::MatShape;
using kernels::detail::insert_zero_bit;

inline std::size_t bit_of(int q) noexcept { return std::size_t{1} << q; }

}  // namespace

// ---------------------------------------------------------------------------
// BatchedStatevector

void BatchedStatevector::configure(int num_qubits, std::size_t batch,
                                   std::size_t live) {
  if (num_qubits <= 0 || num_qubits > Statevector::kMaxQubits) {
    throw std::invalid_argument("BatchedStatevector: unsupported qubit count");
  }
  if (batch == 0 || live == 0 || live > batch) {
    throw std::invalid_argument(
        "BatchedStatevector: need 0 < live <= batch");
  }
  num_qubits_ = num_qubits;
  dim_ = std::size_t{1} << num_qubits;
  batch_ = batch;
  live_ = live;
  amps_.assign(dim_ * batch_, Complex{0.0, 0.0});
  for (std::size_t b = 0; b < batch_; ++b) amps_[b] = 1.0;
  assert(reinterpret_cast<std::uintptr_t>(amps_.data()) % kAmpAlignment == 0 &&
         "amplitude storage must honor kAmpAlignment");
}

std::size_t BatchedStatevector::fork_column(std::size_t src) {
  if (src >= live_ || live_ == batch_) {
    throw std::out_of_range("BatchedStatevector: no column to fork into");
  }
  for (std::size_t i = 0; i < dim_; ++i) row(i)[live_] = row(i)[src];
  return live_++;
}

// Dispatch order for every apply_*: diagonal, then transposition, then
// the dense butterfly (kernels::classify).

void BatchedStatevector::apply_mat2_all(const Mat2& m, int q) {
  const MatShape shape = kernels::classify(m);
  switch (shape.kind) {
    case MatShape::Kind::kDiagonal: {
      const Complex d[2] = {m[0], m[3]};
      kernels::batched_diag(amps_.data(), dim_, batch_, live_, d, 0,
                            bit_of(q));
      return;
    }
    case MatShape::Kind::kTransposition:
      kernels::batched_swap_rows(amps_.data(), dim_, batch_, live_, 0,
                                 bit_of(q), shape.from, shape.to);
      return;
    case MatShape::Kind::kDense:
      break;
  }
  kernels::batched_mat2(amps_.data(), dim_, batch_, live_, m, q);
}

void BatchedStatevector::apply_mat4_all(const Mat4& m, int qb, int qa) {
  const MatShape shape = kernels::classify(m);
  switch (shape.kind) {
    case MatShape::Kind::kDiagonal: {
      const Complex d[4] = {m[0], m[5], m[10], m[15]};
      kernels::batched_diag(amps_.data(), dim_, batch_, live_, d, bit_of(qb),
                            bit_of(qa));
      return;
    }
    case MatShape::Kind::kTransposition:
      kernels::batched_swap_rows(amps_.data(), dim_, batch_, live_,
                                 bit_of(qb), bit_of(qa), shape.from,
                                 shape.to);
      return;
    case MatShape::Kind::kDense:
      break;
  }
  kernels::batched_mat4(amps_.data(), dim_, batch_, live_, m, qb, qa);
}

// The per-column forms classify each matrix (an RZ column sits next to
// an RX column) and partition the live columns into maximal runs of
// equal shape, so every column takes exactly the kernel its matrix
// would take in apply_*_all.

void BatchedStatevector::apply_mat2_each(const Mat2* mats, int q) {
  diag_scratch_.resize(2 * live_);
  std::size_t b = 0;
  while (b < live_) {
    const MatShape shape = kernels::classify(mats[b]);
    std::size_t e = b + 1;
    while (e < live_ && kernels::classify(mats[e]) == shape) ++e;
    const std::size_t count = e - b;
    switch (shape.kind) {
      case MatShape::Kind::kDiagonal: {
        Complex* const ds = diag_scratch_.data();
        for (std::size_t k = 0; k < count; ++k) {
          ds[k] = mats[b + k][0];
          ds[count + k] = mats[b + k][3];
        }
        kernels::batched_diag_each(amps_.data() + b, dim_, batch_, count, ds,
                                   0, bit_of(q));
        break;
      }
      case MatShape::Kind::kTransposition:
        kernels::batched_swap_rows(amps_.data() + b, dim_, batch_, count, 0,
                                   bit_of(q), shape.from, shape.to);
        break;
      case MatShape::Kind::kDense:
        kernels::batched_mat2_each(amps_.data() + b, dim_, batch_, count,
                                   mats + b, q);
        break;
    }
    b = e;
  }
}

void BatchedStatevector::apply_mat4_each(const Mat4* mats, int qb, int qa) {
  diag_scratch_.resize(4 * live_);
  std::size_t b = 0;
  while (b < live_) {
    const MatShape shape = kernels::classify(mats[b]);
    std::size_t e = b + 1;
    while (e < live_ && kernels::classify(mats[e]) == shape) ++e;
    const std::size_t count = e - b;
    switch (shape.kind) {
      case MatShape::Kind::kDiagonal: {
        Complex* const ds = diag_scratch_.data();
        for (std::size_t k = 0; k < count; ++k) {
          const Mat4& m = mats[b + k];
          ds[k] = m[0];
          ds[count + k] = m[5];
          ds[2 * count + k] = m[10];
          ds[3 * count + k] = m[15];
        }
        kernels::batched_diag_each(amps_.data() + b, dim_, batch_, count, ds,
                                   bit_of(qb), bit_of(qa));
        break;
      }
      case MatShape::Kind::kTransposition:
        kernels::batched_swap_rows(amps_.data() + b, dim_, batch_, count,
                                   bit_of(qb), bit_of(qa), shape.from,
                                   shape.to);
        break;
      case MatShape::Kind::kDense:
        kernels::batched_mat4_each(amps_.data() + b, dim_, batch_, count,
                                   mats + b, qb, qa);
        break;
    }
    b = e;
  }
}

void BatchedStatevector::apply_mat2_col(const Mat2& m, int q,
                                        std::size_t col) {
  const std::size_t bit = bit_of(q);
  const MatShape shape = kernels::classify(m);
  if (shape.kind == MatShape::Kind::kDiagonal) {
    const Complex d0 = m[0];
    const Complex d1 = m[3];
    for (std::size_t i = 0; i < dim_; ++i) {
      row(i)[col] *= (i & bit) ? d1 : d0;
    }
    return;
  }
  for (std::size_t p = 0; p < dim_ >> 1; ++p) {
    const std::size_t i0 = insert_zero_bit(p, q);
    const std::size_t i1 = i0 | bit;
    const Complex a0 = row(i0)[col];
    const Complex a1 = row(i1)[col];
    if (shape.kind == MatShape::Kind::kTransposition) {
      row(i0)[col] = a1;
      row(i1)[col] = a0;
    } else {
      row(i0)[col] = m[0] * a0 + m[1] * a1;
      row(i1)[col] = m[2] * a0 + m[3] * a1;
    }
  }
}

void BatchedStatevector::apply_pauli_col(int pauli, int q, std::size_t col) {
  switch (pauli) {
    case 1:
      apply_mat2_col(circuit::gate_matrix_1q(circuit::GateKind::kX, {}), q,
                     col);
      break;
    case 2:
      apply_mat2_col(circuit::gate_matrix_1q(circuit::GateKind::kY, {}), q,
                     col);
      break;
    case 3:
      apply_mat2_col(circuit::gate_matrix_1q(circuit::GateKind::kZ, {}), q,
                     col);
      break;
    default:
      throw std::invalid_argument("apply_pauli_col: pauli must be 1, 2 or 3");
  }
}

void BatchedStatevector::probability_of_one_all(int q, double* out) const {
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t b = 0; b < live_; ++b) out[b] = 0.0;
  // Basis index outer, sample inner: every column accumulates in the
  // exact index order of Statevector::probability_of_one.
  for (std::size_t i = 0; i < dim_; ++i) {
    if (!(i & bit)) continue;
    const Complex* const r = row(i);
    for (std::size_t b = 0; b < live_; ++b) out[b] += std::norm(r[b]);
  }
}

// ---------------------------------------------------------------------------
// BatchedWorkspacePool

BatchedWorkspacePool::Lease BatchedWorkspacePool::acquire() {
  std::unique_ptr<BatchedWorkspace> ws;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      ws = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (ws == nullptr) ws = std::make_unique<BatchedWorkspace>();
  return Lease(this, std::move(ws));
}

void BatchedWorkspacePool::release(std::unique_ptr<BatchedWorkspace> ws) {
  const std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(ws));
}

// ---------------------------------------------------------------------------
// ExecPlan batched execution

void ExecPlan::bind_batched(const double* params, std::size_t stride,
                            std::size_t batch, BatchedWorkspace& ws) const {
  if (batch == 0) {
    throw std::invalid_argument("bind_batched: batch must be > 0");
  }
  if (stride < static_cast<std::size_t>(num_params_)) {
    throw std::invalid_argument("bind_batched: stride < num_params");
  }
  AQ_COUNTER_ADD("sim.plan.batched_binds", 1);
  if (ws.plan_id != plan_id_ || ws.batch != batch) {
    ws.bound1q_cols.resize(bound1q_.size() * batch);
    ws.bound2q_cols.resize(bound2q_.size() * batch);
    ws.uniform1q.resize(bound1q_.size());
    ws.uniform2q.resize(bound2q_.size());
    ws.plan_id = plan_id_;
    ws.batch = batch;
  }
  const auto np = static_cast<std::size_t>(num_params_);
  auto col_params = [&](std::size_t b) {
    return std::span<const double>(params + b * stride, np);
  };
  // Per column this replays bind()'s fold with that column's params —
  // the same gate_matrix / mat2_multiply sequence, so each column's
  // matrix is bitwise the one the unbatched bind would produce. A column
  // whose dynamic angles match its predecessor reuses the predecessor's
  // matrix (weight-only slots therefore fold once per batch), and a slot
  // where every column matched is flagged uniform so run_batched can
  // stream the broadcast kernel.
  for (std::size_t i = 0; i < bound1q_.size(); ++i) {
    const Bound1qSlot& slot = bound1q_[i];
    std::size_t n_dyn = 0;
    for (const FoldOp& op : slot.tail) {
      if (op.dynamic) ++n_dyn;
    }
    ws.angles_prev.resize(n_dyn);
    ws.angles_cur.resize(n_dyn);
    Mat2* const cols = ws.bound1q_cols.data() + i * batch;
    bool uniform = true;
    for (std::size_t b = 0; b < batch; ++b) {
      const auto p = col_params(b);
      bool same = b > 0;
      std::size_t j = 0;
      for (const FoldOp& op : slot.tail) {
        if (!op.dynamic) continue;
        ws.angles_cur[j] = op.bound(p, noisy_);
        if (b == 0 || ws.angles_cur[j] != ws.angles_prev[j]) same = false;
        ++j;
      }
      if (same) {
        cols[b] = cols[b - 1];
      } else {
        if (b > 0) uniform = false;
        Mat2 acc = slot.prefix;
        j = 0;
        for (const FoldOp& op : slot.tail) {
          const Mat2 m =
              op.dynamic ? circuit::gate_matrix_1q(op.kind, ws.angles_cur[j++])
                         : op.constant;
          acc = circuit::mat2_multiply(m, acc);
        }
        cols[b] = acc;
      }
      std::swap(ws.angles_prev, ws.angles_cur);
    }
    ws.uniform1q[i] = uniform ? 1 : 0;
  }
  for (std::size_t i = 0; i < bound2q_.size(); ++i) {
    const FoldOp& spec = bound2q_[i].spec;
    Mat4* const cols = ws.bound2q_cols.data() + i * batch;
    std::array<double, 3> prev{};
    bool uniform = true;
    for (std::size_t b = 0; b < batch; ++b) {
      const std::array<double, 3> bound = spec.bound(col_params(b), noisy_);
      if (b > 0 && bound == prev) {
        cols[b] = cols[b - 1];
      } else {
        if (b > 0) uniform = false;
        cols[b] = circuit::gate_matrix_2q(spec.kind, bound);
      }
      prev = bound;
    }
    ws.uniform2q[i] = uniform ? 1 : 0;
  }
}

BatchedStatevector& ExecPlan::run_batched(const double* params,
                                          std::size_t stride,
                                          std::size_t batch,
                                          BatchedWorkspace& ws) const {
  AQ_COUNTER_ADD("sim.plan.batched_runs", 1);
  AQ_COUNTER_ADD("sim.plan.batched_columns",
                 static_cast<std::uint64_t>(batch));
  bind_batched(params, stride, batch, ws);
  BatchedStatevector& st = ws.state();
  st.configure(num_qubits_, batch);
  for (const StreamOp& op : stream_) {
    const auto idx = static_cast<std::size_t>(op.index);
    switch (op.kind) {
      case StreamOp::Kind::kConst1q:
        st.apply_mat2_all(const1q_[idx], op.q0);
        break;
      case StreamOp::Kind::kBound1q:
        if (ws.uniform1q[idx] != 0) {
          st.apply_mat2_all(ws.bound1q_cols[idx * batch], op.q0);
        } else {
          st.apply_mat2_each(ws.bound1q_cols.data() + idx * batch, op.q0);
        }
        break;
      case StreamOp::Kind::kConst2q:
        st.apply_mat4_all(const2q_[idx], op.q0, op.q1);
        break;
      case StreamOp::Kind::kBound2q:
        if (ws.uniform2q[idx] != 0) {
          st.apply_mat4_all(ws.bound2q_cols[idx * batch], op.q0, op.q1);
        } else {
          st.apply_mat4_each(ws.bound2q_cols.data() + idx * batch, op.q0,
                             op.q1);
        }
        break;
    }
  }
  return st;
}

void ExecPlan::expectation_z_batched(const double* params, std::size_t stride,
                                     std::size_t batch, int qubit,
                                     BatchedWorkspace& ws,
                                     double* out) const {
  check_readout(qubit, "expectation_z_batched");
  const BatchedStatevector& st = run_batched(params, stride, batch, ws);
  st.probability_of_one_all(qubit, out);
  for (std::size_t b = 0; b < batch; ++b) {
    out[b] = survival_ * (1.0 - 2.0 * out[b]);
  }
}

// ---------------------------------------------------------------------------
// Plan-based trajectory sampler: branch-on-divergence walk

std::uint64_t StatevectorSimulator::sample_marginal_ones(
    const ExecPlan& plan, std::span<const double> params, int qubit,
    const ShotOptions& opts, math::Rng& rng, BatchedWorkspace& ws) const {
  if (opts.shots <= 0 || opts.trajectories <= 0) {
    throw std::invalid_argument(
        "sample_marginal_ones: shots/trajectories invalid");
  }
  plan.check_readout(qubit, "sample_marginal_ones");
  AQ_TRACE_SPAN("sim.sample.marginal");
  AQ_COUNTER_ADD("sim.sample.shots", static_cast<std::uint64_t>(opts.shots));
  const auto n_traj =
      static_cast<std::size_t>(std::min(opts.trajectories, opts.shots));
  const auto& table = plan.gate_table();
  const bool noisy = noise_.enabled();
  const std::span<const NoiseSite> sites =
      noisy ? std::span<const NoiseSite>(plan.noise_sites())
            : std::span<const NoiseSite>();
  const std::size_t n_sites = sites.size();
  BatchedWorkspace::TrajectoryScratch& s = ws.traj;

  // Shot allotment per trajectory: the circuit-walking sampler's
  // deterministic remaining / (n - t) spread.
  s.shots_of.resize(n_traj);
  int remaining = opts.shots;
  for (std::size_t t = 0; t < n_traj; ++t) {
    s.shots_of[t] = remaining / static_cast<int>(n_traj - t);
    remaining -= s.shots_of[t];
  }

  const double p01 = noisy ? noise_.readout_p01(qubit) : 0.0;
  const double p10 = noisy ? noise_.readout_p10(qubit) : 0.0;
  const bool flips = noisy && (p01 > 0.0 || p10 > 0.0);

  // Every random decision is pre-drawn here, trajectory by trajectory,
  // so the RNG stream — and therefore every outcome — is independent of
  // how trajectories later share or split columns. Pauli decisions use
  // run_trajectory's per-site bernoulli-then-choice consumption (sites
  // in gate order); shot draws consume one readout-flip uniform per
  // shot whenever readout noise is configured, a value-independent
  // schedule (the circuit-walking sampler draws the flip conditionally
  // on the outcome, which would tie the stream to amplitude values).
  s.decision.assign(n_traj * n_sites, 0);
  s.u_out.resize(static_cast<std::size_t>(opts.shots));
  s.u_flip.resize(flips ? s.u_out.size() : 0);
  {
    std::size_t si = 0;
    for (std::size_t t = 0; t < n_traj; ++t) {
      for (std::size_t k = 0; k < n_sites; ++k) {
        if (rng.bernoulli(sites[k].error)) {
          s.decision[t * n_sites + k] =
              static_cast<std::uint8_t>(1 + rng.uniform_int(3));
        }
      }
      for (int k = 0; k < s.shots_of[t]; ++k, ++si) {
        s.u_out[si] = rng.uniform();
        if (flips) s.u_flip[si] = rng.uniform();
      }
    }
  }

  // One bind serves every trajectory: gate matrices depend only on the
  // shared params; trajectories differ only in their Pauli insertions.
  plan.bind_gates(params, ws.gates);

  // Branch-on-divergence walk. A block of trajectories starts on one
  // live column. At a noise site, each live column's trajectories are
  // grouped by their pre-drawn decision: the group of the column's
  // first trajectory keeps the column, every other decision value forks
  // an exact copy taken before the site's Paulis, and each column then
  // takes its group's Pauli. A trajectory's column thus sees exactly the
  // gate-and-Pauli sequence its own walk would, through kernels whose
  // per-column arithmetic ignores the column's position and the live
  // width — so every p1, and the ones count, is bit-identical to
  // evolving each trajectory in a column of its own.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::uint64_t ones = 0;
  [[maybe_unused]] std::uint64_t column_gates = 0;
  s.p1.resize(kBatchBlock);
  s.column_of.resize(kBatchBlock);
  s.fork_to.resize(4 * kBatchBlock);
  BatchedStatevector& st = ws.state();
  std::size_t si = 0;
  for (std::size_t t0 = 0; t0 < n_traj; t0 += kBatchBlock) {
    const std::size_t cur = std::min(kBatchBlock, n_traj - t0);
    st.configure(plan.num_qubits(), cur, 1);
    std::fill_n(s.column_of.begin(), cur, std::size_t{0});
    const std::uint8_t* const dec = s.decision.data() + t0 * n_sites;
    std::size_t site_idx = 0;
    for (std::size_t k = 0; k < table.size(); ++k) {
      const GateEntry& e = table[k];
      const auto idx = static_cast<std::size_t>(e.index);
      if (e.arity == 1) {
        st.apply_mat2_all(
            e.dynamic ? ws.gates.dyn1q[idx] : plan.table_mat2(e.index), e.q0);
      } else {
        st.apply_mat4_all(
            e.dynamic ? ws.gates.dyn2q[idx] : plan.table_mat4(e.index), e.q0,
            e.q1);
      }
      column_gates += st.live();
      for (; site_idx < n_sites && sites[site_idx].gate == k; ++site_idx) {
        bool fired = false;
        for (std::size_t c = 0; c < cur && !fired; ++c) {
          fired = dec[c * n_sites + site_idx] != 0;
        }
        if (!fired) continue;
        // Group first (forks copy pre-Pauli columns), then apply.
        const std::size_t live = st.live();
        std::fill_n(s.fork_to.begin(), 4 * live, kNone);
        for (std::size_t c = 0; c < cur; ++c) {
          const std::uint8_t d = dec[c * n_sites + site_idx];
          const std::size_t from = s.column_of[c];
          std::size_t* const to = s.fork_to.data() + 4 * from;
          if (to[d] == kNone) {
            const bool claimed = to[0] != kNone || to[1] != kNone ||
                                 to[2] != kNone || to[3] != kNone;
            to[d] = claimed ? st.fork_column(from) : from;
          }
          s.column_of[c] = to[d];
        }
        for (std::size_t col = 0; col < live; ++col) {
          for (int d = 1; d < 4; ++d) {
            const std::size_t to = s.fork_to[4 * col + d];
            if (to != kNone) st.apply_pauli_col(d, sites[site_idx].qubit, to);
          }
        }
      }
    }
    st.probability_of_one_all(qubit, s.p1.data());
    for (std::size_t c = 0; c < cur; ++c) {
      const double p = s.p1[s.column_of[c]];
      for (int k = 0; k < s.shots_of[t0 + c]; ++k, ++si) {
        bool one = s.u_out[si] < p;
        if (flips && s.u_flip[si] < (one ? p10 : p01)) one = !one;
        if (one) ++ones;
      }
    }
  }
  AQ_COUNTER_ADD("sim.sample.column_gates", column_gates);
  return ones;
}

double StatevectorSimulator::sampled_probability_of_one(
    const ExecPlan& plan, std::span<const double> params, int qubit,
    const ShotOptions& opts, math::Rng& rng, BatchedWorkspace& ws) const {
  const std::uint64_t ones =
      sample_marginal_ones(plan, params, qubit, opts, rng, ws);
  return static_cast<double>(ones) / static_cast<double>(opts.shots);
}

}  // namespace arbiterq::sim
