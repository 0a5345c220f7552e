#include "arbiterq/sim/adjoint.hpp"

#include <cmath>
#include <stdexcept>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/statevector.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::sim {

namespace {

using circuit::Complex;
using circuit::Gate;
using circuit::GateKind;
using circuit::Mat2;
using circuit::Mat4;

// The bracket reductions — the exact arithmetic of
//   mu = psi; mu.apply_mat(M, ...); inner_product(lambda, mu)
// fused into one pass, including the apply kernels' diagonal dispatch —
// live in kernels.cpp. The batched brackets there keep the scalar
// bracket's association per column, so the circuit walk below and the
// batched plan gradient stay mutually equal.

/// <lambda| M |psi> over whole registers.
Complex bracket_1q(const Statevector& lambda, const Statevector& psi,
                   const Mat2& m, int q) {
  return kernels::bracket_1q(lambda.amplitudes().data(),
                             psi.amplitudes().data(), psi.dim(), m, q);
}

Complex bracket_2q(const Statevector& lambda, const Statevector& psi,
                   const Mat4& m, int qb, int qa) {
  return kernels::bracket_2q(lambda.amplitudes().data(),
                             psi.amplitudes().data(), psi.dim(), m, qb, qa);
}

}  // namespace

std::vector<double> adjoint_gradient_z(const circuit::Circuit& c,
                                       std::span<const double> params,
                                       int qubit, const NoiseModel* noise) {
  const bool noisy = noise != nullptr && noise->enabled();
  return adjoint_gradient_z(c, params, qubit, noise,
                            noisy ? noise->survival_probability(c) : 1.0);
}

std::vector<double> adjoint_gradient_z(const circuit::Circuit& c,
                                       std::span<const double> params,
                                       int qubit, const NoiseModel* noise,
                                       double survival) {
  if (static_cast<int>(params.size()) < c.num_params()) {
    throw std::invalid_argument("adjoint_gradient_z: params too short");
  }
  AQ_TRACE_SPAN("sim.adjoint.gradient");
  AQ_COUNTER_ADD("sim.adjoint.calls", 1);
  const bool noisy = noise != nullptr && noise->enabled();

  auto bound_of = [&](const Gate& g) {
    return noisy ? noise->biased_params(g, params) : g.bound_params(params);
  };

  // Forward pass.
  Statevector psi(c.num_qubits());
  for (const Gate& g : c.gates()) {
    const auto bound = bound_of(g);
    if (g.arity() == 1) {
      psi.apply_mat2(circuit::gate_matrix_1q(g.kind, bound), g.qubits[0]);
    } else {
      psi.apply_mat4(circuit::gate_matrix_2q(g.kind, bound), g.qubits[0],
                     g.qubits[1]);
    }
  }

  // lambda = Z_qubit psi.
  Statevector lambda = psi;
  lambda.apply_pauli(3, qubit);

  std::vector<double> grad(static_cast<std::size_t>(c.num_params()), 0.0);

  const auto& gates = c.gates();
  for (std::size_t k = gates.size(); k-- > 0;) {
    const Gate& g = gates[k];
    const auto bound = bound_of(g);
    if (g.arity() == 1) {
      const Mat2 m = circuit::gate_matrix_1q(g.kind, bound);
      const Mat2 md = circuit::mat2_adjoint(m);
      psi.apply_mat2(md, g.qubits[0]);
      for (int slot = 0; slot < g.param_count(); ++slot) {
        const circuit::ParamExpr& pe =
            g.params[static_cast<std::size_t>(slot)];
        if (pe.is_constant()) continue;
        const Complex ip = bracket_1q(
            lambda, psi, circuit::d_gate_matrix_1q(g.kind, bound, slot),
            g.qubits[0]);
        grad[static_cast<std::size_t>(pe.index)] +=
            2.0 * pe.coeff * ip.real();
      }
      lambda.apply_mat2(md, g.qubits[0]);
    } else {
      const Mat4 m = circuit::gate_matrix_2q(g.kind, bound);
      const Mat4 md = circuit::mat4_adjoint(m);
      psi.apply_mat4(md, g.qubits[0], g.qubits[1]);
      if (g.param_count() > 0 && !g.params[0].is_constant()) {
        const Complex ip =
            bracket_2q(lambda, psi, circuit::d_gate_matrix_2q(g.kind, bound),
                       g.qubits[0], g.qubits[1]);
        grad[static_cast<std::size_t>(g.params[0].index)] +=
            2.0 * g.params[0].coeff * ip.real();
      }
      lambda.apply_mat4(md, g.qubits[0], g.qubits[1]);
    }
  }

  if (noisy) {
    for (double& gv : grad) gv *= survival;
  }
  return grad;
}

void adjoint_gradient_z_batched(const ExecPlan& plan, const double* params,
                                std::size_t stride, std::size_t batch,
                                int qubit, BatchedWorkspace& ws,
                                double* grads) {
  const auto np = static_cast<std::size_t>(plan.num_params());
  if (stride < np) {
    throw std::invalid_argument("adjoint_gradient_z_batched: stride < params");
  }
  plan.check_readout(qubit, "adjoint_gradient_z_batched");
  if (batch == 0) return;
  AQ_COUNTER_ADD("sim.adjoint.calls", static_cast<std::uint64_t>(batch));
  AQ_COUNTER_ADD("sim.plan.adjoint.batched_calls", 1);

  // One gate-table binding per column. Each column keeps its own
  // workspace so the angle memo sees a consistent sample stream and the
  // weight gates skip their trig rebuild after warm-up.
  if (ws.col_gates.size() < batch) {
    ws.col_gates.reserve(batch);
    while (ws.col_gates.size() < batch) {
      ws.col_gates.push_back(std::make_unique<Workspace>());
    }
  }
  for (std::size_t b = 0; b < batch; ++b) {
    plan.bind_gates(std::span<const double>(params + b * stride, np),
                    *ws.col_gates[b]);
  }
  const Workspace& cw0 = *ws.col_gates[0];

  // Per-gate dispatch, shared by both halves: static entries broadcast
  // one matrix across the block, and so do dynamic entries whose bound
  // angles agree in every column (weight gates) — equal angles give
  // bitwise-equal matrices. Other entries gather each column's matrix.
  const std::vector<GateEntry>& table = plan.gate_table();
  ws.gate_uniform.resize(table.size());
  for (std::size_t k = 0; k < table.size(); ++k) {
    const GateEntry& e = table[k];
    bool uniform = true;
    if (e.dynamic) {
      const auto bi = static_cast<std::size_t>(e.bound_index);
      for (std::size_t b = 1; b < batch && uniform; ++b) {
        uniform = ws.col_gates[b]->dyn_bound[bi] == cw0.dyn_bound[bi];
      }
    }
    ws.gate_uniform[k] = uniform ? 1 : 0;
  }
  // Per-column gather scratch: a gate's matrices, or one gradient
  // term's derivative matrices (every user gathers afresh).
  if (ws.mat2_scratch.size() < batch) ws.mat2_scratch.resize(batch);
  if (ws.mat4_scratch.size() < batch) ws.mat4_scratch.resize(batch);
  ws.brackets.resize(batch);
  Mat2* const mats2 = ws.mat2_scratch.data();
  Mat4* const mats4 = ws.mat4_scratch.data();

  // Gate k's matrix (or its adjoint) on every column of `st`.
  const auto apply = [&](BatchedStatevector& st, const GateEntry& e,
                         bool uniform, bool adjoint) {
    const auto ei = static_cast<std::size_t>(e.index);
    if (e.arity == 1) {
      if (!e.dynamic) {
        st.apply_mat2_all(adjoint ? plan.table_mat2_adjoint(e.index)
                                  : plan.table_mat2(e.index),
                          e.q0);
      } else if (uniform) {
        st.apply_mat2_all(adjoint ? cw0.dyn1q_adj[ei] : cw0.dyn1q[ei], e.q0);
      } else {
        for (std::size_t b = 0; b < batch; ++b) {
          const Workspace& cw = *ws.col_gates[b];
          mats2[b] = adjoint ? cw.dyn1q_adj[ei] : cw.dyn1q[ei];
        }
        st.apply_mat2_each(mats2, e.q0);
      }
    } else {
      if (!e.dynamic) {
        st.apply_mat4_all(adjoint ? plan.table_mat4_adjoint(e.index)
                                  : plan.table_mat4(e.index),
                          e.q0, e.q1);
      } else if (uniform) {
        st.apply_mat4_all(adjoint ? cw0.dyn2q_adj[ei] : cw0.dyn2q[ei], e.q0,
                          e.q1);
      } else {
        for (std::size_t b = 0; b < batch; ++b) {
          const Workspace& cw = *ws.col_gates[b];
          mats4[b] = adjoint ? cw.dyn2q_adj[ei] : cw.dyn2q[ei];
        }
        st.apply_mat4_each(mats4, e.q0, e.q1);
      }
    }
  };

  // Forward: psi = U|0> per column.
  BatchedStatevector& psi = ws.state();
  psi.configure(plan.num_qubits(), batch);
  for (std::size_t k = 0; k < table.size(); ++k) {
    apply(psi, table[k], ws.gate_uniform[k] != 0, false);
  }

  // Reverse: lambda = Z_qubit psi, then every gate is un-applied from
  // both registers with the brackets taken in between — per column the
  // sequence of the circuit walk above.
  BatchedStatevector& lambda = ws.lambda();
  lambda = psi;  // reuses lambda's allocation once warm
  lambda.apply_mat2_all(circuit::gate_matrix_1q(GateKind::kZ, {}), qubit);
  for (std::size_t i = 0; i < batch * np; ++i) grads[i] = 0.0;
  const std::size_t dim = psi.dim();
  Complex* const ip = ws.brackets.data();
  for (std::size_t k = table.size(); k-- > 0;) {
    const GateEntry& e = table[k];
    const bool uniform = ws.gate_uniform[k] != 0;
    apply(psi, e, uniform, true);
    for (const GateEntry::GradTerm& t : e.grads) {
      const auto di = static_cast<std::size_t>(t.dindex);
      if (e.arity == 1) {
        if (uniform) {
          kernels::batched_bracket_1q(lambda.row(0), psi.row(0), dim, batch,
                                      batch, cw0.dgrad1q[di], e.q0, ip);
        } else {
          for (std::size_t b = 0; b < batch; ++b) {
            mats2[b] = ws.col_gates[b]->dgrad1q[di];
          }
          kernels::batched_bracket_1q_each(lambda.row(0), psi.row(0), dim,
                                           batch, batch, mats2, e.q0, ip);
        }
      } else {
        if (uniform) {
          kernels::batched_bracket_2q(lambda.row(0), psi.row(0), dim, batch,
                                      batch, cw0.dgrad2q[di], e.q0, e.q1, ip);
        } else {
          for (std::size_t b = 0; b < batch; ++b) {
            mats4[b] = ws.col_gates[b]->dgrad2q[di];
          }
          kernels::batched_bracket_2q_each(lambda.row(0), psi.row(0), dim,
                                           batch, batch, mats4, e.q0, e.q1,
                                           ip);
        }
      }
      const auto pi = static_cast<std::size_t>(t.param_index);
      for (std::size_t b = 0; b < batch; ++b) {
        grads[b * np + pi] += 2.0 * t.coeff * ip[b].real();
      }
    }
    apply(lambda, e, uniform, true);
  }

  if (plan.noisy()) {
    for (std::size_t i = 0; i < batch * np; ++i) grads[i] *= plan.survival();
  }
}

}  // namespace arbiterq::sim
