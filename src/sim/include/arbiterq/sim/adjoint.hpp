#pragma once
// Adjoint differentiation (reverse-mode through the state vector): the
// full gradient of <Z_qubit> with respect to every circuit parameter in
// O(#gates) state evolutions, instead of parameter shift's O(#params)
// circuit executions. Exact for pure-state evolution, so it matches the
// parameter-shift rules bit-for-bit on noiseless circuits (tested), and
// under the exact-mode noise treatment (coherent biases + attenuation)
// it differentiates the same objective StatevectorSimulator::
// expectation_z computes: biases are additive constants and the
// attenuation factor is parameter-independent.
//
// Algorithm (PennyLane/qiskit "adjoint Jacobian"):
//   psi = U |0>,  lambda = Z_q psi
//   for gate k = T..1:
//     psi    <- G_k^dagger psi            (state before gate k)
//     grad_p += 2 Re <lambda| dG_k/dp |psi>   for each bound parameter
//     lambda <- G_k^dagger lambda
//
// Two entry points: the circuit walk re-walks the circuit per call on
// one dense Statevector; the batched plan gradient runs a block of
// samples through precompiled matrices on two BatchedStatevector
// registers (psi and lambda), forward and reverse. Production
// (qnn::QnnExecutor) runs the batched path, batch 1 included; the
// circuit-walking overloads are its reference oracle
// (tests/executor_oracle.hpp), compared with == in tests/test_exec_plan
// and tests/test_batched.

#include <span>
#include <vector>

#include "arbiterq/circuit/circuit.hpp"
#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/sim/noise_model.hpp"

namespace arbiterq::sim {

/// Reference oracle: gradient of <Z_qubit> with respect to
/// params[0..num_params), re-walking the circuit per call. When
/// `noise` is non-null, rotation angles are biased and the result is
/// scaled by the circuit's survival probability — the derivative of the
/// exact-mode noisy expectation.
std::vector<double> adjoint_gradient_z(const circuit::Circuit& c,
                                       std::span<const double> params,
                                       int qubit,
                                       const NoiseModel* noise = nullptr);

/// Same, with the circuit's survival probability precomputed by the
/// caller (it is constant per circuit; see ExecPlan::survival). Only
/// used when `noise` is non-null and enabled.
std::vector<double> adjoint_gradient_z(const circuit::Circuit& c,
                                       std::span<const double> params,
                                       int qubit, const NoiseModel* noise,
                                       double survival);

/// Sample-batched plan gradient: sample b's parameter binding starts at
/// params + b * stride (stride >= num_params) and its gradient is
/// written to grads + b * num_params. Both halves walk the unfused gate
/// table over the whole block: each gate is applied (forward) or
/// un-applied (reverse, to psi and lambda) by one register kernel —
/// the broadcast form when every column bound the same angles, the
/// per-column form otherwise — and each gradient term's bracket is one
/// batched reduction with the circuit walk's per-column association.
/// Every sample's gradient therefore equals (==) the circuit walk's,
/// with identical bits on every nonzero entry (CX/SWAP/X run as row
/// swaps here, see batched.hpp), under strict reproducibility; the
/// opt-in fast arm is ULP-equivalent. Throws std::invalid_argument when
/// stride < num_params or the readout qubit is outside
/// [0, num_qubits). Zero heap allocations once `ws` is warm for the
/// plan and batch width.
void adjoint_gradient_z_batched(const ExecPlan& plan, const double* params,
                                std::size_t stride, std::size_t batch,
                                int qubit, BatchedWorkspace& ws,
                                double* grads);

}  // namespace arbiterq::sim
