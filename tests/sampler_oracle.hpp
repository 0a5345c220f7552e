#pragma once
// Reference oracle for the plan-based trajectory sampler,
// StatevectorSimulator::sample_marginal_ones(const ExecPlan&, ...).
//
// This is the block sampler production ran before the branch walk:
// every trajectory of a kBatchBlock-wide block evolves through every
// gate in its own column, and a fired noise site applies its Pauli to
// that column alone. It consumes the RNG in the same pre-drawn order as
// production, so for any seed the production sampler's ones count must
// equal this one's exactly (EXPECT_EQ, not EXPECT_NEAR).
//
// Header-only so the tests and bench_perf's --plan-ab sampler row share
// one definition.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "arbiterq/math/rng.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/sim/simulator.hpp"

namespace arbiterq::oracle {

/// Ones count of `opts.shots` shots on `qubit`, every trajectory walked
/// in full. `sim` supplies the noise model, as in production.
inline std::uint64_t block_sample_marginal_ones(
    const sim::StatevectorSimulator& sim, const sim::ExecPlan& plan,
    std::span<const double> params, int qubit, const sim::ShotOptions& opts,
    math::Rng& rng, sim::BatchedWorkspace& ws) {
  if (opts.shots <= 0 || opts.trajectories <= 0) {
    throw std::invalid_argument(
        "sample_marginal_ones: shots/trajectories invalid");
  }
  const auto n_traj =
      static_cast<std::size_t>(std::min(opts.trajectories, opts.shots));
  const auto& table = plan.gate_table();
  const sim::NoiseModel& noise = sim.noise();
  const bool noisy = noise.enabled();

  // Shot allotment per trajectory: the circuit-walking sampler's
  // deterministic remaining / (n - t) spread.
  std::vector<int> shots_of(n_traj);
  int remaining = opts.shots;
  for (std::size_t t = 0; t < n_traj; ++t) {
    shots_of[t] = remaining / static_cast<int>(n_traj - t);
    remaining -= shots_of[t];
  }

  // Noise sites: one per (gate with depolarizing error, involved qubit),
  // in gate order — the exact draw order of run_trajectory.
  struct Site {
    std::size_t gate;
    int qubit;
    double error;
  };
  std::vector<Site> sites;
  if (noisy) {
    for (std::size_t k = 0; k < table.size(); ++k) {
      const sim::GateEntry& e = table[k];
      if (e.error <= 0.0) continue;
      sites.push_back({k, e.q0, e.error});
      if (e.arity == 2) sites.push_back({k, e.q1, e.error});
    }
  }
  const double p01 = noisy ? noise.readout_p01(qubit) : 0.0;
  const double p10 = noisy ? noise.readout_p10(qubit) : 0.0;
  const bool flips = noisy && (p01 > 0.0 || p10 > 0.0);

  // Every random decision is pre-drawn here, trajectory by trajectory.
  std::vector<std::uint8_t> decision(n_traj * sites.size(), 0);
  std::vector<double> u_out(static_cast<std::size_t>(opts.shots));
  std::vector<double> u_flip(flips ? u_out.size() : 0);
  {
    std::size_t si = 0;
    for (std::size_t t = 0; t < n_traj; ++t) {
      for (std::size_t s = 0; s < sites.size(); ++s) {
        if (rng.bernoulli(sites[s].error)) {
          decision[t * sites.size() + s] =
              static_cast<std::uint8_t>(1 + rng.uniform_int(3));
        }
      }
      for (int s = 0; s < shots_of[t]; ++s, ++si) {
        u_out[si] = rng.uniform();
        if (flips) u_flip[si] = rng.uniform();
      }
    }
  }

  plan.bind_gates(params, ws.gates);

  std::uint64_t ones = 0;
  std::vector<double> p1(sim::kBatchBlock);
  std::size_t si = 0;
  for (std::size_t t0 = 0; t0 < n_traj; t0 += sim::kBatchBlock) {
    const std::size_t cur = std::min(sim::kBatchBlock, n_traj - t0);
    sim::BatchedStatevector& st = ws.state();
    st.configure(plan.num_qubits(), cur);
    std::size_t site_idx = 0;
    for (std::size_t k = 0; k < table.size(); ++k) {
      const sim::GateEntry& e = table[k];
      const auto idx = static_cast<std::size_t>(e.index);
      if (e.arity == 1) {
        st.apply_mat2_all(
            e.dynamic ? ws.gates.dyn1q[idx] : plan.table_mat2(e.index), e.q0);
      } else {
        st.apply_mat4_all(
            e.dynamic ? ws.gates.dyn2q[idx] : plan.table_mat4(e.index), e.q0,
            e.q1);
      }
      for (; site_idx < sites.size() && sites[site_idx].gate == k;
           ++site_idx) {
        const Site& site = sites[site_idx];
        for (std::size_t c = 0; c < cur; ++c) {
          const std::uint8_t d = decision[(t0 + c) * sites.size() + site_idx];
          if (d != 0) st.apply_pauli_col(d, site.qubit, c);
        }
      }
    }
    st.probability_of_one_all(qubit, p1.data());
    for (std::size_t c = 0; c < cur; ++c) {
      for (int s = 0; s < shots_of[t0 + c]; ++s, ++si) {
        bool one = u_out[si] < p1[c];
        if (flips && u_flip[si] < (one ? p10 : p01)) one = !one;
        if (one) ++ones;
      }
    }
  }
  return ones;
}

}  // namespace arbiterq::oracle
