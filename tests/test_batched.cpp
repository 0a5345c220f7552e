// Sample-batched forward equivalence: BatchedStatevector column
// evolution vs the unbatched plan path (bitwise under the default
// strict-reproducibility arm, for batch sizes 1 / 2 / odd / wider than
// kBatchBlock), the batched adjoint vs the circuit walk, readout-qubit
// validation, the plan-based trajectory sampler (bitwise agreement
// with the block oracle in tests/sampler_oracle.hpp, same-seed
// determinism, noiseless bitwise agreement with the circuit-walking
// sampler, statistical agreement under noise, no buffer growth on a
// warm workspace), and executor-level equivalence with the circuit-walk
// oracle (tests/executor_oracle.hpp), a routed 10-qubit QPU included.

#include "arbiterq/sim/batched.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/qnn/model.hpp"
#include "arbiterq/sim/adjoint.hpp"
#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/simulator.hpp"
#include "executor_oracle.hpp"
#include "sampler_oracle.hpp"

namespace arbiterq::sim {
namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::ParamExpr;

NoiseModel rich_noise(int nq) {
  NoiseModel m(nq);
  for (int q = 0; q < nq; ++q) {
    m.set_depolarizing_1q(q, 0.004 + 0.002 * q);
    m.set_coherent_bias(q, 0.06 - 0.03 * q);
    m.set_readout_error(q, 0.01 + 0.005 * q, 0.02);
  }
  for (int q = 0; q + 1 < nq; ++q) m.set_depolarizing_2q(q, q + 1, 0.02);
  return m;
}

/// The fusion-stress circuit from test_exec_plan: every gate kind,
/// static prefixes, statics after dynamics, constant rotations, dynamic
/// controlled rotations.
Circuit full_gate_circuit() {
  Circuit c(3, 5);
  c.h(0).s(0).x(1).sdg(1).sx(2).y(2).z(0);
  c.add({GateKind::kI, {1, 0}, {}});
  c.rx(0, ParamExpr::constant(0.37));
  c.rx(0, ParamExpr::ref(0));
  c.h(0);
  c.ry(1, ParamExpr::ref(1, 0.5, 0.11));
  c.rz(2, ParamExpr::ref(2, -1.25, -0.4));
  c.cx(0, 1);
  c.u3(1, ParamExpr::ref(3), ParamExpr::constant(0.3),
       ParamExpr::ref(1, -0.7, 0.2));
  c.u3(2, ParamExpr::constant(0.9), ParamExpr::constant(-0.2),
       ParamExpr::constant(0.5));
  c.cz(1, 2);
  c.crx(0, 1, ParamExpr::ref(4));
  c.cry(1, 2, ParamExpr::constant(0.6));
  c.crz(2, 0, ParamExpr::ref(0, 0.5));
  c.swap(0, 2);
  c.ry(2, ParamExpr::ref(3, 2.0, -0.05));
  c.sdg(2);
  return c;
}

std::vector<double> batch_params(int np, std::size_t batch, math::Rng& rng,
                                 bool repeat_weights = false) {
  std::vector<double> p(static_cast<std::size_t>(np) * batch);
  for (std::size_t b = 0; b < batch; ++b) {
    for (int j = 0; j < np; ++j) {
      const std::size_t i = b * static_cast<std::size_t>(np) +
                            static_cast<std::size_t>(j);
      // repeat_weights makes the trailing params identical across the
      // batch — the training shape (shared weights, per-sample
      // features) that must hit the prev-column bind memo.
      if (repeat_weights && j >= np / 2 && b > 0) {
        p[i] = p[static_cast<std::size_t>(j)];
      } else {
        p[i] = rng.uniform(-1.5, 1.5);
      }
    }
  }
  return p;
}

class BatchedPlan : public ::testing::TestWithParam<bool> {
 protected:
  StatevectorSimulator make_sim() const {
    return GetParam() ? StatevectorSimulator(rich_noise(3))
                      : StatevectorSimulator();
  }
};

TEST_P(BatchedPlan, RunMatchesUnbatchedPerColumnBitwise) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim = make_sim();
  const ExecPlan plan = sim.make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  Workspace ws;
  BatchedWorkspace bws;
  math::Rng rng(21);
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{40}}) {
    for (const bool repeat : {false, true}) {
      const auto params = batch_params(c.num_params(), batch, rng, repeat);
      BatchedStatevector& st =
          plan.run_batched(params.data(), np, batch, bws);
      ASSERT_EQ(st.batch(), batch);
      std::vector<double> zs(batch);
      plan.expectation_z_batched(params.data(), np, batch, 1, bws,
                                 zs.data());
      for (std::size_t b = 0; b < batch; ++b) {
        const std::span<const double> col(params.data() + b * np, np);
        const Statevector& ref = plan.run(col, ws);
        for (std::size_t i = 0; i < ref.dim(); ++i) {
          EXPECT_EQ(st.row(i)[b], ref.amplitudes()[i])
              << "batch " << batch << " col " << b << " amp " << i;
        }
        EXPECT_EQ(zs[b], plan.expectation_z(col, 1, ws))
            << "batch " << batch << " col " << b;
      }
    }
  }
}

TEST_P(BatchedPlan, ColumnsInvariantAcrossBatchSizes) {
  // The same binding must produce the same bits whether it rides in a
  // batch of 1, shares a block with others, or lands in a 40-wide batch.
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim = make_sim();
  const ExecPlan plan = sim.make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  BatchedWorkspace bws;
  math::Rng rng(22);
  const auto params = batch_params(c.num_params(), 40, rng);
  std::vector<double> wide(40);
  plan.expectation_z_batched(params.data(), np, 40, 0, bws, wide.data());
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
    for (std::size_t start = 0; start + batch <= 40; start += 13) {
      std::vector<double> zs(batch);
      plan.expectation_z_batched(params.data() + start * np, np, batch, 0,
                                 bws, zs.data());
      for (std::size_t b = 0; b < batch; ++b) {
        EXPECT_EQ(zs[b], wide[start + b]) << "batch " << batch << " col "
                                          << start + b;
      }
    }
  }
}

TEST_P(BatchedPlan, AdjointGradientMatchesCircuitWalkBitwise) {
  // Both halves of the batched adjoint run over the whole block (CX and
  // SWAP as row swaps, brackets with columns as lanes); each column's
  // gradient must still equal the dense circuit walk's.
  const Circuit c = full_gate_circuit();
  const NoiseModel noise = rich_noise(3);
  const StatevectorSimulator sim = make_sim();
  const ExecPlan plan = sim.make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  BatchedWorkspace bws;
  math::Rng rng(23);
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{3}, std::size_t{40}}) {
    for (const bool repeat : {false, true}) {
      const auto params = batch_params(c.num_params(), batch, rng, repeat);
      std::vector<double> grads(batch * np);
      adjoint_gradient_z_batched(plan, params.data(), np, batch, 1, bws,
                                 grads.data());
      for (std::size_t b = 0; b < batch; ++b) {
        const std::span<const double> col(params.data() + b * np, np);
        const auto ref =
            adjoint_gradient_z(c, col, 1, GetParam() ? &noise : nullptr);
        for (std::size_t j = 0; j < np; ++j) {
          EXPECT_EQ(grads[b * np + j], ref[j])
              << "batch " << batch << " col " << b << " param " << j;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseOnOff, BatchedPlan, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "noisy" : "ideal";
                         });

TEST(BatchedPlanInput, ReadoutQubitOutsideRegisterThrows) {
  // Every batched entry point that takes a readout qubit rejects one
  // outside [0, num_qubits) before touching the register or the RNG.
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  const std::vector<double> params(2 * np, 0.25);
  std::vector<double> out(2 * np);
  BatchedWorkspace ws;
  ShotOptions opts;
  opts.shots = 8;
  opts.trajectories = 4;
  for (const int q : {-1, -64, 3, 64, std::numeric_limits<int>::min(),
                      std::numeric_limits<int>::max()}) {
    SCOPED_TRACE(::testing::Message() << "qubit " << q);
    EXPECT_THROW(plan.expectation_z_batched(params.data(), np, 2, q, ws,
                                            out.data()),
                 std::invalid_argument);
    EXPECT_THROW(adjoint_gradient_z_batched(plan, params.data(), np, 2, q, ws,
                                            out.data()),
                 std::invalid_argument);
    math::Rng rng(3);
    const math::Rng untouched = rng;
    EXPECT_THROW(sim.sample_marginal_ones(plan, params, q, opts, rng, ws),
                 std::invalid_argument);
    EXPECT_EQ(rng.uniform(), math::Rng(untouched).uniform());
  }
  // The last qubit is still a valid readout.
  plan.expectation_z_batched(params.data(), np, 2, 2, ws, out.data());
  adjoint_gradient_z_batched(plan, params.data(), np, 2, 2, ws, out.data());
}

TEST(BatchedStatevectorTest, ConfigureResetsAllColumns) {
  BatchedStatevector st;
  st.configure(2, 3);
  st.apply_mat2_all(circuit::gate_matrix_1q(GateKind::kH, {}), 0);
  st.configure(2, 3);
  for (std::size_t i = 0; i < st.dim(); ++i) {
    for (std::size_t b = 0; b < st.batch(); ++b) {
      EXPECT_EQ(st.row(i)[b], (i == 0 ? Complex{1.0, 0.0} : Complex{0.0, 0.0}));
    }
  }
  EXPECT_THROW(st.configure(0, 3), std::invalid_argument);
  EXPECT_THROW(st.configure(2, 0), std::invalid_argument);
  EXPECT_THROW(st.configure(2, 3, 0), std::invalid_argument);
  EXPECT_THROW(st.configure(2, 3, 4), std::invalid_argument);
  EXPECT_THROW(st.apply_pauli_col(0, 0, 0), std::invalid_argument);
}

TEST(BatchedStatevectorTest, ForkCopiesALiveColumnIntoTheNextSlot) {
  BatchedStatevector st;
  st.configure(2, 3, 1);
  EXPECT_EQ(st.live(), 1U);
  st.apply_mat2_all(circuit::gate_matrix_1q(GateKind::kH, {}), 0);
  EXPECT_THROW(st.fork_column(1), std::out_of_range);  // not live
  EXPECT_EQ(st.fork_column(0), 1U);
  EXPECT_EQ(st.fork_column(1), 2U);
  for (std::size_t i = 0; i < st.dim(); ++i) {
    EXPECT_EQ(st.row(i)[1], st.row(i)[0]) << "amp " << i;
    EXPECT_EQ(st.row(i)[2], st.row(i)[0]) << "amp " << i;
  }
  EXPECT_THROW(st.fork_column(0), std::out_of_range);  // no free column
  // Only live columns evolve: a gate after the forks reaches all three.
  st.apply_mat2_all(circuit::gate_matrix_1q(GateKind::kX, {}), 1);
  for (std::size_t i = 0; i < st.dim(); ++i) {
    EXPECT_EQ(st.row(i)[2], st.row(i)[0]) << "amp " << i;
  }
}

// ---------------------------------------------------------------------------
// Trajectory-batched sampler

TEST(BatchedSampler, DeterministicGivenRngState) {
  const Circuit c = full_gate_circuit();
  math::Rng prng(61);
  std::vector<double> params(static_cast<std::size_t>(c.num_params()));
  for (double& v : params) v = prng.uniform(-1.5, 1.5);
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  BatchedWorkspace wsa;
  BatchedWorkspace wsb;
  ShotOptions opts;
  opts.shots = 500;
  // More trajectories than one kBatchBlock, and not a multiple of it.
  opts.trajectories = 50;
  math::Rng a(7);
  math::Rng b(7);
  EXPECT_EQ(sim.sample_marginal_ones(plan, params, 1, opts, a, wsa),
            sim.sample_marginal_ones(plan, params, 1, opts, b, wsb));
}

NoiseModel saturated_noise(int nq) {
  // Every gate errs with probability 1: every site fires on every
  // trajectory, so columns fork as often as they can.
  NoiseModel m(nq);
  for (int q = 0; q < nq; ++q) m.set_depolarizing_1q(q, 1.0);
  for (int a = 0; a < nq; ++a) {
    for (int b = 0; b < nq; ++b) {
      if (a != b) m.set_depolarizing_2q(a, b, 1.0);
    }
  }
  return m;
}

NoiseModel no_readout_noise(int nq) {
  NoiseModel m = rich_noise(nq);
  for (int q = 0; q < nq; ++q) m.set_readout_error(q, 0.0, 0.0);
  return m;
}

/// EXPECT_EQ of the branch-walk sampler's ones count against the block
/// oracle over a table of trajectory and shot counts on every readout
/// qubit; both sides start from the same RNG state and must leave it in
/// the same state.
void expect_matches_block_oracle(const StatevectorSimulator& sim,
                                 const ExecPlan& plan,
                                 std::span<const double> params,
                                 const char* model) {
  BatchedWorkspace ws;
  BatchedWorkspace oracle_ws;
  std::uint64_t seed = 1000;
  for (const int traj : {1, 2, 16, 31, 32, 33, 50, 64}) {
    for (const int shots : {1, traj - 1, 85, 500}) {
      if (shots < 1) continue;
      for (int q = 0; q < plan.num_qubits(); ++q) {
        ShotOptions opts;
        opts.shots = shots;
        opts.trajectories = traj;
        math::Rng a(++seed);
        math::Rng b(seed);
        EXPECT_EQ(sim.sample_marginal_ones(plan, params, q, opts, a, ws),
                  oracle::block_sample_marginal_ones(sim, plan, params, q,
                                                     opts, b, oracle_ws))
            << model << " trajectories=" << traj << " shots=" << shots
            << " qubit=" << q;
        EXPECT_EQ(a.uniform(), b.uniform()) << model;
      }
    }
  }
}

TEST(BatchedSampler, MatchesBlockOracleBitwise) {
  const Circuit c = full_gate_circuit();
  math::Rng prng(71);
  std::vector<double> params(static_cast<std::size_t>(c.num_params()));
  for (double& v : params) v = prng.uniform(-1.5, 1.5);
  const std::vector<std::pair<const char*, StatevectorSimulator>> models = {
      {"noiseless", StatevectorSimulator()},
      {"readout flips on", StatevectorSimulator(rich_noise(3))},
      {"readout flips off", StatevectorSimulator(no_readout_noise(3))},
      {"gate error 1.0", StatevectorSimulator(saturated_noise(3))},
  };
  for (const auto& [name, sim] : models) {
    const ExecPlan plan = sim.make_plan(c);
    expect_matches_block_oracle(sim, plan, params, name);
  }
}

TEST(BatchedSampler, NoiselessTrajectoriesShareOneColumn) {
  // With no noise site every trajectory follows one path: the walk
  // never forks, however many trajectories there are.
  const Circuit c = full_gate_circuit();
  const std::vector<double> params(static_cast<std::size_t>(c.num_params()),
                                   0.3);
  const StatevectorSimulator sim;
  const ExecPlan plan = sim.make_plan(c);
  BatchedWorkspace ws;
  ShotOptions opts;
  opts.shots = 500;
  opts.trajectories = 32;
  math::Rng rng(3);
  sim.sample_marginal_ones(plan, params, 0, opts, rng, ws);
  EXPECT_EQ(ws.state().live(), 1U);
  EXPECT_EQ(ws.state().batch(), 32U);
}

TEST(BatchedSampler, SecondCallGrowsNoBuffer) {
  const Circuit c = full_gate_circuit();
  const std::vector<double> params(static_cast<std::size_t>(c.num_params()),
                                   0.4);
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  BatchedWorkspace ws;
  ShotOptions opts;
  opts.shots = 85;
  opts.trajectories = 16;
  math::Rng rng(5);
  sim.sample_marginal_ones(plan, params, 1, opts, rng, ws);
  const auto& t = ws.traj;
  struct Buf {
    const void* data;
    std::size_t capacity;
  };
  const auto snapshot = [&] {
    return std::vector<Buf>{
        {t.shots_of.data(), t.shots_of.capacity()},
        {t.decision.data(), t.decision.capacity()},
        {t.u_out.data(), t.u_out.capacity()},
        {t.u_flip.data(), t.u_flip.capacity()},
        {t.p1.data(), t.p1.capacity()},
        {t.column_of.data(), t.column_of.capacity()},
        {t.fork_to.data(), t.fork_to.capacity()},
        {ws.gates.dyn1q.data(), ws.gates.dyn1q.capacity()},
        {ws.gates.dyn2q.data(), ws.gates.dyn2q.capacity()},
        {ws.state().row(0), ws.state().dim() * ws.state().batch()},
    };
  };
  const auto before = snapshot();
  // A different seed forks a different set of columns.
  math::Rng other(6);
  sim.sample_marginal_ones(plan, params, 1, opts, other, ws);
  const auto after = snapshot();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].data, after[i].data) << "buffer " << i;
    EXPECT_EQ(before[i].capacity, after[i].capacity) << "buffer " << i;
  }
}

TEST(BatchedSampler, NoiselessMatchesCircuitWalkingSamplerBitwise) {
  // Without noise the batched sampler's pre-drawn schedule collapses to
  // the legacy one-uniform-per-shot stream, and per-column evolution is
  // bit-identical under the default strict arm — so the two samplers
  // must agree on every shot.
  const Circuit c = full_gate_circuit();
  math::Rng prng(31);
  std::vector<double> params(static_cast<std::size_t>(c.num_params()));
  for (double& v : params) v = prng.uniform(-1.5, 1.5);
  const StatevectorSimulator sim;
  const ExecPlan plan = sim.make_plan(c);
  BatchedWorkspace ws;
  ShotOptions opts;
  opts.shots = 400;
  opts.trajectories = 40;  // spills past one kBatchBlock
  math::Rng a(13);
  math::Rng b(13);
  EXPECT_EQ(sim.sample_marginal_ones(plan, params, 2, opts, a, ws),
            sim.sample_marginal_ones(c, params, 2, opts, b));
}

TEST(BatchedSampler, NoisyAgreesStatisticallyWithCircuitWalkingSampler) {
  const Circuit c = full_gate_circuit();
  math::Rng prng(37);
  std::vector<double> params(static_cast<std::size_t>(c.num_params()));
  for (double& v : params) v = prng.uniform(-1.5, 1.5);
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  BatchedWorkspace ws;
  ShotOptions opts;
  opts.shots = 20000;
  opts.trajectories = 64;
  math::Rng a(17);
  math::Rng b(17);
  const double p_plan =
      sim.sampled_probability_of_one(plan, params, 1, opts, a, ws);
  const double p_naive =
      sim.sampled_probability_of_one(c, params, 1, opts, b);
  // Two independent 20k-shot estimates of the same marginal: the
  // difference is bounded by a few combined standard errors (~0.007).
  EXPECT_NEAR(p_plan, p_naive, 0.02);
}

TEST(BatchedSampler, InvalidOptionsThrow) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim;
  const ExecPlan plan = sim.make_plan(c);
  BatchedWorkspace ws;
  const std::vector<double> params(
      static_cast<std::size_t>(c.num_params()), 0.1);
  math::Rng rng(1);
  ShotOptions opts;
  opts.shots = 0;
  EXPECT_THROW(sim.sample_marginal_ones(plan, params, 0, opts, rng, ws),
               std::invalid_argument);
}

TEST(BatchedWorkspacePoolTest, RecyclesAndCopiesStartFresh) {
  BatchedWorkspacePool pool;
  BatchedWorkspace* first = nullptr;
  {
    auto lease = pool.acquire();
    first = &*lease;
    lease->params.assign(8, 1.0);
  }
  {
    auto lease = pool.acquire();
    EXPECT_EQ(&*lease, first);
    EXPECT_EQ(lease->params.size(), 8U);
  }
  const BatchedWorkspacePool copy = pool;
  (void)copy;
}

}  // namespace
}  // namespace arbiterq::sim

// ---------------------------------------------------------------------------
// Executor + trainer integration

namespace arbiterq {
namespace {

class BatchedExecutor : public ::testing::Test {
 protected:
  BatchedExecutor()
      : model_(qnn::Backbone::kCRz, 2, 2),
        split_(data::prepare_case({"iris", 2, 2})) {
    weights_.assign(static_cast<std::size_t>(model_.num_weights()), 0.0);
    math::Rng rng(7);
    for (double& w : weights_) w = rng.uniform(-1.0, 1.0);
  }

  qnn::QnnExecutor make(bool mitigate = false, int threads = 1) const {
    qnn::ExecutorOptions opts;
    opts.mitigate_depolarizing = mitigate;
    opts.exec.num_threads = threads;
    return qnn::QnnExecutor(model_, device::table3_fleet_subset(1, 2)[0],
                            opts);
  }

  qnn::QnnModel model_;
  data::EncodedSplit split_;
  std::vector<double> weights_;
};

TEST_F(BatchedExecutor, LossAndGradientMatchOracleBitwise) {
  // Sample blocks of kBatchBlock columns (the train split spans several,
  // the last one partial) against the serial per-sample circuit walk.
  for (const bool mitigate : {false, true}) {
    for (const int t : {1, 2, 8}) {
      const qnn::QnnExecutor ex = make(mitigate, t);
      const oracle::ExecutorOracle walk(ex);
      EXPECT_EQ(ex.dataset_loss(qnn::LossKind::kMse, split_.train_features,
                                split_.train_labels, weights_),
                walk.dataset_loss(qnn::LossKind::kMse, split_.train_features,
                                  split_.train_labels, weights_))
          << "mitigate=" << mitigate << " threads=" << t;
      EXPECT_EQ(ex.loss_gradient(qnn::LossKind::kMse, split_.train_features,
                                 split_.train_labels, weights_),
                walk.loss_gradient(qnn::LossKind::kMse, split_.train_features,
                                   split_.train_labels, weights_))
          << "mitigate=" << mitigate << " threads=" << t;
    }
  }
}

TEST(BatchedExecutorRouted, LossAndGradientMatchOracleOnRoutedQpu) {
  // A routed 10-qubit QPU: the transpiled gate table is dominated by CX
  // (applied as row swaps in the batched forward and both adjoint
  // halves), against the dense per-sample circuit walk, on both arms.
  const qnn::QnnModel model(qnn::Backbone::kCRz, 10, 2);
  const qnn::QnnExecutor ex(model, device::table3_fleet_subset(10, 10)[0]);
  ASSERT_GT(ex.plan()->permutation_gate_count(), 0U);
  const oracle::ExecutorOracle walk(ex);
  math::Rng rng(37);
  std::vector<std::vector<double>> features(40, std::vector<double>(10));
  std::vector<int> labels;
  for (auto& row : features) {
    for (double& v : row) v = rng.uniform(0.0, 1.0);
    labels.push_back(static_cast<int>(labels.size() % 2));
  }
  std::vector<double> weights(static_cast<std::size_t>(model.num_weights()));
  for (double& w : weights) w = rng.uniform(-1.5, 1.5);
  const double loss = walk.dataset_loss(qnn::LossKind::kMse, features,
                                        labels, weights);
  const auto grad =
      walk.loss_gradient(qnn::LossKind::kMse, features, labels, weights);
  const bool simd_was = sim::kernels::simd_runtime_enabled();
  for (const bool simd : {false, true}) {
    sim::kernels::set_simd_runtime_enabled(simd);
    EXPECT_EQ(ex.dataset_loss(qnn::LossKind::kMse, features, labels, weights),
              loss)
        << "simd=" << simd;
    EXPECT_EQ(ex.loss_gradient(qnn::LossKind::kMse, features, labels,
                               weights),
              grad)
        << "simd=" << simd;
  }
  sim::kernels::set_simd_runtime_enabled(simd_was);
}

TEST_F(BatchedExecutor, RecalibratedPlanSamplerMatchesBlockOracle) {
  // recalibrate() compiles a new plan, noise sites included; the
  // production sampler on it must still match the block oracle.
  qnn::QnnExecutor ex = make();
  math::Rng drift(9);
  ex.recalibrate(0.05, drift);
  const sim::StatevectorSimulator sim(ex.noise());
  ASSERT_FALSE(ex.plan()->noise_sites().empty());
  const auto params =
      model_.pack_params(split_.test_features.front(), weights_);
  sim::BatchedWorkspace ws;
  sim::BatchedWorkspace oracle_ws;
  sim::ShotOptions opts;
  opts.shots = 85;
  opts.trajectories = 16;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    math::Rng a(seed);
    math::Rng b(seed);
    EXPECT_EQ(sim.sample_marginal_ones(*ex.plan(), params,
                                       ex.readout_qubit(), opts, a, ws),
              oracle::block_sample_marginal_ones(sim, *ex.plan(), params,
                                                 ex.readout_qubit(), opts, b,
                                                 oracle_ws))
        << "seed " << seed;
  }
}

TEST_F(BatchedExecutor, SampledProbabilityDeterministicAndCalibrated) {
  const qnn::QnnExecutor ex = make();
  const auto& f = split_.test_features.front();
  math::Rng a(5);
  math::Rng b(5);
  const double pa = ex.sampled_probability(f, weights_, 4000, a, 48);
  const double pb = ex.sampled_probability(f, weights_, 4000, b, 48);
  EXPECT_EQ(pa, pb);
  // The sampled estimate tracks the exact forward within shot noise.
  EXPECT_NEAR(pa, ex.probability(f, weights_), 0.05);
}

}  // namespace
}  // namespace arbiterq
