// Compiled execution plans: bit-identity against the naive per-call
// path across the full gate set (noise on/off), the batched plan
// adjoint (batch 1 and 4) vs the circuit-walking adjoint, executor
// outputs vs the circuit-walk oracle (tests/executor_oracle.hpp), plan
// invalidation on recalibrate and copy-then-recalibrate, marginal
// sampling, and the zero-allocation steady-state contract (checked with
// a counting global operator new).

#include "arbiterq/sim/exec_plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/qnn/model.hpp"
#include "arbiterq/sim/adjoint.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/simulator.hpp"
#include "executor_oracle.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every default-aligned heap allocation in this
// binary bumps g_allocations. The steady-state test asserts the counter
// does not move across a window of plan evaluations.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

/// Every GateKind, with static prefixes, mid-run static gates after
/// dynamic ones, static rotations (constant ParamExprs), and dynamic
/// controlled rotations — the shapes the fusion rules must all handle.
Circuit full_gate_circuit() {
  Circuit c(3, 5);
  c.h(0).s(0).x(1).sdg(1).sx(2).y(2).z(0);
  c.add({GateKind::kI, {1, 0}, {}});
  c.rx(0, ParamExpr::constant(0.37));       // static rotation in a prefix
  c.rx(0, ParamExpr::ref(0));               // dynamic after the prefix
  c.h(0);                                   // static *after* dynamic
  c.ry(1, ParamExpr::ref(1, 0.5, 0.11));
  c.rz(2, ParamExpr::ref(2, -1.25, -0.4));
  c.cx(0, 1);
  c.u3(1, ParamExpr::ref(3), ParamExpr::constant(0.3),
       ParamExpr::ref(1, -0.7, 0.2));
  c.u3(2, ParamExpr::constant(0.9), ParamExpr::constant(-0.2),
       ParamExpr::constant(0.5));           // fully static U3
  c.cz(1, 2);
  c.crx(0, 1, ParamExpr::ref(4));
  c.cry(1, 2, ParamExpr::constant(0.6));    // static controlled rotation
  c.crz(2, 0, ParamExpr::ref(0, 0.5));
  c.swap(0, 2);
  c.ry(2, ParamExpr::ref(3, 2.0, -0.05));
  c.sdg(2);
  return c;
}

Circuit random_circuit(int nq, int np, math::Rng& rng, int gates) {
  Circuit c(nq, np);
  const GateKind kinds[] = {
      GateKind::kI,  GateKind::kX,   GateKind::kY,   GateKind::kZ,
      GateKind::kH,  GateKind::kS,   GateKind::kSdg, GateKind::kSX,
      GateKind::kRX, GateKind::kRY,  GateKind::kRZ,  GateKind::kU3,
      GateKind::kCX, GateKind::kCZ,  GateKind::kCRX, GateKind::kCRY,
      GateKind::kCRZ, GateKind::kSwap};
  auto random_expr = [&]() {
    if (rng.uniform() < 0.4) return ParamExpr::constant(rng.uniform(-2.0, 2.0));
    return ParamExpr::ref(static_cast<int>(rng.uniform_int(
                              static_cast<std::uint64_t>(np))),
                          rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5));
  };
  for (int i = 0; i < gates; ++i) {
    const GateKind kind =
        kinds[rng.uniform_int(sizeof(kinds) / sizeof(kinds[0]))];
    circuit::Gate g;
    g.kind = kind;
    const int q0 = static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(nq)));
    g.qubits[0] = q0;
    if (circuit::gate_arity(kind) == 2) {
      int q1 = q0;
      while (q1 == q0) {
        q1 = static_cast<int>(
            rng.uniform_int(static_cast<std::uint64_t>(nq)));
      }
      g.qubits[1] = q1;
    }
    for (int s = 0; s < circuit::gate_param_count(kind); ++s) {
      g.params[static_cast<std::size_t>(s)] = random_expr();
    }
    c.add(g);
  }
  return c;
}

std::vector<double> some_params(int np, math::Rng& rng) {
  std::vector<double> p(static_cast<std::size_t>(np));
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  return p;
}

/// One batched adjoint call over `batch` parameter sets drawn fresh
/// from `rng` (sample b's params and gradient at [b * num_params, ...)).
struct BatchedGrads {
  std::vector<double> params;
  std::vector<double> grads;
};

BatchedGrads batched_adjoint(const ExecPlan& plan, std::size_t batch,
                             int qubit, math::Rng& rng, BatchedWorkspace& ws) {
  const auto np = static_cast<std::size_t>(plan.num_params());
  BatchedGrads out;
  for (std::size_t b = 0; b < batch; ++b) {
    const auto p = some_params(plan.num_params(), rng);
    out.params.insert(out.params.end(), p.begin(), p.end());
  }
  out.grads.assign(batch * np, 0.0);
  adjoint_gradient_z_batched(plan, out.params.data(), np, batch, qubit, ws,
                             out.grads.data());
  return out;
}

void expect_columns_match_walk(const Circuit& c, const ExecPlan& plan,
                               const BatchedGrads& got, int qubit,
                               const NoiseModel* noise) {
  const auto np = static_cast<std::size_t>(plan.num_params());
  const std::size_t batch = got.grads.size() / np;
  for (std::size_t b = 0; b < batch; ++b) {
    const std::vector<double> col(got.params.begin() + b * np,
                                  got.params.begin() + (b + 1) * np);
    const auto naive = adjoint_gradient_z(c, col, qubit, noise);
    ASSERT_EQ(naive.size(), np);
    for (std::size_t i = 0; i < np; ++i) {
      EXPECT_EQ(got.grads[b * np + i], naive[i])
          << "batch " << batch << " col " << b << " qubit " << qubit
          << " param " << i;
    }
  }
}

void expect_plan_matches_naive(const StatevectorSimulator& sim,
                               const Circuit& c,
                               const std::vector<double>& params) {
  const Statevector naive = sim.run_biased(c, params);
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  const Statevector& planned = plan.run(params, ws);
  ASSERT_EQ(planned.dim(), naive.dim());
  for (std::size_t i = 0; i < naive.dim(); ++i) {
    EXPECT_EQ(planned.amplitudes()[i], naive.amplitudes()[i]) << "amp " << i;
  }
  for (int q = 0; q < c.num_qubits(); ++q) {
    EXPECT_EQ(plan.expectation_z(params, q, ws),
              sim.expectation_z(c, params, q))
        << "qubit " << q;
  }
}

TEST(ExecPlan, FullGateSetBitIdenticalNoisy) {
  const Circuit c = full_gate_circuit();
  math::Rng rng(11);
  expect_plan_matches_naive(StatevectorSimulator(rich_noise(3)), c,
                            some_params(c.num_params(), rng));
}

TEST(ExecPlan, FullGateSetBitIdenticalNoiseless) {
  const Circuit c = full_gate_circuit();
  math::Rng rng(12);
  expect_plan_matches_naive(StatevectorSimulator(), c,
                            some_params(c.num_params(), rng));
}

TEST(ExecPlan, RandomCircuitsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    math::Rng rng(seed);
    const Circuit c = random_circuit(4, 6, rng, 40);
    const auto params = some_params(c.num_params(), rng);
    expect_plan_matches_naive(StatevectorSimulator(rich_noise(4)), c, params);
    expect_plan_matches_naive(StatevectorSimulator(), c, params);
  }
}

TEST(ExecPlan, RebindTracksNewParameters) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  math::Rng rng(5);
  for (int rep = 0; rep < 4; ++rep) {
    const auto params = some_params(c.num_params(), rng);
    EXPECT_EQ(plan.expectation_z(params, 0, ws),
              sim.expectation_z(c, params, 0))
        << "rep " << rep;
  }
}

TEST(ExecPlan, CachesCircuitConstantsAndFusionStats) {
  const Circuit c = full_gate_circuit();
  const NoiseModel noise = rich_noise(3);
  const ExecPlan plan = StatevectorSimulator(noise).make_plan(c);
  EXPECT_TRUE(plan.noisy());
  EXPECT_EQ(plan.survival(), noise.survival_probability(c));
  EXPECT_EQ(plan.depth(), c.depth());
  EXPECT_EQ(plan.gate_count(), c.size());
  EXPECT_EQ(plan.num_params(), c.num_params());
  // The circuit has both fusable static material and live parameters.
  EXPECT_GT(plan.fused_gate_count(), 0U);
  EXPECT_GT(plan.bound_slot_count(), 0U);
  // x(1), cx(0, 1) and swap(0, 2) are exact transpositions; the static
  // CZ, S, H, I and the constant rotations are not.
  EXPECT_EQ(plan.permutation_gate_count(), 3U);
  EXPECT_LT(plan.stream_op_count(), c.size());

  const ExecPlan ideal = StatevectorSimulator().make_plan(c);
  EXPECT_FALSE(ideal.noisy());
  EXPECT_EQ(ideal.survival(), 1.0);
}

TEST(ExecPlan, ParamsTooShortThrows) {
  const Circuit c = full_gate_circuit();
  const ExecPlan plan = StatevectorSimulator().make_plan(c);
  Workspace ws;
  const std::vector<double> short_params(2, 0.0);
  EXPECT_THROW(plan.run(short_params, ws), std::invalid_argument);
  // The batched adjoint reads each column's params at stride
  // short_params.size() < num_params.
  BatchedWorkspace bws;
  std::vector<double> grads(static_cast<std::size_t>(c.num_params()));
  EXPECT_THROW(adjoint_gradient_z_batched(plan, short_params.data(),
                                          short_params.size(), 1, 0, bws,
                                          grads.data()),
               std::invalid_argument);
}

TEST(ExecPlanAdjoint, MatchesNaiveAdjointBitIdentical) {
  const Circuit c = full_gate_circuit();
  const NoiseModel noise = rich_noise(3);
  math::Rng rng(21);
  BatchedWorkspace ws;
  for (const NoiseModel* np : {static_cast<const NoiseModel*>(nullptr),
                               &noise}) {
    const StatevectorSimulator sim(np != nullptr ? *np : NoiseModel{});
    const ExecPlan plan = sim.make_plan(c);
    for (int qubit = 0; qubit < c.num_qubits(); ++qubit) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(np != nullptr ? "noisy" : "ideal");
        expect_columns_match_walk(c, plan,
                                  batched_adjoint(plan, batch, qubit, rng, ws),
                                  qubit, np);
      }
    }
  }
}

TEST(ExecPlanAdjoint, RandomCircuitsMatchNaive) {
  BatchedWorkspace ws;
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    math::Rng rng(seed);
    const Circuit c = random_circuit(3, 5, rng, 25);
    const NoiseModel noise = rich_noise(3);
    const ExecPlan plan = StatevectorSimulator(noise).make_plan(c);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed);
      expect_columns_match_walk(c, plan,
                                batched_adjoint(plan, batch, 0, rng, ws), 0,
                                &noise);
    }
  }
}

TEST(SimulatorOverloads, PrecomputedSurvivalMatches) {
  const Circuit c = full_gate_circuit();
  const NoiseModel noise = rich_noise(3);
  const StatevectorSimulator sim(noise);
  math::Rng rng(41);
  const auto params = some_params(c.num_params(), rng);
  const double survival = noise.survival_probability(c);
  EXPECT_EQ(sim.expectation_z(c, params, 0, survival),
            sim.expectation_z(c, params, 0));
  const auto naive = adjoint_gradient_z(c, params, 0, &noise);
  const auto cached = adjoint_gradient_z(c, params, 0, &noise, survival);
  EXPECT_EQ(cached, naive);
}

// ---------------------------------------------------------------------------
// Marginal sampling

TEST(MarginalSampling, MatchesExactProbabilityStatistically) {
  const Circuit c = full_gate_circuit();
  math::Rng rng(51);
  const auto params = some_params(c.num_params(), rng);
  for (const bool noisy : {false, true}) {
    const StatevectorSimulator sim(noisy ? rich_noise(3) : NoiseModel{});
    ShotOptions opts;
    opts.shots = 20000;
    opts.trajectories = noisy ? 64 : 1;
    math::Rng sample_rng(52);
    const double sampled =
        sim.sampled_probability_of_one(c, params, 0, opts, sample_rng);
    // Under noise the exact path folds stochastic errors into the
    // survival attenuation while trajectories sample them, so only the
    // noiseless case is an unbiased estimate of probability_of_one.
    if (!noisy) {
      EXPECT_NEAR(sampled, sim.probability_of_one(c, params, 0), 0.02);
    } else {
      EXPECT_GE(sampled, 0.0);
      EXPECT_LE(sampled, 1.0);
    }
  }
}

TEST(MarginalSampling, DeterministicGivenRngState) {
  const Circuit c = full_gate_circuit();
  math::Rng rng(61);
  const auto params = some_params(c.num_params(), rng);
  const StatevectorSimulator sim(rich_noise(3));
  ShotOptions opts;
  opts.shots = 500;
  opts.trajectories = 8;
  math::Rng a(7);
  math::Rng b(7);
  EXPECT_EQ(sim.sample_marginal_ones(c, params, 1, opts, a),
            sim.sample_marginal_ones(c, params, 1, opts, b));
}

TEST(MarginalSampling, InvalidOptionsThrow) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim;
  const std::vector<double> params(
      static_cast<std::size_t>(c.num_params()), 0.1);
  math::Rng rng(1);
  ShotOptions opts;
  opts.shots = 0;
  EXPECT_THROW(sim.sample_marginal_ones(c, params, 0, opts, rng),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Executor integration

class ExecutorPlan : public ::testing::Test {
 protected:
  ExecutorPlan()
      : model_(qnn::Backbone::kCRz, 2, 2),
        split_(data::prepare_case({"iris", 2, 2})) {
    weights_.assign(static_cast<std::size_t>(model_.num_weights()), 0.0);
    math::Rng rng(7);
    for (double& w : weights_) w = rng.uniform(-1.0, 1.0);
  }

  qnn::QnnExecutor make(bool mitigate, int threads = 1) const {
    qnn::ExecutorOptions opts;
    opts.mitigate_depolarizing = mitigate;
    opts.exec.num_threads = threads;
    return qnn::QnnExecutor(model_, device::table3_fleet_subset(1, 2)[0],
                            opts);
  }

  template <class Executor>
  oracle::Outputs outputs(const Executor& e) const {
    return oracle::outputs_of(e, qnn::LossKind::kMse, split_.train_features,
                              split_.train_labels, weights_);
  }

  qnn::QnnModel model_;
  data::EncodedSplit split_;
  std::vector<double> weights_;
};

TEST_F(ExecutorPlan, ForwardAndGradientsMatchOracle) {
  for (const bool mitigate : {false, true}) {
    for (const int t : {1, 2, 8}) {
      const qnn::QnnExecutor ex = make(mitigate, t);
      ASSERT_NE(ex.plan(), nullptr);
      EXPECT_EQ(outputs(ex), outputs(oracle::ExecutorOracle(ex)))
          << "mitigate=" << mitigate << " threads=" << t;
    }
  }
}

TEST_F(ExecutorPlan, RecalibrateInvalidatesAndRebuildsPlan) {
  for (const bool mitigate : {false, true}) {
    for (const int t : {1, 2, 8}) {
      qnn::QnnExecutor ex = make(mitigate, t);
      const sim::ExecPlan* before = ex.plan();
      const auto& f = split_.test_features.front();
      const double p_before = ex.probability(f, weights_);
      const oracle::ExecutorOracle stale(ex);

      math::Rng rng(99);
      ex.recalibrate(0.2, rng);

      // A fresh plan compiled against the drifted noise model...
      ASSERT_NE(ex.plan(), nullptr);
      EXPECT_NE(ex.plan(), before);
      // ...that still tracks the circuit walk bit-for-bit...
      EXPECT_EQ(outputs(ex), outputs(oracle::ExecutorOracle(ex)))
          << "mitigate=" << mitigate << " threads=" << t;
      // ...and actually reflects the drift (a stale plan would not).
      EXPECT_NE(ex.probability(f, weights_), p_before);
      EXPECT_THROW(stale.probability(f, weights_), std::logic_error);
    }
  }
}

TEST_F(ExecutorPlan, CopyThenRecalibrateLeavesSourceUntouched) {
  // The drift path copies executors and recalibrates the copies: copies
  // share the source's plan until one of them recalibrates, and that
  // must neither disturb the source nor leave the copy on a stale plan.
  for (const bool mitigate : {false, true}) {
    for (const int t : {1, 2, 8}) {
      const qnn::QnnExecutor source = make(mitigate, t);
      const sim::ExecPlan* source_plan = source.plan();
      const oracle::Outputs source_before = outputs(source);

      qnn::QnnExecutor copy = source;
      EXPECT_EQ(copy.plan(), source_plan);
      math::Rng rng(99);
      copy.recalibrate(0.2, rng);

      EXPECT_EQ(source.plan(), source_plan);
      EXPECT_NE(copy.plan(), source_plan);
      EXPECT_EQ(outputs(source), source_before)
          << "mitigate=" << mitigate << " threads=" << t;
      const oracle::Outputs drifted = outputs(copy);
      EXPECT_EQ(drifted, outputs(oracle::ExecutorOracle(copy)))
          << "mitigate=" << mitigate << " threads=" << t;
      EXPECT_NE(drifted.loss, source_before.loss);
    }
  }
}

TEST_F(ExecutorPlan, UnpinnedExecutionOptionsThrow) {
  const device::Qpu qpu = device::table3_fleet_subset(1, 2)[0];
  qnn::ExecutorOptions no_plan;
  no_plan.use_plan = false;
  EXPECT_THROW((void)qnn::QnnExecutor(model_, qpu, no_plan),
               std::invalid_argument);
  qnn::ExecutorOptions unbatched;
  unbatched.batched_forward = false;
  EXPECT_THROW((void)qnn::QnnExecutor(model_, qpu, unbatched),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Steady-state allocation contract

TEST(ExecPlanWorkspace, SteadyStateForwardIsAllocationFree) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  std::vector<double> params(static_cast<std::size_t>(c.num_params()), 0.2);
  // Warm-up: workspace registers and bind slots allocate here, once.
  double acc = 0.0;
  for (int i = 0; i < 3; ++i) acc += plan.expectation_z(params, 0, ws);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    params[0] = 0.01 * static_cast<double>(i);
    params[3] = -0.02 * static_cast<double>(i);
    acc += plan.expectation_z(params, 0, ws);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state forward evaluations allocated";
  EXPECT_TRUE(std::isfinite(acc));
}

TEST(ExecPlanWorkspace, SteadyStateAdjointIsAllocationFree) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
    BatchedWorkspace ws;
    std::vector<double> params(batch * np, 0.3);
    std::vector<double> grads(batch * np, 0.0);
    const auto call = [&](int i) {
      // Column b's param 1 differs from every other column's, so gate
      // entries that read it take the per-column kernels.
      for (std::size_t b = 0; b < batch; ++b) {
        params[b * np + 1] = 0.05 * static_cast<double>(i + 7 * b);
      }
      adjoint_gradient_z_batched(plan, params.data(), np, batch, 0, ws,
                                 grads.data());
    };
    for (int i = 0; i < 3; ++i) call(i);

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 3; i < 35; ++i) call(i);
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "steady-state adjoint evaluations allocated, batch " << batch;
  }
}

TEST(WorkspacePoolTest, RecyclesWorkspacesAndCopiesStartFresh) {
  WorkspacePool pool;
  Workspace* first = nullptr;
  {
    auto lease = pool.acquire();
    first = &*lease;
    lease->params.assign(8, 1.0);
  }
  {
    // The released workspace comes back, buffers intact.
    auto lease = pool.acquire();
    EXPECT_EQ(&*lease, first);
    EXPECT_EQ(lease->params.size(), 8U);
  }
  const WorkspacePool copy = pool;  // fresh pool; leases stay tied to source
  (void)copy;
}

}  // namespace
}  // namespace arbiterq::sim
