#pragma once
// Reference oracle for qnn::QnnExecutor: the per-call circuit walk.
//
// The executor runs one path — a compiled sim::ExecPlan, sample-batched
// for multi-sample work. This header re-derives every exact-mode output
// from the executor's public state alone (noise(), compiled().executable,
// readout_qubit(), survival(), options().mitigate_depolarizing) with the
// circuit-walking engines, StatevectorSimulator::expectation_z and
// sim::adjoint_gradient_z(circuit, ...), serially and with the same
// floating-point association the executor promises. Executor outputs
// must equal the oracle's bit for bit (EXPECT_EQ, not EXPECT_NEAR).
//
// Header-only so the tests and bench_perf's --plan-ab reference arm
// share one definition.

#include <cstddef>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/qnn/gradient.hpp"
#include "arbiterq/qnn/loss.hpp"
#include "arbiterq/sim/adjoint.hpp"
#include "arbiterq/sim/simulator.hpp"

namespace arbiterq::oracle {

/// Circuit-walk twin of one executor. Snapshots the executor's noise
/// model at construction; after the executor recalibrates, build a new
/// oracle (a stale one throws std::logic_error instead of answering).
class ExecutorOracle {
 public:
  explicit ExecutorOracle(const qnn::QnnExecutor& ex)
      : ex_(ex), sim_(ex.noise()), plan_at_build_(ex.plan()) {}

  /// Exact-mode P(readout = 1), readout contraction included.
  double probability(const std::vector<double>& features,
                     const std::vector<double>& weights) const {
    check_fresh();
    const auto params = ex_.model().pack_params(features, weights);
    double z = sim_.expectation_z(ex_.compiled().executable, params,
                                  ex_.readout_qubit(), ex_.survival());
    if (mitigated()) z /= ex_.survival();
    const double p_one = 0.5 * (1.0 - z);
    return p_one * (1.0 - p10()) + (1.0 - p_one) * p01();
  }

  /// Mean loss, summed in sample order.
  double dataset_loss(qnn::LossKind kind,
                      const std::vector<std::vector<double>>& features,
                      const std::vector<int>& labels,
                      const std::vector<double>& weights) const {
    check_dataset(features, labels);
    double total = 0.0;
    for (std::size_t i = 0; i < features.size(); ++i) {
      total += qnn::loss_value(kind, probability(features[i], weights),
                               labels[i]);
    }
    return total / static_cast<double>(features.size());
  }

  /// Adjoint gradient of the mean loss w.r.t. the weights.
  std::vector<double> loss_gradient(
      qnn::LossKind kind, const std::vector<std::vector<double>>& features,
      const std::vector<int>& labels,
      const std::vector<double>& weights) const {
    check_dataset(features, labels);
    const sim::NoiseModel* noise =
        ex_.noise().enabled() ? &sim_.noise() : nullptr;
    double contraction = 1.0 - p01() - p10();
    if (mitigated()) contraction /= ex_.survival();
    const auto w_offset =
        static_cast<std::size_t>(ex_.model().num_qubits());
    std::vector<double> grad(weights.size(), 0.0);
    for (std::size_t i = 0; i < features.size(); ++i) {
      const auto params = ex_.model().pack_params(features[i], weights);
      const double dl_dp = qnn::loss_derivative(
          kind, probability(features[i], weights), labels[i]);
      const auto dz =
          sim::adjoint_gradient_z(ex_.compiled().executable, params,
                                  ex_.readout_qubit(), noise, ex_.survival());
      const double chain = dl_dp * contraction * -0.5;
      for (std::size_t w = 0; w < grad.size(); ++w) {
        grad[w] += chain * dz[w_offset + w];
      }
    }
    const double inv_n = 1.0 / static_cast<double>(features.size());
    for (double& g : grad) g *= inv_n;
    return grad;
  }

  /// Parameter-shift gradient of the mean loss w.r.t. the weights.
  std::vector<double> loss_gradient_shift(
      qnn::LossKind kind, const std::vector<std::vector<double>>& features,
      const std::vector<int>& labels,
      const std::vector<double>& weights) const {
    check_dataset(features, labels);
    const std::vector<qnn::ShiftRule> rules = ex_.shift_rules();
    std::vector<double> w = weights;
    std::vector<double> grad(weights.size(), 0.0);
    for (std::size_t i = 0; i < features.size(); ++i) {
      const double dl_dp = qnn::loss_derivative(
          kind, probability(features[i], w), labels[i]);
      const qnn::ScalarFn prob = [&](const std::vector<double>& wv) {
        return probability(features[i], wv);
      };
      for (std::size_t j = 0; j < w.size(); ++j) {
        grad[j] += dl_dp * qnn::parameter_shift_partial(prob, w, j, rules[j]);
      }
    }
    const double inv_n = 1.0 / static_cast<double>(features.size());
    for (double& g : grad) g *= inv_n;
    return grad;
  }

 private:
  bool mitigated() const {
    return ex_.options().mitigate_depolarizing && ex_.survival() > 0.0;
  }
  double p01() const {
    return ex_.noise().enabled() ? ex_.noise().readout_p01(ex_.readout_qubit())
                                 : 0.0;
  }
  double p10() const {
    return ex_.noise().enabled() ? ex_.noise().readout_p10(ex_.readout_qubit())
                                 : 0.0;
  }
  void check_fresh() const {
    if (ex_.plan() != plan_at_build_) {
      throw std::logic_error(
          "ExecutorOracle: executor recalibrated; build a new oracle");
    }
  }
  static void check_dataset(const std::vector<std::vector<double>>& features,
                            const std::vector<int>& labels) {
    if (features.size() != labels.size() || features.empty()) {
      throw std::invalid_argument("ExecutorOracle: bad dataset");
    }
  }

  const qnn::QnnExecutor& ex_;
  sim::StatevectorSimulator sim_;
  const sim::ExecPlan* plan_at_build_;
};

/// Every exact-mode output the oracle covers, from either side.
struct Outputs {
  std::vector<double> probabilities;  ///< probability() per sample
  double loss = 0.0;
  std::vector<double> gradient;
  std::vector<double> shift_gradient;  ///< empty unless requested
  bool operator==(const Outputs&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const Outputs& o) {
  const auto list = [&os](const char* name, const std::vector<double>& v) {
    os << ' ' << name << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
    os << ']';
  };
  os.precision(17);
  list("p", o.probabilities);
  os << " loss " << o.loss;
  list("grad", o.gradient);
  list("shift", o.shift_gradient);
  return os;
}

/// Runs `e` (a QnnExecutor or an ExecutorOracle) over one dataset.
template <class Executor>
Outputs outputs_of(const Executor& e, qnn::LossKind kind,
                   const std::vector<std::vector<double>>& features,
                   const std::vector<int>& labels,
                   const std::vector<double>& weights,
                   bool with_shift = true) {
  Outputs o;
  for (const auto& f : features) {
    o.probabilities.push_back(e.probability(f, weights));
  }
  o.loss = e.dataset_loss(kind, features, labels, weights);
  o.gradient = e.loss_gradient(kind, features, labels, weights);
  if (with_shift) {
    o.shift_gradient = e.loss_gradient_shift(kind, features, labels, weights);
  }
  return o;
}

}  // namespace arbiterq::oracle
