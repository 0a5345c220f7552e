// The production torus builder (points MDS on the smaller Gram side)
// against the distance-matrix oracle in torus_oracle.hpp: identical
// partitions and dominant frequencies, coordinates equal up to rounding,
// on the Table IV fleets and on cycled fleets up to 256 QPUs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "arbiterq/core/torus.hpp"
#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/math/rng.hpp"
#include "torus_oracle.hpp"

namespace arbiterq {
namespace {

struct FleetCase {
  std::vector<core::BehavioralVector> behavioral;
  std::vector<std::vector<double>> weights;
};

/// A Table IV cell's torus inputs: the fleet's behavioral vectors and its
/// trained ArbiterQ weights, configured as in bench_table4.
FleetCase table_iv_fleet(const data::BenchmarkCase& bc, int epochs,
                         int fleet) {
  const data::EncodedSplit split = data::prepare_case(bc);
  const qnn::QnnModel model(qnn::Backbone::kCRz, bc.num_qubits,
                            bc.num_layers);
  core::TrainConfig cfg;
  cfg.epochs = epochs;
  const core::DistributedTrainer trainer(
      model, device::table3_fleet_subset(fleet, bc.num_qubits), cfg);
  return {trainer.behavioral_vectors(),
          trainer.train(core::Strategy::kArbiterQ, split).weights};
}

/// A cycled Table III fleet with seeded N(0, 0.3) weights, as
/// bench_perf --serving-scale deploys it.
FleetCase cycled_fleet(int n, int qubits) {
  const qnn::QnnModel model(qnn::Backbone::kCRz, qubits, 2);
  const core::DistributedTrainer trainer(
      model, device::table3_fleet_cycled(n, qubits), core::TrainConfig{});
  FleetCase f{trainer.behavioral_vectors(), {}};
  math::Rng wrng(42);
  for (int q = 0; q < n; ++q) {
    std::vector<double> wq(static_cast<std::size_t>(model.num_weights()));
    math::Rng qrng = wrng.split(static_cast<std::uint64_t>(q));
    for (double& x : wq) x = qrng.normal(0.0, 0.3);
    f.weights.push_back(std::move(wq));
  }
  return f;
}

/// The pinned sign: the largest-|x| coordinate (lowest index on ties) is
/// positive.
void expect_pinned_sign(const std::vector<double>& coords) {
  ASSERT_FALSE(coords.empty());
  std::size_t arg = 0;
  for (std::size_t i = 1; i < coords.size(); ++i) {
    if (std::abs(coords[i]) > std::abs(coords[arg])) arg = i;
  }
  EXPECT_GE(coords[arg], 0.0);
}

/// Equal within 1e-9 of the axis scale (max |x|).
void expect_coords_close(const std::vector<double>& got,
                         const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  double scale = 0.0;
  for (double w : want) scale = std::max(scale, std::abs(w));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(std::abs(got[i] - want[i]), 1e-9 * scale) << "QPU " << i;
  }
}

void expect_matches_oracle(const FleetCase& f) {
  const core::TorusPartition got =
      core::build_torus_partition(f.behavioral, f.weights);
  const core::TorusPartition want =
      oracle::torus_partition(f.behavioral, f.weights);
  EXPECT_EQ(got.tori, want.tori);
  EXPECT_EQ(got.dominant_frequency, want.dominant_frequency);
  expect_coords_close(got.behavioral_coords, want.behavioral_coords);
  expect_coords_close(got.model_coords, want.model_coords);
  for (const auto* coords :
       {&got.behavioral_coords, &got.model_coords, &want.behavioral_coords,
        &want.model_coords}) {
    expect_pinned_sign(*coords);
  }
}

TEST(TorusOracle, TableIvFleetsMatch) {
  const struct {
    data::BenchmarkCase bc;
    int epochs;
  } cases[] = {{{"iris", 2, 2}, 40}, {{"wine", 4, 2}, 100}};
  for (const auto& c : cases) {
    for (int fleet : {6, 8, 10}) {
      SCOPED_TRACE(c.bc.dataset + "/" + std::to_string(fleet));
      expect_matches_oracle(table_iv_fleet(c.bc, c.epochs, fleet));
    }
  }
}

class TorusOracleCycled : public ::testing::TestWithParam<int> {};

TEST_P(TorusOracleCycled, MatchesOracle) {
  expect_matches_oracle(cycled_fleet(GetParam(), 2));
}

INSTANTIATE_TEST_SUITE_P(FleetSizes, TorusOracleCycled,
                         ::testing::Values(3, 6, 8, 10, 16, 32, 64, 100,
                                           128, 200, 256));

TEST(TorusOracle, GramSideWhenFeaturesOutnumberQpus) {
  // The 6-qubit model on 12 QPUs: both spaces have more dimensions than
  // points, so production eigensolves the 12 x 12 Gram matrix.
  const FleetCase f = cycled_fleet(12, 6);
  ASSERT_GT(f.behavioral.front().concatenated().size(), f.behavioral.size());
  ASSERT_GT(f.weights.front().size(), f.weights.size());
  expect_matches_oracle(f);
}

}  // namespace
}  // namespace arbiterq
