#include "arbiterq/core/trainers.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "arbiterq/device/presets.hpp"

namespace arbiterq::core {
namespace {

TrainConfig quick_config() {
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 4;
  return cfg;
}

class TrainerFixture : public ::testing::Test {
 protected:
  TrainerFixture()
      : model_(qnn::Backbone::kCRz, 2, 2),
        split_(data::prepare_case({"iris", 2, 2})),
        trainer_(model_, device::table3_fleet_subset(4, 2),
                 quick_config()) {}

  qnn::QnnModel model_;
  data::EncodedSplit split_;
  DistributedTrainer trainer_;
};

TEST_F(TrainerFixture, SetupBuildsFleetArtifacts) {
  EXPECT_EQ(trainer_.fleet_size(), 4U);
  EXPECT_EQ(trainer_.behavioral_vectors().size(), 4U);
  EXPECT_EQ(trainer_.similarity().size(), 4U);
  std::size_t grouped = 0;
  for (const auto& g : trainer_.sharing_groups()) grouped += g.size();
  EXPECT_EQ(grouped, 4U);
}

TEST_F(TrainerFixture, EqcVotesNormalizedAndQualityOrdered) {
  const auto votes = trainer_.eqc_vote_weights();
  double total = 0.0;
  for (double v : votes) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Votes must order inversely to the devices' average error.
  const auto& executors = trainer_.executors();
  for (std::size_t i = 0; i < votes.size(); ++i) {
    for (std::size_t j = 0; j < votes.size(); ++j) {
      if (executors[i].qpu().average_error() <
          executors[j].qpu().average_error()) {
        EXPECT_GT(votes[i], votes[j]) << i << " vs " << j;
      }
    }
  }
}

TEST_F(TrainerFixture, EveryStrategyProducesWellFormedResult) {
  for (Strategy s : {Strategy::kSingleNode, Strategy::kAllSharing,
                     Strategy::kEqc, Strategy::kArbiterQ}) {
    const TrainResult r = trainer_.train(s, split_);
    EXPECT_EQ(r.strategy, s);
    EXPECT_EQ(r.epoch_test_loss.size(), 8U);
    EXPECT_EQ(r.weights.size(), 4U);
    for (const auto& w : r.weights) {
      EXPECT_EQ(w.size(), static_cast<std::size_t>(model_.num_weights()));
    }
    EXPECT_GE(r.convergence.epoch, 1);
    EXPECT_LE(r.convergence.epoch, 8);
    for (double l : r.epoch_test_loss) {
      EXPECT_GE(l, 0.0);
      EXPECT_LE(l, 1.0);  // MSE of probabilities
    }
  }
}

TEST_F(TrainerFixture, SharedStrategiesKeepIdenticalWeights) {
  for (Strategy s :
       {Strategy::kSingleNode, Strategy::kAllSharing, Strategy::kEqc}) {
    const TrainResult r = trainer_.train(s, split_);
    for (std::size_t i = 1; i < r.weights.size(); ++i) {
      EXPECT_EQ(r.weights[0], r.weights[i]) << strategy_name(s);
    }
  }
}

TEST_F(TrainerFixture, ArbiterQPersonalizesWeights) {
  const TrainResult r = trainer_.train(Strategy::kArbiterQ, split_);
  bool any_difference = false;
  for (std::size_t i = 1; i < r.weights.size(); ++i) {
    if (r.weights[i] != r.weights[0]) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(TrainerFixture, TrainingIsDeterministic) {
  const TrainResult a = trainer_.train(Strategy::kArbiterQ, split_);
  const TrainResult b = trainer_.train(Strategy::kArbiterQ, split_);
  EXPECT_EQ(a.epoch_test_loss, b.epoch_test_loss);
  EXPECT_EQ(a.weights, b.weights);
}

TEST_F(TrainerFixture, TrainingReducesLoss) {
  TrainConfig cfg = quick_config();
  cfg.epochs = 25;
  const DistributedTrainer longer(model_,
                                  device::table3_fleet_subset(4, 2), cfg);
  const TrainResult r = longer.train(Strategy::kArbiterQ, split_);
  EXPECT_LT(r.epoch_test_loss.back(), r.epoch_test_loss.front() * 0.8);
}

TEST_F(TrainerFixture, ShotNoiseZeroStillWorks) {
  TrainConfig cfg = quick_config();
  cfg.gradient_shot_noise = 0.0;
  const DistributedTrainer exact(model_, device::table3_fleet_subset(4, 2),
                                 cfg);
  const TrainResult r = exact.train(Strategy::kAllSharing, split_);
  EXPECT_EQ(r.epoch_test_loss.size(), 8U);
}

TEST(Trainer, ArbiterQBeatsAllSharingOnHeterogeneousFleet) {
  // The paper's headline (Table I): with a long enough run, ArbiterQ's
  // converged loss undercuts all-sharing's on a heterogeneous fleet.
  const qnn::QnnModel model(qnn::Backbone::kCRz, 2, 2);
  TrainConfig cfg;
  cfg.epochs = 40;
  const DistributedTrainer trainer(model, device::table3_fleet_subset(6, 2),
                                   cfg);
  const data::EncodedSplit split = data::prepare_case({"iris", 2, 2});
  const TrainResult arbiter = trainer.train(Strategy::kArbiterQ, split);
  const TrainResult sharing = trainer.train(Strategy::kAllSharing, split);
  EXPECT_LT(arbiter.convergence.loss, sharing.convergence.loss);
}

TEST(Trainer, EmptyFleetThrows) {
  const qnn::QnnModel model(qnn::Backbone::kCRz, 2, 1);
  EXPECT_THROW(DistributedTrainer(model, {}, TrainConfig{}),
               std::invalid_argument);
}

TEST(Trainer, ConfigValidation) {
  const qnn::QnnModel model(qnn::Backbone::kCRz, 2, 1);
  const auto fleet = device::table3_fleet_subset(2, 2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Mutate = std::function<void(TrainConfig&)>;
  // One row per bad TrainConfig field.
  const std::vector<std::pair<std::string, Mutate>> bad = {
      {"learning_rate=0", [](TrainConfig& c) { c.learning_rate = 0.0; }},
      {"learning_rate=-0.1", [](TrainConfig& c) { c.learning_rate = -0.1; }},
      {"learning_rate=nan", [&](TrainConfig& c) { c.learning_rate = nan; }},
      {"learning_rate=inf", [&](TrainConfig& c) { c.learning_rate = inf; }},
      {"epochs=0", [](TrainConfig& c) { c.epochs = 0; }},
      {"epochs=-1", [](TrainConfig& c) { c.epochs = -1; }},
      {"batch_size=0", [](TrainConfig& c) { c.batch_size = 0; }},
      {"kappa=-1", [](TrainConfig& c) { c.kappa = -1.0; }},
      {"kappa=nan", [&](TrainConfig& c) { c.kappa = nan; }},
      {"kappa=inf", [&](TrainConfig& c) { c.kappa = inf; }},
      {"distance_threshold=-1e-3",
       [](TrainConfig& c) { c.distance_threshold = -1e-3; }},
      {"distance_threshold=nan",
       [&](TrainConfig& c) { c.distance_threshold = nan; }},
      {"gradient_shot_noise=-0.1",
       [](TrainConfig& c) { c.gradient_shot_noise = -0.1; }},
      {"gradient_shot_noise=inf",
       [&](TrainConfig& c) { c.gradient_shot_noise = inf; }},
      {"drift_sigma=-0.1", [](TrainConfig& c) { c.drift_sigma = -0.1; }},
      {"drift_sigma=nan", [&](TrainConfig& c) { c.drift_sigma = nan; }},
      {"gradient_prune_ratio=-0.1",
       [](TrainConfig& c) { c.gradient_prune_ratio = -0.1; }},
      {"gradient_prune_ratio=1.1",
       [](TrainConfig& c) { c.gradient_prune_ratio = 1.1; }},
      {"gradient_prune_ratio=nan",
       [&](TrainConfig& c) { c.gradient_prune_ratio = nan; }},
      {"offline_probability=-0.1",
       [](TrainConfig& c) { c.offline_probability = -0.1; }},
      {"offline_probability=1.5",
       [](TrainConfig& c) { c.offline_probability = 1.5; }},
      {"offline_probability=nan",
       [&](TrainConfig& c) { c.offline_probability = nan; }},
      {"drift_interval=-1", [](TrainConfig& c) { c.drift_interval = -1; }},
  };
  for (const auto& [name, mutate] : bad) {
    TrainConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << name;
    EXPECT_THROW(DistributedTrainer(model, fleet, cfg), std::invalid_argument)
        << name;
  }
  // Boundary values stay legal.
  const std::vector<std::pair<std::string, Mutate>> edge = {
      {"epochs=1, batch_size=1",
       [](TrainConfig& c) {
         c.epochs = 1;
         c.batch_size = 1;
       }},
      {"tiny learning_rate", [](TrainConfig& c) { c.learning_rate = 1e-12; }},
      {"zeros",
       [](TrainConfig& c) {
         c.kappa = 0.0;
         c.distance_threshold = 0.0;
         c.gradient_shot_noise = 0.0;
         c.drift_sigma = 0.0;
         c.gradient_prune_ratio = 0.0;
         c.offline_probability = 0.0;
         c.drift_interval = 0;
       }},
      {"unit interval tops",
       [](TrainConfig& c) {
         c.gradient_prune_ratio = 1.0;
         c.offline_probability = 1.0;
       }},
  };
  for (const auto& [name, mutate] : edge) {
    TrainConfig cfg;
    mutate(cfg);
    EXPECT_NO_THROW(cfg.validate()) << name;
    EXPECT_NO_THROW(DistributedTrainer(model, fleet, cfg)) << name;
  }
}

TEST(Trainer, StrategyNames) {
  EXPECT_EQ(strategy_name(Strategy::kSingleNode), "single-node");
  EXPECT_EQ(strategy_name(Strategy::kAllSharing), "all-sharing");
  EXPECT_EQ(strategy_name(Strategy::kEqc), "EQC");
  EXPECT_EQ(strategy_name(Strategy::kArbiterQ), "ArbiterQ");
}

}  // namespace
}  // namespace arbiterq::core
