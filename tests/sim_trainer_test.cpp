#include "sim/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "nn/models.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace marsit {
namespace {

class TrainerTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_level(LogLevel::kError); }

  SyncConfig ring_config(std::size_t workers) {
    SyncConfig config;
    config.num_workers = workers;
    config.paradigm = MarParadigm::kRing;
    config.seed = 31;
    return config;
  }

  std::function<Sequential()> digit_model() {
    return [this] {
      return make_mlp(digits_.sample_size(), {32}, digits_.num_classes());
    };
  }

  SyntheticDigits digits_;
};

TEST_F(TrainerTest, PsgdLearnsDigits) {
  PsgdSync strategy(ring_config(2));
  TrainerConfig config;
  config.batch_size_per_worker = 32;
  config.eta_l = 0.1f;
  config.rounds = 120;
  config.eval_interval = 60;
  config.eval_samples = 256;
  DistributedTrainer trainer(digits_, digit_model(), strategy, config);
  const TrainResult result = trainer.train();

  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(result.rounds_completed, 120u);
  EXPECT_GT(result.final_test_accuracy, 0.5);  // chance = 0.1
  EXPECT_GT(result.sim_seconds, 0.0);
  EXPECT_GT(result.total_wire_bits, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_bits_per_element, 32.0);
}

TEST_F(TrainerTest, DeterministicAcrossRuns) {
  auto run_once = [&] {
    PsgdSync strategy(ring_config(2));
    TrainerConfig config;
    config.rounds = 10;
    config.eval_interval = 10;
    config.eval_samples = 128;
    config.eta_l = 0.05f;
    DistributedTrainer trainer(digits_, digit_model(), strategy, config);
    return trainer.train().final_test_accuracy;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST_F(TrainerTest, ParamsAreOneFreshInitAfterConstruction) {
  // The trainer's one parameter vector, which every worker's model views,
  // holds exactly what a fresh model's init from the shared seed draws.
  // The residual model covers conv, composite and linear layers.
  const auto factory = [this] {
    return make_resnet_mini(digits_.image_dims(), digits_.num_classes(),
                            /*blocks_per_stage=*/1, /*base_channels=*/4);
  };
  PsgdSync strategy(ring_config(4));
  TrainerConfig config;
  config.seed = 19;
  DistributedTrainer trainer(digits_, factory, strategy, config);

  Sequential fresh = factory();
  Rng init_rng(derive_seed(config.seed, kModelInitSeedSalt));
  fresh.init(init_rng);
  const std::span<const float> expected = fresh.params();
  ASSERT_EQ(expected.size(), trainer.param_count());

  std::vector<float> params(expected.size(), -1.0f);
  trainer.copy_params_into({params.data(), params.size()});
  EXPECT_EQ(std::memcmp(params.data(), expected.data(),
                        params.size() * sizeof(float)),
            0);
  params.push_back(0.0f);
  EXPECT_THROW(trainer.copy_params_into({params.data(), params.size()}),
               CheckError);
}

TEST_F(TrainerTest, ParallelAndSerialWorkersAgree) {
  auto run_with = [&](bool parallel) {
    PsgdSync strategy(ring_config(4));
    TrainerConfig config;
    config.rounds = 8;
    config.eval_interval = 8;
    config.eval_samples = 128;
    config.eta_l = 0.05f;
    config.parallel_workers = parallel;
    DistributedTrainer trainer(digits_, digit_model(), strategy, config);
    return trainer.train().final_test_accuracy;
  };
  EXPECT_DOUBLE_EQ(run_with(true), run_with(false));
}

TEST_F(TrainerTest, MarsitTracksMatchingRate) {
  MarsitOptions options;
  options.eta_s = 2e-3f;
  options.full_precision_period = 10;  // keep compensation from dominating
  MarsitSync strategy(ring_config(4), options);
  TrainerConfig config;
  config.rounds = 20;
  config.eval_interval = 20;
  config.eval_samples = 128;
  config.eta_l = 0.01f;
  config.track_matching_rate = true;
  DistributedTrainer trainer(digits_, digit_model(), strategy, config);
  const TrainResult result = trainer.train();
  // The one-bit aggregate must agree with the exact mean sign far above
  // coin-flip level (Figure 1b shows ≳75 % for Marsit).
  EXPECT_GT(result.mean_matching_rate, 0.55);
  EXPECT_LE(result.mean_matching_rate, 1.0);
}

TEST_F(TrainerTest, StopAccuracyShortensRun) {
  PsgdSync strategy(ring_config(2));
  TrainerConfig config;
  config.rounds = 300;
  config.eval_interval = 10;
  config.eval_samples = 256;
  config.eta_l = 0.1f;
  config.stop_accuracy = 0.4;  // easily reached long before 300 rounds
  DistributedTrainer trainer(digits_, digit_model(), strategy, config);
  const TrainResult result = trainer.train();
  EXPECT_TRUE(result.reached_stop_accuracy);
  EXPECT_LT(result.rounds_completed, 300u);
}

TEST_F(TrainerTest, DivergenceDetected) {
  PsgdSync strategy(ring_config(2));
  TrainerConfig config;
  config.rounds = 80;
  config.eval_interval = 0;
  config.eta_l = 1e6f;  // absurd stepsize
  DistributedTrainer trainer(digits_, digit_model(), strategy, config);
  const TrainResult result = trainer.train();
  EXPECT_TRUE(result.diverged);
  EXPECT_LT(result.rounds_completed, 80u);
}

TEST_F(TrainerTest, LrDecayApplied) {
  // A decay to ~zero LR freezes learning: accuracy after decay-at-round-1
  // stays near the one-round level even after many more rounds.  We only
  // check it runs and stays finite — the precise effect is covered by the
  // integration tests.
  PsgdSync strategy(ring_config(2));
  TrainerConfig config;
  config.rounds = 20;
  config.eval_interval = 20;
  config.eval_samples = 128;
  config.lr_decay_rounds = {1};
  config.lr_decay_factor = 0.0f;
  DistributedTrainer trainer(digits_, digit_model(), strategy, config);
  const TrainResult result = trainer.train();
  EXPECT_FALSE(result.diverged);
}

TEST_F(TrainerTest, EvalPointsCarryCumulativeAxes) {
  PsgdSync strategy(ring_config(2));
  TrainerConfig config;
  config.rounds = 30;
  config.eval_interval = 10;
  config.eval_samples = 128;
  DistributedTrainer trainer(digits_, digit_model(), strategy, config);
  const TrainResult result = trainer.train();
  ASSERT_GE(result.evals.size(), 3u);
  for (std::size_t i = 1; i < result.evals.size(); ++i) {
    EXPECT_GT(result.evals[i].round, result.evals[i - 1].round);
    EXPECT_GT(result.evals[i].sim_seconds, result.evals[i - 1].sim_seconds);
    EXPECT_GT(result.evals[i].wire_gigabits,
              result.evals[i - 1].wire_gigabits);
  }
}

TEST_F(TrainerTest, PhaseSplitIsPopulated) {
  PsgdSync strategy(ring_config(2));
  TrainerConfig config;
  config.rounds = 5;
  config.eval_interval = 0;
  DistributedTrainer trainer(digits_, digit_model(), strategy, config);
  const TrainResult result = trainer.train();
  EXPECT_GT(result.mean_round_phases.compute, 0.0);
  EXPECT_GT(result.mean_round_phases.communication, 0.0);
  EXPECT_GE(result.mean_round_phases.compression, 0.0);
}

TEST_F(TrainerTest, ModelDatasetMismatchRejected) {
  PsgdSync strategy(ring_config(2));
  TrainerConfig config;
  auto bad_factory = [] { return make_mlp(10, {4}, 10); };  // wrong input
  EXPECT_THROW(DistributedTrainer(digits_, bad_factory, strategy, config),
               CheckError);
}

TEST_F(TrainerTest, ParamCountExposed) {
  PsgdSync strategy(ring_config(2));
  TrainerConfig config;
  DistributedTrainer trainer(digits_, digit_model(), strategy, config);
  EXPECT_EQ(trainer.param_count(),
            digits_.sample_size() * 32 + 32 + 32 * 10 + 10);
  EXPECT_GT(trainer.compute_seconds_per_round(), 0.0);
}

}  // namespace
}  // namespace marsit
