// Cross-module integration tests: miniature versions of the paper's
// headline comparisons, small enough for CI but large enough to show the
// qualitative effects.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/sync_strategy.hpp"
#include "data/synthetic_digits.hpp"
#include "data/synthetic_sentiment.hpp"
#include "nn/models.hpp"
#include "sim/trainer.hpp"
#include "util/logging.hpp"

namespace marsit {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_level(LogLevel::kError); }

  SyncConfig ring_config(std::size_t workers) {
    SyncConfig config;
    config.num_workers = workers;
    config.paradigm = MarParadigm::kRing;
    config.seed = 77;
    return config;
  }

  TrainResult train_digits(SyncStrategy& strategy, std::size_t rounds,
                           float eta_l = 0.08f) {
    SyntheticDigits digits;
    auto factory = [&digits] {
      return make_mlp(digits.sample_size(), {32}, digits.num_classes());
    };
    TrainerConfig config;
    config.batch_size_per_worker = 32;
    config.eta_l = eta_l;
    config.rounds = rounds;
    config.eval_interval = rounds;
    config.eval_samples = 512;
    config.seed = 5;
    DistributedTrainer trainer(digits, factory, strategy, config);
    return trainer.train();
  }
};

TEST_F(IntegrationTest, MarsitMatchesPsgdAccuracyWithFractionOfTraffic) {
  // The paper's central claim in miniature.
  PsgdSync psgd(ring_config(4));
  const TrainResult psgd_result = train_digits(psgd, 80);

  MarsitOptions options;
  options.eta_s = 2e-3f;
  options.full_precision_period = 40;
  MarsitSync marsit(ring_config(4), options);
  const TrainResult marsit_result = train_digits(marsit, 80);

  ASSERT_FALSE(psgd_result.diverged);
  ASSERT_FALSE(marsit_result.diverged);
  EXPECT_GT(marsit_result.final_test_accuracy,
            psgd_result.final_test_accuracy - 0.15);
  EXPECT_LT(marsit_result.total_wire_bits,
            psgd_result.total_wire_bits / 10.0);
  EXPECT_LT(marsit_result.sim_seconds, psgd_result.sim_seconds);
}

TEST_F(IntegrationTest, MarsitBitsPerElementFollowsKFormula) {
  // Figure 3's "Bits" column: mean bits/element = (K−1 + 32)/K.
  for (std::size_t k : {2u, 4u, 8u}) {
    MarsitOptions options;
    options.eta_s = 2e-3f;
    options.full_precision_period = k;
    MarsitSync marsit(ring_config(2), options);
    const TrainResult result = train_digits(marsit, 2 * k);
    const double expected =
        (static_cast<double>(k - 1) + 32.0) / static_cast<double>(k);
    EXPECT_NEAR(result.mean_bits_per_element, expected, 1e-9) << "K=" << k;
  }
}

TEST_F(IntegrationTest, CascadingDegradesWithMoreWorkers) {
  // Table 1's phenomenon: cascading compression gets *worse* as M grows
  // while PSGD gets better (or stays equal).  Compare final accuracy of
  // cascading at M=3 vs M=8 after the same number of rounds.
  CascadingSync cascade3(ring_config(3));
  const TrainResult result3 = train_digits(cascade3, 60, 0.05f);

  CascadingSync cascade8(ring_config(8));
  const TrainResult result8 = train_digits(cascade8, 60, 0.05f);

  PsgdSync psgd8(ring_config(8));
  const TrainResult psgd_result = train_digits(psgd8, 60, 0.05f);

  ASSERT_FALSE(psgd_result.diverged);
  // Cascading at M=8 must be clearly worse than PSGD at M=8 (diverged runs
  // count as accuracy 0).
  const double cascade8_acc =
      result8.diverged ? 0.0 : result8.final_test_accuracy;
  EXPECT_LT(cascade8_acc + 0.1, psgd_result.final_test_accuracy);
  // ... and no better than cascading at M=3.
  const double cascade3_acc =
      result3.diverged ? 0.0 : result3.final_test_accuracy;
  EXPECT_LE(cascade8_acc, cascade3_acc + 0.05);
}

TEST_F(IntegrationTest, SignSumBaselinesLearnButCostMoreBitsThanMarsit) {
  SignSgdMvSync sign_sgd(ring_config(4), 2e-3f);
  const TrainResult sign_result = train_digits(sign_sgd, 80);

  MarsitOptions options;
  options.eta_s = 2e-3f;
  MarsitSync marsit(ring_config(4), options);
  const TrainResult marsit_result = train_digits(marsit, 80);

  ASSERT_FALSE(sign_result.diverged);
  EXPECT_GT(sign_result.final_test_accuracy, 0.25);
  // signSGD's sign-sums need up to ⌈log2(M+1)⌉+1 = 4 bits on reduce hops
  // (1-bit gather), vs Marsit's 1 bit everywhere: ratio (1+3+3+3·1)/6 = 5/3.
  EXPECT_GT(sign_result.total_wire_bits,
            1.3 * marsit_result.total_wire_bits);
}

TEST_F(IntegrationTest, TorusAndRingMarsitBothLearn) {
  MarsitOptions options;
  options.eta_s = 2e-3f;

  MarsitSync ring(ring_config(4), options);
  const TrainResult ring_result = train_digits(ring, 60);

  SyncConfig torus_config = ring_config(4);
  torus_config.paradigm = MarParadigm::kTorus2d;
  torus_config.torus_rows = 2;
  torus_config.torus_cols = 2;
  MarsitSync torus(torus_config, options);
  const TrainResult torus_result = train_digits(torus, 60);

  ASSERT_FALSE(ring_result.diverged);
  ASSERT_FALSE(torus_result.diverged);
  EXPECT_GT(ring_result.final_test_accuracy, 0.35);
  EXPECT_GT(torus_result.final_test_accuracy, 0.35);
}

TEST_F(IntegrationTest, AdamTextClassificationWithMarsit) {
  // The sentiment task end-to-end (DistilBERT stand-in with Adam).
  SyntheticSentimentConfig data_config;
  data_config.vocab_size = 400;
  data_config.seq_len = 16;
  data_config.lexicon = 50;
  SyntheticSentiment sentiment(data_config);
  auto factory = [&] {
    return make_text_classifier(sentiment.vocab_size(), sentiment.seq_len(),
                                8, 2);
  };

  MarsitOptions options;
  options.eta_s = 1e-3f;
  options.full_precision_period = 30;

  TrainerConfig config;
  config.batch_size_per_worker = 32;
  config.optimizer = OptimizerKind::kAdam;
  config.eta_l = 0.02f;
  config.rounds = 90;
  config.eval_interval = 90;
  config.eval_samples = 512;

  // The 0.7 bar sits at this config's median single-run accuracy, so one
  // run passes or fails on its rng stream alone.  The bar applies to the
  // mean over twenty sync seeds fixed in advance (70..89).
  constexpr std::uint64_t kFirstSeed = 70;
  constexpr std::size_t kSeeds = 20;
  double accuracy_sum = 0.0;
  for (std::size_t i = 0; i < kSeeds; ++i) {
    SyncConfig sync_config = ring_config(4);
    sync_config.seed = kFirstSeed + i;
    MarsitSync strategy(sync_config, options);
    DistributedTrainer trainer(sentiment, factory, strategy, config);
    const TrainResult result = trainer.train();
    ASSERT_FALSE(result.diverged) << "sync seed " << sync_config.seed;
    accuracy_sum += result.final_test_accuracy;
  }
  EXPECT_GT(accuracy_sum / static_cast<double>(kSeeds), 0.7);  // chance = 0.5
}

TEST_F(IntegrationTest, MomentumImageClassificationWithEfSignSgd) {
  SyntheticDigits digits;
  auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {32}, digits.num_classes());
  };
  EfSignSgdSync strategy(ring_config(4));
  TrainerConfig config;
  config.batch_size_per_worker = 32;
  config.optimizer = OptimizerKind::kMomentum;
  config.eta_l = 0.03f;
  config.rounds = 80;
  config.eval_interval = 80;
  config.eval_samples = 512;
  DistributedTrainer trainer(digits, factory, strategy, config);
  const TrainResult result = trainer.train();
  ASSERT_FALSE(result.diverged);
  EXPECT_GT(result.final_test_accuracy, 0.5);
}

}  // namespace
}  // namespace marsit
