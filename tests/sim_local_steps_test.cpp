// Local-update support: H optimizer steps per synchronization (paper §5:
// "clients perform multiple local updates between two successive
// synchronizations").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "nn/models.hpp"
#include "sim/trainer.hpp"
#include "util/logging.hpp"

namespace marsit {
namespace {

class LocalStepsTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_level(LogLevel::kError); }

  SyncConfig ring_config(std::size_t workers) {
    SyncConfig config;
    config.num_workers = workers;
    config.paradigm = MarParadigm::kRing;
    config.seed = 91;
    return config;
  }

  std::function<Sequential()> digit_model() {
    return [this] {
      return make_mlp(digits_.sample_size(), {24}, digits_.num_classes());
    };
  }

  SyntheticDigits digits_;
};

/// LocalWorker::step with a sink hands every element of u_m over once, at
/// its index, with the bytes the sink-less step leaves in update(), round
/// after round (Momentum and Adam carry state between them).
void expect_sink_receives_update(const Dataset& dataset,
                                 OptimizerKind optimizer, float clip,
                                 std::size_t local_steps) {
  const auto factory = [&] {
    return make_mlp(dataset.sample_size(), {24}, dataset.num_classes());
  };
  const ShardedSampler sampler = make_train_sampler(dataset, 2, 16, 5);
  LocalWorker plain(factory(), optimizer);
  LocalWorker sinked(factory(), optimizer);
  init_replica(plain.model(), dataset, 5);
  init_replica(sinked.model(), dataset, 5);
  const std::size_t d = plain.model().param_count();
  for (std::size_t round = 0; round < 3; ++round) {
    plain.step(sampler, 1, round, 0.05f, clip, local_steps);
    std::vector<float> streamed(d);
    std::vector<int> hits(d, 0);
    sinked.step(sampler, 1, round, 0.05f, clip, local_steps,
                [&](std::size_t begin, std::span<const float> u) {
                  ASSERT_LE(begin + u.size(), d);
                  for (std::size_t j = 0; j < u.size(); ++j) {
                    streamed[begin + j] = u[j];
                    ++hits[begin + j];
                  }
                });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(d))
        << "round " << round << ": the slices do not tile [0, " << d << ")";
    EXPECT_EQ(std::memcmp(streamed.data(), plain.update().data(),
                          d * sizeof(float)),
              0)
        << "round " << round;
  }
}

TEST_F(LocalStepsTest, SinkReceivesTheUpdateOfEveryStepKind) {
  {
    SCOPED_TRACE("SGD, streamed from the backward");
    expect_sink_receives_update(digits_, OptimizerKind::kSgd, 0.0f, 1);
  }
  {
    // A clip far below the gradient norm, so every step rescales.
    SCOPED_TRACE("SGD with clipping");
    expect_sink_receives_update(digits_, OptimizerKind::kSgd, 0.01f, 1);
  }
  {
    SCOPED_TRACE("Momentum");
    expect_sink_receives_update(digits_, OptimizerKind::kMomentum, 0.0f, 1);
  }
  {
    SCOPED_TRACE("Adam");
    expect_sink_receives_update(digits_, OptimizerKind::kAdam, 0.0f, 1);
  }
  {
    SCOPED_TRACE("SGD, two local steps");
    expect_sink_receives_update(digits_, OptimizerKind::kSgd, 0.0f, 2);
  }
}

TEST_F(LocalStepsTest, OneLocalStepMatchesDefaultPath) {
  auto run_with = [&](std::size_t local_steps) {
    PsgdSync strategy(ring_config(2));
    TrainerConfig config;
    config.rounds = 6;
    config.eval_interval = 6;
    config.eval_samples = 128;
    config.eta_l = 0.05f;
    config.local_steps = local_steps;
    DistributedTrainer trainer(digits_, digit_model(), strategy, config);
    return trainer.train().final_test_accuracy;
  };
  // local_steps = 1 must take the exact same code path result as the
  // default (0 is clamped to 1).
  EXPECT_DOUBLE_EQ(run_with(1), run_with(0));
}

TEST_F(LocalStepsTest, LocalStepsLearnFasterPerSynchronization) {
  auto accuracy_with = [&](std::size_t local_steps, std::size_t rounds) {
    PsgdSync strategy(ring_config(2));
    TrainerConfig config;
    config.rounds = rounds;
    config.eval_interval = rounds;
    config.eval_samples = 512;
    config.eta_l = 0.08f;
    config.local_steps = local_steps;
    DistributedTrainer trainer(digits_, digit_model(), strategy, config);
    return trainer.train().final_test_accuracy;
  };
  // 4 local steps over 20 synchronizations sees as many minibatches as 80
  // plain rounds; it must clearly beat 20 plain rounds.
  const double plain = accuracy_with(1, 20);
  const double local = accuracy_with(4, 20);
  EXPECT_GT(local, plain + 0.05);
}

TEST_F(LocalStepsTest, ReplicasStayConsistentWithLocalSteps) {
  // Determinism across two identical runs implies the local walk is fully
  // rewound before the shared global update (otherwise replica drift would
  // surface as run-to-run divergence through the strategy's state).
  auto run_once = [&] {
    MarsitOptions options;
    options.eta_s = 2e-3f;
    MarsitSync strategy(ring_config(3), options);
    TrainerConfig config;
    config.rounds = 8;
    config.eval_interval = 8;
    config.eval_samples = 128;
    config.eta_l = 0.03f;
    config.local_steps = 3;
    DistributedTrainer trainer(digits_, digit_model(), strategy, config);
    return trainer.train().final_test_accuracy;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST_F(LocalStepsTest, ComputeTimeScalesWithLocalSteps) {
  PsgdSync strategy1(ring_config(2));
  TrainerConfig config;
  config.local_steps = 1;
  DistributedTrainer trainer1(digits_, digit_model(), strategy1, config);

  PsgdSync strategy4(ring_config(2));
  config.local_steps = 4;
  DistributedTrainer trainer4(digits_, digit_model(), strategy4, config);

  EXPECT_NEAR(trainer4.compute_seconds_per_round(),
              4.0 * trainer1.compute_seconds_per_round(), 1e-12);
}

TEST_F(LocalStepsTest, LocalStepsReduceTrafficPerSample) {
  // Same number of minibatches, 4x fewer synchronizations: the wire traffic
  // must drop ~4x.
  auto traffic_with = [&](std::size_t local_steps, std::size_t rounds) {
    PsgdSync strategy(ring_config(2));
    TrainerConfig config;
    config.rounds = rounds;
    config.eval_interval = 0;
    config.eta_l = 0.05f;
    config.local_steps = local_steps;
    DistributedTrainer trainer(digits_, digit_model(), strategy, config);
    return trainer.train().total_wire_bits;
  };
  const double plain = traffic_with(1, 16);
  const double local = traffic_with(4, 4);
  EXPECT_NEAR(local, plain / 4.0, plain * 0.01);
}

}  // namespace
}  // namespace marsit
