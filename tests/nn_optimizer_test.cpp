#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "util/check.hpp"

namespace marsit {
namespace {

TEST(SgdOptimizerTest, IdentityTransform) {
  SgdOptimizer opt;
  const std::vector<float> grad{1.0f, -2.0f, 3.0f};
  std::vector<float> direction = grad;
  opt.transform(direction, 1.0f);
  EXPECT_EQ(direction, grad);
}

TEST(MomentumOptimizerTest, VelocityRecursion) {
  MomentumOptimizer opt(0.5f);
  std::vector<float> direction{1.0f};
  opt.transform(direction, 1.0f);
  EXPECT_FLOAT_EQ(direction[0], 1.0f);  // v1 = 0.5·0 + 1
  direction = {1.0f};
  opt.transform(direction, 1.0f);
  EXPECT_FLOAT_EQ(direction[0], 1.5f);  // v2 = 0.5·1 + 1
  direction = {1.0f};
  opt.transform(direction, 1.0f);
  EXPECT_FLOAT_EQ(direction[0], 1.75f);
}

TEST(MomentumOptimizerTest, RejectsBadMu) {
  EXPECT_THROW(MomentumOptimizer(1.0f), CheckError);
  EXPECT_THROW(MomentumOptimizer(-0.1f), CheckError);
}

TEST(AdamOptimizerTest, FirstStepIsSignLikeUnitStep) {
  // With bias correction, step 1 gives m̂ = g, v̂ = g², so direction =
  // g/(|g|+ε) ≈ sign(g).
  AdamOptimizer opt;
  std::vector<float> direction{0.3f, -0.7f};
  opt.transform(direction, 1.0f);
  EXPECT_NEAR(direction[0], 1.0f, 1e-4f);
  EXPECT_NEAR(direction[1], -1.0f, 1e-4f);
}

TEST(AdamOptimizerTest, MatchesReferenceImplementation) {
  const float b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
  AdamOptimizer opt(b1, b2, eps);

  double m = 0.0, v = 0.0;
  const std::vector<float> grads{0.5f, -0.25f, 1.0f, 0.0f, 2.0f};
  for (std::size_t step = 1; step <= grads.size(); ++step) {
    const double g = grads[step - 1];
    m = b1 * m + (1.0 - b1) * g;
    v = b2 * v + (1.0 - b2) * g * g;
    const double m_hat = m / (1.0 - std::pow(b1, step));
    const double v_hat = v / (1.0 - std::pow(b2, step));
    const double expected = m_hat / (std::sqrt(v_hat) + eps);

    std::vector<float> direction{grads[step - 1]};
    opt.transform(direction, 1.0f);
    EXPECT_NEAR(direction[0], expected, 1e-4) << "step " << step;
  }
}

TEST(AdamOptimizerTest, RejectsBadHyperparameters) {
  EXPECT_THROW(AdamOptimizer(1.0f, 0.999f, 1e-8f), CheckError);
  EXPECT_THROW(AdamOptimizer(0.9f, 1.0f, 1e-8f), CheckError);
  EXPECT_THROW(AdamOptimizer(0.9f, 0.999f, 0.0f), CheckError);
}

TEST(OptimizerTest, EtaScalesTheFloatDirection) {
  // update = η_l · direction, written over the gradient, with the direction
  // rounded to float first: the bits of the direction at η_l = 1 times η_l
  // in float.
  const float eta_l = 0.05f;
  const std::vector<float> grad{0.3f, -0.7f, 1e-3f, 0.0f, -0.0f, 2.5f};
  for (const auto kind : {OptimizerKind::kSgd, OptimizerKind::kMomentum,
                          OptimizerKind::kAdam}) {
    const auto unit = make_optimizer(kind);
    const auto scaled = make_optimizer(kind);
    for (int step = 0; step < 3; ++step) {
      std::vector<float> direction = grad;
      std::vector<float> update = grad;
      unit->transform(direction, 1.0f);
      scaled->transform(update, eta_l);
      for (std::size_t i = 0; i < grad.size(); ++i) {
        const float expected = direction[i] * eta_l;
        EXPECT_EQ(std::memcmp(&update[i], &expected, sizeof(float)), 0)
            << unit->name() << " step " << step << " element " << i;
      }
    }
  }
}

TEST(FactoryTest, BuildsEachKind) {
  EXPECT_EQ(make_optimizer(OptimizerKind::kSgd)->name(), "SGD");
  EXPECT_EQ(make_optimizer(OptimizerKind::kMomentum)->name(), "Momentum");
  EXPECT_EQ(make_optimizer(OptimizerKind::kAdam)->name(), "Adam");
}

TEST(OptimizerTest, OnlySgdsDirectionIsTheGradient) {
  // The local step folds η_l into the backward only for this optimizer.
  EXPECT_TRUE(make_optimizer(OptimizerKind::kSgd)->direction_is_gradient());
  EXPECT_FALSE(
      make_optimizer(OptimizerKind::kMomentum)->direction_is_gradient());
  EXPECT_FALSE(make_optimizer(OptimizerKind::kAdam)->direction_is_gradient());
}

TEST(OptimizerTest, StateResizesWithDimension) {
  // Dimension change mid-stream (new model) must not crash; state resets.
  MomentumOptimizer opt(0.9f);
  std::vector<float> d1{1.0f};
  opt.transform(d1, 1.0f);
  std::vector<float> d2{1.0f, 2.0f};
  opt.transform(d2, 1.0f);
  EXPECT_FLOAT_EQ(d2[0], 1.0f);
  EXPECT_FLOAT_EQ(d2[1], 2.0f);
}

}  // namespace
}  // namespace marsit
