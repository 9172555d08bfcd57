// Finite-difference gradient verification for every layer and for the loss:
// the single most load-bearing test in the repository, since every
// experiment rests on these gradients being correct.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/residual.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "layer_storage.hpp"

namespace marsit {
namespace {

/// Scalar probe: f(x, θ) = Σ_i y_i(x, θ) · probe_i, whose analytic gradients
/// are exactly what backward(probe) returns.
double probe_forward(Layer& layer, std::span<const float> x,
                     std::size_t batch, std::span<const float> probe) {
  std::vector<float> y(batch * layer.out_size());
  layer.forward(x, batch, {y.data(), y.size()});
  double total = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    total += static_cast<double>(y[i]) * static_cast<double>(probe[i]);
  }
  return total;
}

struct GradCheckOptions {
  float epsilon = 1e-2f;
  double rel_tolerance = 2e-2;
  double abs_tolerance = 2e-3;
  bool check_inputs = true;  // Embedding has no input gradient
};

void gradcheck(Layer& layer, std::size_t batch, std::uint64_t seed,
               GradCheckOptions options = {}) {
  LayerStorage storage(layer);
  Rng rng(seed);
  layer.init(rng);

  std::vector<float> x(batch * layer.in_size());
  fill_normal({x.data(), x.size()}, rng, 0.0f, 1.0f);
  std::vector<float> probe(batch * layer.out_size());
  fill_normal({probe.data(), probe.size()}, rng, 0.0f, 1.0f);

  // Analytic gradients.
  std::vector<float> y(batch * layer.out_size());
  layer.forward({x.data(), x.size()}, batch, {y.data(), y.size()});
  std::vector<float> dx(batch * layer.in_size());
  layer.backward({probe.data(), probe.size()}, batch, {dx.data(), dx.size()});
  std::vector<float> analytic_param_grads(layer.grads().begin(),
                                          layer.grads().end());

  auto expect_match = [&](double analytic, double numeric,
                          const char* what, std::size_t index) {
    const double scale =
        std::max({std::fabs(analytic), std::fabs(numeric), 1.0});
    EXPECT_NEAR(analytic, numeric,
                options.abs_tolerance + options.rel_tolerance * scale)
        << what << "[" << index << "]";
  };

  // Input gradients by central differences.
  if (options.check_inputs) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float saved = x[i];
      x[i] = saved + options.epsilon;
      const double plus =
          probe_forward(layer, {x.data(), x.size()}, batch,
                        {probe.data(), probe.size()});
      x[i] = saved - options.epsilon;
      const double minus =
          probe_forward(layer, {x.data(), x.size()}, batch,
                        {probe.data(), probe.size()});
      x[i] = saved;
      const double numeric =
          (plus - minus) / (2.0 * static_cast<double>(options.epsilon));
      expect_match(dx[i], numeric, "dx", i);
    }
  }

  // Parameter gradients by central differences.
  auto params = layer.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float saved = params[i];
    params[i] = saved + options.epsilon;
    const double plus = probe_forward(layer, {x.data(), x.size()}, batch,
                                      {probe.data(), probe.size()});
    params[i] = saved - options.epsilon;
    const double minus = probe_forward(layer, {x.data(), x.size()}, batch,
                                       {probe.data(), probe.size()});
    params[i] = saved;
    const double numeric =
        (plus - minus) / (2.0 * static_cast<double>(options.epsilon));
    expect_match(analytic_param_grads[i], numeric, "dparam", i);
  }
}

TEST(GradCheckTest, Linear) {
  Linear layer(7, 5);
  gradcheck(layer, 3, 1001);
}

TEST(GradCheckTest, LinearWithoutBias) {
  Linear layer(4, 6, /*with_bias=*/false);
  gradcheck(layer, 2, 1002);
}

TEST(GradCheckTest, Relu) {
  // Keep inputs away from the kink: with N(0,1) draws and ε=1e-2 the chance
  // of crossing is small; a fixed seed keeps the test deterministic.
  Relu layer(11);
  gradcheck(layer, 4, 1003);
}

TEST(GradCheckTest, Flatten) {
  Flatten layer(9);
  gradcheck(layer, 2, 1004);
}

TEST(GradCheckTest, Conv2dNoPadding) {
  Conv2d layer({2, 5, 5}, 3, /*kernel=*/3, /*stride=*/1, /*padding=*/0);
  gradcheck(layer, 2, 1005);
}

TEST(GradCheckTest, Conv2dWithPadding) {
  Conv2d layer({1, 4, 4}, 2, 3, 1, 1);
  gradcheck(layer, 2, 1006);
}

TEST(GradCheckTest, Conv2dStrided) {
  Conv2d layer({2, 6, 6}, 2, 3, 2, 1);
  gradcheck(layer, 2, 1007);
}

TEST(GradCheckTest, MaxPool) {
  MaxPool2d layer({2, 4, 4}, 2);
  gradcheck(layer, 2, 1008);
}

TEST(GradCheckTest, MaxPoolOverlapping) {
  MaxPool2d layer({1, 5, 5}, 3, /*stride=*/2);
  gradcheck(layer, 2, 1009);
}

TEST(GradCheckTest, GlobalAvgPool) {
  GlobalAvgPool layer({3, 4, 4});
  gradcheck(layer, 2, 1010);
}

TEST(GradCheckTest, MeanPool) {
  MeanPool layer(5, 6);
  gradcheck(layer, 3, 1011);
}

TEST(GradCheckTest, ResidualBlock) {
  ResidualConvBlock layer({2, 4, 4});
  // params() spans both convs.  A ±1e-2 step of a zero-initialized conv2
  // weight moves the block's output across its final ReLU's kink, so the
  // central difference uses a smaller step.
  GradCheckOptions options;
  options.epsilon = 1e-3f;
  gradcheck(layer, 2, 1012, options);
}

TEST(GradCheckTest, EmbeddingParamsOnly) {
  Embedding layer(13, 4, 6);
  LayerStorage storage(layer);
  // Token-id inputs: integers in [0, vocab); no input gradient exists.
  Rng rng(1013);
  layer.init(rng);
  const std::size_t batch = 2;
  std::vector<float> x(batch * 6);
  for (auto& id : x) {
    id = static_cast<float>(rng.next_below(13));
  }
  std::vector<float> probe(batch * layer.out_size());
  fill_normal({probe.data(), probe.size()}, rng, 0.0f, 1.0f);

  std::vector<float> y(batch * layer.out_size());
  layer.forward({x.data(), x.size()}, batch, {y.data(), y.size()});
  std::vector<float> dx(batch * 6);
  layer.backward({probe.data(), probe.size()}, batch, {dx.data(), dx.size()});
  std::vector<float> analytic(layer.grads().begin(), layer.grads().end());

  auto params = layer.params();
  const float eps = 1e-2f;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float saved = params[i];
    params[i] = saved + eps;
    const double plus = probe_forward(layer, {x.data(), x.size()}, batch,
                                      {probe.data(), probe.size()});
    params[i] = saved - eps;
    const double minus = probe_forward(layer, {x.data(), x.size()}, batch,
                                       {probe.data(), probe.size()});
    params[i] = saved;
    const double numeric = (plus - minus) / (2.0 * eps);
    ASSERT_NEAR(analytic[i], numeric, 2e-3 + 2e-2 * std::fabs(numeric))
        << "table[" << i << "]";
  }
  // Ids carry no gradient.
  for (float v : dx) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(GradCheckTest, SoftmaxCrossEntropyGradient) {
  const std::size_t batch = 4, classes = 5;
  Rng rng(1014);
  std::vector<float> logits(batch * classes);
  fill_normal({logits.data(), logits.size()}, rng, 0.0f, 1.5f);
  std::vector<std::size_t> labels(batch);
  for (auto& label : labels) {
    label = rng.next_below(classes);
  }

  std::vector<float> dlogits(logits.size());
  softmax_cross_entropy({logits.data(), logits.size()},
                        {labels.data(), labels.size()}, classes,
                        {dlogits.data(), dlogits.size()});

  const float eps = 1e-2f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + eps;
    const double plus =
        softmax_cross_entropy_eval({logits.data(), logits.size()},
                                   {labels.data(), labels.size()}, classes)
            .loss;
    logits[i] = saved - eps;
    const double minus =
        softmax_cross_entropy_eval({logits.data(), logits.size()},
                                   {labels.data(), labels.size()}, classes)
            .loss;
    logits[i] = saved;
    const double numeric = (plus - minus) / (2.0 * eps);
    ASSERT_NEAR(dlogits[i], numeric, 1e-3 + 1e-2 * std::fabs(numeric))
        << "logit " << i;
  }
}

}  // namespace
}  // namespace marsit
