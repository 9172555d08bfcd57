#include "nn/models.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "tensor/ops.hpp"
#include "nn/loss.hpp"
#include "util/check.hpp"

namespace marsit {
namespace {

TEST(SequentialTest, RejectsShapeMismatch) {
  Sequential model;
  model.add(std::make_unique<Linear>(4, 8));
  EXPECT_THROW(model.add(std::make_unique<Linear>(9, 2)), CheckError);
}

TEST(SequentialTest, ParamRoundTrip) {
  Sequential model = make_mlp(6, {5}, 3);
  Rng rng(60);
  model.init(rng);
  const std::size_t d = model.param_count();
  EXPECT_EQ(d, 6u * 5u + 5u + 5u * 3u + 3u);

  std::vector<float> saved(d);
  model.copy_params_into({saved.data(), d});
  std::vector<float> reloaded(d, 0.0f);
  model.load_params({saved.data(), d});
  model.copy_params_into({reloaded.data(), d});
  EXPECT_EQ(saved, reloaded);
}

TEST(SequentialTest, ApplyUpdateSubtractsDelta) {
  Sequential model = make_mlp(2, {}, 2);
  Rng rng(61);
  model.init(rng);
  const std::size_t d = model.param_count();
  std::vector<float> before(d), delta(d, 0.5f), after(d);
  model.copy_params_into({before.data(), d});
  model.apply_update({delta.data(), d});
  model.copy_params_into({after.data(), d});
  for (std::size_t i = 0; i < d; ++i) {
    ASSERT_FLOAT_EQ(after[i], before[i] - 0.5f);
  }
}

TEST(SequentialTest, SameSeedGivesIdenticalReplicas) {
  // The consistent-replica invariant every strategy depends on.
  Sequential a = make_alexnet_mini({1, 14, 14}, 10);
  Sequential b = make_alexnet_mini({1, 14, 14}, 10);
  Rng ra(62), rb(62);
  a.init(ra);
  b.init(rb);
  const std::size_t d = a.param_count();
  std::vector<float> pa(d), pb(d);
  a.copy_params_into({pa.data(), d});
  b.copy_params_into({pb.data(), d});
  EXPECT_EQ(pa, pb);
}

TEST(SequentialTest, GradAccumulationAndZero) {
  Sequential model = make_mlp(3, {4}, 2);
  Rng rng(63);
  model.init(rng);
  std::vector<float> x{1.0f, -0.5f, 0.25f};
  const auto y = model.forward({x.data(), 3}, 1);
  std::vector<float> dy(y.size(), 1.0f);
  model.backward({dy.data(), dy.size()}, 1);
  std::vector<float> grads(model.param_count());
  model.copy_grads_into({grads.data(), grads.size()});
  EXPECT_GT(l2_norm({grads.data(), grads.size()}), 0.0f);
  model.zero_grads();
  model.copy_grads_into({grads.data(), grads.size()});
  EXPECT_FLOAT_EQ(l2_norm({grads.data(), grads.size()}), 0.0f);
}

// ---- backward() writes, and skips the model input's gradient ----------------

std::vector<float> model_grads(const Sequential& model) {
  std::vector<float> g(model.param_count());
  model.copy_grads_into({g.data(), g.size()});
  return g;
}

bool same_bytes(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// Inputs for `model`: token ids below `vocab` when it is nonzero, else
/// normal draws; and an upstream gradient with some ±0.0.
std::pair<std::vector<float>, std::vector<float>> model_batch(
    Rng& rng, const Sequential& model, std::size_t batch, std::size_t vocab) {
  std::vector<float> x(batch * model.in_size());
  for (float& v : x) {
    v = vocab > 0 ? static_cast<float>(rng.next_below(vocab))
                  : static_cast<float>(rng.normal());
  }
  std::vector<float> dy(batch * model.out_size());
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dy[i] = i % 5 == 0   ? 0.0f
            : i % 5 == 1 ? -0.0f
                         : static_cast<float>(rng.normal());
  }
  return {x, dy};
}

/// A Sequential whose layers the test can also drive one by one.
struct LayerStack {
  Sequential model;
  std::vector<Layer*> layers;

  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers.push_back(layer.get());
    model.add(std::move(layer));
    return ref;
  }
};

LayerStack stacked_mlp() {
  LayerStack s;
  s.add<Linear>(13, 24);
  s.add<Relu>(24);
  s.add<Linear>(24, 18);
  s.add<Relu>(18);
  s.add<Linear>(18, 5);
  return s;
}

// make_alexnet_mini's layer sequence.
LayerStack stacked_alexnet_mini(ImageDims input, std::size_t classes) {
  LayerStack s;
  const ImageDims c1 = s.add<Conv2d>(input, 12, 3, 1, 1).out_dims();
  s.add<Relu>(c1.size());
  const ImageDims p1 = s.add<MaxPool2d>(c1, 2).out_dims();
  const ImageDims c2 = s.add<Conv2d>(p1, 24, 3, 1, 1).out_dims();
  s.add<Relu>(c2.size());
  const ImageDims p2 = s.add<MaxPool2d>(c2, 2).out_dims();
  s.add<Flatten>(p2.size());
  s.add<Linear>(p2.size(), 96);
  s.add<Relu>(96);
  s.add<Linear>(96, classes);
  return s;
}

// make_text_classifier's layer sequence.
LayerStack stacked_text_classifier(std::size_t vocab, std::size_t seq_len,
                                   std::size_t dim, std::size_t classes) {
  LayerStack s;
  s.add<Embedding>(vocab, dim, seq_len);
  s.add<MeanPool>(seq_len, dim);
  s.add<Linear>(dim, 64);
  s.add<Relu>(64);
  s.add<Linear>(64, classes);
  return s;
}

/// Sequential::backward, which hands the first layer an empty dx, gives the
/// gradient bytes of a layer-by-layer backward that computes every dx.
void expect_input_grad_skip_keeps_grads(LayerStack& stack, std::size_t batch,
                                        std::size_t vocab) {
  Rng rng(70);
  stack.model.init(rng);
  const auto [x, dy] = model_batch(rng, stack.model, batch, vocab);
  stack.model.forward({x.data(), x.size()}, batch);
  std::vector<float> upstream = dy;
  for (std::size_t i = stack.layers.size(); i > 0; --i) {
    Layer& layer = *stack.layers[i - 1];
    std::vector<float> dx(batch * layer.in_size());
    layer.backward({upstream.data(), upstream.size()}, batch,
                   {dx.data(), dx.size()});
    upstream = std::move(dx);
  }
  const std::vector<float> every_dx = model_grads(stack.model);
  stack.model.zero_grads();
  stack.model.backward({dy.data(), dy.size()}, batch);
  EXPECT_TRUE(same_bytes(model_grads(stack.model), every_dx));
}

TEST(SequentialTest, FirstLayerInputGradSkipMlp) {
  LayerStack stack = stacked_mlp();
  expect_input_grad_skip_keeps_grads(stack, 6, 0);
}

TEST(SequentialTest, FirstLayerInputGradSkipAlexNetMini) {
  LayerStack stack = stacked_alexnet_mini({3, 12, 12}, 10);
  expect_input_grad_skip_keeps_grads(stack, 3, 0);
}

TEST(SequentialTest, FirstLayerInputGradSkipTextClassifier) {
  LayerStack stack = stacked_text_classifier(50, 7, 6, 2);
  expect_input_grad_skip_keeps_grads(stack, 4, 50);
}

/// backward on batch A and then on batch B, with no zero_grads() between,
/// leaves the bytes of zero_grads() then backward on B.
void expect_model_backward_writes(Sequential& model, std::size_t batch) {
  Rng rng(71);
  model.init(rng);
  const auto [xa, dya] = model_batch(rng, model, batch, 0);
  const auto [xb, dyb] = model_batch(rng, model, batch, 0);
  model.forward({xa.data(), xa.size()}, batch);
  model.backward({dya.data(), dya.size()}, batch);
  model.forward({xb.data(), xb.size()}, batch);
  model.backward({dyb.data(), dyb.size()}, batch);
  const std::vector<float> written = model_grads(model);
  model.zero_grads();
  model.forward({xb.data(), xb.size()}, batch);
  model.backward({dyb.data(), dyb.size()}, batch);
  EXPECT_TRUE(same_bytes(model_grads(model), written));
}

TEST(SequentialTest, BackwardWritesGradsMlp) {
  Sequential model = make_mlp(13, {24, 18}, 5);
  expect_model_backward_writes(model, 6);
}

TEST(SequentialTest, BackwardWritesGradsAlexNetMini) {
  Sequential model = make_alexnet_mini({3, 12, 12}, 10);
  expect_model_backward_writes(model, 3);
}

TEST(SequentialTest, DescribeListsLayers) {
  Sequential model = make_alexnet_mini({3, 16, 16}, 10);
  const std::string description = model.describe();
  EXPECT_NE(description.find("Conv2d"), std::string::npos);
  EXPECT_NE(description.find("Linear"), std::string::npos);
  EXPECT_NE(description.find("params"), std::string::npos);
}

TEST(ModelFactoryTest, AlexNetMiniShapes) {
  Sequential model = make_alexnet_mini({3, 16, 16}, 10);
  EXPECT_EQ(model.in_size(), 3u * 16u * 16u);
  EXPECT_EQ(model.out_size(), 10u);
  EXPECT_GT(model.param_count(), 10000u);
  EXPECT_GT(model.flops_per_sample(), 0.0);
}

TEST(ModelFactoryTest, ResNetPresetsOrderedBySize) {
  // Parameter ordering mirrors the paper's lineup:
  // ResNet-20 (0.27M) < ResNet-18 (11M) < ResNet-50 (25M), scaled down.
  const ImageDims dims{3, 16, 16};
  const std::size_t p20 = make_resnet20_mini(dims, 10).param_count();
  const std::size_t p18 = make_resnet18_mini(dims, 10).param_count();
  const std::size_t p50 = make_resnet50_mini(dims, 10).param_count();
  EXPECT_LT(p20, p18);
  EXPECT_LT(p18, p50);
}

TEST(ModelFactoryTest, ResNetForwardRuns) {
  Sequential model = make_resnet20_mini({3, 16, 16}, 10);
  Rng rng(64);
  model.init(rng);
  std::vector<float> x(2 * model.in_size());
  fill_normal({x.data(), x.size()}, rng, 0.0f, 1.0f);
  const auto y = model.forward({x.data(), x.size()}, 2);
  EXPECT_EQ(y.size(), 2u * 10u);
  EXPECT_TRUE(all_finite(y));
}

TEST(ModelFactoryTest, TextClassifierShapes) {
  Sequential model = make_text_classifier(500, 16, 12, 2);
  EXPECT_EQ(model.in_size(), 16u);
  EXPECT_EQ(model.out_size(), 2u);
  // Embedding dominates the parameter count.
  EXPECT_GT(model.param_count(), 500u * 12u);
}

TEST(ModelFactoryTest, TextClassifierForwardOnTokenIds) {
  Sequential model = make_text_classifier(100, 8, 6, 2);
  Rng rng(65);
  model.init(rng);
  std::vector<float> ids(8);
  for (auto& id : ids) {
    id = static_cast<float>(rng.next_below(100));
  }
  const auto y = model.forward({ids.data(), 8}, 1);
  EXPECT_EQ(y.size(), 2u);
  EXPECT_TRUE(all_finite(y));
}

TEST(ModelFactoryTest, MlpWithoutHiddenIsSingleLinear) {
  Sequential model = make_mlp(4, {}, 3);
  EXPECT_EQ(model.num_layers(), 1u);
  EXPECT_EQ(model.param_count(), 4u * 3u + 3u);
}

TEST(ModelFactoryTest, ResNetMiniValidatesArguments) {
  EXPECT_THROW(make_resnet_mini({3, 16, 16}, 10, 0, 8), CheckError);
  EXPECT_THROW(make_resnet_mini({3, 16, 16}, 10, 2, 1), CheckError);
}

TEST(SequentialTest, TrainingStepReducesLossOnTinyProblem) {
  // One gradient step with a small LR must reduce the loss on the same
  // batch (sanity of the whole fwd/bwd/update loop).
  Sequential model = make_mlp(4, {8}, 2);
  Rng rng(66);
  model.init(rng);
  std::vector<float> x(8 * 4);
  fill_normal({x.data(), x.size()}, rng, 0.0f, 1.0f);
  std::vector<std::size_t> labels(8);
  for (auto& label : labels) {
    label = rng.next_below(2);
  }

  auto loss_of = [&] {
    const auto y = model.forward({x.data(), x.size()}, 8);
    return softmax_cross_entropy_eval(y, {labels.data(), 8}, 2).loss;
  };

  const double before = loss_of();
  model.zero_grads();
  const auto y = model.forward({x.data(), x.size()}, 8);
  std::vector<float> dy(y.size());
  softmax_cross_entropy(y, {labels.data(), 8}, 2, {dy.data(), dy.size()});
  model.backward({dy.data(), dy.size()}, 8);
  std::vector<float> update(model.param_count());
  model.copy_grads_into({update.data(), update.size()});
  scale({update.data(), update.size()}, 0.1f);
  model.apply_update({update.data(), update.size()});
  EXPECT_LT(loss_of(), before);
}

}  // namespace
}  // namespace marsit
