#include "nn/models.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/residual.hpp"
#include "tensor/ops.hpp"
#include "nn/loss.hpp"
#include "util/check.hpp"

namespace marsit {
namespace {

TEST(SequentialTest, RejectsShapeMismatch) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Linear>(4, 8));
  layers.push_back(std::make_unique<Linear>(9, 2));
  EXPECT_THROW(Sequential{std::move(layers)}, CheckError);
  EXPECT_THROW(Sequential{{}}, CheckError);
}

bool same_bytes(std::span<const float> x, std::span<const float> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(SequentialTest, BindParamsViewsTheCallersBuffer) {
  Sequential model = make_mlp(6, {5}, 3);
  const std::size_t d = model.param_count();
  EXPECT_EQ(d, 6u * 5u + 5u + 5u * 3u + 3u);
  std::vector<float> shared(d);
  model.bind_params(shared);
  Rng rng(60);
  model.init(rng);
  EXPECT_EQ(model.params().data(), shared.data());

  // init wrote the caller's buffer, with a self-owned model's values.
  Sequential own = make_mlp(6, {5}, 3);
  Rng own_rng(60);
  own.init(own_rng);
  EXPECT_TRUE(same_bytes(shared, own.params()));

  // Writes through the buffer reach the layers.
  std::vector<float> x{1, 2, 3, 4, 5, 6};
  const std::vector<float> y = [&] {
    const auto out = model.forward(x, 1);
    return std::vector<float>(out.begin(), out.end());
  }();
  shared.back() += 1.0f;  // the last bias
  EXPECT_FLOAT_EQ(model.forward(x, 1).back(), y.back() + 1.0f);

  std::vector<float> wrong(d + 1);
  EXPECT_THROW(model.bind_params(wrong), CheckError);
}

TEST(SequentialTest, MoveKeepsLayerViews) {
  Sequential model = make_mlp(4, {3}, 2);
  Rng rng(67);
  model.init(rng);
  const float* params = model.params().data();
  std::vector<float> x{0.5f, -1.0f, 2.0f, 0.25f};
  const std::vector<float> before = [&] {
    const auto out = model.forward(x, 1);
    return std::vector<float>(out.begin(), out.end());
  }();
  Sequential moved = std::move(model);
  EXPECT_EQ(moved.params().data(), params);
  EXPECT_TRUE(same_bytes(moved.forward(x, 1), before));
  std::vector<float> delta(moved.param_count(), 0.0f);
  delta.back() = 1.0f;  // the last bias
  moved.apply_update(delta);
  EXPECT_FLOAT_EQ(moved.forward(x, 1).back(), before.back() - 1.0f);
}

TEST(SequentialTest, ApplyUpdateSubtractsDelta) {
  Sequential model = make_mlp(2, {}, 2);
  Rng rng(61);
  model.init(rng);
  const std::size_t d = model.param_count();
  const std::vector<float> before(model.params().begin(),
                                  model.params().end());
  std::vector<float> delta(d, 0.5f);
  model.apply_update({delta.data(), d});
  for (std::size_t i = 0; i < d; ++i) {
    ASSERT_FLOAT_EQ(model.params()[i], before[i] - 0.5f);
  }
}

TEST(SequentialTest, SameSeedGivesIdenticalModels) {
  Sequential a = make_alexnet_mini({1, 14, 14}, 10);
  Sequential b = make_alexnet_mini({1, 14, 14}, 10);
  Rng ra(62), rb(62);
  a.init(ra);
  b.init(rb);
  EXPECT_TRUE(same_bytes(a.params(), b.params()));
}

TEST(SequentialTest, GradsWrittenAndZeroed) {
  Sequential model = make_mlp(3, {4}, 2);
  Rng rng(63);
  model.init(rng);
  std::vector<float> x{1.0f, -0.5f, 0.25f};
  const auto y = model.forward({x.data(), 3}, 1);
  std::vector<float> dy(y.size(), 1.0f);
  model.backward({dy.data(), dy.size()}, 1);
  EXPECT_GT(l2_norm(model.grads()), 0.0f);
  model.zero_grads();
  EXPECT_FLOAT_EQ(l2_norm(model.grads()), 0.0f);
}

// ---- backward() writes, and skips the model input's gradient ----------------

std::vector<float> model_grads(Sequential& model) {
  return {model.grads().begin(), model.grads().end()};
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

/// A Sequential whose layers the test can also drive one by one: add()
/// the layers, then build().
struct LayerStack {
  std::vector<std::unique_ptr<Layer>> pending;
  std::vector<Layer*> layers;

  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers.push_back(layer.get());
    pending.push_back(std::move(layer));
    return ref;
  }
  Sequential build() { return Sequential(std::move(pending)); }
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

// make_resnet_mini's layer sequence; `blocks` collects its residual blocks.
LayerStack stacked_resnet_mini(ImageDims input, std::size_t classes,
                               std::size_t blocks_per_stage, std::size_t base,
                               std::vector<ResidualConvBlock*>& blocks) {
  LayerStack s;
  ImageDims dims = s.add<Conv2d>(input, base, 3, 1, 1).out_dims();
  s.add<Relu>(dims.size());
  for (std::size_t stage = 0; stage < 3; ++stage) {
    if (stage > 0) {
      dims = s.add<Conv2d>(dims, dims.channels * 2, 3, 2, 1).out_dims();
      s.add<Relu>(dims.size());
    }
    for (std::size_t b = 0; b < blocks_per_stage; ++b) {
      blocks.push_back(&s.add<ResidualConvBlock>(dims));
    }
  }
  s.add<GlobalAvgPool>(dims);
  s.add<Linear>(dims.channels, classes).set_init_scale(0.1f);
  return s;
}

TEST(SequentialTest, InitStartsEveryResidualBlockAtRelu) {
  // Fixup init (DESIGN.md §6): Sequential::init runs each block's own init,
  // which zeroes the block's second conv, so the block computes ReLU(x).
  std::vector<ResidualConvBlock*> blocks;
  LayerStack stack = stacked_resnet_mini({1, 14, 14}, 10, 1, 4, blocks);
  Sequential model = stack.build();
  Rng rng(68);
  model.init(rng);
  Sequential factory_model = make_resnet_mini({1, 14, 14}, 10, 1, 4);
  Rng factory_rng(68);
  factory_model.init(factory_rng);
  EXPECT_TRUE(same_bytes(model.params(), factory_model.params()));

  ASSERT_EQ(blocks.size(), 3u);
  Rng x_rng(69);
  for (ResidualConvBlock* block : blocks) {
    // A block's parameters are conv1's, then conv2's, of equal count.
    const auto conv2 = block->params().subspan(block->param_count() / 2);
    EXPECT_EQ(std::count(conv2.begin(), conv2.end(), 0.0f),
              static_cast<std::ptrdiff_t>(conv2.size()))
        << block->name();
    std::vector<float> x(2 * block->in_size());
    std::vector<float> y(x.size());
    fill_normal(x, x_rng, 0.0f, 1.0f);
    block->forward(x, 2, y);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(y[i], std::max(x[i], 0.0f)) << block->name() << " " << i;
    }
  }
}

/// Sequential::backward, which hands the first layer an empty dx, gives the
/// gradient bytes of a layer-by-layer backward that computes every dx.
void expect_input_grad_skip_keeps_grads(LayerStack& stack, std::size_t batch,
                                        std::size_t vocab) {
  Sequential model = stack.build();
  Rng rng(70);
  model.init(rng);
  const auto [x, dy] = model_batch(rng, model, batch, vocab);
  model.forward({x.data(), x.size()}, batch);
  std::vector<float> upstream = dy;
  for (std::size_t i = stack.layers.size(); i > 0; --i) {
    Layer& layer = *stack.layers[i - 1];
    std::vector<float> dx(batch * layer.in_size());
    layer.backward({upstream.data(), upstream.size()}, batch,
                   {dx.data(), dx.size()});
    upstream = std::move(dx);
  }
  const std::vector<float> every_dx = model_grads(model);
  model.zero_grads();
  model.backward({dy.data(), dy.size()}, batch);
  EXPECT_TRUE(same_bytes(model_grads(model), every_dx));
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

/// backward on batch A and then on batch B leaves the gradient bytes of a
/// fresh model's backward on B: neither the gradients nor backward's reused
/// scratch carry anything over from A.
void expect_model_backward_writes(const std::function<Sequential()>& factory,
                                  std::size_t batch, std::size_t vocab) {
  Sequential model = factory();
  Sequential fresh = factory();
  Rng init_model(71), init_fresh(71);
  model.init(init_model);
  fresh.init(init_fresh);
  Rng rng(72);
  const auto [xa, dya] = model_batch(rng, model, batch, vocab);
  const auto [xb, dyb] = model_batch(rng, model, batch, vocab);
  model.forward(xa, batch);
  model.backward(dya, batch);
  model.forward(xb, batch);
  model.backward(dyb, batch);
  fresh.forward(xb, batch);
  fresh.backward(dyb, batch);
  EXPECT_TRUE(same_bytes(model.grads(), fresh.grads()));
}

TEST(SequentialTest, BackwardWritesGradsMlp) {
  expect_model_backward_writes([] { return make_mlp(13, {24, 18}, 5); }, 6,
                               0);
}

TEST(SequentialTest, BackwardWritesGradsAlexNetMini) {
  expect_model_backward_writes(
      [] { return make_alexnet_mini({3, 12, 12}, 10); }, 3, 0);
}

TEST(SequentialTest, BackwardWritesGradsTextClassifier) {
  expect_model_backward_writes(
      [] { return make_text_classifier(50, 7, 6, 2); }, 4, 50);
}

TEST(SequentialTest, BackwardWritesGradsResNetMini) {
  expect_model_backward_writes(
      [] { return make_resnet_mini({2, 8, 8}, 5, 1, 4); }, 2, 0);
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
  scale(model.grads(), 0.1f, update);
  model.apply_update({update.data(), update.size()});
  EXPECT_LT(loss_of(), before);
}

}  // namespace
}  // namespace marsit
