// Behavioral (non-gradient) layer tests: shapes, caching contracts,
// forward semantics on known inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/residual.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "layer_storage.hpp"

namespace marsit {
namespace {

TEST(LinearTest, KnownAffineMap) {
  Linear layer(2, 2);
  LayerStorage storage(layer);
  // W = [[1, 2], [3, 4]], b = [10, 20].
  auto w = layer.weights();
  w[0] = 1;
  w[1] = 2;
  w[2] = 3;
  w[3] = 4;
  auto b = layer.bias();
  b[0] = 10;
  b[1] = 20;
  std::vector<float> x{1.0f, 1.0f};
  std::vector<float> y(2);
  layer.forward({x.data(), 2}, 1, {y.data(), 2});
  EXPECT_FLOAT_EQ(y[0], 13.0f);  // 1·1 + 2·1 + 10
  EXPECT_FLOAT_EQ(y[1], 27.0f);  // 3·1 + 4·1 + 20
}

TEST(LinearTest, ParamLayout) {
  Linear with_bias(3, 4);
  EXPECT_EQ(with_bias.param_count(), 16u);
  Linear no_bias(3, 4, false);
  EXPECT_EQ(no_bias.param_count(), 12u);
  LayerStorage storage(no_bias);
  EXPECT_TRUE(no_bias.bias().empty());
  EXPECT_EQ(no_bias.weights().size(), 12u);
}

TEST(LinearTest, ExtentChecks) {
  Linear layer(2, 3);
  std::vector<float> x(4), y(5);
  EXPECT_THROW(layer.forward({x.data(), 4}, 1, {y.data(), 5}), CheckError);
}

TEST(LinearTest, BackwardWithoutForwardThrows) {
  Linear layer(2, 3);
  std::vector<float> dy(3), dx(2);
  EXPECT_THROW(layer.backward({dy.data(), 3}, 1, {dx.data(), 2}),
               CheckError);
}

TEST(ReluTest, ClampsNegatives) {
  Relu layer(4);
  std::vector<float> x{-1.0f, 0.0f, 2.0f, -3.0f};
  std::vector<float> y(4);
  layer.forward({x.data(), 4}, 1, {y.data(), 4});
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReluTest, MaskGatesGradient) {
  Relu layer(3);
  std::vector<float> x{-1.0f, 1.0f, 0.0f};
  std::vector<float> y(3), dy{5.0f, 5.0f, 5.0f}, dx(3);
  layer.forward({x.data(), 3}, 1, {y.data(), 3});
  layer.backward({dy.data(), 3}, 1, {dx.data(), 3});
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 5.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);  // x == 0 has zero sub-gradient
}

TEST(Conv2dTest, OutputGeometry) {
  Conv2d same({3, 8, 8}, 16, 3, 1, 1);
  EXPECT_EQ(same.out_dims().height, 8u);
  EXPECT_EQ(same.out_dims().channels, 16u);
  Conv2d strided({3, 8, 8}, 16, 3, 2, 1);
  EXPECT_EQ(strided.out_dims().height, 4u);
  Conv2d valid({1, 5, 5}, 1, 3, 1, 0);
  EXPECT_EQ(valid.out_dims().height, 3u);
}

TEST(Conv2dTest, IdentityKernelPassesThrough) {
  Conv2d layer({1, 3, 3}, 1, 1, 1, 0);  // 1×1 kernel
  LayerStorage storage(layer);
  layer.params()[0] = 1.0f;             // weight
  layer.params()[1] = 0.0f;             // bias
  std::vector<float> x{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> y(9);
  layer.forward({x.data(), 9}, 1, {y.data(), 9});
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i]);
  }
}

TEST(Conv2dTest, BoxFilterSumsNeighborhood) {
  Conv2d layer({1, 3, 3}, 1, 3, 1, 1);
  LayerStorage storage(layer);
  for (std::size_t i = 0; i < 9; ++i) {
    layer.params()[i] = 1.0f;  // all-ones 3×3 kernel
  }
  layer.params()[9] = 0.0f;  // bias
  std::vector<float> x(9, 1.0f);
  std::vector<float> y(9);
  layer.forward({x.data(), 9}, 1, {y.data(), 9});
  EXPECT_FLOAT_EQ(y[4], 9.0f);  // center sees the full neighborhood
  EXPECT_FLOAT_EQ(y[0], 4.0f);  // corner sees 2×2
}

TEST(Conv2dTest, KernelLargerThanInputThrows) {
  EXPECT_THROW(Conv2d({1, 2, 2}, 1, 5, 1, 0), CheckError);
}

TEST(MaxPoolTest, PicksMaxima) {
  MaxPool2d layer({1, 2, 4}, 2);
  std::vector<float> x{1, 5, 2, 0,
                       3, 4, 8, 7};
  std::vector<float> y(2);
  layer.forward({x.data(), 8}, 1, {y.data(), 2});
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
}

TEST(MaxPoolTest, GradientRoutesToArgmax) {
  MaxPool2d layer({1, 2, 2}, 2);
  std::vector<float> x{1, 9, 3, 4};
  std::vector<float> y(1), dy{2.0f}, dx(4);
  layer.forward({x.data(), 4}, 1, {y.data(), 1});
  layer.backward({dy.data(), 1}, 1, {dx.data(), 4});
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 2.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
  EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(GlobalAvgPoolTest, AveragesPerChannel) {
  GlobalAvgPool layer({2, 2, 2});
  std::vector<float> x{1, 2, 3, 4,    // channel 0
                       10, 20, 30, 40};  // channel 1
  std::vector<float> y(2);
  layer.forward({x.data(), 8}, 1, {y.data(), 2});
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
}

TEST(EmbeddingTest, LooksUpRows) {
  Embedding layer(3, 2, 2);
  LayerStorage storage(layer);
  auto table = layer.params();
  // Row r = [r, 10r].
  for (std::size_t r = 0; r < 3; ++r) {
    table[r * 2] = static_cast<float>(r);
    table[r * 2 + 1] = static_cast<float>(10 * r);
  }
  std::vector<float> ids{2.0f, 0.0f};
  std::vector<float> y(4);
  layer.forward({ids.data(), 2}, 1, {y.data(), 4});
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 20.0f);
  EXPECT_FLOAT_EQ(y[2], 0.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(EmbeddingTest, RejectsOutOfVocabIds) {
  Embedding layer(3, 2, 1);
  LayerStorage storage(layer);
  std::vector<float> ids{3.0f};
  std::vector<float> y(2);
  EXPECT_THROW(layer.forward({ids.data(), 1}, 1, {y.data(), 2}), CheckError);
}

TEST(MeanPoolTest, AveragesSequence) {
  MeanPool layer(2, 3);
  std::vector<float> x{1, 2, 3, 5, 6, 7};
  std::vector<float> y(3);
  layer.forward({x.data(), 6}, 1, {y.data(), 3});
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 4.0f);
  EXPECT_FLOAT_EQ(y[2], 5.0f);
}

TEST(ResidualBlockTest, ZeroWeightsActAsReluIdentity) {
  ResidualConvBlock block({1, 3, 3});
  LayerStorage storage(block);
  // Zero convolutions: y = ReLU(0 + x) = ReLU(x).
  Rng rng(55);
  block.init(rng);
  zero(block.params());
  std::vector<float> x{-1, 2, -3, 4, -5, 6, -7, 8, -9};
  std::vector<float> y(9);
  block.forward({x.data(), 9}, 1, {y.data(), 9});
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i] > 0 ? x[i] : 0.0f) << "index " << i;
  }
}

TEST(ResidualBlockTest, ParamsAreBothConvs) {
  ResidualConvBlock block({2, 4, 4});
  const Conv2d conv({2, 4, 4}, 2, 3, 1, 1);
  EXPECT_EQ(block.param_count(), 2 * conv.param_count());
}

TEST(LayerTest, BindChecksExtents) {
  Linear layer(3, 4);
  std::vector<float> params(layer.param_count());
  std::vector<float> short_grads(layer.param_count() - 1);
  EXPECT_THROW(layer.bind(params, short_grads), CheckError);
  // An unbound layer refuses to run instead of writing through no storage.
  std::vector<float> x(3), y(4);
  EXPECT_THROW(layer.forward(x, 1, y), CheckError);
}

// ---- backward() writes its gradients ---------------------------------------

/// Every parameter gradient of `layer` (both convs' for a residual block).
std::vector<float> gradients_of(Layer& layer) {
  return {layer.grads().begin(), layer.grads().end()};
}

/// Values as sparse as a ReLU output: about 40 % +0.0 and 10 % −0.0.
std::vector<float> sparse_values(Rng& rng, std::size_t count) {
  std::vector<float> v(count);
  for (float& x : v) {
    const double u = rng.uniform(0.0, 1.0);
    x = u < 0.4 ? 0.0f : u < 0.5 ? -0.0f : static_cast<float>(rng.normal());
  }
  return v;
}

struct LayerBatch {
  std::vector<float> x;
  std::vector<float> dy;
};

/// backward on batch A and then on batch B, with no zeroing between, leaves
/// the gradient and dx bytes of zeroed gradients then backward on B.
void expect_backward_writes(Layer& layer, std::size_t batch,
                            const LayerBatch& a, const LayerBatch& b) {
  std::vector<float> y(batch * layer.out_size());
  std::vector<float> dx(batch * layer.in_size());
  const auto run = [&](const LayerBatch& in) {
    layer.forward({in.x.data(), in.x.size()}, batch, {y.data(), y.size()});
    layer.backward({in.dy.data(), in.dy.size()}, batch,
                   {dx.data(), dx.size()});
  };
  run(a);
  run(b);
  const std::vector<float> written = gradients_of(layer);
  const std::vector<float> written_dx = dx;
  zero(layer.grads());
  run(b);
  const std::vector<float> fresh = gradients_of(layer);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(std::memcmp(written.data(), fresh.data(),
                        fresh.size() * sizeof(float)),
            0)
      << layer.name();
  EXPECT_EQ(std::memcmp(written_dx.data(), dx.data(),
                        dx.size() * sizeof(float)),
            0)
      << layer.name();
}

LayerBatch sparse_batch(Rng& rng, const Layer& layer, std::size_t batch) {
  return {sparse_values(rng, batch * layer.in_size()),
          sparse_values(rng, batch * layer.out_size())};
}

TEST(BackwardWritesTest, Linear) {
  Linear layer(37, 70);
  LayerStorage storage(layer);
  Rng rng(90);
  layer.init(rng);
  const LayerBatch a = sparse_batch(rng, layer, 5);
  LayerBatch b = sparse_batch(rng, layer, 5);
  // Output 0's upstream gradient is −0.0 in every row: its bias gradient
  // must be the +0.0 that zeroed storage plus −0.0 gives.
  for (std::size_t row = 0; row < 5; ++row) {
    b.dy[row * 70] = -0.0f;
  }
  expect_backward_writes(layer, 5, a, b);
  EXPECT_FALSE(std::signbit(layer.grads()[37 * 70]));
}

TEST(BackwardWritesTest, Conv2d) {
  Conv2d layer({3, 6, 5}, 4, 3, 1, 1);
  LayerStorage storage(layer);
  Rng rng(91);
  layer.init(rng);
  const LayerBatch a = sparse_batch(rng, layer, 3);
  LayerBatch b = sparse_batch(rng, layer, 3);
  // Channel 0's upstream gradient is −0.0 everywhere in sample 0 and in
  // every sample: its bias gradient must still come out +0.0.
  const std::size_t plane = 6 * 5;
  for (std::size_t n = 0; n < 3; ++n) {
    std::fill_n(b.dy.begin() + static_cast<std::ptrdiff_t>(n * 4 * plane),
                plane, -0.0f);
  }
  expect_backward_writes(layer, 3, a, b);
  EXPECT_FALSE(std::signbit(layer.grads()[4 * 3 * 3 * 3]));
}

TEST(BackwardWritesTest, Embedding) {
  Embedding layer(11, 4, 3);
  LayerStorage storage(layer);
  Rng rng(92);
  layer.init(rng);
  const auto ids = [&] {
    std::vector<float> x(2 * 3);
    for (float& id : x) {
      id = static_cast<float>(rng.next_below(11));
    }
    return x;
  };
  const LayerBatch a{ids(), sparse_values(rng, 2 * 3 * 4)};
  const LayerBatch b{ids(), sparse_values(rng, 2 * 3 * 4)};
  expect_backward_writes(layer, 2, a, b);
}

TEST(BackwardWritesTest, ResidualConvBlock) {
  ResidualConvBlock block({2, 5, 4});
  LayerStorage storage(block);
  Rng rng(93);
  block.init(rng);
  // init zeroes the second conv; give it weights so its gradient flows.
  const std::size_t conv1 = block.param_count() / 2;
  fill_normal(block.params().subspan(conv1), rng, 0.0f, 0.3f);
  const LayerBatch a = sparse_batch(rng, block, 2);
  const LayerBatch b = sparse_batch(rng, block, 2);
  expect_backward_writes(block, 2, a, b);
}

// ---- backward() at a gradient scale -----------------------------------------

/// backward at gradient scale 0.05 writes the bytes of backward at 1
/// followed by scale(grads, 0.05), and the same dx.
void expect_scaled_backward(Layer& layer, std::size_t batch,
                            const LayerBatch& in) {
  constexpr float kScale = 0.05f;
  std::vector<float> y(batch * layer.out_size());
  std::vector<float> dx(batch * layer.in_size());
  layer.forward(in.x, batch, y);
  layer.backward(in.dy, batch, dx);
  std::vector<float> expected = gradients_of(layer);
  scale(expected, kScale);
  const std::vector<float> expected_dx = dx;
  layer.backward(in.dy, batch, dx, kScale);
  const std::vector<float> scaled = gradients_of(layer);
  ASSERT_FALSE(scaled.empty());
  EXPECT_EQ(std::memcmp(scaled.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0)
      << layer.name() << " at batch " << batch;
  EXPECT_EQ(std::memcmp(dx.data(), expected_dx.data(),
                        dx.size() * sizeof(float)),
            0)
      << layer.name() << " at batch " << batch;
}

// Batch 16 finishes each Linear dW row in the second 8-deep block of
// matmul_at_b; batch 17 needs a third block of one term, which sparse
// upstream gradients often leave without a live term.
constexpr std::size_t kScaledBatches[] = {16, 17};

TEST(ScaledBackwardTest, Linear) {
  for (const bool with_bias : {true, false}) {
    Linear layer(37, 70, with_bias);
    LayerStorage storage(layer);
    Rng rng(94);
    layer.init(rng);
    for (const std::size_t batch : kScaledBatches) {
      expect_scaled_backward(layer, batch, sparse_batch(rng, layer, batch));
    }
  }
}

TEST(ScaledBackwardTest, Conv2d) {
  Conv2d layer({3, 6, 5}, 4, 3, 1, 1);
  LayerStorage storage(layer);
  Rng rng(95);
  layer.init(rng);
  for (const std::size_t batch : kScaledBatches) {
    expect_scaled_backward(layer, batch, sparse_batch(rng, layer, batch));
  }
}

TEST(ScaledBackwardTest, Embedding) {
  Embedding layer(11, 4, 3);
  LayerStorage storage(layer);
  Rng rng(96);
  layer.init(rng);
  for (const std::size_t batch : kScaledBatches) {
    std::vector<float> ids(batch * 3);
    for (float& id : ids) {
      id = static_cast<float>(rng.next_below(11));
    }
    expect_scaled_backward(layer, batch,
                           {ids, sparse_values(rng, batch * 3 * 4)});
  }
}

TEST(ScaledBackwardTest, ResidualConvBlock) {
  ResidualConvBlock block({2, 5, 4});
  LayerStorage storage(block);
  Rng rng(97);
  block.init(rng);
  const std::size_t conv1 = block.param_count() / 2;
  fill_normal(block.params().subspan(conv1), rng, 0.0f, 0.3f);
  for (const std::size_t batch : kScaledBatches) {
    expect_scaled_backward(block, batch, sparse_batch(rng, block, batch));
  }
}

TEST(LossTest, UniformLogitsGiveLogC) {
  const std::size_t classes = 4;
  std::vector<float> logits(classes, 0.0f);
  std::vector<std::size_t> labels{1};
  const auto result = softmax_cross_entropy_eval(
      {logits.data(), logits.size()}, {labels.data(), 1}, classes);
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-6);
}

TEST(LossTest, CorrectCountsTop1) {
  std::vector<float> logits{
      5.0f, 0.0f, 0.0f,   // predicts 0
      0.0f, 5.0f, 0.0f};  // predicts 1
  std::vector<std::size_t> labels{0, 2};
  const auto result = softmax_cross_entropy_eval(
      {logits.data(), logits.size()}, {labels.data(), 2}, 3);
  EXPECT_EQ(result.correct, 1u);
}

TEST(LossTest, GradientRowsSumToZero) {
  std::vector<float> logits{1.0f, 2.0f, 3.0f};
  std::vector<std::size_t> labels{0};
  std::vector<float> dlogits(3);
  softmax_cross_entropy({logits.data(), 3}, {labels.data(), 1}, 3,
                        {dlogits.data(), 3});
  EXPECT_NEAR(dlogits[0] + dlogits[1] + dlogits[2], 0.0f, 1e-6f);
}

TEST(LossTest, RejectsBadLabels) {
  std::vector<float> logits(3);
  std::vector<std::size_t> labels{5};
  std::vector<float> dlogits(3);
  EXPECT_THROW(softmax_cross_entropy({logits.data(), 3}, {labels.data(), 1},
                                     3, {dlogits.data(), 3}),
               CheckError);
}

TEST(LossTest, ExtremeLogitsStayFinite) {
  std::vector<float> logits{1000.0f, -1000.0f};
  std::vector<std::size_t> labels{1};
  const auto result = softmax_cross_entropy_eval({logits.data(), 2},
                                                 {labels.data(), 1}, 2);
  EXPECT_TRUE(std::isfinite(result.loss));
  EXPECT_GT(result.loss, 10.0);
}

}  // namespace
}  // namespace marsit
