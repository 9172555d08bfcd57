// Property sweep: Conv2d forward/backward against a brute-force reference
// over a grid of geometries (channels × spatial × kernel × stride ×
// padding).  Complements nn_gradcheck_test with exact-value checks — the
// im2col + GEMM implementation must match the definition of convolution,
// not merely have consistent gradients.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "nn/conv.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "layer_storage.hpp"

namespace marsit {
namespace {

/// Direct (definition) convolution for reference.
void reference_conv(const std::vector<float>& x, const std::vector<float>& w,
                    const std::vector<float>& bias, std::vector<float>& y,
                    std::size_t batch, ImageDims in, std::size_t out_ch,
                    std::size_t k, std::size_t stride, std::size_t pad,
                    ImageDims out) {
  const std::size_t in_plane = in.height * in.width;
  const std::size_t out_plane = out.height * out.width;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      for (std::size_t oy = 0; oy < out.height; ++oy) {
        for (std::size_t ox = 0; ox < out.width; ++ox) {
          double acc = bias[oc];
          for (std::size_t ic = 0; ic < in.channels; ++ic) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * stride + ky) -
                    static_cast<std::ptrdiff_t>(pad);
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (iy < 0 || ix < 0 ||
                    iy >= static_cast<std::ptrdiff_t>(in.height) ||
                    ix >= static_cast<std::ptrdiff_t>(in.width)) {
                  continue;
                }
                acc += static_cast<double>(
                           x[n * in.size() + ic * in_plane +
                             static_cast<std::size_t>(iy) * in.width +
                             static_cast<std::size_t>(ix)]) *
                       static_cast<double>(
                           w[((oc * in.channels + ic) * k + ky) * k + kx]);
              }
            }
          }
          y[n * out_ch * out_plane + oc * out_plane + oy * out.width + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
}

// (channels, height, width, out_channels, kernel, stride, padding)
using Geometry =
    std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
               std::size_t, std::size_t, std::size_t>;

class ConvSweepTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(ConvSweepTest, ForwardMatchesDefinition) {
  const auto [c, h, w, oc, k, s, p] = GetParam();
  const ImageDims in{c, h, w};
  Conv2d conv(in, oc, k, s, p);
  LayerStorage storage(conv);
  Rng rng(1000 + c * 31 + h * 7 + k);
  conv.init(rng);

  const std::size_t batch = 2;
  std::vector<float> x(batch * in.size());
  fill_normal({x.data(), x.size()}, rng, 0.0f, 1.0f);

  std::vector<float> y(batch * conv.out_size());
  conv.forward({x.data(), x.size()}, batch, {y.data(), y.size()});

  std::vector<float> weights(conv.params().begin(), conv.params().end());
  const std::size_t weight_count = oc * c * k * k;
  std::vector<float> kernel(weights.begin(), weights.begin() + weight_count);
  std::vector<float> bias(weights.begin() + weight_count, weights.end());
  std::vector<float> expected(y.size());
  reference_conv(x, kernel, bias, expected, batch, in, oc, k, s, p,
                 conv.out_dims());

  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y[i], expected[i], 1e-3f) << "output " << i;
  }
}

TEST_P(ConvSweepTest, BackwardInputGradientMatchesTransposedForward) {
  // For a linear operator, <y, C(x)> must equal <Cᵀ(y), x> for all x, y —
  // the adjoint identity that ties backward to forward without finite
  // differences (exact up to float rounding).
  const auto [c, h, w, oc, k, s, p] = GetParam();
  const ImageDims in{c, h, w};
  Conv2d conv(in, oc, k, s, p);
  LayerStorage storage(conv);
  Rng rng(2000 + c * 31 + h * 7 + k);
  conv.init(rng);
  // Remove the bias so the map is purely linear.
  auto params = conv.params();
  for (std::size_t i = oc * c * k * k; i < params.size(); ++i) {
    params[i] = 0.0f;
  }

  const std::size_t batch = 1;
  std::vector<float> x(in.size());
  fill_normal({x.data(), x.size()}, rng, 0.0f, 1.0f);
  std::vector<float> y(conv.out_size());
  conv.forward({x.data(), x.size()}, batch, {y.data(), y.size()});

  std::vector<float> probe(conv.out_size());
  fill_normal({probe.data(), probe.size()}, rng, 0.0f, 1.0f);
  std::vector<float> dx(in.size());
  conv.backward({probe.data(), probe.size()}, batch, {dx.data(), dx.size()});

  const float lhs = dot({y.data(), y.size()}, {probe.data(), probe.size()});
  const float rhs = dot({dx.data(), dx.size()}, {x.data(), x.size()});
  EXPECT_NEAR(lhs, rhs, 1e-2f + 1e-3f * std::abs(lhs));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweepTest,
    ::testing::Values(Geometry{1, 4, 4, 1, 1, 1, 0},
                      Geometry{1, 5, 5, 2, 3, 1, 0},
                      Geometry{2, 5, 5, 3, 3, 1, 1},
                      Geometry{3, 6, 6, 2, 3, 2, 1},
                      Geometry{2, 7, 5, 4, 3, 2, 0},
                      Geometry{1, 8, 8, 2, 5, 1, 2},
                      Geometry{4, 4, 4, 4, 3, 1, 1},
                      Geometry{2, 9, 9, 2, 3, 3, 1}));

}  // namespace
}  // namespace marsit
