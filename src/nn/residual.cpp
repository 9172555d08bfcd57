#include "nn/residual.hpp"

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

ResidualConvBlock::ResidualConvBlock(ImageDims dims)
    : dims_(dims),
      conv1_(dims, dims.channels, /*kernel=*/3, /*stride=*/1, /*padding=*/1),
      conv2_(dims, dims.channels, /*kernel=*/3, /*stride=*/1, /*padding=*/1) {
  MARSIT_CHECK(conv1_.out_size() == dims_.size())
      << "residual body must preserve shape";
}

std::string ResidualConvBlock::name() const {
  return "ResidualBlock(" + std::to_string(dims_.channels) + "x" +
         std::to_string(dims_.height) + "x" + std::to_string(dims_.width) +
         ")";
}

void ResidualConvBlock::forward(std::span<const float> x, std::size_t batch,
                                std::span<float> y) {
  const std::size_t elems = batch * dims_.size();
  MARSIT_CHECK(x.size() == elems && y.size() == elems)
      << "residual forward extent mismatch";
  if (mid_.size() != elems) {
    mid_ = Tensor(elems);
    mid_relu_ = Tensor(elems);
    body_out_ = Tensor(elems);
    out_mask_ = Tensor(elems);
  }

  conv1_.forward(x, batch, mid_.span());
  auto mid = mid_.span();
  auto mid_relu = mid_relu_.span();
  for (std::size_t i = 0; i < elems; ++i) {
    mid_relu[i] = mid[i] > 0.0f ? mid[i] : 0.0f;
  }
  conv2_.forward(mid_relu, batch, body_out_.span());

  auto body = body_out_.span();
  auto mask = out_mask_.span();
  for (std::size_t i = 0; i < elems; ++i) {
    const float pre = body[i] + x[i];
    const bool active = pre > 0.0f;
    mask[i] = active ? 1.0f : 0.0f;
    y[i] = active ? pre : 0.0f;
  }
}

void ResidualConvBlock::backward(std::span<const float> dy, std::size_t batch,
                                 std::span<float> dx, float grad_scale) {
  const std::size_t elems = batch * dims_.size();
  MARSIT_CHECK(dy.size() == elems && (dx.empty() || dx.size() == elems))
      << "residual backward extent mismatch";
  MARSIT_CHECK(out_mask_.size() == elems)
      << "residual backward without matching forward";
  if (scratch_.size() != 2 * elems) {
    scratch_ = Tensor(2 * elems);
  }
  auto d_pre = scratch_.span().subspan(0, elems);      // d(body + x)
  auto d_mid = scratch_.span().subspan(elems, elems);  // grads through body

  hadamard(dy, out_mask_.span(), d_pre);

  // Body branch: conv2 backward → ReLU mask on mid → conv1 backward.
  conv2_.backward(d_pre, batch, d_mid, grad_scale);
  auto mid = mid_.span();
  for (std::size_t i = 0; i < elems; ++i) {
    if (mid[i] <= 0.0f) {
      d_mid[i] = 0.0f;
    }
  }
  conv1_.backward(d_mid, batch, dx, grad_scale);

  // Skip branch adds d_pre directly.
  if (!dx.empty()) {
    axpy(1.0f, d_pre, dx);
  }
}

void ResidualConvBlock::bind(std::span<float> params,
                             std::span<float> grads) {
  Layer::bind(params, grads);
  const std::size_t first = conv1_.param_count();
  conv1_.bind(params.first(first), grads.first(first));
  conv2_.bind(params.subspan(first), grads.subspan(first));
}

void ResidualConvBlock::init(Rng& rng) {
  conv1_.init(rng);
  // Fixup-style initialization: the block's second conv starts at zero so
  // the block computes ReLU(x) at initialization.  Without normalization
  // layers, He-initialized residual stacks amplify activations by ~√2 per
  // block and diverge within a few steps; zero-initialized branches keep
  // the forward signal bounded at any depth.
  conv2_.init(rng);
  zero(conv2_.params());
}

}  // namespace marsit
