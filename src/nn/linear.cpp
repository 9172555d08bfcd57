#include "nn/linear.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               bool with_bias)
    : in_(in_features), out_(out_features), with_bias_(with_bias) {
  MARSIT_CHECK(in_ > 0 && out_ > 0) << "degenerate linear layer";
}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

void Linear::forward(std::span<const float> x, std::size_t batch,
                     std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * in_) << "linear forward: x extent";
  MARSIT_CHECK(y.size() == batch * out_) << "linear forward: y extent";
  check_bound();
  if (cached_input_.size() != x.size()) {
    cached_input_ = Tensor(x.size());
  }
  copy_into(x, cached_input_.span());

  // y(b×out) = x(b×in) · Wᵀ, W stored (out×in).
  matmul_a_bt(x, weights(), y, batch, in_, out_);
  if (with_bias_) {
    auto b = bias();
    for (std::size_t row = 0; row < batch; ++row) {
      axpy(1.0f, b, y.subspan(row * out_, out_));
    }
  }
}

void Linear::backward(std::span<const float> dy, std::size_t batch,
                      std::span<float> dx, float grad_scale) {
  MARSIT_CHECK(dy.size() == batch * out_) << "linear backward: dy extent";
  MARSIT_CHECK(dx.empty() || dx.size() == batch * in_)
      << "linear backward: dx extent";
  MARSIT_CHECK(cached_input_.size() == batch * in_)
      << "linear backward without matching forward";

  // dW(out×in) = s·(dyᵀ(out×b) · x(b×in)), each row scaled as it is stored.
  auto dw = grads().first(in_ * out_);
  matmul_at_b(dy, cached_input_.span(), dw, out_, batch, in_, 0.0f,
              grad_scale);

  if (with_bias_) {
    auto db = grads().subspan(in_ * out_);
    zero(db);
    for (std::size_t row = 0; row < batch; ++row) {
      axpy(1.0f, dy.subspan(row * out_, out_), db);
    }
    if (grad_scale != 1.0f) {
      scale(db, grad_scale);
    }
  }

  if (!dx.empty()) {
    // dx(b×in) = dy(b×out) · W(out×in)
    matmul(dy, weights(), dx, batch, out_, in_);
  }
}

void Linear::init(Rng& rng) {
  check_bound();
  const float bound =
      init_scale_ * std::sqrt(6.0f / static_cast<float>(in_));
  fill_uniform(weights(), rng, -bound, bound);
  zero(bias());
}

}  // namespace marsit
