#include "nn/linear.hpp"

#include <algorithm>
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

namespace {

/// db = s·Σ_rows dy(b×out), scaled once the sum is finished.
void bias_gradient(std::span<const float> dy, std::size_t batch,
                   float grad_scale, std::span<float> db) {
  const std::size_t out = db.size();
  zero(db);
  for (std::size_t row = 0; row < batch; ++row) {
    axpy(1.0f, dy.subspan(row * out, out), db);
  }
  if (grad_scale != 1.0f) {
    scale(db, grad_scale);
  }
}

}  // namespace

void Linear::check_backward(std::span<const float> dy, std::size_t batch,
                            std::span<float> dx) const {
  MARSIT_CHECK(dy.size() == batch * out_) << "linear backward: dy extent";
  MARSIT_CHECK(dx.empty() || dx.size() == batch * in_)
      << "linear backward: dx extent";
  MARSIT_CHECK(cached_input_.size() == batch * in_)
      << "linear backward without matching forward";
}

void Linear::backward(std::span<const float> dy, std::size_t batch,
                      std::span<float> dx, float grad_scale) {
  check_backward(dy, batch, dx);

  // dW(out×in) = s·(dyᵀ(out×b) · x(b×in)), each row scaled as it is stored.
  auto dw = grads().first(in_ * out_);
  matmul_at_b(dy, cached_input_.span(), dw, out_, batch, in_, 0.0f,
              grad_scale);

  if (with_bias_) {
    bias_gradient(dy, batch, grad_scale, grads().subspan(in_ * out_));
  }

  if (!dx.empty()) {
    // dx(b×in) = dy(b×out) · W(out×in)
    matmul(dy, weights(), dx, batch, out_, in_);
  }
}

void Linear::backward_to_sink(std::span<const float> dy, std::size_t batch,
                              std::span<float> dx, float grad_scale,
                              const GradientSink& sink) {
  check_backward(dy, batch, dx);
  if (dy_column_.size() != batch) {
    dy_column_ = Tensor(batch);
  }
  if (grad_row_.size() != std::max(in_, out_)) {
    grad_row_ = Tensor(std::max(in_, out_));
  }

  // Row i of dW is matmul_at_b over column i of dy alone (m = 1): the terms
  // of row i of the whole product in the same order, so the same bytes.
  const std::span<float> row = grad_row_.span().first(in_);
  for (std::size_t i = 0; i < out_; ++i) {
    for (std::size_t p = 0; p < batch; ++p) {
      dy_column_[p] = dy[p * out_ + i];
    }
    matmul_at_b(dy_column_.span(), cached_input_.span(), row, 1, batch, in_,
                0.0f, grad_scale);
    sink(i * in_, row);
  }

  if (with_bias_) {
    const std::span<float> db = grad_row_.span().first(out_);
    bias_gradient(dy, batch, grad_scale, db);
    sink(in_ * out_, db);
  }

  if (!dx.empty()) {
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
