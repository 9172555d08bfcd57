#include "nn/embedding.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

Embedding::Embedding(std::size_t vocab_size, std::size_t dim,
                     std::size_t seq_len)
    : vocab_(vocab_size), dim_(dim), seq_len_(seq_len) {
  MARSIT_CHECK(vocab_ > 0 && dim_ > 0 && seq_len_ > 0)
      << "degenerate embedding";
}

std::string Embedding::name() const {
  return "Embedding(" + std::to_string(vocab_) + "x" + std::to_string(dim_) +
         ")";
}

void Embedding::forward(std::span<const float> x, std::size_t batch,
                        std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * seq_len_) << "embedding forward: x extent";
  MARSIT_CHECK(y.size() == batch * seq_len_ * dim_)
      << "embedding forward: y extent";
  check_bound();
  const auto table = params();
  cached_ids_.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto id = static_cast<std::size_t>(x[i]);
    MARSIT_CHECK(x[i] >= 0.0f && id < vocab_)
        << "token id " << x[i] << " outside vocab " << vocab_;
    cached_ids_[i] = id;
    copy_into(table.subspan(id * dim_, dim_), y.subspan(i * dim_, dim_));
  }
}

void Embedding::backward(std::span<const float> dy, std::size_t batch,
                         std::span<float> dx, float grad_scale) {
  MARSIT_CHECK(dy.size() == batch * seq_len_ * dim_)
      << "embedding backward: dy extent";
  MARSIT_CHECK(dx.empty() || dx.size() == batch * seq_len_)
      << "embedding backward: dx extent";
  MARSIT_CHECK(cached_ids_.size() == batch * seq_len_)
      << "embedding backward without matching forward";
  zero(dx);  // ids carry no gradient
  const auto grad = grads();
  zero(grad);
  for (std::size_t i = 0; i < cached_ids_.size(); ++i) {
    axpy(1.0f, dy.subspan(i * dim_, dim_),
         grad.subspan(cached_ids_[i] * dim_, dim_));
  }
  if (grad_scale != 1.0f) {
    scale(grad, grad_scale);
  }
}

void Embedding::init(Rng& rng) {
  check_bound();
  fill_normal(params(), rng, 0.0f,
              1.0f / std::sqrt(static_cast<float>(dim_)));
}

MeanPool::MeanPool(std::size_t seq_len, std::size_t dim)
    : seq_len_(seq_len), dim_(dim) {
  MARSIT_CHECK(seq_len_ > 0 && dim_ > 0) << "degenerate mean pool";
}

void MeanPool::forward(std::span<const float> x, std::size_t batch,
                       std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * in_size()) << "meanpool forward: x extent";
  MARSIT_CHECK(y.size() == batch * dim_) << "meanpool forward: y extent";
  const float inv = 1.0f / static_cast<float>(seq_len_);
  zero(y);
  for (std::size_t n = 0; n < batch; ++n) {
    auto out = y.subspan(n * dim_, dim_);
    for (std::size_t t = 0; t < seq_len_; ++t) {
      axpy(inv, x.subspan(n * in_size() + t * dim_, dim_), out);
    }
  }
}

void MeanPool::backward(std::span<const float> dy, std::size_t batch,
                        std::span<float> dx, float /*grad_scale*/) {
  MARSIT_CHECK(dy.size() == batch * dim_) << "meanpool backward: dy extent";
  MARSIT_CHECK(dx.empty() || dx.size() == batch * in_size())
      << "meanpool backward: dx extent";
  if (dx.empty()) {
    return;
  }
  const float inv = 1.0f / static_cast<float>(seq_len_);
  for (std::size_t n = 0; n < batch; ++n) {
    auto g = dy.subspan(n * dim_, dim_);
    for (std::size_t t = 0; t < seq_len_; ++t) {
      auto slice = dx.subspan(n * in_size() + t * dim_, dim_);
      for (std::size_t i = 0; i < dim_; ++i) {
        slice[i] = g[i] * inv;
      }
    }
  }
}

}  // namespace marsit
