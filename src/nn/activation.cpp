#include "nn/activation.hpp"

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

Relu::Relu(std::size_t size) : size_(size) {
  MARSIT_CHECK(size_ > 0) << "degenerate ReLU";
}

void Relu::forward(std::span<const float> x, std::size_t batch,
                   std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * size_ && y.size() == x.size())
      << "ReLU extent mismatch";
  if (mask_.size() != x.size()) {
    mask_ = Tensor(x.size());
  }
  auto mask = mask_.span();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool active = x[i] > 0.0f;
    mask[i] = active ? 1.0f : 0.0f;
    y[i] = active ? x[i] : 0.0f;
  }
}

void Relu::backward(std::span<const float> dy, std::size_t batch,
                    std::span<float> dx, float /*grad_scale*/) {
  MARSIT_CHECK(dy.size() == batch * size_ &&
               (dx.empty() || dx.size() == dy.size()))
      << "ReLU backward extent mismatch";
  MARSIT_CHECK(mask_.size() == dy.size())
      << "ReLU backward without matching forward";
  if (dx.empty()) {
    return;
  }
  hadamard(dy, mask_.span(), dx);
}

Flatten::Flatten(std::size_t size) : size_(size) {
  MARSIT_CHECK(size_ > 0) << "degenerate Flatten";
}

void Flatten::forward(std::span<const float> x, std::size_t batch,
                      std::span<float> y) {
  MARSIT_CHECK(x.size() == batch * size_ && y.size() == x.size())
      << "Flatten extent mismatch";
  copy_into(x, y);
}

void Flatten::backward(std::span<const float> dy, std::size_t batch,
                       std::span<float> dx, float /*grad_scale*/) {
  MARSIT_CHECK(dy.size() == batch * size_ &&
               (dx.empty() || dx.size() == dy.size()))
      << "Flatten backward extent mismatch";
  if (dx.empty()) {
    return;
  }
  copy_into(dy, dx);
}

}  // namespace marsit
