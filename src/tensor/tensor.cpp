#include "tensor/tensor.hpp"

#include <algorithm>
#include <utility>

namespace marsit {

Tensor Tensor::from_vector(std::vector<float> values) {
  Tensor t;
  t.data_ = std::move(values);
  return t;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace marsit
