// Dense float32 tensor.
//
// Everything marsit trains or transmits is float32 (matching the paper's
// "single float precision, 32 bits" framing), stored flat.  All numeric
// kernels operate on flat spans (tensor/ops.hpp); no layer reads a shape.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace marsit {

class Tensor {
 public:
  /// Empty tensor (size 0).
  Tensor() = default;

  /// `size` zeros.
  explicit Tensor(std::size_t size) : data_(size, 0.0f) {}

  /// Explicit values; a braced list of integers is values too.
  Tensor(std::initializer_list<float> values) : data_(values) {}

  static Tensor from_vector(std::vector<float> values);

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  void fill(float value);
  void zero() { fill(0.0f); }

 private:
  std::vector<float> data_;
};

}  // namespace marsit
