// Parameter-free layers: ReLU and Flatten.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace marsit {

class Relu final : public Layer {
 public:
  explicit Relu(std::size_t size);

  std::string name() const override { return "ReLU"; }
  std::size_t in_size() const override { return size_; }
  std::size_t out_size() const override { return size_; }

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx, float grad_scale = 1.0f) override;

 private:
  std::size_t size_;
  Tensor mask_;  // 1 where x > 0, cached from forward
};

/// Shape adapter: per-sample size is unchanged, data passes through; exists
/// so model definitions read like their PyTorch counterparts.
class Flatten final : public Layer {
 public:
  explicit Flatten(std::size_t size);

  std::string name() const override { return "Flatten"; }
  std::size_t in_size() const override { return size_; }
  std::size_t out_size() const override { return size_; }

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx, float grad_scale = 1.0f) override;

 private:
  std::size_t size_;
};

}  // namespace marsit
