// Basic residual convolution block (He et al.): y = ReLU(F(x) + x) with
// F = conv3x3 → ReLU → conv3x3, shape-preserving.  The ResNetMini models
// (the paper's ResNet-20/18/50 stand-ins) stack these between downsampling
// convs.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "nn/conv.hpp"
#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace marsit {

class ResidualConvBlock final : public Layer {
 public:
  explicit ResidualConvBlock(ImageDims dims);

  std::string name() const override;
  std::size_t in_size() const override { return dims_.size(); }
  std::size_t out_size() const override { return dims_.size(); }

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx, float grad_scale = 1.0f) override;

  std::size_t param_count() const override {
    return conv1_.param_count() + conv2_.param_count();
  }
  /// conv1's parameters, then conv2's.
  void bind(std::span<float> params, std::span<float> grads) override;

  void init(Rng& rng) override;

  double forward_macs_per_sample() const override {
    return conv1_.forward_macs_per_sample() +
           conv2_.forward_macs_per_sample();
  }

 private:
  ImageDims dims_;
  Conv2d conv1_;
  Conv2d conv2_;
  Tensor mid_;        // conv1 output (pre-ReLU)
  Tensor mid_relu_;   // ReLU(conv1 output)
  Tensor body_out_;   // conv2 output
  Tensor out_mask_;   // final ReLU mask
  Tensor scratch_;    // backward intermediates
};

}  // namespace marsit
