// 2-D convolution and pooling layers (NCHW layout, square kernels).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace marsit {

/// Spatial geometry of a conv/pool input.  Layers are constructed against a
/// fixed geometry (the mini models all run on fixed-size synthetic images).
struct ImageDims {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;

  std::size_t size() const { return channels * height * width; }
};

class Conv2d final : public Layer {
 public:
  Conv2d(ImageDims in, std::size_t out_channels, std::size_t kernel,
         std::size_t stride = 1, std::size_t padding = 0);

  std::string name() const override;
  std::size_t in_size() const override { return in_.size(); }
  std::size_t out_size() const override { return out_dims().size(); }

  ImageDims out_dims() const;

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx, float grad_scale = 1.0f) override;

  /// [W(oc,ic,k,k) | b(oc)].
  std::size_t param_count() const override {
    return weight_count_ + out_channels_;
  }

  void init(Rng& rng) override;

  double forward_macs_per_sample() const override {
    const ImageDims out = out_dims();
    return static_cast<double>(out.size()) *
           static_cast<double>(in_.channels * kernel_ * kernel_);
  }

 private:
  std::span<float> weights() { return params().first(weight_count_); }
  std::span<float> bias() { return params().subspan(weight_count_); }

  /// Expands one sample into patch rows; see forward() for the layout.
  void im2col(const float* x_n, float* cols) const;
  /// Scatter-adds patch-row gradients back to one sample's input image.
  void col2im(const float* cols, float* dx_n) const;

  ImageDims in_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;
  std::size_t weight_count_;
  Tensor cached_cols_;   // im2col image cached by forward for backward
  Tensor dcols_;         // backward's per-sample patch gradient
  std::size_t cached_batch_ = 0;
};

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(ImageDims in, std::size_t kernel, std::size_t stride = 0);

  std::string name() const override;
  std::size_t in_size() const override { return in_.size(); }
  std::size_t out_size() const override { return out_dims().size(); }

  ImageDims out_dims() const;

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx, float grad_scale = 1.0f) override;

 private:
  ImageDims in_;
  std::size_t kernel_;
  std::size_t stride_;
  std::vector<std::size_t> argmax_;  // flat input index of each output max
};

/// Averages each channel over its spatial extent: (C,H,W) → (C).
class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(ImageDims in);

  std::string name() const override { return "GlobalAvgPool"; }
  std::size_t in_size() const override { return in_.size(); }
  std::size_t out_size() const override { return in_.channels; }

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx, float grad_scale = 1.0f) override;

 private:
  ImageDims in_;
};

}  // namespace marsit
