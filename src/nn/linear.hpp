// Fully connected layer: y = x·Wᵀ + b, W stored (out×in) row-major.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace marsit {

class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features,
         bool with_bias = true);

  std::string name() const override;
  std::size_t in_size() const override { return in_; }
  std::size_t out_size() const override { return out_; }

  void forward(std::span<const float> x, std::size_t batch,
               std::span<float> y) override;
  void backward(std::span<const float> dy, std::size_t batch,
                std::span<float> dx, float grad_scale = 1.0f) override;

  /// [W | b]: W (out×in) row-major, then b.
  std::size_t param_count() const override {
    return in_ * out_ + (with_bias_ ? out_ : 0);
  }

  /// He-uniform fan-in initialization (times init_scale); bias zero.
  void init(Rng& rng) override;

  /// Multiplies the init() draw — classifier heads on deep unnormalized
  /// nets use a small scale (e.g. 0.1) so initial logits stay near zero and
  /// the first gradients don't blow up momentum.
  void set_init_scale(float scale) { init_scale_ = scale; }

  double forward_macs_per_sample() const override {
    return static_cast<double>(in_) * static_cast<double>(out_);
  }

  std::span<float> weights() { return params().first(in_ * out_); }
  std::span<float> bias() { return params().subspan(in_ * out_); }

 private:
  std::size_t in_;
  std::size_t out_;
  bool with_bias_;
  float init_scale_ = 1.0f;
  Tensor cached_input_;
};

}  // namespace marsit
