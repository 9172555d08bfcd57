// Sequential model container: owns a layer stack and the model's two flat
// buffers, the parameter vector x and its gradient, which every layer views
// through Layer::bind.  x is the vector the synchronization strategies
// update; bind_params points a model at a parameter vector it does not
// own, so several models can share one (DESIGN.md §5).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace marsit {

class Sequential {
 public:
  /// Takes the whole layer stack, first layer first; each layer's in_size
  /// must match the previous layer's out_size.  Allocates the gradient
  /// buffer at its final size.
  explicit Sequential(std::vector<std::unique_ptr<Layer>> layers);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  std::size_t num_layers() const { return layers_.size(); }
  std::size_t in_size() const;
  std::size_t out_size() const;

  /// Total trainable parameter count D — the gradient dimension every
  /// synchronization strategy sees.
  std::size_t param_count() const { return param_count_; }

  /// Initializes every layer, in order, from one RNG (models initialized
  /// from the same seed are bit-identical).  A composite layer initializes
  /// its parts itself.
  void init(Rng& rng);

  /// Forward pass; returns the output activations (batch × out_size),
  /// valid until the next forward call.
  std::span<const float> forward(std::span<const float> x, std::size_t batch);

  /// Backward from dL/d(output); every layer writes its parameter
  /// gradients for this batch, times `grad_scale` (Layer::backward).  The
  /// model input's gradient is not computed.  Must follow a forward() with
  /// the same batch.
  void backward(std::span<const float> dy, std::size_t batch,
                float grad_scale = 1.0f);

  /// Sets every parameter gradient to +0.0.  backward() overwrites them, so
  /// a training step does not need it.
  void zero_grads();

  /// The parameter vector x and its gradient, param_count() floats each:
  /// every layer's parameters in layer order.  Unless bind_params came
  /// first, the first call that needs x allocates the model's own.
  std::span<float> params();
  std::span<float> grads() { return grads_.span(); }
  std::span<const float> grads() const { return grads_.span(); }

  /// Points the model's parameters at `params` (param_count() floats the
  /// caller owns and keeps alive) without copying; the gradients stay the
  /// model's own.  A model bound before first use never allocates
  /// parameters of its own.
  void bind_params(std::span<float> params);

  /// Applies the global update: params ← params − delta.
  void apply_update(std::span<const float> delta);

  /// Multi-line human-readable structure summary.
  std::string describe() const;

  /// Estimated flops of one forward+backward pass per sample — feeds the
  /// compute term of the simulated cost model (≈ 6 flops per weight per
  /// sample, the standard estimate).
  double flops_per_sample() const;

 private:
  /// Binds the model's own parameter buffer unless it is bound already.
  void bind_storage();

  std::vector<std::unique_ptr<Layer>> layers_;
  std::size_t param_count_ = 0;
  Tensor own_params_;                // empty while bound elsewhere
  Tensor grads_;
  std::span<float> params_;          // own_params_ or a bind_params span
  std::vector<Tensor> activations_;  // per-layer outputs
  Tensor dx_scratch_[2];             // backward's ping-pong dx buffers
  std::size_t last_batch_ = 0;
};

}  // namespace marsit
