// Sequential model container: owns a layer stack, runs forward/backward,
// and exposes the flattened parameter/gradient vector that the
// synchronization strategies operate on.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace marsit {

/// A layer that contains other layers advertises them through this hook so
/// Sequential can reach every parameter-bearing leaf (used by
/// ResidualConvBlock).
class CompositeLayer : public Layer {
 public:
  virtual void collect_leaves(std::vector<Layer*>& out) = 0;
};

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer; its in_size must match the current out_size.
  void add(std::unique_ptr<Layer> layer);

  std::size_t num_layers() const { return layers_.size(); }
  std::size_t in_size() const;
  std::size_t out_size() const;

  /// Total trainable parameter count D — the gradient dimension every
  /// synchronization strategy sees.
  std::size_t param_count() const;

  /// Initializes every layer from one RNG (replicas constructed with the
  /// same seed are bit-identical — the consistent-replica invariant).
  void init(Rng& rng);

  /// Forward pass; returns the output activations (batch × out_size),
  /// valid until the next forward call.
  std::span<const float> forward(std::span<const float> x, std::size_t batch);

  /// Backward from dL/d(output); every layer writes its parameter
  /// gradients for this batch.  The model input's gradient is not computed.
  /// Must follow a forward() with the same batch.
  void backward(std::span<const float> dy, std::size_t batch);

  /// Sets every parameter gradient to +0.0.  backward() overwrites them, so
  /// a training step does not need it.
  void zero_grads();

  /// Serializes all parameter gradients into `out` (extent = param_count()).
  void copy_grads_into(std::span<float> out) const;

  /// Serializes all parameters into `out`.
  void copy_params_into(std::span<float> out) const;

  /// Loads parameters from a flat vector (inverse of copy_params_into).
  void load_params(std::span<const float> params);

  /// Applies the global update: params ← params − delta.
  void apply_update(std::span<const float> delta);

  /// Multi-line human-readable structure summary.
  std::string describe() const;

  /// Estimated flops of one forward+backward pass per sample — feeds the
  /// compute term of the simulated cost model (≈ 6 flops per weight per
  /// sample, the standard estimate).
  double flops_per_sample() const;

 private:
  std::vector<Layer*> leaves() const;

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Tensor> activations_;   // per-layer outputs
  Tensor input_grad_;                 // scratch for the deepest dx
  std::size_t last_batch_ = 0;
};

}  // namespace marsit
