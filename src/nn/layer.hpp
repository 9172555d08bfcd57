// Layer abstraction for the mini neural-network library.
//
// Layout conventions:
//  * activations are flat row-major float spans, batch-first: a layer with
//    per-sample input size I receives batch·I floats;
//  * forward() caches whatever it needs (usually its input) so the
//    immediately following backward() on the same batch can run;
//  * backward() writes dL/dx and *writes* the parameter gradients of the
//    cached batch: whatever grads() held before is overwritten, so a step
//    needs no zero_grads().  An empty dx means nobody reads dL/dx (the
//    model's first layer); the layer then skips that work.
//
// Each simulated worker owns a full model replica, so layers need no
// thread-safety: concurrency lives one level up (one replica per pool
// thread).
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "util/rng.hpp"

namespace marsit {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Per-sample input/output element counts.
  virtual std::size_t in_size() const = 0;
  virtual std::size_t out_size() const = 0;

  /// y = f(x); x has batch·in_size() elements, y batch·out_size().
  virtual void forward(std::span<const float> x, std::size_t batch,
                       std::span<float> y) = 0;

  /// dx = ∂L/∂x given dy = ∂L/∂y for the cached batch, and grads() = ∂L/∂θ
  /// for that batch, written, not added.  dx is batch·in_size() floats, or
  /// empty when the caller does not want it.
  virtual void backward(std::span<const float> dy, std::size_t batch,
                        std::span<float> dx) = 0;

  /// Flat views of trainable parameters and their gradient accumulators
  /// (empty for parameter-free layers).  Extents always match.
  virtual std::span<float> params() { return {}; }
  virtual std::span<const float> params() const { return {}; }
  virtual std::span<float> grads() { return {}; }

  std::size_t param_count() const { return params().size(); }

  virtual void zero_grads();

  /// Draws initial parameter values (He/Xavier as appropriate); layers with
  /// no parameters ignore it.
  virtual void init(Rng& rng);

  /// Multiply-accumulate count of one forward pass on one sample (0 for
  /// cheap elementwise layers).  Feeds the simulated compute cost:
  /// forward+backward ≈ 3× forward, 2 flops per MAC.
  virtual double forward_macs_per_sample() const { return 0.0; }
};

}  // namespace marsit
