// Layer abstraction for the mini neural-network library.
//
// Layout conventions:
//  * activations are flat row-major float spans, batch-first: a layer with
//    per-sample input size I receives batch·I floats;
//  * forward() caches whatever it needs (usually its input) so the
//    immediately following backward() on the same batch can run;
//  * backward() writes dL/dx and *writes* the parameter gradients of the
//    cached batch: whatever grads() held before is overwritten, so a step
//    needs no zeroing pass.  An empty dx means nobody reads dL/dx (the
//    model's first layer); the layer then skips that work.
//  * backward() takes a gradient scale s and writes fl(s·∂L/∂θ): it
//    multiplies each finished gradient sum by s, never a term of it, so the
//    bytes equal backward at s = 1 followed by scale(grads(), s).  dx is not
//    scaled.  The local step passes s = η_l for plain SGD, so the gradient
//    buffer receives u = η_l·g with no pass of its own (sim/trainer.hpp).
//  * backward_to_sink() is backward() that hands the parameter gradients to
//    a GradientSink as they finish, instead of leaving them in grads():
//    every parameter element reaches the sink exactly once, as the bytes
//    backward() would write, fl(s·∂L/∂θ), and grads() may be left
//    unwritten.  Linear hands over each dW row while it is still in L1,
//    then its bias; every other layer runs backward() and hands over its
//    grads() whole.  A consumer can so fold the gradient into its own state
//    (Algorithm 1's line 1, dist/worker.hpp) without a model-sized buffer
//    ever holding it.
//
// A layer owns no parameter storage.  It computes param_count() from its
// geometry, and bind() points params() and grads() at param_count() floats
// each of storage someone else owns: Sequential's flat buffers, or a
// test's.  Several models may view one parameter buffer (the trainer's M
// simulated workers do); each keeps its own gradients, activations and
// caches, so a layer needs no thread-safety as long as nothing writes the
// shared parameters while the models run.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>

#include "util/rng.hpp"

namespace marsit {

/// Receives finished parameter gradients: `grads` holds the gradients of
/// the parameters [begin, begin + grads.size()), valid during the call only.
using GradientSink =
    std::function<void(std::size_t begin, std::span<const float> grads)>;

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

  /// dx = ∂L/∂x given dy = ∂L/∂y for the cached batch, and grads() =
  /// grad_scale·∂L/∂θ for that batch, written, not added.  dx is
  /// batch·in_size() floats, or empty when the caller does not want it.
  /// Every override declares the same default.
  virtual void backward(std::span<const float> dy, std::size_t batch,
                        std::span<float> dx, float grad_scale = 1.0f) = 0;

  /// backward(), handing every parameter gradient to `sink` at its index in
  /// params() instead of leaving it in grads() (see the header comment).
  /// dx is written as backward() writes it.  This default runs backward()
  /// and hands grads() over whole.
  virtual void backward_to_sink(std::span<const float> dy, std::size_t batch,
                                std::span<float> dx, float grad_scale,
                                const GradientSink& sink);

  /// Trainable parameter count, from the layer's geometry (0 for
  /// parameter-free layers).
  virtual std::size_t param_count() const { return 0; }

  /// Points params() and grads() at `params` and `grads`, param_count()
  /// floats each, which the caller owns and keeps alive.  A composite
  /// splits them among its parts.
  virtual void bind(std::span<float> params, std::span<float> grads);

  /// The bound parameters and their gradients; empty until bind().
  std::span<float> params() { return params_; }
  std::span<float> grads() { return grads_; }

  /// Draws initial parameter values (He/Xavier as appropriate); layers with
  /// no parameters ignore it.
  virtual void init(Rng& rng);

  /// Multiply-accumulate count of one forward pass on one sample (0 for
  /// cheap elementwise layers).  Feeds the simulated compute cost:
  /// forward+backward ≈ 3× forward, 2 flops per MAC.
  virtual double forward_macs_per_sample() const { return 0.0; }

 protected:
  /// Throws unless bind() gave the layer its param_count() floats.
  void check_bound() const;

 private:
  std::span<float> params_;
  std::span<float> grads_;
};

}  // namespace marsit
