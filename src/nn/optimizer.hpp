// Worker-local optimizers.
//
// In the paper's setup every worker transforms its raw stochastic gradient
// with a local optimizer (Momentum for the image tasks, Adam for sentiment)
// before the synchronization framework aggregates the result (Algorithm 2
// feeds η_l·g into Marsit; the same pattern applies to the baselines).
// LocalOptimizer captures that: transform(grad, η_l) overwrites the
// gradient with u = η_l · direction, keeping per-worker state (velocity /
// moments) across rounds.  The *global* stepsize is owned by the sync
// strategy / trainer, not here.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "ckpt/snapshot.hpp"
#include "tensor/tensor.hpp"

namespace marsit {

class LocalOptimizer {
 public:
  virtual ~LocalOptimizer() = default;
  virtual std::string name() const = 0;
  /// Overwrites this round's gradient with u = η_l · direction, the
  /// direction rounded to float before the one float multiply by `eta_l`.
  virtual void transform(std::span<float> grad, float eta_l) = 0;

  /// True when direction = grad, so u = η_l·g: the local step then has the
  /// backward write u at gradient scale η_l and skips transform, unless it
  /// must clip the raw gradient first.
  virtual bool direction_is_gradient() const { return false; }

  /// Checkpointing: serializes the cross-round state (velocity, moments,
  /// step counter) so a resumed run continues bit-identically.  Stateless
  /// optimizers write/read nothing.  load_state must be paired with the same
  /// optimizer kind that produced the bytes (the trainer checks names).
  virtual void save_state(ckpt::SnapshotWriter& writer) const;
  virtual void load_state(ckpt::SnapshotReader& reader);
};

/// Plain SGD: direction = grad.
class SgdOptimizer final : public LocalOptimizer {
 public:
  std::string name() const override { return "SGD"; }
  void transform(std::span<float> grad, float eta_l) override;
  bool direction_is_gradient() const override { return true; }
};

/// Heavy-ball momentum: v ← μ·v + grad; direction = v.
class MomentumOptimizer final : public LocalOptimizer {
 public:
  explicit MomentumOptimizer(float mu = 0.9f);
  std::string name() const override { return "Momentum"; }
  void transform(std::span<float> grad, float eta_l) override;
  void save_state(ckpt::SnapshotWriter& writer) const override;
  void load_state(ckpt::SnapshotReader& reader) override;

 private:
  float mu_;
  Tensor velocity_;
};

/// Adam with bias correction; direction = m̂ / (√v̂ + ε).
class AdamOptimizer final : public LocalOptimizer {
 public:
  AdamOptimizer(float beta1 = 0.9f, float beta2 = 0.999f,
                float epsilon = 1e-8f);
  std::string name() const override { return "Adam"; }
  void transform(std::span<float> grad, float eta_l) override;
  void save_state(ckpt::SnapshotWriter& writer) const override;
  void load_state(ckpt::SnapshotReader& reader) override;

 private:
  float beta1_;
  float beta2_;
  float epsilon_;
  std::size_t step_ = 0;
  Tensor m_;
  Tensor v_;
};

enum class OptimizerKind { kSgd, kMomentum, kAdam };

std::unique_ptr<LocalOptimizer> make_optimizer(OptimizerKind kind);

}  // namespace marsit
