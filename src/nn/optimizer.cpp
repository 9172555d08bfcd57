#include "nn/optimizer.hpp"

#include <cmath>
#include <vector>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

/// Rebuilds a tensor from a length-prefixed float array; an empty array maps
/// to an empty tensor (state not yet materialized when the snapshot was
/// taken — the lazy-sizing path recreates it on the next transform).
Tensor tensor_from_vec(const std::vector<float>& values) {
  Tensor tensor(values.size());
  copy_into(values, tensor.span());
  return tensor;
}

}  // namespace

void LocalOptimizer::save_state(ckpt::SnapshotWriter& /*writer*/) const {}

void LocalOptimizer::load_state(ckpt::SnapshotReader& /*reader*/) {}

void SgdOptimizer::transform(std::span<float> grad, float eta_l) {
  scale(grad, eta_l);
}

MomentumOptimizer::MomentumOptimizer(float mu) : mu_(mu) {
  MARSIT_CHECK(mu_ >= 0.0f && mu_ < 1.0f) << "momentum out of [0,1)";
}

void MomentumOptimizer::transform(std::span<float> grad, float eta_l) {
  if (velocity_.size() != grad.size()) {
    velocity_ = Tensor(grad.size());
  }
  // Two passes, each rounded: one loop would contract μ·v + g into an FMA.
  auto v = velocity_.span();
  scale(v, mu_);
  axpy(1.0f, grad, v);
  scale(v, eta_l, grad);
}

void MomentumOptimizer::save_state(ckpt::SnapshotWriter& writer) const {
  writer.f32_span(velocity_.span());
}

void MomentumOptimizer::load_state(ckpt::SnapshotReader& reader) {
  velocity_ = tensor_from_vec(reader.f32_vec());
}

AdamOptimizer::AdamOptimizer(float beta1, float beta2, float epsilon)
    : beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {
  MARSIT_CHECK(beta1_ >= 0.0f && beta1_ < 1.0f) << "beta1 out of [0,1)";
  MARSIT_CHECK(beta2_ >= 0.0f && beta2_ < 1.0f) << "beta2 out of [0,1)";
  MARSIT_CHECK(epsilon_ > 0.0f) << "epsilon must be positive";
}

void AdamOptimizer::transform(std::span<float> grad, float eta_l) {
  if (m_.size() != grad.size()) {
    m_ = Tensor(grad.size());
    v_ = Tensor(grad.size());
    step_ = 0;
  }
  ++step_;
  auto m = m_.span();
  auto v = v_.span();
  const double bc1 =
      1.0 - std::pow(static_cast<double>(beta1_), static_cast<double>(step_));
  const double bc2 =
      1.0 - std::pow(static_cast<double>(beta2_), static_cast<double>(step_));
  for (std::size_t i = 0; i < grad.size(); ++i) {
    m[i] = beta1_ * m[i] + (1.0f - beta1_) * grad[i];
    v[i] = beta2_ * v[i] + (1.0f - beta2_) * grad[i] * grad[i];
    const double m_hat = static_cast<double>(m[i]) / bc1;
    const double v_hat = static_cast<double>(v[i]) / bc2;
    const auto direction = static_cast<float>(
        m_hat / (std::sqrt(v_hat) + static_cast<double>(epsilon_)));
    grad[i] = eta_l * direction;
  }
}

void AdamOptimizer::save_state(ckpt::SnapshotWriter& writer) const {
  writer.u64(static_cast<std::uint64_t>(step_));
  writer.f32_span(m_.span());
  writer.f32_span(v_.span());
}

void AdamOptimizer::load_state(ckpt::SnapshotReader& reader) {
  step_ = static_cast<std::size_t>(reader.u64());
  m_ = tensor_from_vec(reader.f32_vec());
  v_ = tensor_from_vec(reader.f32_vec());
  MARSIT_CHECK(m_.size() == v_.size())
      << "Adam moment tensors disagree in size";
}

std::unique_ptr<LocalOptimizer> make_optimizer(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return std::make_unique<SgdOptimizer>();
    case OptimizerKind::kMomentum:
      return std::make_unique<MomentumOptimizer>();
    case OptimizerKind::kAdam:
      return std::make_unique<AdamOptimizer>();
  }
  MARSIT_CHECK(false) << "unknown optimizer kind";
  return nullptr;
}

}  // namespace marsit
