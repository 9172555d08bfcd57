// Aggregation data planes for the baseline synchronization methods.
//
// These compute the *values* an all-reduce produces; the matching timing
// comes from collectives/timing.hpp (see the decoupling note there).  The
// Marsit one-bit data plane lives in src/core — it is the paper's
// contribution, not a baseline.
//
// All functions take one span per worker, of equal extent D.
#pragma once

#include <span>
#include <vector>

#include "compress/bit_vector.hpp"
#include "compress/sign_sum.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace marsit {

using WorkerSpans = std::vector<std::span<const float>>;

/// Exact mean of the workers' vectors (PSGD / full-precision rounds).
void aggregate_mean(const WorkerSpans& inputs, std::span<float> out);

/// Folds per-worker sign bit-vectors into a sign-sum, optionally recording
/// the measured Elias-γ bits/element after each contribution (the Elias
/// wire format's sizes in bench/ablation_elias and fig5_time_breakdown;
/// costs one encode pass per contribution).
struct SignSumAggregate {
  SignSum sum;
  /// elias_bits_per_element[c-1] = measured γ-code bits per element when the
  /// sum carries c contributions.  Empty unless requested.
  std::vector<double> elias_bits_per_element;
};

SignSumAggregate aggregate_sign_sum(const std::vector<BitVector>& signs,
                                    bool record_elias_sizes = false);

/// How a cascading hop decodes the incoming (norm, signs) message.
enum class CascadeDecode {
  /// Appendix A's s₃ exactly: element = ±‖w‖₂.  Unbiased, but the decoded
  /// norm multiplies by √D per hop, so the deviation explodes as Theorem 3
  /// proves — usable for the theory bench, unusable for training.
  kUnbiased,
  /// Element = ±‖w‖₂/√D: preserves the vector norm at the cost of a 1/√D
  /// signal attenuation per hop.  This is what a deployable implementation
  /// must do, and it reproduces Table 1's behaviour (trains poorly at M=3,
  /// collapses as M grows) without numeric blow-up.
  kNormPreserving,
};

/// Cascading compression over a ring (the paper's Section 3.2 baseline):
///   state ← Q(state_decoded + s_m) at every hop, Q = SSDM's stochastic
///   sign with its ℓ2 norm; the final update is the decoded outermost Q
///   divided by M.
void cascading_aggregate(const WorkerSpans& inputs, Rng& rng,
                         std::span<float> out,
                         CascadeDecode decode = CascadeDecode::kNormPreserving);

/// SSDM under a parameter server (Appendix A's s₂): mean of Q(s_m).  Used by
/// the deviation bench that reproduces Theorems 2/3.
void ssdm_ps_aggregate(const WorkerSpans& inputs, Rng& rng,
                       std::span<float> out);

/// Fraction of elements whose sign matches between `reference` and `value`
/// (zero treated as +, consistent with pack_signs).  Figure 1b's metric.
double sign_matching_rate(std::span<const float> reference,
                          std::span<const float> value);

/// Sign matching rate with each element weighted by |reference_i| — the
/// magnitude-weighted variant, which measures how well the aggregate tracks
/// the gradient mass rather than the coordinate count (real gradients are
/// heavy-tailed, so this is the optimization-relevant number).
double weighted_sign_matching_rate(std::span<const float> reference,
                                   std::span<const float> value);

}  // namespace marsit
