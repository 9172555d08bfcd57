// Sign-sum messages: the bit-length-expanding aggregation the paper's
// Section 3.1 describes for extending signSGD/SSDM to multi-hop all-reduce.
//
// Each element carries the integer sum of ±1 contributions from the workers
// aggregated so far.  After m contributions the value lies in
// {−m, −m+2, ..., m}, which needs ⌈log2(m+1)⌉ + 1 bits on the wire (the "+1"
// is the sign) — the growth that makes these baselines slower than
// single-hop PS and that Marsit's ⊙ operator eliminates.  An optional
// Elias-γ recoding (see elias.hpp) compacts the wire image, mirroring the
// paper's use of Elias coding for the baselines.
//
// accumulate() and majority() run the word-parallel kernels from
// compress/kernels.hpp (64 elements per packed word, branch-free); the
// `*_scalar` twins are the original loops, kept as bit-exactness oracles.
// mean_into() is a plain contiguous element-wise loop that the compiler
// already vectorizes — there is no packed-bit structure to exploit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/bit_vector.hpp"

namespace marsit {

class SignSum {
 public:
  SignSum() = default;

  /// Zero-initialized sums over `size` elements with no contributions yet.
  explicit SignSum(std::size_t size);

  std::size_t size() const { return values_.size(); }
  /// Number of worker contributions accumulated.
  std::size_t contributions() const { return contributions_; }

  std::int32_t value(std::size_t i) const { return values_[i]; }
  std::span<const std::int32_t> values() const {
    return {values_.data(), values_.size()};
  }

  /// Adds another worker's sign bits.
  void accumulate(const BitVector& bits);

  /// Scalar reference for accumulate (bit-identical).
  void accumulate_scalar(const BitVector& bits);

  /// Majority decision per element: +1 when the sum is >= 0 (ties to +1,
  /// matching the pack_signs convention), encoded as bits.
  BitVector majority() const;

  /// Scalar reference for majority (bit-identical).
  BitVector majority_scalar() const;

  /// Mean contribution per element: value_i / contributions.
  void mean_into(std::span<float> out) const;

  /// Wire size after Elias-γ coding of the zig-zag mapped values: the sum
  /// of their γ code lengths (compress/elias.hpp).
  std::size_t wire_bits_elias() const;

 private:
  std::vector<std::int32_t> values_;
  std::size_t contributions_ = 0;
};

/// Bits per element of a fixed-width sign-sum with m contributions:
/// ⌈log2(m+1)⌉ + 1.  The cost model and Figure 1/5 benches use this.
std::size_t sign_sum_bits_per_element(std::size_t contributions);

}  // namespace marsit
