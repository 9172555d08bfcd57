// Packed sign-bit vector: the wire format of every one-bit message in
// marsit.  Bit value 1 encodes sign +1 and bit value 0 encodes sign −1
// (matching Eq. 2 of the paper, which speaks of marking elements "as 1").
//
// Storage is 64-bit words; bit i lives in word i/64 at position i%64 (LSB
// first).  Tail bits of the last word beyond size() are kept zero — the
// word-span kernels (compress/kernels.hpp) rely on that canonical form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace marsit {

class BitVector {
 public:
  BitVector() = default;

  /// `size` bits, all zero.
  explicit BitVector(std::size_t size);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t num_words() const { return words_.size(); }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);

  std::span<std::uint64_t> words() { return {words_.data(), words_.size()}; }
  std::span<const std::uint64_t> words() const {
    return {words_.data(), words_.size()};
  }

  /// Number of set bits.
  std::size_t popcount() const;

  void fill(bool value);

  bool operator==(const BitVector& other) const = default;

 private:
  void clear_tail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace marsit
