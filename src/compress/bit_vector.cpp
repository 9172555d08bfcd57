#include "compress/bit_vector.hpp"

#include <bit>

#include "util/check.hpp"

namespace marsit {

BitVector::BitVector(std::size_t size)
    : size_(size), words_((size + 63) / 64, 0) {}

bool BitVector::get(std::size_t i) const {
  MARSIT_CHECK(i < size_) << "bit index " << i << " out of size " << size_;
  return (words_[i / 64] >> (i % 64)) & 1u;
}

void BitVector::set(std::size_t i, bool value) {
  MARSIT_CHECK(i < size_) << "bit index " << i << " out of size " << size_;
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  if (value) {
    words_[i / 64] |= mask;
  } else {
    words_[i / 64] &= ~mask;
  }
}

std::size_t BitVector::popcount() const {
  std::size_t total = 0;
  for (std::uint64_t word : words_) {
    total += static_cast<std::size_t>(std::popcount(word));
  }
  return total;
}

void BitVector::fill(bool value) {
  const std::uint64_t word = value ? ~std::uint64_t{0} : 0;
  for (auto& w : words_) {
    w = word;
  }
  clear_tail();
}

void BitVector::clear_tail() {
  const std::size_t tail = size_ % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << tail) - 1;
  }
}

}  // namespace marsit
