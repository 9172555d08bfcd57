#include "compress/sign_sum.hpp"

#include <bit>

#include "compress/elias.hpp"
#include "compress/kernels.hpp"
#include "util/check.hpp"

namespace marsit {

SignSum::SignSum(std::size_t size) : values_(size, 0) {}

void SignSum::accumulate(const BitVector& bits) {
  MARSIT_CHECK(bits.size() == values_.size())
      << "sign-sum extent " << values_.size() << " vs bits " << bits.size();
  kernels::accumulate_counts_words(bits.words(),
                                   {values_.data(), values_.size()});
  ++contributions_;
}

void SignSum::accumulate_scalar(const BitVector& bits) {
  MARSIT_CHECK(bits.size() == values_.size())
      << "sign-sum extent " << values_.size() << " vs bits " << bits.size();
  auto words = bits.words();
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const bool positive = (words[i / 64] >> (i % 64)) & 1u;
    values_[i] += positive ? 1 : -1;
  }
  ++contributions_;
}

BitVector SignSum::majority() const {
  BitVector bits(values_.size());
  kernels::majority_words({values_.data(), values_.size()}, bits.words());
  return bits;
}

BitVector SignSum::majority_scalar() const {
  BitVector bits(values_.size());
  auto words = bits.words();
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] >= 0) {
      words[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  return bits;
}

void SignSum::mean_into(std::span<float> out) const {
  MARSIT_CHECK(out.size() == values_.size()) << "mean_into extent mismatch";
  MARSIT_CHECK(contributions_ > 0) << "mean of zero contributions";
  const float inv = 1.0f / static_cast<float>(contributions_);
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out[i] = static_cast<float>(values_[i]) * inv;
  }
}

std::size_t SignSum::wire_bits_elias() const {
  std::size_t bits = 0;
  for (const std::int32_t v : values_) {
    bits += elias_gamma_length(zigzag_map(v));
  }
  return bits;
}

std::size_t sign_sum_bits_per_element(std::size_t contributions) {
  if (contributions <= 1) {
    return 1;
  }
  // Values live in [−m, m]; magnitude needs ⌈log2(m+1)⌉ bits plus a sign bit.
  const auto m = static_cast<std::uint64_t>(contributions);
  const unsigned magnitude_bits =
      64u - static_cast<unsigned>(std::countl_zero(m));  // = ⌈log2(m+1)⌉
  return magnitude_bits + 1;
}

}  // namespace marsit
