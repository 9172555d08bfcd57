#include "core/one_bit.hpp"

#include "util/check.hpp"
#include "util/validate.hpp"

namespace marsit {

void one_bit_combine_words(std::span<std::uint64_t> a, std::size_t weight_a,
                           std::span<const std::uint64_t> b,
                           std::size_t weight_b, Rng& rng) {
  one_bit_combine_words(a, a, weight_a, b, weight_b, rng);
}

void one_bit_combine_words(std::span<std::uint64_t> out,
                           std::span<const std::uint64_t> a,
                           std::size_t weight_a,
                           std::span<const std::uint64_t> b,
                           std::size_t weight_b, Rng& rng) {
  MARSIT_CHECK(a.size() == b.size() && out.size() == a.size())
      << "one_bit_combine word spans " << a.size() << " vs " << b.size()
      << " into " << out.size();
  MARSIT_CHECK(weight_a > 0 && weight_b > 0)
      << "aggregate weights must be positive";
  MARSIT_VALIDATE_CALL(validate::hop_weights(weight_a, weight_b));
  const double p_take_a = static_cast<double>(weight_a) /
                          static_cast<double>(weight_a + weight_b);
  // Eq. 2 contract: the take-probability pair is a distribution — each bit
  // keeps a's value with p_take_a, b's with the complement.
  MARSIT_VALIDATE_CALL({
    const double take[] = {p_take_a, 1.0 - p_take_a};
    validate::probability_table(take, "one_bit_combine take-probabilities");
  });
  for (std::size_t w = 0; w < a.size(); ++w) {
    const std::uint64_t wa = a[w];
    const std::uint64_t wb = b[w];
    const std::uint64_t v = rng.bernoulli_word(p_take_a);
    const std::uint64_t chosen = (wa & v) | (wb & ~v);
    out[w] = (wa & wb) | ((wa ^ wb) & chosen);
  }
}

void one_bit_combine_into(BitVector& a, std::size_t weight_a,
                          const BitVector& b, std::size_t weight_b,
                          Rng& rng) {
  MARSIT_CHECK(a.size() == b.size())
      << "one_bit_combine extents " << a.size() << " vs " << b.size();
  one_bit_combine_words(a.words(), weight_a, b.words(), weight_b, rng);
  // Tail bits beyond size() stay zero because both operands keep them zero
  // and (0&0)|((0^0)&x) == 0.
}

BitVector one_bit_combine(const BitVector& a, std::size_t weight_a,
                          const BitVector& b, std::size_t weight_b,
                          Rng& rng) {
  BitVector result = a;
  one_bit_combine_into(result, weight_a, b, weight_b, rng);
  return result;
}

BitVector one_bit_fold(const std::vector<BitVector>& signs, Rng& rng) {
  MARSIT_CHECK(!signs.empty()) << "one_bit_fold over zero workers";
  BitVector aggregate = signs.front();
  for (std::size_t m = 1; m < signs.size(); ++m) {
    one_bit_combine_into(aggregate, m, signs[m], 1, rng);
  }
  return aggregate;
}

std::uint64_t segment_fold_seed(std::uint64_t round_seed,
                                std::uint64_t segment_index) {
  return derive_seed(round_seed, segment_index);
}

Rng segment_op_rng(std::uint64_t segment_seed, std::uint64_t op_index) {
  return Rng(derive_seed(segment_seed, op_index));
}

}  // namespace marsit
