#include "compress/elias.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "compress/sign_sum.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

TEST(EliasGammaTest, KnownCodeLengths) {
  // γ(1)=1 bit, γ(2..3)=3, γ(4..7)=5, γ(8..15)=7.
  EXPECT_EQ(elias_gamma_length(1), 1u);
  EXPECT_EQ(elias_gamma_length(2), 3u);
  EXPECT_EQ(elias_gamma_length(3), 3u);
  EXPECT_EQ(elias_gamma_length(4), 5u);
  EXPECT_EQ(elias_gamma_length(7), 5u);
  EXPECT_EQ(elias_gamma_length(8), 7u);
  EXPECT_EQ(elias_gamma_length(1u << 20), 41u);
  EXPECT_EQ(elias_gamma_length((1ull << 32) + 5), 65u);
}

TEST(EliasGammaTest, RejectsZero) {
  EXPECT_THROW(elias_gamma_length(0), CheckError);
}

TEST(ZigZagTest, MapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(zigzag_map(0), 1u);
  EXPECT_EQ(zigzag_map(-1), 2u);
  EXPECT_EQ(zigzag_map(1), 3u);
  EXPECT_EQ(zigzag_map(-2), 4u);
  EXPECT_EQ(zigzag_map(2), 5u);
}

TEST(ZigZagTest, Bijection) {
  // [−100, 100] maps one-to-one onto the codes 1..201.
  std::vector<bool> seen(202, false);
  for (std::int64_t v = -100; v <= 100; ++v) {
    const std::uint64_t mapped = zigzag_map(v);
    ASSERT_GE(mapped, 1u) << "value " << v;
    ASSERT_LE(mapped, 201u) << "value " << v;
    EXPECT_FALSE(seen[mapped]) << "value " << v << " collides";
    seen[mapped] = true;
  }
}

TEST(EliasSignSumTest, WireBitsEliasMatchesHandSum) {
  // Four workers' signs over five elements; the sums are 4, 2, 0, −2, −4.
  const std::vector<std::vector<bool>> workers{
      {true, true, true, true, false},
      {true, true, true, false, false},
      {true, true, false, false, false},
      {true, false, false, false, false}};
  SignSum sum(5);
  for (const std::vector<bool>& signs : workers) {
    BitVector bits(5);
    for (std::size_t i = 0; i < signs.size(); ++i) {
      bits.set(i, signs[i]);
    }
    sum.accumulate(bits);
  }
  ASSERT_EQ(std::vector<std::int32_t>(sum.values().begin(),
                                      sum.values().end()),
            (std::vector<std::int32_t>{4, 2, 0, -2, -4}));
  // zig-zag 9, 5, 1, 4, 8 → γ lengths 7 + 5 + 1 + 5 + 7.
  EXPECT_EQ(sum.wire_bits_elias(), 25u);
}

TEST(EliasSignSumTest, NearZeroSumsCompressBelowFixedWidth) {
  // Sign sums concentrated near zero (the common case for i.i.d. gradients)
  // must beat the ⌈log2(M+1)⌉+1 fixed width; that is why the paper bothers
  // with Elias coding.
  Rng rng(11);
  constexpr std::size_t kElements = 4096;
  SignSum sum(kElements);
  for (int worker = 0; worker < 32; ++worker) {
    // 32 random ±1 per element: mean 0, sd ≈ 5.7.
    BitVector bits(kElements);
    for (std::size_t i = 0; i < kElements; ++i) {
      bits.set(i, rng.bernoulli(0.5));
    }
    sum.accumulate(bits);
  }
  const std::size_t fixed =
      kElements * sign_sum_bits_per_element(sum.contributions());
  EXPECT_EQ(fixed, kElements * 7);  // ⌈log2 33⌉ + 1
  EXPECT_LT(sum.wire_bits_elias(), fixed);
}

}  // namespace
}  // namespace marsit
