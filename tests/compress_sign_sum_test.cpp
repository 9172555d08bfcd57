#include "compress/sign_sum.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "compress/sign_codec.hpp"
#include "util/check.hpp"

namespace marsit {
namespace {

BitVector signs_of(const std::vector<float>& v) {
  return pack_signs({v.data(), v.size()});
}

TEST(SignSumTest, AccumulateCountsContributions) {
  SignSum sum(3);
  EXPECT_EQ(sum.contributions(), 0u);
  sum.accumulate(signs_of({1.0f, -1.0f, 1.0f}));
  sum.accumulate(signs_of({1.0f, 1.0f, -1.0f}));
  EXPECT_EQ(sum.contributions(), 2u);
  EXPECT_EQ(sum.value(0), 2);
  EXPECT_EQ(sum.value(1), 0);
  EXPECT_EQ(sum.value(2), 0);
}

TEST(SignSumTest, MajorityTiesToPositive) {
  SignSum sum(2);
  sum.accumulate(signs_of({1.0f, -1.0f}));
  sum.accumulate(signs_of({-1.0f, -1.0f}));
  const BitVector majority = sum.majority();
  EXPECT_TRUE(majority.get(0));   // 0 ties to +
  EXPECT_FALSE(majority.get(1));  // −2
}

TEST(SignSumTest, MeanInto) {
  SignSum sum(2);
  sum.accumulate(signs_of({1.0f, -1.0f}));
  sum.accumulate(signs_of({1.0f, 1.0f}));
  std::vector<float> mean(2);
  sum.mean_into({mean.data(), 2});
  EXPECT_FLOAT_EQ(mean[0], 1.0f);
  EXPECT_FLOAT_EQ(mean[1], 0.0f);
}

TEST(SignSumTest, MeanOfZeroContributionsThrows) {
  SignSum sum(2);
  std::vector<float> mean(2);
  EXPECT_THROW(sum.mean_into({mean.data(), 2}), CheckError);
}

TEST(SignSumTest, ExtentMismatchThrows) {
  SignSum sum(3);
  EXPECT_THROW(sum.accumulate(BitVector(4)), CheckError);
}

TEST(SignSumBitsTest, WidthFormula) {
  // ⌈log2(m+1)⌉ + 1.
  EXPECT_EQ(sign_sum_bits_per_element(1), 1u);
  EXPECT_EQ(sign_sum_bits_per_element(2), 3u);   // values in {−2,0,2}
  EXPECT_EQ(sign_sum_bits_per_element(3), 3u);
  EXPECT_EQ(sign_sum_bits_per_element(4), 4u);
  EXPECT_EQ(sign_sum_bits_per_element(7), 4u);
  EXPECT_EQ(sign_sum_bits_per_element(8), 5u);
  EXPECT_EQ(sign_sum_bits_per_element(32), 7u);
}

TEST(SignSumBitsTest, FixedWireBits) {
  SignSum sum(100);
  sum.accumulate(BitVector(100));
  sum.accumulate(BitVector(100));
  sum.accumulate(BitVector(100));
  EXPECT_EQ(sum.size() * sign_sum_bits_per_element(sum.contributions()),
            100u * 3u);
}

TEST(SignSumBitsTest, EliasBitsOfZeroSumsAreOneBitEach) {
  SignSum sum(64);
  BitVector all_plus(64);
  all_plus.fill(true);
  sum.accumulate(all_plus);
  sum.accumulate(BitVector(64));  // all minus
  // Every value is 0 → zig-zag 1 → γ length 1 bit each.
  EXPECT_EQ(sum.wire_bits_elias(), 64u);
}

TEST(SignSumTest, ValuesSpanMatchesAccessors) {
  SignSum sum(3);
  sum.accumulate(signs_of({1.0f, -1.0f, 1.0f}));
  auto values = sum.values();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[1], -1);
}

}  // namespace
}  // namespace marsit
