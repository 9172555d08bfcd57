#include "compress/bit_vector.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace marsit {
namespace {

TEST(BitVectorTest, ConstructedAllZero) {
  BitVector bits(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(bits.num_words(), 2u);
  EXPECT_EQ(bits.popcount(), 0u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(bits.get(i));
  }
}

TEST(BitVectorTest, SetAndGet) {
  BitVector bits(70);
  bits.set(0, true);
  bits.set(63, true);
  bits.set(64, true);
  bits.set(69, true);
  EXPECT_TRUE(bits.get(0));
  EXPECT_TRUE(bits.get(63));
  EXPECT_TRUE(bits.get(64));
  EXPECT_TRUE(bits.get(69));
  EXPECT_FALSE(bits.get(1));
  EXPECT_EQ(bits.popcount(), 4u);
  bits.set(63, false);
  EXPECT_FALSE(bits.get(63));
  EXPECT_EQ(bits.popcount(), 3u);
}

TEST(BitVectorTest, OutOfRangeThrows) {
  BitVector bits(10);
  EXPECT_THROW(bits.get(10), CheckError);
  EXPECT_THROW(bits.set(10, true), CheckError);
}

TEST(BitVectorTest, FillKeepsTailZero) {
  BitVector bits(70);  // 6 tail bits in word 1
  bits.fill(true);
  EXPECT_EQ(bits.popcount(), 70u);
  // The tail of the last word must stay clear so word-wise ops are exact.
  EXPECT_EQ(bits.words()[1] >> 6, 0u);
}

TEST(BitVectorTest, EqualityAndCopies) {
  BitVector a(40);
  a.set(5, true);
  BitVector b = a;
  EXPECT_EQ(a, b);
  b.set(6, true);
  EXPECT_NE(a, b);
}

TEST(BitVectorTest, EmptyVector) {
  BitVector bits;
  EXPECT_TRUE(bits.empty());
  EXPECT_EQ(bits.num_words(), 0u);
  EXPECT_EQ(bits.popcount(), 0u);
}

TEST(BitVectorTest, ExactWordBoundary) {
  BitVector bits(128);
  EXPECT_EQ(bits.num_words(), 2u);
  bits.fill(true);
  EXPECT_EQ(bits.popcount(), 128u);
}

}  // namespace
}  // namespace marsit
