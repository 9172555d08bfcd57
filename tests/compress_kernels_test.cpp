// Bit-exactness property tests for the word-parallel kernels
// (compress/kernels.hpp) against their *_scalar references, across sizes
// that exercise empty, sub-word, word-aligned and ragged-tail extents —
// the contract the sharded synchronization pipeline and the benchmark
// harness both rely on.
#include "compress/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "compress/sign_codec.hpp"
#include "compress/sign_sum.hpp"
#include "core/one_bit.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

// Ragged sizes around the 64-element word quantum plus a few large ones.
const std::vector<std::size_t> kSizes = {1,    5,    63,        64,
                                         65,   127,  128,       1000,
                                         4113, 65536, 100013};

std::vector<float> random_gradient(std::size_t d, std::uint64_t seed) {
  std::vector<float> g(d);
  Rng rng(seed);
  fill_normal({g.data(), d}, rng, 0.0f, 1.0f);
  // Sprinkle exact zeros and negative zeros: the sign convention maps both
  // to +1 and the word path must agree.
  for (std::size_t i = 0; i < d; i += 7) {
    g[i] = (i % 14 == 0) ? 0.0f : -0.0f;
  }
  return g;
}

TEST(KernelsTest, WordsForRounding) {
  EXPECT_EQ(kernels::words_for(0), 0u);
  EXPECT_EQ(kernels::words_for(1), 1u);
  EXPECT_EQ(kernels::words_for(64), 1u);
  EXPECT_EQ(kernels::words_for(65), 2u);
  EXPECT_EQ(kernels::words_for(128), 2u);
}

TEST(KernelsTest, PackMatchesScalar) {
  for (const std::size_t d : kSizes) {
    const std::vector<float> g = random_gradient(d, 11 + d);
    const BitVector expected = pack_signs_scalar({g.data(), d});
    const BitVector actual = pack_signs({g.data(), d});
    EXPECT_EQ(actual, expected) << "d=" << d;
  }
}

TEST(KernelsTest, PackOverwritesStaleWords) {
  // The kernel must fully overwrite its word span, including tail-word
  // zeroing — scratch reuse across rounds depends on it.
  const std::size_t d = 130;
  const std::vector<float> g = random_gradient(d, 29);
  std::vector<std::uint64_t> words(kernels::words_for(d), ~std::uint64_t{0});
  kernels::pack_signs_words({g.data(), d}, words);
  const BitVector expected = pack_signs_scalar({g.data(), d});
  for (std::size_t w = 0; w < words.size(); ++w) {
    EXPECT_EQ(words[w], expected.words()[w]) << "word " << w;
  }
}

// Algorithm 1's line 1 with the previous round's line 10 settled first:
// c ← (c + scale·(owed ? +1 : −1)) + u and the packed signs of c must be
// the bytes of accumulate_signs_scalar, then `add`, then pack_signs_words —
// with nothing owed, with owed words of their own and with owed aliasing
// the output words.  The inputs hold ±0.0 operands and sums that round to
// ±0.0; the smallest subnormal scale settles without disturbing those sums
// (and moves the ±0.0 c), −0.5 moves every element.
TEST(KernelsTest, SettleAddPackMatchesAccumulateAddPack) {
  for (const std::size_t d : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{1000}, std::size_t{4096 + 7}}) {
    std::vector<float> u = random_gradient(d, 41 + d);
    std::vector<float> c = random_gradient(d, 43 + d);
    for (std::size_t i = 0; i < d; i += 5) {
      switch (i / 5 % 4) {
        case 0:  // x + (−x) rounds to +0.0
          c[i] = -u[i];
          break;
        case 1:  // −0.0 + −0.0 is −0.0, which packs as +1
          c[i] = -0.0f;
          break;
        case 2:  // a tiny sum that survives
          c[i] = std::nextafter(-u[i], 0.0f);
          break;
        default:  // −0.0 + +0.0 is +0.0
          c[i] = std::signbit(u[i]) ? 0.0f : -0.0f;
          break;
      }
    }
    for (std::size_t i = 1; i < d; i += 10) {
      u[i] = -0.0f;
      c[i] = -0.0f;
    }

    const std::vector<float> owed_signs = random_gradient(d, 47 + d);
    const BitVector owed = pack_signs_scalar({owed_signs.data(), d});

    enum class Owed { kNothing, kApart, kAliased };
    for (const float scale :
         {-std::numeric_limits<float>::denorm_min(), -0.5f}) {
      for (const Owed mode : {Owed::kNothing, Owed::kApart, Owed::kAliased}) {
        std::vector<float> expected_c = c;
        if (mode != Owed::kNothing) {
          accumulate_signs_scalar(owed, scale, {expected_c.data(), d});
        }
        add({u.data(), d}, {expected_c.data(), d}, {expected_c.data(), d});
        std::vector<std::uint64_t> expected_words(kernels::words_for(d));
        kernels::pack_signs_words({expected_c.data(), d}, expected_words);

        std::vector<float> actual_c = c;
        std::vector<std::uint64_t> words(kernels::words_for(d),
                                         ~std::uint64_t{0});
        std::span<const std::uint64_t> debt;
        if (mode == Owed::kApart) {
          debt = owed.words();
        } else if (mode == Owed::kAliased) {
          std::copy(owed.words().begin(), owed.words().end(), words.begin());
          debt = words;
        }
        kernels::settle_add_pack_signs_words(debt, scale, {u.data(), d},
                                             {actual_c.data(), d}, words);
        const int label = static_cast<int>(mode);
        for (std::size_t i = 0; i < d; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(actual_c[i]),
                    std::bit_cast<std::uint32_t>(expected_c[i]))
              << "d=" << d << " i=" << i << " scale=" << scale
              << " mode=" << label;
        }
        EXPECT_EQ(words, expected_words)
            << "d=" << d << " scale=" << scale << " mode=" << label;
      }
    }
  }
}

TEST(KernelsTest, UnpackMatchesScalarBitExactly) {
  for (const std::size_t d : kSizes) {
    const std::vector<float> g = random_gradient(d, 17 + d);
    const BitVector bits = pack_signs_scalar({g.data(), d});
    std::vector<float> expected(d), actual(d);
    for (const float scale : {1.0f, 0.125f, 3.7e-3f}) {
      unpack_signs_scalar(bits, scale, {expected.data(), d});
      unpack_signs(bits, scale, {actual.data(), d});
      for (std::size_t i = 0; i < d; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(actual[i]),
                  std::bit_cast<std::uint32_t>(expected[i]))
            << "d=" << d << " i=" << i << " scale=" << scale;
      }
    }
  }
}

TEST(KernelsTest, AccumulateMatchesScalarBitExactly) {
  for (const std::size_t d : kSizes) {
    const std::vector<float> g = random_gradient(d, 23 + d);
    const BitVector bits = pack_signs_scalar({g.data(), d});
    std::vector<float> expected = random_gradient(d, 31 + d);
    std::vector<float> actual = expected;
    accumulate_signs_scalar(bits, 0.25f, {expected.data(), d});
    accumulate_signs(bits, 0.25f, {actual.data(), d});
    for (std::size_t i = 0; i < d; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(actual[i]),
                std::bit_cast<std::uint32_t>(expected[i]))
          << "d=" << d << " i=" << i;
    }
  }
}

TEST(KernelsTest, SignSumAccumulateAndMajorityMatchScalar) {
  for (const std::size_t d : kSizes) {
    SignSum word_sum(d), scalar_sum(d);
    for (std::size_t m = 0; m < 5; ++m) {
      const std::vector<float> g = random_gradient(d, 100 * d + m);
      const BitVector bits = pack_signs_scalar({g.data(), d});
      word_sum.accumulate(bits);
      scalar_sum.accumulate_scalar(bits);
    }
    EXPECT_EQ(word_sum.contributions(), scalar_sum.contributions());
    for (std::size_t i = 0; i < d; ++i) {
      ASSERT_EQ(word_sum.value(i), scalar_sum.value(i))
          << "d=" << d << " i=" << i;
    }
    EXPECT_EQ(word_sum.majority(), scalar_sum.majority_scalar()) << "d=" << d;
  }
}

TEST(KernelsTest, SsdmPackMatchesScalarAtEqualSeeds) {
  for (const std::size_t d : kSizes) {
    const std::vector<float> g = random_gradient(d, 41 + d);
    for (const std::size_t block : {std::size_t{0}, std::size_t{64}}) {
      Rng rng_a(d + 1), rng_b(d + 1);
      const BitVector expected = ssdm_pack_scalar({g.data(), d}, rng_a, block);
      const BitVector actual = ssdm_pack({g.data(), d}, rng_b, block);
      EXPECT_EQ(actual, expected) << "d=" << d << " block=" << block;
    }
  }
}

TEST(KernelsTest, SsdmPackWordsOverwritesStaleWords) {
  const std::size_t d = 200;
  const std::vector<float> g = random_gradient(d, 47);
  Rng rng_a(3), rng_b(3);
  const BitVector expected = ssdm_pack_scalar({g.data(), d}, rng_a, 64);
  std::vector<std::uint64_t> words(kernels::words_for(d), ~std::uint64_t{0});
  ssdm_pack_words({g.data(), d}, rng_b, 64, words);
  for (std::size_t w = 0; w < words.size(); ++w) {
    EXPECT_EQ(words[w], expected.words()[w]) << "word " << w;
  }
}

TEST(KernelsTest, InPlaceCombineMatchesAllocating) {
  for (const std::size_t d : kSizes) {
    if (d == 0) {
      continue;
    }
    const std::vector<float> ga = random_gradient(d, 53 + d);
    const std::vector<float> gb = random_gradient(d, 59 + d);
    const BitVector a = pack_signs({ga.data(), d});
    const BitVector b = pack_signs({gb.data(), d});
    Rng rng_alloc(d), rng_into(d), rng_words(d);
    const BitVector expected = one_bit_combine(a, 3, b, 2, rng_alloc);
    BitVector into = a;
    one_bit_combine_into(into, 3, b, 2, rng_into);
    EXPECT_EQ(into, expected) << "d=" << d;
    BitVector words_copy = a;
    one_bit_combine_words(words_copy.words(), 3, b.words(), 2, rng_words);
    EXPECT_EQ(words_copy, expected) << "d=" << d;
  }
}

TEST(KernelsTest, NanPacksAsNegative) {
  // The scalar convention: NaN >= 0 is false, so NaN packs as −1.  The
  // AVX compare must agree (ordered non-signalling GE).
  std::vector<float> g(130, 1.0f);
  g[0] = std::nanf("");
  g[65] = std::nanf("");
  const BitVector scalar = pack_signs_scalar({g.data(), g.size()});
  const BitVector word = pack_signs({g.data(), g.size()});
  EXPECT_EQ(word, scalar);
  EXPECT_FALSE(word.get(0));
  EXPECT_FALSE(word.get(65));
  EXPECT_TRUE(word.get(1));
}

}  // namespace
}  // namespace marsit
