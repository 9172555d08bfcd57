#include "compress/kernels.hpp"

#include <bit>

#include "util/check.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace marsit::kernels {

namespace {

void check_extents(std::size_t elements, std::size_t words) {
  MARSIT_CHECK(words == words_for(elements))
      << "kernel word span " << words << " vs " << elements << " elements";
}

}  // namespace

void pack_signs_words(std::span<const float> g,
                      std::span<std::uint64_t> words) {
  check_extents(g.size(), words.size());
  const std::size_t full = g.size() / kWordBits;
  const float* data = g.data();
  for (std::size_t w = 0; w < full; ++w) {
    const float* base = data + w * kWordBits;
    std::uint64_t bits = 0;
#if defined(__AVX512F__)
    const __m512 zero = _mm512_setzero_ps();
    for (std::size_t k = 0; k < kWordBits; k += 16) {
      // NaN compares false under _CMP_GE_OQ, matching the scalar `x >= 0`;
      // the 16-lane predicate mask IS the next 16 bits of the word.
      const __mmask16 ge = _mm512_cmp_ps_mask(_mm512_loadu_ps(base + k),
                                              zero, _CMP_GE_OQ);
      bits |= static_cast<std::uint64_t>(_cvtmask16_u32(ge)) << k;
    }
#elif defined(__AVX2__)
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t k = 0; k < kWordBits; k += 8) {
      // NaN compares false under _CMP_GE_OQ, matching the scalar `x >= 0`.
      const __m256 ge = _mm256_cmp_ps(_mm256_loadu_ps(base + k), zero,
                                      _CMP_GE_OQ);
      bits |= static_cast<std::uint64_t>(
                  static_cast<unsigned>(_mm256_movemask_ps(ge)))
              << k;
    }
#else
    for (std::size_t j = 0; j < kWordBits; ++j) {
      bits |= static_cast<std::uint64_t>(base[j] >= 0.0f) << j;
    }
#endif
    words[w] = bits;
  }
  const std::size_t tail = g.size() % kWordBits;
  if (tail != 0) {
    const float* base = data + full * kWordBits;
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < tail; ++j) {
      bits |= static_cast<std::uint64_t>(base[j] >= 0.0f) << j;
    }
    words[full] = bits;
  }
}

void add_pack_signs_words(std::span<const float> update,
                          std::span<float> compensation,
                          std::span<std::uint64_t> words) {
  MARSIT_CHECK(update.size() == compensation.size())
      << "add_pack_signs_words: extents " << update.size() << " vs "
      << compensation.size();
  check_extents(compensation.size(), words.size());
  const std::size_t full = compensation.size() / kWordBits;
  const float* u = update.data();
  float* c = compensation.data();
  for (std::size_t w = 0; w < full; ++w) {
    const float* u_base = u + w * kWordBits;
    float* c_base = c + w * kWordBits;
    std::uint64_t bits = 0;
#if defined(__AVX512F__)
    const __m512 zero = _mm512_setzero_ps();
    for (std::size_t k = 0; k < kWordBits; k += 16) {
      const __m512 sum = _mm512_add_ps(_mm512_loadu_ps(u_base + k),
                                       _mm512_loadu_ps(c_base + k));
      _mm512_storeu_ps(c_base + k, sum);
      const __mmask16 ge = _mm512_cmp_ps_mask(sum, zero, _CMP_GE_OQ);
      bits |= static_cast<std::uint64_t>(_cvtmask16_u32(ge)) << k;
    }
#elif defined(__AVX2__)
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t k = 0; k < kWordBits; k += 8) {
      const __m256 sum = _mm256_add_ps(_mm256_loadu_ps(u_base + k),
                                       _mm256_loadu_ps(c_base + k));
      _mm256_storeu_ps(c_base + k, sum);
      const __m256 ge = _mm256_cmp_ps(sum, zero, _CMP_GE_OQ);
      bits |= static_cast<std::uint64_t>(
                  static_cast<unsigned>(_mm256_movemask_ps(ge)))
              << k;
    }
#else
    for (std::size_t j = 0; j < kWordBits; ++j) {
      c_base[j] = u_base[j] + c_base[j];
      bits |= static_cast<std::uint64_t>(c_base[j] >= 0.0f) << j;
    }
#endif
    words[w] = bits;
  }
  const std::size_t tail = compensation.size() % kWordBits;
  if (tail != 0) {
    const float* u_base = u + full * kWordBits;
    float* c_base = c + full * kWordBits;
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < tail; ++j) {
      c_base[j] = u_base[j] + c_base[j];
      bits |= static_cast<std::uint64_t>(c_base[j] >= 0.0f) << j;
    }
    words[full] = bits;
  }
}

void unpack_signs_words(std::span<const std::uint64_t> words, float scale,
                        std::span<float> out) {
  check_extents(out.size(), words.size());
  const std::uint32_t scale_bits = std::bit_cast<std::uint32_t>(scale);
  const std::size_t full = out.size() / kWordBits;
  float* data = out.data();
  for (std::size_t w = 0; w < full; ++w) {
    const std::uint64_t bits = words[w];
    float* base = data + w * kWordBits;
#if defined(__AVX512F__)
    const __m512 pos = _mm512_set1_ps(scale);
    // Float negation is a sign-bit flip, bit-exact with the scalar
    // `bit ? scale : -scale` for every bit pattern including NaN.
    const __m512 neg = _mm512_set1_ps(-scale);
    for (std::size_t k = 0; k < kWordBits; k += 16) {
      const auto mask =
          static_cast<__mmask16>((bits >> k) & std::uint64_t{0xffff});
      _mm512_storeu_ps(base + k, _mm512_mask_mov_ps(neg, mask, pos));
    }
#elif defined(__AVX2__)
    const __m256i lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256 pos = _mm256_set1_ps(scale);
    const __m256 sign = _mm256_set1_ps(-0.0f);
    for (std::size_t k = 0; k < kWordBits; k += 8) {
      const __m256i byte =
          _mm256_set1_epi32(static_cast<int>((bits >> k) & 0xff));
      const __m256i set =
          _mm256_cmpeq_epi32(_mm256_and_si256(byte, lane), lane);
      // Clear bits flip the sign: ±scale is a sign-bit XOR, bit-exact with
      // the scalar `bit ? scale : -scale`.
      const __m256 flip = _mm256_andnot_ps(_mm256_castsi256_ps(set), sign);
      _mm256_storeu_ps(base + k, _mm256_xor_ps(pos, flip));
    }
#else
    for (std::size_t j = 0; j < kWordBits; ++j) {
      const auto negative =
          static_cast<std::uint32_t>(~(bits >> j) & std::uint64_t{1});
      base[j] = std::bit_cast<float>(scale_bits ^ (negative << 31));
    }
#endif
  }
  const std::size_t tail = out.size() % kWordBits;
  if (tail != 0) {
    const std::uint64_t bits = words[full];
    float* base = data + full * kWordBits;
    for (std::size_t j = 0; j < tail; ++j) {
      const auto negative =
          static_cast<std::uint32_t>(~(bits >> j) & std::uint64_t{1});
      base[j] = std::bit_cast<float>(scale_bits ^ (negative << 31));
    }
  }
}

void accumulate_signs_words(std::span<const std::uint64_t> words, float scale,
                            std::span<float> out) {
  check_extents(out.size(), words.size());
  const std::uint32_t scale_bits = std::bit_cast<std::uint32_t>(scale);
  const std::size_t full = out.size() / kWordBits;
  float* data = out.data();
  for (std::size_t w = 0; w < full; ++w) {
    const std::uint64_t bits = words[w];
    float* base = data + w * kWordBits;
#if defined(__AVX512F__)
    const __m512 pos = _mm512_set1_ps(scale);
    const __m512 neg = _mm512_set1_ps(-scale);
    for (std::size_t k = 0; k < kWordBits; k += 16) {
      const auto mask =
          static_cast<__mmask16>((bits >> k) & std::uint64_t{0xffff});
      const __m512 cur = _mm512_loadu_ps(base + k);
      _mm512_storeu_ps(
          base + k, _mm512_add_ps(cur, _mm512_mask_mov_ps(neg, mask, pos)));
    }
#elif defined(__AVX2__)
    const __m256i lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256 pos = _mm256_set1_ps(scale);
    const __m256 sign = _mm256_set1_ps(-0.0f);
    for (std::size_t k = 0; k < kWordBits; k += 8) {
      const __m256i byte =
          _mm256_set1_epi32(static_cast<int>((bits >> k) & 0xff));
      const __m256i set =
          _mm256_cmpeq_epi32(_mm256_and_si256(byte, lane), lane);
      const __m256 flip = _mm256_andnot_ps(_mm256_castsi256_ps(set), sign);
      const __m256 cur = _mm256_loadu_ps(base + k);
      _mm256_storeu_ps(base + k,
                       _mm256_add_ps(cur, _mm256_xor_ps(pos, flip)));
    }
#else
    for (std::size_t j = 0; j < kWordBits; ++j) {
      const auto negative =
          static_cast<std::uint32_t>(~(bits >> j) & std::uint64_t{1});
      base[j] += std::bit_cast<float>(scale_bits ^ (negative << 31));
    }
#endif
  }
  const std::size_t tail = out.size() % kWordBits;
  if (tail != 0) {
    const std::uint64_t bits = words[full];
    float* base = data + full * kWordBits;
    for (std::size_t j = 0; j < tail; ++j) {
      const auto negative =
          static_cast<std::uint32_t>(~(bits >> j) & std::uint64_t{1});
      base[j] += std::bit_cast<float>(scale_bits ^ (negative << 31));
    }
  }
}

void accumulate_counts_words(std::span<const std::uint64_t> words,
                             std::span<std::int32_t> values) {
  check_extents(values.size(), words.size());
  const std::size_t full = values.size() / kWordBits;
  std::int32_t* data = values.data();
  for (std::size_t w = 0; w < full; ++w) {
    const std::uint64_t bits = words[w];
    std::int32_t* base = data + w * kWordBits;
#if defined(__AVX512F__)
    const __m512i plus_one = _mm512_set1_epi32(1);
    const __m512i minus_one = _mm512_set1_epi32(-1);
    for (std::size_t k = 0; k < kWordBits; k += 16) {
      const auto mask =
          static_cast<__mmask16>((bits >> k) & std::uint64_t{0xffff});
      const __m512i cur = _mm512_loadu_si512(base + k);
      _mm512_storeu_si512(
          base + k,
          _mm512_add_epi32(cur,
                           _mm512_mask_mov_epi32(minus_one, mask, plus_one)));
    }
#elif defined(__AVX2__)
    const __m256i lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i two = _mm256_set1_epi32(2);
    for (std::size_t k = 0; k < kWordBits; k += 8) {
      const __m256i byte =
          _mm256_set1_epi32(static_cast<int>((bits >> k) & 0xff));
      const __m256i set =
          _mm256_cmpeq_epi32(_mm256_and_si256(byte, lane), lane);
      // set lanes: (−1 & 2) − 1 = +1; clear lanes: 0 − 1 = −1.
      const __m256i delta =
          _mm256_sub_epi32(_mm256_and_si256(set, two), one);
      const __m256i cur = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(base + k));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(base + k),
                          _mm256_add_epi32(cur, delta));
    }
#else
    for (std::size_t j = 0; j < kWordBits; ++j) {
      base[j] += static_cast<std::int32_t>((bits >> j) & 1u) * 2 - 1;
    }
#endif
  }
  const std::size_t tail = values.size() % kWordBits;
  if (tail != 0) {
    const std::uint64_t bits = words[full];
    std::int32_t* base = data + full * kWordBits;
    for (std::size_t j = 0; j < tail; ++j) {
      base[j] += static_cast<std::int32_t>((bits >> j) & 1u) * 2 - 1;
    }
  }
}

void majority_words(std::span<const std::int32_t> values,
                    std::span<std::uint64_t> words) {
  check_extents(values.size(), words.size());
  const std::size_t full = values.size() / kWordBits;
  const std::int32_t* data = values.data();
  for (std::size_t w = 0; w < full; ++w) {
    const std::int32_t* base = data + w * kWordBits;
    std::uint64_t bits = 0;
#if defined(__AVX512F__)
    const __m512i zero = _mm512_setzero_si512();
    for (std::size_t k = 0; k < kWordBits; k += 16) {
      const __m512i v = _mm512_loadu_si512(base + k);
      // v >= 0 (ties to +1): signed not-less-than zero.
      const __mmask16 nonneg =
          _mm512_cmp_epi32_mask(v, zero, _MM_CMPINT_NLT);
      bits |= static_cast<std::uint64_t>(_cvtmask16_u32(nonneg)) << k;
    }
#elif defined(__AVX2__)
    for (std::size_t k = 0; k < kWordBits; k += 8) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(base + k));
      // movemask of v's int32 sign bits = the "negative" lanes; the packed
      // bit is its complement (>= 0, ties to +1).
      const unsigned negative = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(v)));
      bits |= static_cast<std::uint64_t>(~negative & 0xffu) << k;
    }
#else
    for (std::size_t j = 0; j < kWordBits; ++j) {
      bits |= static_cast<std::uint64_t>(base[j] >= 0) << j;
    }
#endif
    words[w] = bits;
  }
  const std::size_t tail = values.size() % kWordBits;
  if (tail != 0) {
    const std::int32_t* base = data + full * kWordBits;
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < tail; ++j) {
      bits |= static_cast<std::uint64_t>(base[j] >= 0) << j;
    }
    words[full] = bits;
  }
}

}  // namespace marsit::kernels
