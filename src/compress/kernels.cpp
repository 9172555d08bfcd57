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

/// Bit 0 of `bit` ? scale : −scale, with `scale_bits` the bits of scale.
/// Negation is a sign-bit flip, so this is bit-exact with the scalar
/// `bit ? scale : -scale` for every bit pattern, NaN included.
float signed_scale(std::uint32_t scale_bits, std::uint64_t bit) {
  const auto negative = static_cast<std::uint32_t>(~bit & std::uint64_t{1});
  return std::bit_cast<float>(scale_bits ^ (negative << 31));
}

#if defined(__AVX512F__)
/// Lane l: bit k + l of `bits` ? pos : neg, with neg = −pos.  The 16-lane
/// predicate mask IS the next 16 bits of the word.
__m512 signed_lanes(std::uint64_t bits, std::size_t k, __m512 pos,
                    __m512 neg) {
  return _mm512_mask_mov_ps(
      neg, static_cast<__mmask16>((bits >> k) & std::uint64_t{0xffff}), pos);
}
#elif defined(__AVX2__)
/// Lane l: bit k + l of `bits` ? pos : −pos, clear bits flipping pos's sign
/// bit as signed_scale does.
__m256 signed_lanes(std::uint64_t bits, std::size_t k, __m256 pos) {
  const __m256i lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i byte =
      _mm256_set1_epi32(static_cast<int>((bits >> k) & 0xff));
  const __m256i set = _mm256_cmpeq_epi32(_mm256_and_si256(byte, lane), lane);
  const __m256 flip =
      _mm256_andnot_ps(_mm256_castsi256_ps(set), _mm256_set1_ps(-0.0f));
  return _mm256_xor_ps(pos, flip);
}
#endif

/// Packs [c >= 0] for c ← (c + signed_scale(debt)) + u, or c ← u + c when
/// kSettle is false; one element of settle_add_pack_signs_words.
template <bool kSettle>
std::uint64_t settle_add_element(float u, float& c, std::uint32_t scale_bits,
                                 std::uint64_t debt) {
  float settled = c;
  if constexpr (kSettle) {
    settled += signed_scale(scale_bits, debt);
  }
  c = u + settled;
  return static_cast<std::uint64_t>(c >= 0.0f);
}

template <bool kSettle>
void settle_add_pack(const std::uint64_t* owed, float scale, const float* u,
                     float* c, std::size_t elements, std::uint64_t* words) {
  const std::uint32_t scale_bits = std::bit_cast<std::uint32_t>(scale);
  const std::size_t full = elements / kWordBits;
  for (std::size_t w = 0; w < full; ++w) {
    const float* u_base = u + w * kWordBits;
    float* c_base = c + w * kWordBits;
    // Read before words[w] is written: owed may alias words.
    const std::uint64_t debt = kSettle ? owed[w] : 0;
    std::uint64_t bits = 0;
#if defined(__AVX512F__)
    const __m512 zero = _mm512_setzero_ps();
    const __m512 pos = _mm512_set1_ps(scale);
    const __m512 neg = _mm512_set1_ps(-scale);
    for (std::size_t k = 0; k < kWordBits; k += 16) {
      __m512 settled = _mm512_loadu_ps(c_base + k);
      if constexpr (kSettle) {
        settled = _mm512_add_ps(settled, signed_lanes(debt, k, pos, neg));
      }
      const __m512 sum = _mm512_add_ps(_mm512_loadu_ps(u_base + k), settled);
      _mm512_storeu_ps(c_base + k, sum);
      const __mmask16 ge = _mm512_cmp_ps_mask(sum, zero, _CMP_GE_OQ);
      bits |= static_cast<std::uint64_t>(_cvtmask16_u32(ge)) << k;
    }
#elif defined(__AVX2__)
    const __m256 zero = _mm256_setzero_ps();
    const __m256 pos = _mm256_set1_ps(scale);
    for (std::size_t k = 0; k < kWordBits; k += 8) {
      __m256 settled = _mm256_loadu_ps(c_base + k);
      if constexpr (kSettle) {
        settled = _mm256_add_ps(settled, signed_lanes(debt, k, pos));
      }
      const __m256 sum = _mm256_add_ps(_mm256_loadu_ps(u_base + k), settled);
      _mm256_storeu_ps(c_base + k, sum);
      const __m256 ge = _mm256_cmp_ps(sum, zero, _CMP_GE_OQ);
      bits |= static_cast<std::uint64_t>(
                  static_cast<unsigned>(_mm256_movemask_ps(ge)))
              << k;
    }
#else
    for (std::size_t j = 0; j < kWordBits; ++j) {
      bits |= settle_add_element<kSettle>(u_base[j], c_base[j], scale_bits,
                                          debt >> j)
              << j;
    }
#endif
    words[w] = bits;
  }
  const std::size_t tail = elements % kWordBits;
  if (tail != 0) {
    const float* u_base = u + full * kWordBits;
    float* c_base = c + full * kWordBits;
    const std::uint64_t debt = kSettle ? owed[full] : 0;
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < tail; ++j) {
      bits |= settle_add_element<kSettle>(u_base[j], c_base[j], scale_bits,
                                          debt >> j)
              << j;
    }
    words[full] = bits;
  }
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

void settle_add_pack_signs_words(std::span<const std::uint64_t> owed,
                                 float scale, std::span<const float> update,
                                 std::span<float> compensation,
                                 std::span<std::uint64_t> words) {
  MARSIT_CHECK(update.size() == compensation.size())
      << "settle_add_pack_signs_words: extents " << update.size() << " vs "
      << compensation.size();
  check_extents(compensation.size(), words.size());
  if (owed.empty()) {
    settle_add_pack<false>(nullptr, scale, update.data(),
                           compensation.data(), compensation.size(),
                           words.data());
    return;
  }
  check_extents(compensation.size(), owed.size());
  settle_add_pack<true>(owed.data(), scale, update.data(),
                        compensation.data(), compensation.size(),
                        words.data());
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
    const __m512 neg = _mm512_set1_ps(-scale);
    for (std::size_t k = 0; k < kWordBits; k += 16) {
      _mm512_storeu_ps(base + k, signed_lanes(bits, k, pos, neg));
    }
#elif defined(__AVX2__)
    const __m256 pos = _mm256_set1_ps(scale);
    for (std::size_t k = 0; k < kWordBits; k += 8) {
      _mm256_storeu_ps(base + k, signed_lanes(bits, k, pos));
    }
#else
    for (std::size_t j = 0; j < kWordBits; ++j) {
      base[j] = signed_scale(scale_bits, bits >> j);
    }
#endif
  }
  const std::size_t tail = out.size() % kWordBits;
  if (tail != 0) {
    const std::uint64_t bits = words[full];
    float* base = data + full * kWordBits;
    for (std::size_t j = 0; j < tail; ++j) {
      base[j] = signed_scale(scale_bits, bits >> j);
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
      const __m512 cur = _mm512_loadu_ps(base + k);
      _mm512_storeu_ps(base + k,
                       _mm512_add_ps(cur, signed_lanes(bits, k, pos, neg)));
    }
#elif defined(__AVX2__)
    const __m256 pos = _mm256_set1_ps(scale);
    for (std::size_t k = 0; k < kWordBits; k += 8) {
      const __m256 cur = _mm256_loadu_ps(base + k);
      _mm256_storeu_ps(base + k,
                       _mm256_add_ps(cur, signed_lanes(bits, k, pos)));
    }
#else
    for (std::size_t j = 0; j < kWordBits; ++j) {
      base[j] += signed_scale(scale_bits, bits >> j);
    }
#endif
  }
  const std::size_t tail = out.size() % kWordBits;
  if (tail != 0) {
    const std::uint64_t bits = words[full];
    float* base = data + full * kWordBits;
    for (std::size_t j = 0; j < tail; ++j) {
      base[j] += signed_scale(scale_bits, bits >> j);
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
