// Word-parallel bit-plane kernels: the hot inner loops shared by the sign
// codecs (sign_codec.hpp), the sign-sum aggregation (sign_sum.hpp) and the
// sharded synchronization pipeline (core/sync_strategy.cpp).
//
// Every kernel processes 64 elements per std::uint64_t word: sign bits are
// produced with branch-free float comparisons packed movemask-style into a
// register-resident word, and consumed by XOR-ing the ±scale sign bit into
// the float bit pattern (std::bit_cast) — no per-element branches, no
// per-element memory read-modify-write on the packed words.  On AVX-512
// hardware the packed words map directly onto 16-lane predicate masks
// (one kmov per 16 elements, no byte-splat/compare expansion); AVX2 runs 8
// lanes at a time via movemask/cmpeq; the generic fallback is the same
// branch-free arithmetic, one element per iteration.
//
// All kernels operate on *word spans* rather than whole BitVectors so the
// sharded pipeline can hand each chunk a word-aligned slice:
//   elements [64·w0, 64·w1) of the vector ↔ words [w0, w1) of the packing.
// A kernel's element span may end mid-word (the global tail); bits beyond
// the element count are left untouched by producers writing a full word
// (they write zeros, preserving BitVector's canonical zero-tail form).
//
// Bit-exactness contract (tested in tests/compress_kernels_test.cpp): every
// kernel here produces bit-identical results to the *_scalar reference in
// sign_codec.hpp / sign_sum.hpp for all finite inputs including ±0.  (For
// NaN inputs pack_signs matches the scalar `x >= 0` convention too: NaN
// packs as −1.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace marsit::kernels {

/// Number of elements packed per word — the alignment quantum every sharded
/// chunk boundary must respect.
inline constexpr std::size_t kWordBits = 64;

/// Words needed to hold `elements` packed bits.
constexpr std::size_t words_for(std::size_t elements) {
  return (elements + kWordBits - 1) / kWordBits;
}

/// bit_i = [g_i >= 0] packed LSB-first; words.size() must equal
/// words_for(g.size()).  Full words are overwritten; a trailing partial
/// word's high bits are written as zero.
void pack_signs_words(std::span<const float> g,
                      std::span<std::uint64_t> words);

/// c_i ← (c_i + scale · (owed_i ? +1 : −1)) + u_i, then bit_i = [c_i >= 0]
/// packed as pack_signs_words does: Algorithm 1's line 1 in one pass, with
/// the previous round's line 10 settled first.  Byte-identical to
/// accumulate_signs_words(owed, scale, c), then `add(u, c, c)`, then
/// pack_signs_words.  An empty `owed` settles nothing (c_i ← u_i + c_i);
/// otherwise it has words.size() words and may alias `words`.  u and c have
/// equal extents.
void settle_add_pack_signs_words(std::span<const std::uint64_t> owed,
                                 float scale, std::span<const float> update,
                                 std::span<float> compensation,
                                 std::span<std::uint64_t> words);

/// out_i = scale · (bit_i ? +1 : −1).  words.size() == words_for(out.size()).
void unpack_signs_words(std::span<const std::uint64_t> words, float scale,
                        std::span<float> out);

/// out_i += scale · (bit_i ? +1 : −1).
void accumulate_signs_words(std::span<const std::uint64_t> words, float scale,
                            std::span<float> out);

/// values_i += bit_i ? +1 : −1 — the sign-sum accumulation primitive.
void accumulate_counts_words(std::span<const std::uint64_t> words,
                             std::span<std::int32_t> values);

/// bit_i = [values_i >= 0] (ties to +1) packed LSB-first.
void majority_words(std::span<const std::int32_t> values,
                    std::span<std::uint64_t> words);

}  // namespace marsit::kernels
