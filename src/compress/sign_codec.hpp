// Conversions between float gradients and packed sign bits, and the three
// sign compressors the paper evaluates:
//
//  * deterministic sign      — signSGD [21]: bit_i = [g_i >= 0]
//  * stochastic sign (SSDM)  — [14]: P(bit_i = 1) = 1/2 + g_i / (2‖g‖₂),
//                              decoded as ±‖g‖₂ so E[decode] = g
//  * scaled sign (EF-signSGD)— [30]: (‖g‖₁/d)·sign(g), the compressor used
//                              with error feedback
//
// Sign convention everywhere: bit 1 ⇔ +1, bit 0 ⇔ −1 (see bit_vector.hpp).
//
// The default entry points run the word-parallel kernels (compress/
// kernels.hpp): 64 elements per std::uint64_t word, branch-free.  Each has a
// `*_scalar` reference twin — the original one-element-per-iteration code —
// kept as the bit-exactness oracle for tests/compress_kernels_test.cpp and
// the baseline for bench/micro_kernels.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "compress/bit_vector.hpp"
#include "util/rng.hpp"

namespace marsit {

/// bit_i = [g_i >= 0].  Zero maps to +1, matching sgn() as the paper's
/// Algorithm 1 uses it (a zero gradient element transmits "+").
BitVector pack_signs(std::span<const float> g);

/// Scalar reference for pack_signs (bit-identical, one element per step).
BitVector pack_signs_scalar(std::span<const float> g);

/// out_i = scale · (bits_i ? +1 : −1).
void unpack_signs(const BitVector& bits, float scale, std::span<float> out);

/// Scalar reference for unpack_signs.
void unpack_signs_scalar(const BitVector& bits, float scale,
                         std::span<float> out);

/// out_i += scale · (bits_i ? +1 : −1) — fused form used by the optimizers.
void accumulate_signs(const BitVector& bits, float scale,
                      std::span<float> out);

/// Scalar reference for accumulate_signs.
void accumulate_signs_scalar(const BitVector& bits, float scale,
                             std::span<float> out);

/// SSDM stochastic sign: P(bit=1) = clamp(1/2 + g_i/(2‖g‖₂), 0, 1).
/// A zero-norm input packs deterministic signs (all +1), matching the
/// convention above.  Draws one uniform per element from rng.
///
/// `block` > 0 computes the ℓ2 norm over blocks of that many elements
/// instead of the whole vector — the deployable form: with a whole-vector
/// norm on a 10⁵⁺-dimensional gradient the probability shift per element is
/// O(1/√D) ≈ 0, so the signs are coin flips and carry no information;
/// block-wise norms (like per-tensor/per-layer norms in real systems) keep
/// them informative.  block = 0 is the paper-exact whole-vector form used
/// by the theory benches.
BitVector ssdm_pack(std::span<const float> g, Rng& rng,
                    std::size_t block = 0);

/// Scalar reference for ssdm_pack — consumes rng identically (one
/// next_double per element of every nonzero-norm block), so equal seeds give
/// bit-identical packings.
BitVector ssdm_pack_scalar(std::span<const float> g, Rng& rng,
                           std::size_t block = 0);

/// Word-span form of ssdm_pack for the sharded rounds: packs `g` (which
/// must start on a block boundary of the *caller's* blocking scheme) into
/// `words`, words.size() == ⌈g.size()/64⌉.  block = 0 treats g as one block.
void ssdm_pack_words(std::span<const float> g, Rng& rng, std::size_t block,
                     std::span<std::uint64_t> words);

/// The ℓ2 norm SSDM transmits alongside the bits; decode is
/// unpack_signs(bits, norm, out).
float ssdm_norm(std::span<const float> g);

/// EF-signSGD compressor: returns the scale s = ‖g‖₁/d; the bits are the
/// deterministic signs; decode is unpack_signs(bits, s, out).
float scaled_sign_scale(std::span<const float> g);

}  // namespace marsit
