#include "net/crc32.hpp"

#include <array>

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <immintrin.h>
#define MARSIT_CRC32_CLMUL 1
#endif

namespace marsit {

namespace {

/// Bytes consumed per step of the slicing loop.
constexpr std::size_t kSlices = 16;

using CrcTables = std::array<std::array<std::uint32_t, 256>, kSlices>;

/// Slicing-by-16 tables for the reflected IEEE polynomial, built once.
/// tables[0] is the classic byte-at-a-time table; tables[s][v] is the CRC
/// of byte v followed by s zero bytes, so one step folds 16 input bytes
/// with 16 independent lookups.
const CrcTables& crc_tables() {
  static const CrcTables kTables = [] {
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
      }
      tables[0][i] = crc;
    }
    for (std::size_t s = 1; s < kSlices; ++s) {
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = tables[s - 1][i];
        tables[s][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
      }
    }
    return tables;
  }();
  return kTables;
}

/// Advances the raw (pre-inverted) CRC register over `size` bytes.
std::uint32_t crc32_sliced(std::uint32_t crc, const std::uint8_t* bytes,
                           std::size_t size) {
  const CrcTables& tables = crc_tables();
  for (; size >= kSlices; size -= kSlices, bytes += kSlices) {
    // The running CRC covers the step's first four bytes (least significant
    // byte first, independent of host byte order); byte s of the step is
    // followed by 15 − s more, hence table 15 − s.
    std::uint32_t next = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      next ^= tables[kSlices - 1 - s][((crc >> (8 * s)) ^ bytes[s]) & 0xFFu];
    }
    for (std::size_t s = 4; s < kSlices; ++s) {
      next ^= tables[kSlices - 1 - s][bytes[s]];
    }
    crc = next;
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ tables[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc;
}

#if defined(MARSIT_CRC32_CLMUL)

/// The fold kernel needs one whole 64-byte block.
constexpr std::size_t kClmulMinBytes = 64;

__m128i load_block(const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Folds `x` forward by the distance the constant pair in `k` encodes and
/// adds `next`: x.lo·k.lo ⊕ x.hi·k.hi ⊕ next over GF(2).
__m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Advances the raw CRC register over `size` bytes, size >= 64 and a
/// multiple of 16, by carry-less-multiply folding (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
/// 2009).  The constants are the paper's bit-reflected ones for
/// 0xEDB88320: k1/k2 fold 512 bits, k3/k4 fold 128, k5 folds 64 → 32, and
/// (P', μ) drive the final Barrett reduction.
std::uint32_t crc32_clmul(std::uint32_t crc, const std::uint8_t* bytes,
                          std::size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four independent 128-bit lanes over each 64-byte block.
  __m128i x1 = _mm_xor_si128(load_block(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load_block(bytes + 16);
  __m128i x3 = load_block(bytes + 32);
  __m128i x4 = load_block(bytes + 48);
  bytes += 64;
  size -= 64;
  for (; size >= 64; bytes += 64, size -= 64) {
    x1 = fold(x1, k1k2, load_block(bytes));
    x2 = fold(x2, k1k2, load_block(bytes + 16));
    x3 = fold(x3, k1k2, load_block(bytes + 32));
    x4 = fold(x4, k1k2, load_block(bytes + 48));
  }
  // Four lanes into one, then the remaining 16-byte blocks.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = fold(x1, k3k4, load_block(bytes));
  }
  // 128 → 64 bits.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  // 64 → 32 bits.
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), t);
  // Barrett reduction to the 32-bit remainder.
  t = _mm_and_si128(x1, low32);
  t = _mm_clmulepi64_si128(t, poly_mu, 0x10);
  t = _mm_and_si128(t, low32);
  t = _mm_clmulepi64_si128(t, poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // MARSIT_CRC32_CLMUL

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~state;
#if defined(MARSIT_CRC32_CLMUL)
  if (size >= kClmulMinBytes) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = crc32_clmul(crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return ~crc32_sliced(crc, bytes, size);
}

std::uint32_t crc32(const void* data, std::size_t size) {
  return crc32_update(0, data, size);
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  return crc32(bytes.data(), bytes.size());
}

bool crc32_matches(const void* data, std::size_t size, std::uint32_t footer) {
  return crc32(data, size) == footer;
}

}  // namespace marsit
