// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) payload footers.
//
// Wire integrity: when a FaultPlan injects payload corruption
// (corruption_rate > 0), every simulated message carries a 4-byte CRC32
// footer (kCrcFooterBytes is priced into NetworkSim::transfer), and a
// receiver detects a corrupted delivery by recomputing the checksum — the
// single-bit and burst-error detection guarantees of CRC32 are exactly what
// the sign-bit payloads need, since a flipped sign bit would otherwise fold
// silently into the ⊙ chain.  The simulator models the detect-and-retry
// protocol (detection always succeeds for the injected single-payload
// corruption class); SocketTransport computes this checksum for real on
// every frame it writes and verifies it on every frame it reads
// (net/frame.hpp).
//
// Two kernels compute the same function, chosen at compile time.  Builds
// with PCLMULQDQ and SSE4.1 (__PCLMUL__ and __SSE4_1__) fold 64-byte blocks
// with carry-less multiplies (Gopal et al., Intel 2009); every other build,
// and every tail shorter than 16 bytes, runs slicing-by-16 tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace marsit {

/// CRC32 footer size as priced on the simulated wire.
inline constexpr double kCrcFooterBytes = 4.0;
inline constexpr double kCrcFooterBits = 32.0;

/// CRC32 of `size` bytes at `data` (init 0xFFFFFFFF, final xor-out —
/// the standard IEEE checksum).
std::uint32_t crc32(const void* data, std::size_t size);

/// Span convenience overload.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Streaming form: `state` is the CRC32 of the bytes seen so far (0 for
/// none), and the result is the CRC32 of those bytes followed by these.
/// So crc32_update(crc32(a), b) == crc32(a | b) for any split.
std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t size);

/// True when `footer` matches the payload's recomputed checksum — the
/// receiver-side acceptance test of the corruption-detection protocol.
bool crc32_matches(const void* data, std::size_t size, std::uint32_t footer);

}  // namespace marsit
