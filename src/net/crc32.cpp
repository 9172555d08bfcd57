#include "net/crc32.hpp"

#include <array>

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

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const CrcTables& tables = crc_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
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
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  return crc32(bytes.data(), bytes.size());
}

bool crc32_matches(const void* data, std::size_t size, std::uint32_t footer) {
  return crc32(data, size) == footer;
}

}  // namespace marsit
