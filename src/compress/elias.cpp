#include "compress/elias.hpp"

#include <bit>

#include "util/check.hpp"

namespace marsit {

std::size_t elias_gamma_length(std::uint64_t n) {
  MARSIT_CHECK(n >= 1) << "Elias gamma is defined for n >= 1";
  const auto floor_log2 =
      static_cast<std::size_t>(63 - std::countl_zero(n));
  return 2 * floor_log2 + 1;
}

std::uint64_t zigzag_map(std::int64_t value) {
  // 0→1, −1→2, 1→3, −2→4, 2→5, ...
  if (value >= 0) {
    return 2 * static_cast<std::uint64_t>(value) + 1;
  }
  return 2 * static_cast<std::uint64_t>(-value);
}

}  // namespace marsit
