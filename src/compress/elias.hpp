// Elias-γ code lengths for the baselines' sign-sum messages.
//
// The paper compacts the baselines' growing sign-sum messages with Elias
// coding [31]; SignSum::wire_bits_elias sums these lengths so the Elias
// sizes in bench/ablation_elias and Figure 5 are the exact encoded sizes,
// not fixed-width upper bounds.  Nothing encodes or decodes the stream:
// a γ code's length is a closed form of its value.
//
// Codes operate on positive integers (>= 1).  Signed sign-sum values are
// first zig-zag mapped: 0→1, −1→2, +1→3, −2→4, ... (shifted by one since
// Elias codes cannot express 0).
#pragma once

#include <cstddef>
#include <cstdint>

namespace marsit {

/// Length in bits of γ(n) for n >= 1 (⌊log2 n⌋ zeros, then n's
/// ⌊log2 n⌋+1 bits): 2⌊log2 n⌋ + 1.
std::size_t elias_gamma_length(std::uint64_t n);

/// Signed → positive mapping for Elias coding: 0→1, −1→2, 1→3, −2→4, 2→5...
std::uint64_t zigzag_map(std::int64_t value);

}  // namespace marsit
