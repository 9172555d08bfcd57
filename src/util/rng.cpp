#include "util/rng.hpp"

#include <cmath>

#include "util/check.hpp"

namespace marsit {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // Mix the stream index through SplitMix64 twice so that adjacent stream
  // ids land far apart in the parent sequence.
  SplitMix64 mixer(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  mixer.next();
  return mixer.next();
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 mixer(seed);
  for (auto& word : state_) {
    word = mixer.next();
  }
  // xoshiro must not start from the all-zero state; SplitMix64 can only
  // produce that for one seed in 2^256, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x8badf00ddeadbeefULL;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  MARSIT_CHECK(bound > 0) << "next_below requires a positive bound";
  // Lemire's multiply-shift method with rejection to remove modulo bias.
  std::uint64_t x = next_u64();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<unsigned __int128>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 is kept away from 0 so log() is finite.
  double u1 = next_double();
  while (u1 <= 0.0) {
    u1 = next_double();
  }
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

std::uint64_t Rng::bernoulli_word(double p) {
  if (p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return ~std::uint64_t{0};
  }
  // Bit-plane method: each lane holds an implicit uniform U in [0,1) revealed
  // one binary digit per plane; the lane's output bit is [U < p].  A lane is
  // decided at the first plane where its digit differs from p's digit.
  std::uint64_t result = 0;
  std::uint64_t undecided = ~std::uint64_t{0};
  double frac = p;
  for (int plane = 0; plane < 64 && undecided != 0; ++plane) {
    frac *= 2.0;
    const bool p_bit = frac >= 1.0;
    if (p_bit) {
      frac -= 1.0;
    }
    const std::uint64_t random_plane = next_u64();
    if (p_bit) {
      // Lanes whose digit is 0 while p's digit is 1 have U < p.
      result |= undecided & ~random_plane;
      undecided &= random_plane;
    } else {
      // Lanes whose digit is 1 while p's digit is 0 have U > p.
      undecided &= ~random_plane;
    }
    if (frac == 0.0) {
      // p's remaining digits are all zero: every still-undecided lane has
      // U >= p, output bit 0, so we are done.
      break;
    }
  }
  return result;
}

}  // namespace marsit
