// Deterministic, explicitly-seeded random number generation.
//
// Every stochastic component in marsit (data synthesis, SSDM's stochastic
// sign, the ⊙ operator's Bernoulli transient vector, ...) draws from an
// explicitly constructed Rng, never from global state, so whole experiments
// are bit-reproducible from a single root seed.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through SplitMix64
// as its authors recommend.  Both are implemented here rather than taken from
// <random> because we need (a) a documented, stable bit stream across
// standard-library versions, and (b) cheap word-at-a-time output for packed
// sign-bit sampling.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

namespace marsit {

/// SplitMix64: stateless-per-step 64-bit mixer.  Used to expand a single
/// seed into xoshiro state and to derive independent stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent child seed from a parent seed and a stream index.
/// Children of distinct (seed, stream) pairs produce decorrelated sequences;
/// used to give every (worker, round, segment) its own Bernoulli stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// xoshiro256**: the project-wide PRNG.  Satisfies the
/// uniform_random_bit_generator concept so it also plugs into <random>
/// distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  // marsit-lint: allow(rng-discipline): the project-wide default root seed
  // ("marsit" in ASCII) — the single legitimate literal seeding point; every
  // other stream must reach an Rng through derive_seed(seed, stream).
  explicit Rng(std::uint64_t seed = 0x6d61727369740001ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Raw 64 uniform bits.
  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Uniform in [0, bound).  bound must be > 0.  Uses Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 random mantissa bits.
  double next_double();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (caches the second variate).
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Bernoulli(p): true with probability p.
  bool bernoulli(double p) { return next_double() < p; }

  /// A 64-bit word whose bits are i.i.d. Bernoulli(p).  This is the packed
  /// primitive behind the ⊙ operator's transient vector.  Implemented with
  /// the bit-plane comparison method: lanes compare their uniform binary
  /// fraction against p's binary expansion plane by plane, so each bit is
  /// *exactly* Bernoulli(p) (to the full precision of the double) while
  /// consuming ~8 raw words on average instead of 64 scalar draws.
  /// Exactness matters: the unbiasedness of Marsit's one-bit aggregation
  /// (Eq. 2 of the paper) rests on these probabilities being exact.
  std::uint64_t bernoulli_word(double p);

  /// Fisher–Yates index for shuffles: alias of next_below.
  std::uint64_t index(std::uint64_t bound) { return next_below(bound); }

 private:
  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Shuffles [first, last) indices in-place with the given Rng
/// (std::shuffle's algorithm is unspecified across implementations; this one
/// is pinned for reproducibility).
template <typename It>
void deterministic_shuffle(It first, It last, Rng& rng) {
  const auto n = static_cast<std::uint64_t>(last - first);
  for (std::uint64_t i = n; i > 1; --i) {
    const std::uint64_t j = rng.next_below(i);
    using std::swap;
    swap(first[i - 1], first[j]);
  }
}

}  // namespace marsit
