// Statistical harness for the ⊙ operator (ISSUE: `ctest -L stat`).
//
// Where tests/core_one_bit_test.cpp spot-checks single configurations with
// binomial z-scores, this file runs the distributional checks the paper's
// Eq. 2 actually claims:
//
//   * a chi-square goodness-of-fit over *every* hop position m ∈ {2..16},
//     for both disagreement branches (the incoming aggregate survives w.p.
//     (m−1)/m; the local worker wins w.p. 1/m);
//   * end-to-end unbiasedness of the full ring chain fold and a
//     ragged-torus fold (rows of unequal length merging with their true
//     weights) against the exact mean sign;
//   * the same two families with the fold split across independently
//     seeded segments (core/one_bit.hpp's segment_fold_seed /
//     segment_op_rng — the reduce-scatter rng discipline), at segment
//     counts {1, 2, 7, 64}, and the production fold
//     (marsit_fold_signs_segmented) on ring, torus, PS and tree.
//
// Every check is seeded and thresholded so loosely (|z| < 5.5, p > 1e−7)
// that a correct implementation fails with probability < 1e−6 per run —
// the harness can run at distinct seeds (MARSIT_STAT_SEED) forever without
// flaking, while a biased branch fails deterministically.
#include "core/one_bit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <vector>

#include "core/segmented_fold.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace marsit {
namespace {

constexpr double kMaxAbsZ = 5.5;
constexpr double kMinP = 1e-7;

/// Base seed for every check in this file; override with MARSIT_STAT_SEED to
/// re-run the whole harness on an independent sample.
std::uint64_t stat_seed() {
  if (const char* env = std::getenv("MARSIT_STAT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5eedu;
}

/// Draws `trials` combines of two fully-disagreeing vectors with weights
/// (weight_a, 1) and returns the number of surviving a-bits out of `n`.
std::size_t disagreement_ones(bool a_value, std::size_t weight_a,
                              std::size_t d, int trials, Rng& rng) {
  BitVector a(d), b(d);
  if (a_value) {
    a.fill(true);
  } else {
    b.fill(true);
  }
  std::size_t ones = 0;
  for (int t = 0; t < trials; ++t) {
    ones += one_bit_combine(a, weight_a, b, 1, rng).popcount();
  }
  return ones;
}

/// Chi-square GOF of per-hop disagreement outcomes across m ∈ {2..16}.
/// `a_is_one` selects the branch: the incoming aggregate carries 1-bits
/// (survival probability (m−1)/m) or the local worker does (1/m).
void check_disagreement_branch(bool a_is_one, std::uint64_t salt) {
  const std::size_t d = 64 * 256;
  const int trials = 4;
  const double n = static_cast<double>(d) * trials;
  std::vector<std::size_t> observed;
  std::vector<double> expected;
  for (std::size_t m = 2; m <= 16; ++m) {
    Rng rng(derive_seed(derive_seed(stat_seed(), salt), m));
    const std::size_t ones =
        disagreement_ones(a_is_one, m - 1, d, trials, rng);
    const double p_one =
        a_is_one ? static_cast<double>(m - 1) / static_cast<double>(m)
                 : 1.0 / static_cast<double>(m);
    observed.push_back(ones);
    observed.push_back(static_cast<std::size_t>(n) - ones);
    expected.push_back(n * p_one);
    expected.push_back(n * (1.0 - p_one));
  }
  // Each hop position contributes one free cell (ones + zeros are
  // complementary), so dof = #positions.
  const double statistic = chi_square_statistic(observed, expected);
  const std::size_t dof = 15;
  EXPECT_GT(chi_square_p_value(statistic, dof), kMinP)
      << "Eq. 2 " << (a_is_one ? "(m-1)/m" : "1/m")
      << " branch failed GOF: chi2=" << statistic << " dof=" << dof;
}

TEST(OneBitStatTest, AggregateSurvivalBranchMatchesEq2AcrossHops) {
  check_disagreement_branch(/*a_is_one=*/true, /*salt=*/0xa001);
}

TEST(OneBitStatTest, LocalWorkerBranchMatchesEq2AcrossHops) {
  check_disagreement_branch(/*a_is_one=*/false, /*salt=*/0xa002);
}

/// One segment-seeded combine of two fully-disagreeing vectors: the word
/// range is partitioned into `segments` slices and each slice draws from
/// its own segment_op_rng stream — exactly the reduce-scatter rng
/// discipline, where no rank ever sees another segment's stream.
std::size_t segmented_disagreement_ones(bool a_value, std::size_t weight_a,
                                        std::size_t d, int trials,
                                        std::uint64_t round_seed,
                                        std::size_t segments) {
  BitVector a(d), b(d);
  if (a_value) {
    a.fill(true);
  } else {
    b.fill(true);
  }
  const std::size_t num_words = a.words().size();
  std::size_t ones = 0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t trial_seed =
        derive_seed(round_seed, static_cast<std::uint64_t>(t));
    BitVector acc = a;
    for (std::size_t s = 0; s < segments; ++s) {
      const WordSegment seg = word_segment(num_words, segments, s);
      if (seg.count == 0) {
        continue;
      }
      Rng rng = segment_op_rng(segment_fold_seed(trial_seed, s), 0);
      one_bit_combine_words(acc.words().subspan(seg.begin, seg.count),
                            weight_a,
                            b.words().subspan(seg.begin, seg.count), 1, rng);
    }
    ones += acc.popcount();
  }
  return ones;
}

/// Chi-square GOF of the segment-seeded disagreement outcomes across
/// m ∈ {2..16}, at one segment count.  Splitting the fold across
/// independent streams must leave both Eq. 2 branch probabilities intact.
void check_segmented_disagreement_branch(bool a_is_one, std::size_t segments,
                                         std::uint64_t salt) {
  const std::size_t d = 64 * 256;  // 256 words: divisible down to 64 slices
  const int trials = 4;
  const double n = static_cast<double>(d) * trials;
  std::vector<std::size_t> observed;
  std::vector<double> expected;
  for (std::size_t m = 2; m <= 16; ++m) {
    const std::uint64_t round_seed =
        derive_seed(derive_seed(stat_seed(), salt), m);
    const std::size_t ones = segmented_disagreement_ones(
        a_is_one, m - 1, d, trials, round_seed, segments);
    const double p_one =
        a_is_one ? static_cast<double>(m - 1) / static_cast<double>(m)
                 : 1.0 / static_cast<double>(m);
    observed.push_back(ones);
    observed.push_back(static_cast<std::size_t>(n) - ones);
    expected.push_back(n * p_one);
    expected.push_back(n * (1.0 - p_one));
  }
  const double statistic = chi_square_statistic(observed, expected);
  const std::size_t dof = 15;
  EXPECT_GT(chi_square_p_value(statistic, dof), kMinP)
      << "Eq. 2 " << (a_is_one ? "(m-1)/m" : "1/m") << " branch over "
      << segments << " seeded segments failed GOF: chi2=" << statistic
      << " dof=" << dof;
}

TEST(OneBitStatTest, AggregateSurvivalBranchUnbiasedAcrossSeededSegments) {
  std::uint64_t salt = 0xa101;
  for (const std::size_t segments : {1u, 2u, 7u, 64u}) {
    check_segmented_disagreement_branch(/*a_is_one=*/true, segments, salt++);
  }
}

TEST(OneBitStatTest, LocalWorkerBranchUnbiasedAcrossSeededSegments) {
  std::uint64_t salt = 0xa201;
  for (const std::size_t segments : {1u, 2u, 7u, 64u}) {
    check_segmented_disagreement_branch(/*a_is_one=*/false, segments, salt++);
  }
}

/// Element layout for the fold checks: element j of every repetition block
/// has exactly j of the m workers positive, so the folded bit must be 1
/// with probability j/m exactly.
std::vector<BitVector> ladder_signs(std::size_t m, std::size_t reps) {
  const std::size_t d = (m + 1) * reps;
  std::vector<BitVector> signs(m, BitVector(d));
  for (std::size_t w = 0; w < m; ++w) {
    for (std::size_t j = w + 1; j <= m; ++j) {
      for (std::size_t r = 0; r < reps; ++r) {
        signs[w].set(j * reps + r, true);
      }
    }
  }
  return signs;
}

/// Tallies per-element-class one-counts over repeated trial-indexed folds
/// and z-tests every class against its exact mean-sign probability j/m.
void check_fold_unbiased_by_trial(
    std::size_t m, std::size_t reps, int trials,
    const std::function<BitVector(std::size_t)>& fold, const char* what) {
  std::vector<std::size_t> ones(m + 1, 0);
  for (int t = 0; t < trials; ++t) {
    const BitVector folded = fold(static_cast<std::size_t>(t));
    for (std::size_t j = 0; j <= m; ++j) {
      for (std::size_t r = 0; r < reps; ++r) {
        ones[j] += folded.get(j * reps + r);
      }
    }
  }
  const std::size_t n = reps * static_cast<std::size_t>(trials);
  EXPECT_EQ(ones[0], 0u) << what << ": unanimous −1 element flipped";
  EXPECT_EQ(ones[m], n) << what << ": unanimous +1 element flipped";
  for (std::size_t j = 1; j < m; ++j) {
    const double p = static_cast<double>(j) / static_cast<double>(m);
    EXPECT_LT(std::fabs(binomial_z_score(ones[j], n, p)), kMaxAbsZ)
        << what << ": element class k=" << j << "/" << m << " biased (freq "
        << static_cast<double>(ones[j]) / static_cast<double>(n) << ")";
  }
}

/// Single-stream adapter: one Rng drives every trial in sequence.
void check_fold_unbiased(std::size_t m, std::size_t reps, int trials,
                         const std::function<BitVector(Rng&)>& fold,
                         std::uint64_t salt, const char* what) {
  Rng rng(derive_seed(stat_seed(), salt));
  check_fold_unbiased_by_trial(
      m, reps, trials, [&](std::size_t) { return fold(rng); }, what);
}

TEST(OneBitStatTest, FullRingFoldIsUnbiasedForMeanSign) {
  const std::size_t m = 8;
  const std::size_t reps = 64;
  const std::vector<BitVector> signs = ladder_signs(m, reps);
  check_fold_unbiased(
      m, reps, /*trials=*/400,
      [&signs](Rng& rng) { return one_bit_fold(signs, rng); },
      /*salt=*/0xb001, "ring chain fold");
}

TEST(OneBitStatTest, RaggedTorusFoldIsUnbiasedForMeanSign) {
  // 7 vectors in rows of 3 (last row short): rows fold internally with
  // weights 1..len, then whole-row aggregates merge into row 0 carrying
  // their true accumulated weights.  The weighted ⊙ must stay unbiased for
  // merges of unequal weight, not only for the torus' whole-row multiples.
  const std::size_t m = 7;
  const std::size_t cols = 3;
  const std::size_t reps = 64;
  const std::vector<BitVector> signs = ladder_signs(m, reps);
  auto ragged_fold = [&signs, m, cols](Rng& rng) {
    std::vector<BitVector> work = signs;  // fold mutates in place
    std::size_t merged_weight = 0;
    for (std::size_t base = 0; base < m; base += cols) {
      const std::size_t len = std::min(cols, m - base);
      for (std::size_t c = 1; c < len; ++c) {
        one_bit_combine_words(work[base].words(), c,
                              work[base + c].words(), 1, rng);
      }
      if (base == 0) {
        merged_weight = len;
      } else {
        one_bit_combine_words(work[0].words(), merged_weight,
                              work[base].words(), len, rng);
        merged_weight += len;
      }
    }
    return work[0];
  };
  check_fold_unbiased(m, reps, /*trials=*/400, ragged_fold,
                      /*salt=*/0xb002, "ragged torus fold");
}

TEST(OneBitStatTest, RandomGradientRingFoldMatchesExactMeanSign) {
  // End-to-end on *random* sign patterns rather than the ladder layout:
  // group elements by their exact positive count k (which fully determines
  // the fold distribution) and z-test each group's pooled one-frequency
  // against k/M.
  const std::size_t m = 5;
  const std::size_t d = 64 * 64;
  std::vector<BitVector> signs(m, BitVector(d));
  Rng init(derive_seed(stat_seed(), 0xc001));
  for (std::size_t w = 0; w < m; ++w) {
    for (std::size_t word = 0; word < signs[w].words().size(); ++word) {
      signs[w].words()[word] = init.next_u64();
    }
  }
  std::vector<std::size_t> k_of(d, 0);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t w = 0; w < m; ++w) {
      k_of[i] += signs[w].get(i);
    }
  }
  std::vector<std::size_t> group_size(m + 1, 0);
  for (std::size_t i = 0; i < d; ++i) {
    ++group_size[k_of[i]];
  }

  const int trials = 200;
  std::vector<std::size_t> ones(m + 1, 0);
  Rng rng(derive_seed(stat_seed(), 0xc002));
  for (int t = 0; t < trials; ++t) {
    const BitVector folded = one_bit_fold(signs, rng);
    for (std::size_t i = 0; i < d; ++i) {
      ones[k_of[i]] += folded.get(i);
    }
  }
  for (std::size_t k = 1; k < m; ++k) {
    ASSERT_GT(group_size[k], 100u) << "degenerate random draw";
    const std::size_t n = group_size[k] * static_cast<std::size_t>(trials);
    const double p = static_cast<double>(k) / static_cast<double>(m);
    EXPECT_LT(std::fabs(binomial_z_score(ones[k], n, p)), kMaxAbsZ)
        << "random-gradient fold biased for k=" << k << "/" << m;
  }
}

/// Chain-folds the m ladder vectors with the word range split into
/// `segments` independently seeded slices: segment s's chain runs ops
/// k = 0..m−2 with segment_op_rng(segment_fold_seed(round_seed, s), k) —
/// the reduce-scatter discipline at an arbitrary segment count.
BitVector segmented_chain_fold_trial(const std::vector<BitVector>& signs,
                                     std::size_t segments,
                                     std::uint64_t round_seed) {
  std::vector<BitVector> work = signs;  // fold mutates in place
  const std::size_t num_words = work[0].words().size();
  for (std::size_t s = 0; s < segments; ++s) {
    const WordSegment seg = word_segment(num_words, segments, s);
    if (seg.count == 0) {
      continue;
    }
    const std::uint64_t segment_seed = segment_fold_seed(round_seed, s);
    auto slice = work[0].words().subspan(seg.begin, seg.count);
    for (std::size_t k = 0; k + 1 < work.size(); ++k) {
      Rng rng = segment_op_rng(segment_seed, k);
      one_bit_combine_words(slice, k + 1,
                            work[k + 1].words().subspan(seg.begin, seg.count),
                            1, rng);
    }
  }
  return work[0];
}

TEST(OneBitStatTest, SegmentSeededChainFoldIsUnbiasedForMeanSign) {
  // reps = 512 so the ladder spans (m+1)·512 = 4608 bits = 72 words —
  // enough for every slice of the 64-segment split to be non-empty.
  const std::size_t m = 8;
  const std::size_t reps = 512;
  const std::vector<BitVector> signs = ladder_signs(m, reps);
  std::uint64_t salt = 0xb101;
  for (const std::size_t segments : {1u, 2u, 7u, 64u}) {
    const std::uint64_t base = derive_seed(stat_seed(), salt++);
    check_fold_unbiased_by_trial(
        m, reps, /*trials=*/64,
        [&signs, segments, base](std::size_t trial) {
          return segmented_chain_fold_trial(
              signs, segments, derive_seed(base, trial));
        },
        "segment-seeded chain fold");
  }
}

/// The exact production path one-bit rounds run in the simulator
/// (marsit_fold_signs_segmented, core/segmented_fold.hpp) on `paradigm`
/// over rows × cols workers (rows = 1 off the torus), checked unbiased at
/// segment seeds derived from `salt`.
void check_production_fold_unbiased(MarParadigm paradigm, std::size_t rows,
                                    std::size_t cols, std::uint64_t salt,
                                    const char* label) {
  const std::size_t m = rows * cols;
  const std::size_t reps = 512;
  const std::vector<BitVector> signs = ladder_signs(m, reps);
  const std::uint64_t base = derive_seed(stat_seed(), salt);
  check_fold_unbiased_by_trial(
      m, reps, /*trials=*/64,
      [&](std::size_t trial) {
        std::vector<BitVector> work = signs;
        marsit_fold_signs_segmented(paradigm, rows, cols, work, work.size(),
                                    work[0].words().size(),
                                    derive_seed(base, trial),
                                    &global_thread_pool());
        return work[0];
      },
      label);
}

TEST(OneBitStatTest, ProductionSegmentedRingFoldIsUnbiasedForMeanSign) {
  // m rank-owned segments, each chain starting at its owner rank, result
  // gathered into signs[0].
  check_production_fold_unbiased(MarParadigm::kRing, 1, 8, 0xb201,
                                 "production segmented ring fold");
}

TEST(OneBitStatTest, ProductionSegmentedTorusFoldIsUnbiasedForMeanSign) {
  // The four-phase torus reduce-scatter (2×4 shape).
  check_production_fold_unbiased(MarParadigm::kTorus2d, 2, 4, 0xb202,
                                 "production segmented torus fold");
}

TEST(OneBitStatTest, ProductionParameterServerFoldIsUnbiasedForMeanSign) {
  // One whole-plane chain folded at the server, receiver's aggregate first.
  check_production_fold_unbiased(MarParadigm::kParameterServer, 1, 8, 0xb203,
                                 "production parameter-server fold");
}

TEST(OneBitStatTest, ProductionTreeFoldIsUnbiasedForMeanSign) {
  // Binomial merges of unequal-weight aggregates, receiver's aggregate
  // first.
  check_production_fold_unbiased(MarParadigm::kTree, 1, 8, 0xb204,
                                 "production tree fold");
}

}  // namespace
}  // namespace marsit
