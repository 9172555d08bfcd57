// Marsit's ⊙ reduction in memory — the single-process interpreter of the
// one-bit hop schedule (core/hop_schedule.hpp).
//
// `bernoulli_word` consumes a variable number of raw generator words, so a
// fold that drew from one sequential stream would force whoever folds to
// see every hop's draws in order: on a real wire, all-gather-and-fold-
// locally at M(M−1)·D bits instead of the paper's 2(M−1)·D.  The schedule
// gives every (segment, fold-op) pair its own derived generator
// (core/one_bit.hpp: segment_fold_seed / segment_op_rng), so a rank can
// fold exactly the segments it owns while all other ranks — and the
// single-process trainer emulating them — reproduce the identical aggregate
// bit-for-bit.
//
// In memory, signs[i] starts as member i's buffer.  A chain that folds the
// arriving partial first (ring, torus) accumulates it in the vector the
// chain started from, so each chain writes only its own words, and later
// hops read a member's copy from wherever its chain left it: the torus
// column phase folds each row's aggregate from the vector its row chain
// accumulated in.  A chain that folds into the receiver's aggregate (PS,
// tree) folds in place in the receiver's vector.  Chains write disjoint
// (vector, word-range) pairs and never read a range another chain of the
// same phase writes, so each fold phase's chains run as tasks on a thread
// pool with output identical to any serial order.  The PS and tree
// schedules are one whole-payload chain per phase and so fold serially —
// as on the wire, where one server or one root folds everything.  The copy
// phases are applied to signs.front() only: each chain of the last fold
// phase finishes its range at full weight, and that range is copied into
// signs.front().
//
// The statistical contract — both Eq. 2 branches unbiased for every segment
// split and every paradigm — is proven in tests/core_one_bit_stat_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/bit_vector.hpp"
#include "core/hop_schedule.hpp"
#include "core/sync_strategy.hpp"

namespace marsit {

class ThreadPool;

/// Marsit's ⊙ reduction of a one-bit round: folds the first `count` sign
/// vectors' leading `num_words` words by hop_schedule(kOneBit, paradigm,
/// torus_cols, count, num_words) and leaves the aggregate in signs.front();
/// the other vectors are clobbered.  A torus re-forms over `count` members
/// by torus_rows_for — the rule the timing model prices — so a degraded
/// torus folds as a smaller torus or a ring; `count` may not exceed the
/// configured torus_rows × torus_cols.  `pool` carries the chains; nullptr
/// uses global_thread_pool(), as SyncConfig::pool does.
void marsit_fold_signs_segmented(MarParadigm paradigm, std::size_t torus_rows,
                                 std::size_t torus_cols,
                                 std::vector<BitVector>& signs,
                                 std::size_t count, std::size_t num_words,
                                 std::uint64_t round_seed,
                                 ThreadPool* pool = nullptr);

}  // namespace marsit
