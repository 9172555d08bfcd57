// The in-memory interpreters of a hop schedule (core/hop_schedule.hpp):
// Marsit's ⊙ reduction of a one-bit round and the float sum of its flush.
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
// In memory, buffer i starts as member i's units, and each fold hop folds
// the sender's units into the receiver's, where the wire's receiver folds
// them, so each range a chain finishes sits where execute_hop_schedule
// leaves it: in the buffer of the chain's last receiver.  Chains write
// disjoint (buffer, unit-range) pairs and never read a range another chain
// of the same phase writes, so the ⊙ fold runs each fold phase's chains as
// pool tasks with output identical to any serial order; the PS and tree
// are one chain per phase and fold serially, as one server or root does on
// the wire.  Float adds are elementwise, so the float fold may walk the
// chains over any window of units and still give the schedule's sum.  The
// copy phases are not run: each range the last fold phase finishes at full
// weight is copied out.
//
// The statistical contract — both Eq. 2 branches unbiased for every segment
// split and every paradigm — is proven in tests/core_one_bit_stat_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/bit_vector.hpp"
#include "core/hop_schedule.hpp"
#include "core/sync_strategy.hpp"

namespace marsit {

class ThreadPool;

/// Marsit's ⊙ reduction of a one-bit round: folds the members' sign
/// planes, all of one length W, by hop_schedule(kOneBit, paradigm,
/// torus_cols, planes.size(), W) and leaves the aggregate in
/// planes.front(); the other planes are clobbered.  A torus re-forms over
/// its members by torus_rows_for — the rule the timing model prices — so a
/// degraded torus folds as a smaller torus or a ring; the members may not
/// exceed the configured torus_rows × torus_cols.  `pool` carries the
/// chains; nullptr uses global_thread_pool(), as SyncConfig::pool does.
void marsit_fold_signs_segmented(
    MarParadigm paradigm, std::size_t torus_rows, std::size_t torus_cols,
    std::span<const std::span<std::uint64_t>> planes,
    std::uint64_t round_seed, ThreadPool* pool = nullptr);

/// The same fold over the leading `num_words` words of signs[0..count).
void marsit_fold_signs_segmented(MarParadigm paradigm, std::size_t torus_rows,
                                 std::size_t torus_cols,
                                 std::vector<BitVector>& signs,
                                 std::size_t count, std::size_t num_words,
                                 std::uint64_t round_seed,
                                 ThreadPool* pool = nullptr);

/// The float all-reduce of kAllReduce `schedule`, serially, on the units
/// `window` of rows[0..members): writes their sum, in the schedule's
/// association, into out[window] and clobbers the rows' window.
void fold_float_schedule(const HopSchedule& schedule,
                         std::span<const std::span<float>> rows,
                         WordSegment window, std::span<float> out);

}  // namespace marsit
