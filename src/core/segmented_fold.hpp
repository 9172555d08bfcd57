// Segment-seeded ⊙ folds — Marsit's reduction, in reduce-scatter form.
//
// `bernoulli_word` consumes a variable number of raw generator words, so a
// fold that drew from one sequential stream would force whoever folds to
// see every hop's draws in order: on a real wire, all-gather-and-fold-
// locally at M(M−1)·D bits instead of the paper's 2(M−1)·D.  The folds in
// this header give every (segment, fold-op) pair its own derived generator
// (core/one_bit.hpp: segment_fold_seed / segment_op_rng), so a rank can
// fold exactly the segments it owns in a reduce-scatter schedule while all
// other ranks — and the single-process trainer emulating them — reproduce
// the identical aggregate bit-for-bit.
//
// Each fold here is the trainer-side (single-process) replay of a concrete
// wire schedule run by src/dist/worker.cpp over a Transport:
//
//   segmented_ring_fold   ring reduce-scatter: W words split into `count`
//                         segments; segment s's chain starts at rank s and
//                         its op k folds at rank (s+k+1) mod count, merging
//                         the arriving partial (weight k+1) with that rank's
//                         local signs (weight 1).
//   segmented_torus_fold  two-level reduce-scatter: row rings over `cols`
//                         segments, then column rings over `rows`
//                         sub-segments, with whole-row weights (multiples of
//                         cols) in the column phase.
//   segmented_chain_fold  parameter server: the server folds workers in rank
//                         order over one whole-payload segment.
//   segmented_tree_fold   binomial tree: stride-doubling merges with a
//                         per-merge op ordinal (tree_merge_schedule).
//
// All folds leave the final aggregate in signs.front() (the local image of
// the all-gather phase).  Chains write disjoint (vector, word-range) pairs
// and never read a range another chain writes, so the ring's chains and
// each torus phase's chains run as tasks on a thread pool with output
// identical to any serial order.  The PS and tree folds are one
// whole-payload chain each (one generator per op, consuming words in
// order) and stay serial — as on the wire, where one server or one root
// folds everything.
//
// The statistical contract — both Eq. 2 branches unbiased for every segment
// split — is proven in tests/core_one_bit_stat_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/bit_vector.hpp"
#include "core/sync_strategy.hpp"

namespace marsit {

class ThreadPool;

/// One word-aligned segment of a reduce-scatter partition.
struct WordSegment {
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// Deterministic partition of `num_words` words into `parts` segments: the
/// first (num_words mod parts) segments get one extra word.  Segments may be
/// empty when num_words < parts; empty segments cost no wire bytes and no
/// rng.  Every backend derives ownership from this single function.
WordSegment word_segment(std::size_t num_words, std::size_t parts,
                         std::size_t index);

/// One merge of the binomial-tree reduction: `src`'s aggregate (weight
/// src_weight) folds into `dst`'s (weight dst_weight), as the op-th ⊙ of the
/// round (rng = segment_op_rng(segment_fold_seed(seed, 0), op)).
struct TreeMerge {
  std::size_t dst = 0;
  std::size_t src = 0;
  std::size_t dst_weight = 0;
  std::size_t src_weight = 0;
  std::size_t op = 0;
};

/// The canonical merge order of the binomial tree over `count` ranks
/// (stride doubling, ascending dst) with a running op ordinal.  Both the
/// trainer fold and the distributed worker replay this schedule so their
/// rng draws line up.
std::vector<TreeMerge> tree_merge_schedule(std::size_t count);

/// Ring reduce-scatter fold of the first `count` sign vectors' leading
/// `num_words` words, one pool task per segment chain.  Aggregate lands in
/// signs.front().
void segmented_ring_fold(std::vector<BitVector>& signs, std::size_t count,
                         std::size_t num_words, std::uint64_t round_seed,
                         ThreadPool& pool);

/// Torus reduce-scatter fold (requires rows*cols == count), one pool task
/// per chain within each phase.  Segment seeds: the row phase uses id
/// r·cols + j for (row r, segment j); the column phase uses id
/// count + c·rows + i for (column c, sub-segment i).
void segmented_torus_fold(std::vector<BitVector>& signs, std::size_t count,
                          std::size_t rows, std::size_t cols,
                          std::size_t num_words, std::uint64_t round_seed,
                          ThreadPool& pool);

/// Parameter-server fold: chain in rank order over one whole-payload
/// segment (segment id 0), one derived generator per hop.
void segmented_chain_fold(std::vector<BitVector>& signs, std::size_t count,
                          std::size_t num_words, std::uint64_t round_seed);

/// Binomial-tree fold following tree_merge_schedule(count).
void segmented_tree_fold(std::vector<BitVector>& signs, std::size_t count,
                         std::size_t num_words, std::uint64_t round_seed);

/// Marsit's ⊙ reduction of a one-bit round: folds the first `count` sign
/// vectors with `paradigm`'s segmented fold and leaves the aggregate in
/// signs.front().  A torus re-forms over `count` members by
/// torus_rows_for — the rule the timing model prices — so a degraded torus
/// folds as a smaller torus or a ring; `count` may not exceed the
/// configured torus_rows × torus_cols.  `pool`
/// carries the ring and torus chains; nullptr uses global_thread_pool(), as
/// SyncConfig::pool does.
void marsit_fold_signs_segmented(MarParadigm paradigm, std::size_t torus_rows,
                                 std::size_t torus_cols,
                                 std::vector<BitVector>& signs,
                                 std::size_t count, std::size_t num_words,
                                 std::uint64_t round_seed,
                                 ThreadPool* pool = nullptr);

}  // namespace marsit
