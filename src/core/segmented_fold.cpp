#include "core/segmented_fold.hpp"

#include <algorithm>
#include <utility>

#include "core/one_bit.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace marsit {

WordSegment word_segment(std::size_t num_words, std::size_t parts,
                         std::size_t index) {
  MARSIT_CHECK(parts > 0) << "word_segment over zero parts";
  MARSIT_CHECK(index < parts)
      << "word_segment index " << index << " of " << parts;
  const std::size_t base = num_words / parts;
  const std::size_t rem = num_words % parts;
  WordSegment seg;
  seg.begin = index * base + std::min(index, rem);
  seg.count = base + (index < rem ? 1 : 0);
  return seg;
}

std::vector<TreeMerge> tree_merge_schedule(std::size_t count) {
  MARSIT_CHECK(count > 0) << "tree schedule over zero ranks";
  std::vector<TreeMerge> merges;
  std::vector<std::size_t> weights(count, 1);
  std::size_t op = 0;
  for (std::size_t stride = 1; stride < count; stride *= 2) {
    for (std::size_t i = 0; i + stride < count; i += 2 * stride) {
      merges.push_back(
          {i, i + stride, weights[i], weights[i + stride], op++});
      weights[i] += weights[i + stride];
    }
  }
  return merges;
}

void segmented_ring_fold(std::vector<BitVector>& signs, std::size_t count,
                         std::size_t num_words, std::uint64_t round_seed,
                         ThreadPool& pool) {
  MARSIT_CHECK(count > 0 && count <= signs.size())
      << "segmented_ring_fold over " << count << " of " << signs.size();
  // Chain for segment s accumulates in signs[s]'s own segment-s words — the
  // buffer the chain-starting rank would hold on the wire.  Chains touch
  // disjoint (vector, word-range) pairs, so they run as pool tasks in any
  // order.
  parallel_for(pool, count, [&](std::size_t s) {
    const WordSegment seg = word_segment(num_words, count, s);
    if (seg.count == 0) return;
    const std::uint64_t seg_seed = segment_fold_seed(round_seed, s);
    const auto acc = signs[s].words().subspan(seg.begin, seg.count);
    for (std::size_t k = 0; k + 1 < count; ++k) {
      const std::size_t b = (s + k + 1) % count;
      Rng rng = segment_op_rng(seg_seed, k);
      one_bit_combine_words(
          acc, k + 1, signs[b].words().subspan(seg.begin, seg.count), 1, rng);
    }
  });
  // Local image of the all-gather phase: finalized segments move into
  // signs.front() so downstream unpacking reads one vector.
  parallel_for(pool, count - 1, [&](std::size_t i) {
    const WordSegment seg = word_segment(num_words, count, i + 1);
    const auto src = signs[i + 1].words().subspan(seg.begin, seg.count);
    const auto dst = signs[0].words().subspan(seg.begin, seg.count);
    std::copy(src.begin(), src.end(), dst.begin());
  });
}

void segmented_torus_fold(std::vector<BitVector>& signs, std::size_t count,
                          std::size_t rows, std::size_t cols,
                          std::size_t num_words, std::uint64_t round_seed,
                          ThreadPool& pool) {
  MARSIT_CHECK(rows > 0 && cols > 0 && rows * cols == count)
      << "torus " << rows << "x" << cols << " does not tile " << count;
  MARSIT_CHECK(count <= signs.size())
      << "segmented_torus_fold over " << count << " of " << signs.size();
  // Phase A — row reduce-scatter: within row r, segment j's chain starts at
  // column j and accumulates in signs[r·cols + j].  Chain id = r·cols + j.
  parallel_for(pool, count, [&](std::size_t id) {
    const std::size_t r = id / cols;
    const std::size_t j = id % cols;
    const WordSegment seg = word_segment(num_words, cols, j);
    if (seg.count == 0) return;
    const std::uint64_t seg_seed = segment_fold_seed(round_seed, id);
    const auto acc = signs[id].words().subspan(seg.begin, seg.count);
    for (std::size_t k = 0; k + 1 < cols; ++k) {
      const std::size_t b = r * cols + (j + k + 1) % cols;
      Rng rng = segment_op_rng(seg_seed, k);
      one_bit_combine_words(
          acc, k + 1, signs[b].words().subspan(seg.begin, seg.count), 1, rng);
    }
  });
  // Phase B — column reduce-scatter: column c owns segment j = (c+1) mod
  // cols after phase A; its rows-sized chains merge whole-row aggregates, so
  // weights are multiples of cols.  Row i's aggregate of segment j lives in
  // signs[i·cols + j] (where its phase-A chain accumulated).  Chain id =
  // c·rows + i; its words are sub-segment i of segment j.
  const auto column_chain = [&](std::size_t id) {
    const std::size_t c = id / rows;
    const std::size_t i = id % rows;
    const std::size_t j = (c + 1) % cols;
    const WordSegment seg = word_segment(num_words, cols, j);
    const WordSegment sub = word_segment(seg.count, rows, i);
    return std::pair{j, WordSegment{seg.begin + sub.begin, sub.count}};
  };
  parallel_for(pool, count, [&](std::size_t id) {
    const auto [j, words] = column_chain(id);
    if (words.count == 0) return;
    const std::size_t i = id % rows;
    const std::uint64_t seg_seed = segment_fold_seed(round_seed, count + id);
    const auto acc = signs[i * cols + j].words().subspan(words.begin,
                                                         words.count);
    for (std::size_t k = 0; k + 1 < rows; ++k) {
      const std::size_t b_row = (i + k + 1) % rows;
      Rng rng = segment_op_rng(seg_seed, k);
      one_bit_combine_words(
          acc, (k + 1) * cols,
          signs[b_row * cols + j].words().subspan(words.begin, words.count),
          cols, rng);
    }
  });
  // Local image of phases C/D (column then row all-gather).
  parallel_for(pool, count, [&](std::size_t id) {
    const auto [j, words] = column_chain(id);
    const std::size_t owner = (id % rows) * cols + j;
    if (owner == 0) return;
    const auto src = signs[owner].words().subspan(words.begin, words.count);
    const auto dst = signs[0].words().subspan(words.begin, words.count);
    std::copy(src.begin(), src.end(), dst.begin());
  });
}

void segmented_chain_fold(std::vector<BitVector>& signs, std::size_t count,
                          std::size_t num_words, std::uint64_t round_seed) {
  MARSIT_CHECK(count > 0 && count <= signs.size())
      << "segmented_chain_fold over " << count << " of " << signs.size();
  const std::uint64_t seg_seed = segment_fold_seed(round_seed, 0);
  const auto acc = signs[0].words().subspan(0, num_words);
  for (std::size_t k = 0; k + 1 < count; ++k) {
    Rng rng = segment_op_rng(seg_seed, k);
    one_bit_combine_words(
        acc, k + 1, signs[k + 1].words().subspan(0, num_words), 1, rng);
  }
}

void segmented_tree_fold(std::vector<BitVector>& signs, std::size_t count,
                         std::size_t num_words, std::uint64_t round_seed) {
  MARSIT_CHECK(count > 0 && count <= signs.size())
      << "segmented_tree_fold over " << count << " of " << signs.size();
  const std::uint64_t seg_seed = segment_fold_seed(round_seed, 0);
  for (const TreeMerge& merge : tree_merge_schedule(count)) {
    Rng rng = segment_op_rng(seg_seed, merge.op);
    one_bit_combine_words(signs[merge.dst].words().subspan(0, num_words),
                          merge.dst_weight,
                          signs[merge.src].words().subspan(0, num_words),
                          merge.src_weight, rng);
  }
}

void marsit_fold_signs_segmented(MarParadigm paradigm, std::size_t torus_rows,
                                 std::size_t torus_cols,
                                 std::vector<BitVector>& signs,
                                 std::size_t count, std::size_t num_words,
                                 std::uint64_t round_seed, ThreadPool* pool) {
  MARSIT_CHECK(count > 0 && count <= signs.size())
      << "segmented fold over " << count << " of " << signs.size();
  if (count == 1) return;
  switch (paradigm) {
    case MarParadigm::kParameterServer:
      segmented_chain_fold(signs, count, num_words, round_seed);
      return;
    case MarParadigm::kTree:
      segmented_tree_fold(signs, count, num_words, round_seed);
      return;
    case MarParadigm::kRing:
    case MarParadigm::kTorus2d:
      break;
  }
  ThreadPool& chains = pool != nullptr ? *pool : global_thread_pool();
  if (paradigm == MarParadigm::kTorus2d) {
    MARSIT_CHECK(count <= torus_rows * torus_cols)
        << count << " members on a " << torus_rows << "x" << torus_cols
        << " torus";
    const std::size_t rows = torus_rows_for(torus_cols, count);
    if (rows > 0) {
      segmented_torus_fold(signs, count, rows, torus_cols, num_words,
                           round_seed, chains);
      return;
    }
  }
  // A ring, or a torus whose members fill fewer than two whole rows.
  segmented_ring_fold(signs, count, num_words, round_seed, chains);
}

}  // namespace marsit
