// Per-thread scratch arenas for the sharded synchronization rounds.
//
// A sharded round (DESIGN.md §12) runs one parallel_for task per ShardPlan
// chunk, and a task often needs a chunk-sized temporary: the packed signs
// of a worker it folds straight into the sign-sum, the sign-sum's counts,
// the majority verdict, the decoded EF delta.  Allocating those per chunk
// would put a heap allocation inside the hot loop of every round.  Instead
// each thread keeps a thread-local arena of reusable blocks; a task resets
// its thread's arena and takes what it needs, and a global grow counter
// lets tests assert that warm rounds allocate nothing
// (tests/core_sharded_sync_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace marsit {

/// Reusable scratch blocks for per-chunk task bodies.  take-style accessors
/// hand out spans backed by pooled buffers; reset() returns every block to
/// the free list without releasing memory, so a steady-state round performs
/// zero heap allocations.  Not thread-safe — each thread uses its own arena
/// (see this_thread_arena()).
class ScratchArena {
 public:
  /// Marks every block free.  Spans handed out earlier must no longer be
  /// used.  A task calls it before its first take.
  void reset();

  /// A word block of exactly `count` elements (grows the arena on a cold
  /// miss; warm rounds reuse).  Contents are unspecified.
  std::span<std::uint64_t> words(std::size_t count);

  /// A float block of exactly `count` elements.
  std::span<float> floats(std::size_t count);

  /// A sign-sum count block of exactly `count` elements.
  std::span<std::int32_t> counts(std::size_t count);

  /// Process-wide count of arena block allocations (cold-path grows).  A
  /// warm round must leave this unchanged — the counting hook the
  /// zero-allocation test asserts on.
  static std::uint64_t total_grows();

 private:
  template <typename T>
  struct Block {
    std::vector<T> data;
    bool in_use = false;
  };

  template <typename T>
  static std::span<T> take(std::vector<Block<T>>& blocks, std::size_t count);

  std::vector<Block<std::uint64_t>> word_blocks_;
  std::vector<Block<float>> float_blocks_;
  std::vector<Block<std::int32_t>> count_blocks_;
};

/// The calling thread's arena (thread-local, created on first use).  Pool
/// worker threads are long-lived, so their arenas stay warm across rounds.
ScratchArena& this_thread_arena();

}  // namespace marsit
