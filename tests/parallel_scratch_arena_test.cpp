#include "parallel/scratch_arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

namespace marsit {
namespace {

TEST(ScratchArenaTest, ReusesBlocksAfterWarmup) {
  ScratchArena& arena = this_thread_arena();
  arena.reset();
  const std::span<std::uint64_t> w1 = arena.words(37);
  const std::span<float> f1 = arena.floats(129);
  const std::span<std::int32_t> c1 = arena.counts(65);
  // Distinct requests in one task get distinct blocks.
  const std::span<std::uint64_t> w2 = arena.words(37);
  EXPECT_NE(w1.data(), w2.data());
  EXPECT_EQ(w1.size(), 37u);
  EXPECT_EQ(f1.size(), 129u);
  EXPECT_EQ(c1.size(), 65u);
  // After reset, the same request sequence reuses the warm blocks: the grow
  // counter (the zero-allocation hook the sync tests pin) stays flat.
  const std::uint64_t grows = ScratchArena::total_grows();
  for (int repeat = 0; repeat < 8; ++repeat) {
    arena.reset();
    (void)arena.words(37);
    (void)arena.floats(129);
    (void)arena.counts(65);
    (void)arena.words(30);  // smaller fits the warm 37-word block
  }
  EXPECT_EQ(ScratchArena::total_grows(), grows)
      << "arena grew on a repeated request sequence";
  arena.reset();
}

}  // namespace
}  // namespace marsit
