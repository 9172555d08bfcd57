#include "parallel/scratch_arena.hpp"

#include <atomic>

namespace marsit {

namespace {

std::atomic<std::uint64_t> g_arena_grows{0};

}  // namespace

void ScratchArena::reset() {
  for (auto& block : word_blocks_) {
    block.in_use = false;
  }
  for (auto& block : float_blocks_) {
    block.in_use = false;
  }
  for (auto& block : count_blocks_) {
    block.in_use = false;
  }
}

template <typename T>
std::span<T> ScratchArena::take(std::vector<Block<T>>& blocks,
                                std::size_t count) {
  // First-fit over the free blocks.  The task bodies issue the same request
  // sequence every round, so after one warm round every take() hits.
  for (auto& block : blocks) {
    if (!block.in_use && block.data.size() >= count) {
      block.in_use = true;
      return std::span<T>{block.data.data(), count};
    }
  }
  g_arena_grows.fetch_add(1, std::memory_order_relaxed);
  // emplace_back may move existing Block structs; the moved std::vector
  // keeps its heap buffer, so spans handed out earlier stay valid.
  blocks.emplace_back();
  blocks.back().data.resize(count);
  blocks.back().in_use = true;
  return std::span<T>{blocks.back().data.data(), count};
}

std::span<std::uint64_t> ScratchArena::words(std::size_t count) {
  return take(word_blocks_, count);
}

std::span<float> ScratchArena::floats(std::size_t count) {
  return take(float_blocks_, count);
}

std::span<std::int32_t> ScratchArena::counts(std::size_t count) {
  return take(count_blocks_, count);
}

std::uint64_t ScratchArena::total_grows() {
  return g_arena_grows.load(std::memory_order_relaxed);
}

ScratchArena& this_thread_arena() {
  thread_local ScratchArena arena;
  return arena;
}

}  // namespace marsit
