#include "core/segmented_fold.hpp"

#include <algorithm>
#include <iterator>

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

/// Member `member`'s copy of the units [begin, begin + count) lives in
/// signs[buffer].
struct Holding {
  std::size_t member = 0;
  std::size_t begin = 0;
  std::size_t count = 0;
  std::size_t buffer = 0;
};

}  // namespace

void marsit_fold_signs_segmented(MarParadigm paradigm, std::size_t torus_rows,
                                 std::size_t torus_cols,
                                 std::vector<BitVector>& signs,
                                 std::size_t count, std::size_t num_words,
                                 std::uint64_t round_seed, ThreadPool* pool) {
  MARSIT_CHECK(count > 0 && count <= signs.size())
      << "segmented fold over " << count << " of " << signs.size();
  MARSIT_CHECK(paradigm != MarParadigm::kTorus2d ||
               count <= torus_rows * torus_cols)
      << count << " members on a " << torus_rows << "x" << torus_cols
      << " torus";
  const HopSchedule schedule = hop_schedule(RoundKind::kOneBit, paradigm,
                                            torus_cols, count, num_words);
  ThreadPool& chains = pool != nullptr ? *pool : global_thread_pool();
  // Where finished arriving-first chains left their last member's copy,
  // latest last; any other copy lives in the member's own vector.
  std::vector<Holding> moved;
  const auto holder = [&moved](std::size_t member, const Hop& hop) {
    for (auto held = moved.rbegin(); held != moved.rend(); ++held) {
      if (held->member == member && held->begin <= hop.begin &&
          hop.begin + hop.count <= held->begin + held->count) {
        return held->buffer;
      }
    }
    return member;
  };
  const auto words = [&signs](std::size_t buffer, const Hop& hop) {
    return signs[buffer].words().subspan(hop.begin, hop.count);
  };
  const HopPhase* last_fold = nullptr;
  std::vector<Holding> finished;
  for (const HopPhase& phase : schedule.phases) {
    if (phase.kind != HopKind::kFold) {
      continue;
    }
    finished.assign(phase.chains.size(), Holding{});
    parallel_for(chains, phase.chains.size(), [&](std::size_t c) {
      const std::vector<Hop>& chain = phase.chains[c];
      if (chain.empty()) {
        return;
      }
      // An arriving-first partial accumulates in the vector its chain
      // started from, so the fold writes only that chain's own words.
      const std::size_t partial = holder(chain.front().src, chain.front());
      for (const Hop& hop : chain) {
        if (hop.count == 0) {
          continue;
        }
        const auto resident = words(holder(hop.dst, hop), hop);
        if (hop.arriving_first) {
          fold_hop(hop, round_seed, words(partial, hop), resident,
                   words(partial, hop));
        } else {
          fold_hop(hop, round_seed, words(holder(hop.src, hop), hop), resident,
                   resident);
        }
      }
      const Hop& last = chain.back();
      if (last.arriving_first) {
        finished[c] = {last.dst, last.begin, last.count, partial};
      }
    });
    std::copy_if(finished.begin(), finished.end(), std::back_inserter(moved),
                 [](const Holding& held) { return held.count > 0; });
    last_fold = &phase;
  }
  if (last_fold == nullptr) {
    return;  // a single member
  }
  // The copy phases' image in signs.front(): every chain of the last fold
  // phase ends at the member holding its range at full weight.
  parallel_for(chains, last_fold->chains.size(), [&](std::size_t c) {
    const std::vector<Hop>& chain = last_fold->chains[c];
    if (chain.empty()) {
      return;
    }
    const Hop& last = chain.back();
    const std::size_t buffer = holder(last.dst, last);
    if (buffer != 0) {
      const auto src = words(buffer, last);
      std::copy(src.begin(), src.end(), words(0, last).begin());
    }
  });
}

}  // namespace marsit
