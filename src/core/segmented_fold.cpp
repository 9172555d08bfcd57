#include "core/segmented_fold.hpp"

#include <algorithm>
#include <iterator>

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

/// Member `member`'s copy of the units [begin, begin + count) lives in
/// buffers[buffer].
struct Holding {
  std::size_t member = 0;
  std::size_t begin = 0;
  std::size_t count = 0;
  std::size_t buffer = 0;
};

/// The units of `hop` inside `window`.
WordSegment clip(const Hop& hop, WordSegment window) {
  const std::size_t begin = std::max(hop.begin, window.begin);
  const std::size_t end =
      std::min(hop.begin + hop.count, window.begin + window.count);
  return {begin, end > begin ? end - begin : 0};
}

/// Walks the fold phases of `schedule` over buffers[0..members) on the
/// units of `window` only — fold(hop, arriving, resident, out) merges one
/// hop's units, `out` aliasing one operand — then copies each range the
/// last fold phase finishes at full weight into `out`.  Each phase's chains
/// run on `pool`, or in order when it is null.
template <typename Unit, typename Fold>
void fold_phases(const HopSchedule& schedule,
                 std::span<const std::span<Unit>> buffers, WordSegment window,
                 std::span<Unit> out, ThreadPool* pool, Fold&& fold) {
  const auto for_chains = [pool](const HopPhase& phase, const auto& fn) {
    if (pool != nullptr) {
      parallel_for(*pool, phase.chains.size(), fn);
      return;
    }
    for (std::size_t c = 0; c < phase.chains.size(); ++c) {
      fn(c);
    }
  };
  // Where finished arriving-first chains left their last member's copy,
  // latest last; any other copy lives in the member's own buffer.
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
  const auto units = [&buffers](std::size_t buffer, WordSegment range) {
    return buffers[buffer].subspan(range.begin, range.count);
  };
  const HopPhase* last_fold = nullptr;
  std::vector<Holding> finished;
  for (const HopPhase& phase : schedule.phases) {
    if (phase.kind != HopKind::kFold) {
      continue;
    }
    finished.assign(phase.chains.size(), Holding{});
    for_chains(phase, [&](std::size_t c) {
      const std::vector<Hop>& chain = phase.chains[c];
      if (chain.empty()) {
        return;
      }
      // An arriving-first partial accumulates in the buffer its chain
      // started from, so the fold writes only that chain's own units.
      const std::size_t partial = holder(chain.front().src, chain.front());
      for (const Hop& hop : chain) {
        const WordSegment range = clip(hop, window);
        if (range.count == 0) {
          continue;
        }
        const auto resident = units(holder(hop.dst, hop), range);
        if (hop.arriving_first) {
          fold(hop, units(partial, range), resident, units(partial, range));
        } else {
          fold(hop, units(holder(hop.src, hop), range), resident, resident);
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
  // The copy phases' image in `out`: every chain of the last fold phase
  // ends at the member holding its range at full weight.
  const auto copy_out = [&](std::size_t buffer, WordSegment range) {
    const auto sum = units(buffer, range);
    if (sum.data() != out.data() + range.begin) {
      std::copy(sum.begin(), sum.end(), out.begin() + range.begin);
    }
  };
  if (last_fold == nullptr) {
    copy_out(0, window);  // a lone member's units are its sum
    return;
  }
  for_chains(*last_fold, [&](std::size_t c) {
    const std::vector<Hop>& chain = last_fold->chains[c];
    if (!chain.empty()) {
      copy_out(holder(chain.back().dst, chain.back()),
               clip(chain.back(), window));
    }
  });
}

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
  std::vector<std::span<std::uint64_t>> planes;
  planes.reserve(signs.size());
  for (BitVector& plane : signs) {
    planes.push_back(plane.words());
  }
  fold_phases<std::uint64_t>(
      hop_schedule(RoundKind::kOneBit, paradigm, torus_cols, count,
                   num_words),
      planes, {0, num_words}, planes.front(),
      pool != nullptr ? pool : &global_thread_pool(),
      [round_seed](const Hop& hop, auto arriving, auto resident, auto out) {
        fold_hop(hop, round_seed, arriving, resident, out);
      });
}

void fold_float_schedule(const HopSchedule& schedule,
                         std::span<const std::span<float>> rows,
                         WordSegment window, std::span<float> out) {
  MARSIT_CHECK(schedule.members <= rows.size() &&
               window.begin + window.count <= out.size())
      << "float fold over " << rows.size() << " rows into " << out.size();
  fold_phases<float>(schedule, rows, window, out, nullptr,
                     [](const Hop& hop, auto arriving, auto resident,
                        auto sum) { fold_hop(hop, arriving, resident, sum);
                     });
}

}  // namespace marsit
