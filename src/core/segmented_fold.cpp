#include "core/segmented_fold.hpp"

#include <algorithm>

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

/// The units of `hop` inside `window`.
WordSegment clip(const Hop& hop, WordSegment window) {
  const std::size_t begin = std::max(hop.begin, window.begin);
  const std::size_t end =
      std::min(hop.begin + hop.count, window.begin + window.count);
  return {begin, end > begin ? end - begin : 0};
}

/// Walks the fold phases of `schedule` over buffers[0..members) on the
/// units of `window` only — fold(hop, arriving, resident) merges the
/// sender's units into the receiver's, as the wire does — then copies each
/// range the last fold phase finishes at full weight into `out`.  Each
/// phase's chains run on `pool`, or in order when it is null.
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
  const auto units = [&buffers](std::size_t member, WordSegment range) {
    return buffers[member].subspan(range.begin, range.count);
  };
  const HopPhase* last_fold = nullptr;
  for (const HopPhase& phase : schedule.phases) {
    if (phase.kind != HopKind::kFold) {
      continue;
    }
    for_chains(phase, [&](std::size_t c) {
      for (const Hop& hop : phase.chains[c]) {
        const WordSegment range = clip(hop, window);
        if (range.count > 0) {
          fold(hop, units(hop.src, range), units(hop.dst, range));
        }
      }
    });
    last_fold = &phase;
  }
  // The copy phases' image in `out`: every chain of the last fold phase
  // ends at the member holding its range at full weight.
  const auto copy_out = [&](std::size_t member, WordSegment range) {
    const auto sum = units(member, range);
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
      copy_out(chain.back().dst, clip(chain.back(), window));
    }
  });
}

}  // namespace

void marsit_fold_signs_segmented(
    MarParadigm paradigm, std::size_t torus_rows, std::size_t torus_cols,
    std::span<const std::span<std::uint64_t>> planes,
    std::uint64_t round_seed, ThreadPool* pool) {
  MARSIT_CHECK(!planes.empty()) << "segmented fold over no planes";
  MARSIT_CHECK(paradigm != MarParadigm::kTorus2d ||
               planes.size() <= torus_rows * torus_cols)
      << planes.size() << " members on a " << torus_rows << "x" << torus_cols
      << " torus";
  const std::size_t num_words = planes.front().size();
  fold_phases<std::uint64_t>(
      hop_schedule(RoundKind::kOneBit, paradigm, torus_cols, planes.size(),
                   num_words),
      planes, {0, num_words}, planes.front(),
      pool != nullptr ? pool : &global_thread_pool(),
      [round_seed](const Hop& hop, auto arriving, auto resident) {
        fold_hop(hop, round_seed, arriving, resident);
      });
}

void marsit_fold_signs_segmented(MarParadigm paradigm, std::size_t torus_rows,
                                 std::size_t torus_cols,
                                 std::vector<BitVector>& signs,
                                 std::size_t count, std::size_t num_words,
                                 std::uint64_t round_seed, ThreadPool* pool) {
  MARSIT_CHECK(count <= signs.size())
      << "segmented fold over " << count << " of " << signs.size();
  std::vector<std::span<std::uint64_t>> planes;
  for (std::size_t i = 0; i < count; ++i) {
    planes.push_back(signs[i].words().first(num_words));
  }
  marsit_fold_signs_segmented(paradigm, torus_rows, torus_cols, planes,
                              round_seed, pool);
}

void fold_float_schedule(const HopSchedule& schedule,
                         std::span<const std::span<float>> rows,
                         WordSegment window, std::span<float> out) {
  MARSIT_CHECK(schedule.members <= rows.size() &&
               window.begin + window.count <= out.size())
      << "float fold over " << rows.size() << " rows into " << out.size();
  fold_phases<float>(schedule, rows, window, out, nullptr,
                     [](const Hop& hop, auto arriving, auto resident) {
                       fold_hop(hop, arriving, resident);
                     });
}

}  // namespace marsit
