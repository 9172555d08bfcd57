// Side-loop timers of the traced run: each calls one layer's public
// functions at the workload's shapes, outside the measured rounds, and
// reports the median per-call wall-clock.
#pragma once

#include <cstdint>
#include <map>

#include "workload.hpp"

namespace perfbench {

struct LayerTimes {
  double pack_ms = 0.0;            // kernels::pack_signs_words over D
  double unpack_ms = 0.0;          // kernels::unpack_signs_words over D
  double combine_ms = 0.0;         // one_bit_combine_words, one ring segment
  double segmented_fold_ms = 0.0;  // marsit_fold_signs_segmented, M vectors
  double forward_ms = 0.0;         // Sequential::forward, one batch
  double backward_ms = 0.0;        // Sequential::backward, one batch
};

LayerTimes time_layers(const Workload& workload, const RunSeeds& seeds);

struct FrameCodecTimes {
  double encode_us = 0.0;  // encode_frame, mean per data frame
  double decode_us = 0.0;  // try_decode_frame, mean per data frame
};

/// Times encode_frame / try_decode_frame at every payload size in
/// `frames_by_size` (size → frames sent at that size) and weights each size
/// by its frame count.
FrameCodecTimes time_frame_codec(
    const std::map<std::uint64_t, std::uint64_t>& frames_by_size);

}  // namespace perfbench
