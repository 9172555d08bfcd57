#include "layer_timers.hpp"

#include <cstring>
#include <vector>

#include "compress/bit_vector.hpp"
#include "compress/kernels.hpp"
#include "core/one_bit.hpp"
#include "core/segmented_fold.hpp"
#include "net/frame.hpp"
#include "nn/loss.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// Median seconds of `call()` over at least 5 calls and at least 50 ms of
/// timed work.  `prepare()` runs untimed before every call.
template <typename Prepare, typename Call>
double median_call_seconds(Prepare prepare, Call call) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 5 || (total < 0.05 && samples.size() < 2000)) {
    prepare();
    const double start = now_seconds();
    call();
    const double elapsed = now_seconds() - start;
    samples.push_back(elapsed);
    total += elapsed;
  }
  return median(std::move(samples));
}

template <typename Call>
double median_call_seconds(Call call) {
  return median_call_seconds([] {}, call);
}

std::vector<std::uint64_t> random_words(std::size_t count, marsit::Rng& rng) {
  std::vector<std::uint64_t> words(count);
  for (std::uint64_t& word : words) {
    word = rng.next_u64();
  }
  return words;
}

/// Word count of the first ring segment the workload's reduce-scatter
/// plane folds: W/M on the ring, W/cols in the torus's row phase.
std::size_t ring_segment_words(const Workload& workload, std::size_t words) {
  const std::size_t parts = workload.paradigm == marsit::MarParadigm::kTorus2d
                                ? workload.torus_cols
                                : workload.workers;
  return marsit::word_segment(words, parts, 0).count;
}

}  // namespace

LayerTimes time_layers(const Workload& workload, const RunSeeds& seeds) {
  LayerTimes times;
  marsit::Rng rng(seeds.sync);
  const std::size_t d = param_count(workload);
  const std::size_t words = marsit::kernels::words_for(d);

  marsit::Tensor values(d);
  for (float& v : values.span()) {
    v = static_cast<float>(rng.normal());
  }
  std::vector<std::uint64_t> packed(words);
  times.pack_ms = 1e3 * median_call_seconds([&] {
    marsit::kernels::pack_signs_words(values.span(), packed);
  });
  times.unpack_ms = 1e3 * median_call_seconds([&] {
    marsit::kernels::unpack_signs_words(packed, 2e-3f, values.span());
  });

  const std::size_t seg = ring_segment_words(workload, words);
  std::vector<std::uint64_t> a = random_words(seg, rng);
  const std::vector<std::uint64_t> b = random_words(seg, rng);
  times.combine_ms = 1e3 * median_call_seconds([&] {
    marsit::Rng op_rng = marsit::segment_op_rng(seeds.sync, 0);
    marsit::one_bit_combine_words(a, 1, b, 1, op_rng);
  });

  std::vector<marsit::BitVector> pristine(workload.workers,
                                          marsit::BitVector(d));
  for (marsit::BitVector& signs : pristine) {
    const std::vector<std::uint64_t> fill = random_words(words, rng);
    std::copy(fill.begin(), fill.end(), signs.words().begin());
    // Tail bits past D stay zero, as the fold's operands require.
    signs.words().back() &=
        d % 64 == 0 ? ~0ull : (std::uint64_t{1} << (d % 64)) - 1;
  }
  std::vector<marsit::BitVector> signs;
  times.segmented_fold_ms =
      1e3 * median_call_seconds([&] { signs = pristine; },
                                [&] {
                                  marsit::marsit_fold_signs_segmented(
                                      workload.paradigm, workload.torus_rows,
                                      workload.torus_cols, signs,
                                      workload.workers, words, seeds.sync);
                                });

  const marsit::SyntheticDigits digits(digits_config(seeds));
  const marsit::ShardedSampler sampler(
      digits, workload.workers, workload.batch, marsit::kTrainSampleRange,
      marsit::kTestSampleRange, seeds.trainer);
  marsit::Sequential model = make_model(workload);
  marsit::Rng init_rng(seeds.trainer);
  model.init(init_rng);
  marsit::Batch batch;
  sampler.worker_batch(0, 0, batch);
  marsit::Tensor dlogits;
  std::vector<double> forward;
  std::vector<double> backward;
  double total = 0.0;
  while (forward.size() < 5 || (total < 0.1 && forward.size() < 2000)) {
    model.zero_grads();
    double start = now_seconds();
    const auto logits = model.forward(batch.inputs.span(), batch.size());
    forward.push_back(now_seconds() - start);
    if (dlogits.size() != logits.size()) {
      dlogits = marsit::Tensor(logits.size());
    }
    marsit::softmax_cross_entropy(
        logits, {batch.labels.data(), batch.labels.size()},
        digits.num_classes(), dlogits.span());
    start = now_seconds();
    model.backward(dlogits.span(), batch.size());
    backward.push_back(now_seconds() - start);
    total += forward.back() + backward.back();
  }
  times.forward_ms = 1e3 * median(forward);
  times.backward_ms = 1e3 * median(backward);
  return times;
}

FrameCodecTimes time_frame_codec(
    const std::map<std::uint64_t, std::uint64_t>& frames_by_size) {
  FrameCodecTimes times;
  double frames = 0.0;
  for (const auto& [size, count] : frames_by_size) {
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 131u + 7u);
    }
    std::vector<std::uint8_t> encoded;
    const double encode = median_call_seconds([&] {
      encoded = marsit::encode_frame(marsit::kDataMagic, 4, payload);
    });
    marsit::Frame frame;
    const double decode = median_call_seconds(
        [&] { frame = marsit::Frame{}; },
        [&] { (void)marsit::try_decode_frame(encoded, frame); });
    times.encode_us += 1e6 * encode * static_cast<double>(count);
    times.decode_us += 1e6 * decode * static_cast<double>(count);
    frames += static_cast<double>(count);
  }
  if (frames > 0.0) {
    times.encode_us /= frames;
    times.decode_us /= frames;
  }
  return times;
}

}  // namespace perfbench
