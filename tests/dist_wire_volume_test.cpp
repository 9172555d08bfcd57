// Wire-volume pinning for the socket backend (DESIGN.md §14): the paper's
// ultimate-compression claim, measured at the byte level on real TCP
// sockets rather than inferred from the α–β model.
//
// SocketTransport counts every payload byte and data frame it send()s.
// This test runs real rounds over loopback, once with K = 0 (every round
// one-bit) and once with K = 1 (every round a full-precision flush), and
// pins:
//
//   * a round moves exactly 2(M−1)·D units — sign bits of the word-padded
//     dimension on a one-bit round, floats of the model dimension on a
//     flush — as M(M−1) reduce-scatter messages plus M(M−1) all-gather
//     messages, so the only bytes on the wire beyond that volume are the
//     per-message frame header and CRC footer, whose exact total the frame
//     counters expose;
//   * RoundReport accounting agrees bit-for-bit with the transport's own
//     byte counters: per-rank wire_bits equals 8 × measured payload bytes,
//     and total_wire_bits equals their sum on every rank.
#include "dist/worker.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compress/kernels.hpp"
#include "data/synthetic_digits.hpp"
#include "net/frame.hpp"
#include "net/socket_transport.hpp"
#include "nn/models.hpp"
#include "util/logging.hpp"

namespace marsit {
namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kRounds = 3;

/// Every round one-bit at `flush_period` 0, a flush at 1.
dist::WorkerConfig worker_config(std::size_t flush_period) {
  dist::WorkerConfig config;
  config.batch_size_per_worker = 8;
  config.optimizer = OptimizerKind::kSgd;
  config.eta_l = 0.05f;
  config.rounds = kRounds;
  config.trainer_seed = 5;
  config.sync_seed = 1177;
  config.paradigm = MarParadigm::kRing;
  config.options.eta_s = 2e-3f;
  config.options.full_precision_period = flush_period;
  return config;
}

struct SocketRun {
  std::vector<dist::WorkerResult> results;
  std::vector<std::uint64_t> payload_bytes;  // per rank
  std::vector<std::uint64_t> data_frames;    // per rank
};

/// Runs the job over real loopback sockets, keeping the transports alive
/// past the workers so their byte/frame counters can be read back.
SocketRun run_over_sockets(const dist::WorkerConfig& config) {
  SyntheticDigits digits;
  std::vector<int> listeners(kWorkers);
  std::vector<std::uint16_t> ports(kWorkers);
  for (std::size_t r = 0; r < kWorkers; ++r) {
    listeners[r] = bind_loopback_listener(&ports[r]);
  }
  std::vector<std::unique_ptr<SocketTransport>> transports(kWorkers);
  SocketRun run;
  run.results.resize(kWorkers);
  std::vector<std::thread> ranks;
  for (std::size_t r = 0; r < kWorkers; ++r) {
    ranks.emplace_back([&, r] {
      std::vector<int> fds = connect_socket_mesh(
          r, kWorkers, listeners[r], {ports.data(), ports.size()});
      transports[r] = std::make_unique<SocketTransport>(r, std::move(fds));
      const auto factory = [&digits] {
        return make_mlp(digits.sample_size(), {8}, digits.num_classes());
      };
      run.results[r] =
          dist::run_marsit_worker(*transports[r], digits, factory, config);
    });
  }
  for (std::thread& t : ranks) {
    t.join();
  }
  for (std::size_t r = 0; r < kWorkers; ++r) {
    run.payload_bytes.push_back(transports[r]->payload_bytes_sent());
    run.data_frames.push_back(transports[r]->data_frames_sent());
  }
  return run;
}

/// The model dimension D.
std::size_t param_count() {
  SyntheticDigits digits;
  return make_mlp(digits.sample_size(), {8}, digits.num_classes())
      .param_count();
}

/// RoundReport accounting must agree with the transport's byte counters:
/// wire_bits is 8 × this rank's payload bytes, total_wire_bits their sum.
void check_reports_match_counters(const SocketRun& run) {
  double total_payload_bits = 0.0;
  for (std::size_t r = 0; r < kWorkers; ++r) {
    total_payload_bits += static_cast<double>(run.payload_bytes[r]) * 8.0;
  }
  for (std::size_t r = 0; r < kWorkers; ++r) {
    double rank_bits = 0.0;
    double rank_total_bits = 0.0;
    for (const dist::RoundReport& report : run.results[r].rounds) {
      rank_bits += report.wire_bits;
      rank_total_bits += report.total_wire_bits;
    }
    EXPECT_DOUBLE_EQ(rank_bits,
                     static_cast<double>(run.payload_bytes[r]) * 8.0)
        << "rank " << r;
    EXPECT_DOUBLE_EQ(rank_total_bits, total_payload_bits) << "rank " << r;
  }
}

/// The flush period K: 0 runs one-bit rounds only, 1 flushes every round.
class DistWireVolumeTest : public testing::TestWithParam<std::size_t> {};

TEST_P(DistWireVolumeTest, ReduceScatterMovesExactlyTwiceMMinusOneD) {
  set_log_level(LogLevel::kWarning);
  const bool flush = GetParam() == 1;
  const SocketRun run = run_over_sockets(worker_config(GetParam()));
  // Units per rank: the D-float row of a flush, or the sign plane's w
  // words, D = 64·w padded.
  const std::uint64_t units =
      flush ? param_count() : kernels::words_for(param_count());
  ASSERT_GE(units, kWorkers) << "model too small: empty ring segments";

  // Payload: each round's reduce-scatter pass moves (M−1)·D units and the
  // all-gather pass moves them again — 2(M−1)·D total.
  std::uint64_t payload = 0;
  std::uint64_t frames = 0;
  for (std::size_t r = 0; r < kWorkers; ++r) {
    payload += run.payload_bytes[r];
    frames += run.data_frames[r];
  }
  const std::uint64_t row_bytes =
      units * (flush ? sizeof(float) : sizeof(std::uint64_t));
  EXPECT_EQ(payload, kRounds * 2 * (kWorkers - 1) * row_bytes);

  // Frames: one message per rank per step, M−1 steps per pass, two passes —
  // every non-payload byte on the wire is these frames' header + CRC.
  EXPECT_EQ(frames, kRounds * 2 * kWorkers * (kWorkers - 1));
  const std::uint64_t framed_bytes =
      payload + frames * (kFrameHeaderBytes + kFrameFooterBytes);
  EXPECT_EQ(framed_bytes,
            kRounds * 2 * (kWorkers - 1) * row_bytes +
                kRounds * 2 * kWorkers * (kWorkers - 1) *
                    (kFrameHeaderBytes + kFrameFooterBytes));

  // The α–β report pins the same number: 2(M−1)·D units per round.
  for (std::size_t r = 0; r < kWorkers; ++r) {
    for (const dist::RoundReport& report : run.results[r].rounds) {
      EXPECT_EQ(report.full_precision, flush);
      EXPECT_EQ(report.total_wire_bits,
                static_cast<double>(2 * (kWorkers - 1) * row_bytes * 8));
    }
  }
  check_reports_match_counters(run);
}

INSTANTIATE_TEST_SUITE_P(
    OneBitAndFlush, DistWireVolumeTest, testing::Values(std::size_t{0}, std::size_t{1}),
    [](const testing::TestParamInfo<std::size_t>& info) {
      return info.param == 0 ? std::string("OneBit") : std::string("Flush");
    });

}  // namespace
}  // namespace marsit
