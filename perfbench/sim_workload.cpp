// The in-process workload: DistributedTrainer + MarsitSync, M simulated
// workers fanned out on the global pool, no sockets.  It is the only
// workload that runs MarsitSync's in-memory segmented fold; the socket
// workloads use run_trainer below as their digest oracle.
#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "compress/kernels.hpp"
#include "core/segmented_fold.hpp"
#include "layer_timers.hpp"
#include "runs.hpp"

namespace perfbench {

namespace {

/// Rounds of the pool-size independence check.
constexpr std::size_t kPrefixRounds = 2;

}  // namespace

TrainerRun run_trainer(const Workload& workload, const RunSeeds& seeds,
                       const marsit::CostModel& cost, std::size_t rounds,
                       marsit::ThreadPool* pool) {
  TrainerRun run;
  const double start = now_seconds();
  const marsit::SyntheticDigits digits(digits_config(seeds));
  marsit::SyncConfig config = sync_config(workload, seeds, cost);
  config.pool = pool;
  marsit::MarsitSync marsit(config,
                            worker_config(workload, seeds, cost).options);
  TimedSync timed(marsit);
  marsit::TrainerConfig trainer_options =
      trainer_config(workload, seeds, rounds);
  trainer_options.parallel_workers = pool == nullptr;
  marsit::DistributedTrainer trainer(
      digits, [&workload] { return make_model(workload); }, timed,
      trainer_options);
  run.train_start = now_seconds();
  run.setup_seconds = run.train_start - start;
  (void)trainer.train();
  run.train_end = now_seconds();
  marsit::Tensor params(trainer.param_count());
  trainer.copy_params_into(params.span());
  run.digest =
      marsit::ckpt::fnv1a(params.span().data(), params.size() * sizeof(float));
  run.calls = timed.calls();
  return run;
}

SyncSplit split_sync_calls(const std::vector<SyncCall>& calls) {
  SyncSplit split;
  for (std::size_t t = 1; t < calls.size(); ++t) {
    const double round = calls[t].end - calls[t - 1].end;
    if (calls[t].full_precision) {
      split.flush_round_ms.push_back(1e3 * round);
      continue;
    }
    const double sync = calls[t].end - calls[t].start;
    split.one_bit_round_ms.push_back(1e3 * round);
    split.sync_ms.push_back(1e3 * sync);
    split.compute_ms.push_back(1e3 * (round - sync));
    split.predicted_ms.push_back(1e3 * calls[t].predicted_comm);
  }
  return split;
}

Outcome run_sim_workload(const RunOptions& options) {
  const Workload& workload = *options.workload;
  const RunSeeds seeds = run_seeds(options.seed);
  const std::size_t m = workload.workers;
  const std::size_t words =
      marsit::kernels::words_for(param_count(workload));
  const std::size_t frame_bytes = marsit::word_segment(words, m, 0).count * 8;
  Outcome outcome;

  // Forks, so it runs before the trainers start the global pool.
  Calibration calibration;
  if (options.traced) {
    calibration =
        calibrate_loopback(frame_bytes, now_seconds() + options.seconds + 60);
    if (!calibration.ok) {
      outcome.fail("loopback calibration failed");
    }
  }

  std::vector<double> setup;
  std::vector<std::uint64_t> digests;
  SyncSplit untraced;
  SyncSplit traced;
  double train_seconds = 0.0;
  std::size_t rounds = 0;
  const double measure_start = now_seconds();
  for (std::size_t episode = 0;; ++episode) {
    const TrainerRun run = run_trainer(workload, seeds, calibration.cost,
                                       workload.episode_rounds, nullptr);
    outcome.attempted += workload.episode_rounds;
    setup.push_back(run.setup_seconds);
    digests.push_back(run.digest);
    if (run.calls.size() != workload.episode_rounds) {
      outcome.fail("a trainer episode stopped early");
    }
    if (episode == 0) {
      continue;  // warm-up: the pool starts and first-touch faults land here
    }
    // As on the socket workloads, the traced run alternates episodes; here
    // both kinds record the same one span per synchronize call, so the
    // overhead figure reads the noise floor.
    const bool traced_episode = options.traced && episode % 2 == 0;
    train_seconds += run.train_end - run.train_start;
    rounds += run.calls.size();
    const SyncSplit split = split_sync_calls(run.calls);
    SyncSplit& into = traced_episode ? traced : untraced;
    for (auto [from, to] :
         {std::pair{&split.one_bit_round_ms, &into.one_bit_round_ms},
          std::pair{&split.flush_round_ms, &into.flush_round_ms},
          std::pair{&split.sync_ms, &into.sync_ms},
          std::pair{&split.compute_ms, &into.compute_ms},
          std::pair{&split.predicted_ms, &into.predicted_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    const bool enough = episode >= (options.traced ? 2u : 1u);
    if (now_seconds() - measure_start >= options.seconds && enough) {
      break;
    }
  }

  std::uint64_t reference = digests.front();
  if (options.inject_digest_mismatch) {
    reference ^= 1;
  }
  if (std::any_of(digests.begin(), digests.end(),
                  [&](std::uint64_t d) { return d != reference; })) {
    outcome.fail("episode digests differ");
  }
  marsit::ThreadPool single(1);
  const std::uint64_t pooled =
      run_trainer(workload, seeds, calibration.cost, kPrefixRounds, nullptr)
          .digest;
  const std::uint64_t serial =
      run_trainer(workload, seeds, calibration.cost, kPrefixRounds, &single)
          .digest;
  if (pooled != serial) {
    outcome.fail("digest depends on the pool size");
  }

  if (!options.traced) {
    outcome.add("round_ms_p50", percentile(untraced.one_bit_round_ms, 0.5),
                "ms");
    outcome.add("round_ms_p90", percentile(untraced.one_bit_round_ms, 0.9),
                "ms");
    outcome.add("flush_round_ms_p50", median(untraced.flush_round_ms), "ms");
    outcome.add("samples_per_s",
                static_cast<double>(m * workload.batch * rounds) /
                    std::max(train_seconds, 1e-9),
                "1/s");
    outcome.add("setup_s", median(setup), "s");
    outcome.count("one-bit rounds", untraced.one_bit_round_ms.size());
    outcome.count("flush rounds", untraced.flush_round_ms.size());
    outcome.count("set-ups", setup.size());
    return outcome;
  }

  const LayerTimes layers = time_layers(workload, seeds);
  const FrameCodecTimes codec = time_frame_codec({{frame_bytes, 1}});
  const double sync_p50 = median(traced.sync_ms);
  const double predicted = median(traced.predicted_ms);
  double round_s = 0.0;
  double sync_s = 0.0;
  for (std::size_t i = 0; i < traced.sync_ms.size(); ++i) {
    round_s += 1e-3 * traced.one_bit_round_ms[i];
    sync_s += 1e-3 * traced.sync_ms[i];
  }
  const std::size_t threads = marsit::global_thread_pool().num_threads();
  const double fan_out_s = 1e-3 * (layers.forward_ms + layers.backward_ms) *
                           static_cast<double>((m + threads - 1) / threads);
  // No frame crosses a socket on this workload: the net.* times are the
  // loopback pair at the frame size a socket rank of this config would
  // send, and the round's send/recv shares and counts are zero.
  outcome.add("net.send_us_p50",
              1e6 * percentile(calibration.probe_send_seconds, 0.5), "us");
  outcome.add("net.send_us_p90",
              1e6 * percentile(calibration.probe_send_seconds, 0.9), "us");
  outcome.add("net.send_share", 0.0, "ratio");
  outcome.add("net.recv_wait_us_p50",
              1e6 * median(calibration.probe_recv_seconds), "us");
  outcome.add("net.recv_share", 0.0, "ratio");
  outcome.add("net.frames_per_round", 0.0, "count");
  outcome.add("net.payload_bytes_per_round", 0.0, "bytes");
  outcome.add("net.frame_encode_us", codec.encode_us, "us");
  outcome.add("net.frame_decode_us", codec.decode_us, "us");
  outcome.add("net.alpha_us", 1e6 * calibration.cost.link_alpha, "us");
  outcome.add("net.bandwidth_gbps", 8e-9 * calibration.cost.link_bandwidth,
              "Gbit/s");
  outcome.add("compress.pack_ms", layers.pack_ms, "ms");
  outcome.add("compress.unpack_ms", layers.unpack_ms, "ms");
  outcome.add("core.combine_ms", layers.combine_ms, "ms");
  outcome.add("core.segmented_fold_ms", layers.segmented_fold_ms, "ms");
  outcome.add("nn.forward_ms", layers.forward_ms, "ms");
  outcome.add("nn.backward_ms", layers.backward_ms, "ms");
  // The in-process round's comm phase is the synchronize call.
  outcome.add("dist.comm_ms_p50", sync_p50, "ms");
  outcome.add("dist.compute_ms_p50", median(traced.compute_ms), "ms");
  outcome.add("sim.sync_ms_p50", sync_p50, "ms");
  outcome.add("sim.compute_ms_p50", median(traced.compute_ms), "ms");
  outcome.add("dist.predicted_comm_ms", predicted, "ms");
  outcome.add("dist.measured_over_predicted",
              predicted > 0.0 ? sync_p50 / predicted : 0.0, "ratio");
  const double untraced_p50 = median(untraced.one_bit_round_ms);
  outcome.add("trace.overhead_pct",
              untraced_p50 > 0.0
                  ? 100.0 * (median(traced.one_bit_round_ms) / untraced_p50 -
                             1.0)
                  : 0.0,
              "%");
  outcome.add("trace.unattributed_share",
              round_s > 0.0
                  ? (round_s - sync_s -
                     static_cast<double>(traced.sync_ms.size()) * fan_out_s) /
                        round_s
                  : 0.0,
              "ratio");
  outcome.count("traced one-bit rounds", traced.one_bit_round_ms.size());
  outcome.count("untraced one-bit rounds", untraced.one_bit_round_ms.size());
  return outcome;
}

}  // namespace perfbench
