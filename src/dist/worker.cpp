#include "dist/worker.hpp"

#include <chrono>

#include "ckpt/snapshot.hpp"
#include "compress/kernels.hpp"
#include "core/hop_schedule.hpp"
#include "net/network_sim.hpp"
#include "sim/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit::dist {

namespace {

// marsit-lint: allow(determinism): measured wall-clock next to the α–β
// prediction is this backend's deliverable (ISSUE: real-socket timing)
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace

WorkerResult run_marsit_worker(Transport& transport, const Dataset& dataset,
                               const std::function<Sequential()>& model_factory,
                               const WorkerConfig& config) {
  const std::size_t m = transport.world_size();
  const std::size_t rank_id = transport.rank();
  MARSIT_CHECK(m >= 2) << "distributed run needs at least 2 workers";
  if (config.paradigm == MarParadigm::kTorus2d) {
    MARSIT_CHECK(config.torus_rows >= 2 && config.torus_cols >= 2 &&
                 config.torus_rows * config.torus_cols == m)
        << "torus " << config.torus_rows << "x" << config.torus_cols
        << " does not tile " << m << " workers";
  }
  MARSIT_CHECK(config.options.eta_s > 0.0f) << "Marsit needs a positive eta_s";
  MARSIT_CHECK(model_factory != nullptr) << "null model factory";

  // The simulator's sampler, init and local step, so rank r's update
  // equals simulated worker r's.
  const ShardedSampler sampler = make_train_sampler(
      dataset, m, config.batch_size_per_worker, config.trainer_seed);
  LocalWorker local(model_factory(), config.optimizer);
  init_replica(local.model(), dataset, config.trainer_seed);
  const std::size_t d = local.model().param_count();

  MarsitRank rank(config.options, Tensor(d));
  const std::size_t k = config.options.full_precision_period;
  // One schedule per round kind, priced once on the wire alone: the
  // NetworkSim replay is a pure function of the schedule and the cost
  // model.
  const HopSchedule one_bit =
      hop_schedule(RoundKind::kOneBit, config.paradigm, config.torus_cols, m,
                   kernels::words_for(d));
  const HopSchedule flush = hop_schedule(
      RoundKind::kAllReduce, config.paradigm, config.torus_cols, m, d);
  NetworkSim net(m, config.cost_model);
  const CollectiveTiming one_bit_price =
      price_hop_schedule(one_bit, one_bit_wire(), net);
  net.reset();
  const CollectiveTiming flush_price =
      price_hop_schedule(flush, full_precision_wire(), net);
  const float inv_m = 1.0f / static_cast<float>(m);

  WorkerResult result;
  result.rounds.reserve(config.rounds);
  for (std::size_t t = 0; t < config.rounds; ++t) {
    local.step(sampler, rank_id, t, config.eta_l, config.clip_grad_norm,
               /*local_steps=*/1);

    // --- synchronize (MarsitSync::do_synchronize, full membership) --------
    const bool full_precision = k > 0 && t % k == 0;
    RoundReport report;
    report.round = t;
    report.full_precision = full_precision;
    const WallClock::time_point comm_start = WallClock::now();
    double sent_bytes = 0.0;
    if (full_precision) {
      // Lines 12–13: all-reduce u + c in place; its mean becomes g, which
      // is applied from the same buffer before c restarts at zero.
      const std::span<float> sum = rank.contribute(local.update(), 0);
      sent_bytes = execute_hop_schedule(transport, flush, t, sum);
      scale(sum, inv_m);
      clip_flush_mean(config.options, sum);
    } else {
      rank.pack(local.update(), 0);
      sent_bytes = execute_hop_schedule(transport, one_bit, t,
                                        derive_seed(config.sync_seed, t),
                                        rank.signs());
    }
    report.measured_comm_seconds = seconds_since(comm_start);
    report.wire_bits = sent_bytes * 8.0;
    const CollectiveTiming& priced =
        full_precision ? flush_price : one_bit_price;
    report.predicted_comm_seconds = priced.completion_seconds;
    report.total_wire_bits = priced.total_wire_bits;

    if (full_precision) {
      local.model().apply_update(rank.compensation());
      zero(rank.compensation());
    } else {
      // x ← x − g straight from the aggregate's sign bits.
      kernels::accumulate_signs_words(rank.signs(), -config.options.eta_s,
                                      local.model().params());
    }
    rank.finish(full_precision);
    result.rounds.push_back(report);
  }

  result.param_digest =
      ckpt::fnv1a(local.model().params().data(), d * sizeof(float));
  return result;
}

}  // namespace marsit::dist
