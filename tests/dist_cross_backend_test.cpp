// The cross-backend determinism contract (DESIGN.md §14) as a conformance
// matrix: {ring, 2×2 / 2×4 torus, parameter server, binomial tree} ×
// {4, 8 ranks} with SGD, no clipping, compensation on and no flush trust
// region, plus two settings variants on the 4-rank ring and the 2×2 torus:
// momentum with gradient clipping and a flush trust region, and Adam with
// compensation off.  For every cell, one seed drives three executions — the
// simulator (DistributedTrainer + MarsitSync), the distributed worker over
// SimTransport, and the distributed worker over real loopback sockets — and
// every rank of every backend must finish with bit-identical parameters,
// witnessed by FNV-1a digests.  The simulator side runs a 128-element shard
// chunk grid the worker does not have, so the matrix also shows that
// digests do not depend on the chunk size.  The α–β predictions and wire
// accounting must also agree bit-for-bit across the two transport
// backends, the per-rank payload bits must sum to the round's total on
// every backend, and the wire bits MarsitSync prices for a one-bit round
// and for a flush must be the ones the worker sends.
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/snapshot.hpp"
#include "core/sync_strategy.hpp"
#include "data/synthetic_digits.hpp"
#include "dist/worker.hpp"
#include "net/sim_transport.hpp"
#include "net/socket_transport.hpp"
#include "nn/models.hpp"
#include "sim/trainer.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/logging.hpp"

namespace marsit {
namespace {

constexpr std::size_t kRounds = 6;

dist::WorkerConfig worker_config(MarParadigm paradigm, std::size_t world) {
  dist::WorkerConfig config;
  config.batch_size_per_worker = 8;
  config.optimizer = OptimizerKind::kSgd;
  config.eta_l = 0.05f;
  config.rounds = kRounds;
  config.trainer_seed = 11;
  config.sync_seed = 2022;
  config.paradigm = paradigm;
  if (paradigm == MarParadigm::kTorus2d) {
    config.torus_rows = 2;
    config.torus_cols = world / 2;
  }
  config.options.eta_s = 2e-3f;
  config.options.full_precision_period = 3;
  return config;
}

/// One setting a variant changes from worker_config's defaults.
using Setting = std::function<void(dist::WorkerConfig&)>;

/// worker_config with every setting applied except the one at `skip`.
dist::WorkerConfig variant_config(MarParadigm paradigm, std::size_t world,
                                  const std::vector<Setting>& settings,
                                  std::size_t skip = SIZE_MAX) {
  dist::WorkerConfig config = worker_config(paradigm, world);
  for (std::size_t i = 0; i < settings.size(); ++i) {
    if (i != skip) {
      settings[i](config);
    }
  }
  return config;
}

Sequential make_model(const SyntheticDigits& digits) {
  return make_mlp(digits.sample_size(), {8}, digits.num_classes());
}

/// The simulator's SyncConfig for a worker run.
SyncConfig sync_config_of(const dist::WorkerConfig& config,
                          std::size_t world) {
  SyncConfig sync_config;
  sync_config.num_workers = world;
  sync_config.paradigm = config.paradigm;
  sync_config.torus_rows = config.torus_rows;
  sync_config.torus_cols = config.torus_cols;
  sync_config.seed = config.sync_seed;
  sync_config.shard_chunk_elements = 128;
  return sync_config;
}

/// The oracle: the simulator run every backend must reproduce.
std::uint64_t trainer_digest(const dist::WorkerConfig& config,
                             std::size_t world) {
  SyntheticDigits digits;
  const auto factory = [&digits] { return make_model(digits); };
  MarsitSync strategy(sync_config_of(config, world), config.options);

  TrainerConfig trainer_config;
  trainer_config.batch_size_per_worker = config.batch_size_per_worker;
  trainer_config.optimizer = config.optimizer;
  trainer_config.eta_l = config.eta_l;
  trainer_config.clip_grad_norm = config.clip_grad_norm;
  trainer_config.rounds = config.rounds;
  trainer_config.eval_interval = config.rounds + 1;  // digests only
  trainer_config.seed = config.trainer_seed;

  DistributedTrainer trainer(digits, factory, strategy, trainer_config);
  (void)trainer.train();
  Tensor params(trainer.param_count());
  trainer.copy_params_into(params.span());
  return ckpt::fnv1a(params.span().data(), params.size() * sizeof(float));
}

/// MarsitSync's first round of a `d`-element update with flush period
/// `flush_period`.
SyncStepResult trainer_first_round(const dist::WorkerConfig& config,
                                   std::size_t world, std::size_t d,
                                   std::size_t flush_period) {
  MarsitOptions options = config.options;
  options.full_precision_period = flush_period;
  MarsitSync strategy(sync_config_of(config, world), options);
  std::vector<Tensor> updates(world, Tensor(d));
  WorkerSpans spans;
  Rng rng(5);
  for (Tensor& update : updates) {
    fill_normal(update.span(), rng, 0.0f, 1.0f);
    spans.push_back(update.span());
  }
  Tensor out(d);
  return strategy.synchronize(spans, out.span());
}

/// The wire bits MarsitSync prices for one one-bit round of a `d`-element
/// update.
double trainer_one_bit_bits(const dist::WorkerConfig& config,
                            std::size_t world, std::size_t d) {
  const SyncStepResult step = trainer_first_round(config, world, d, 0);
  EXPECT_FALSE(step.full_precision);
  return step.timing.total_wire_bits;
}

/// The wire bits MarsitSync prices for one flush of a `d`-element update.
double trainer_flush_bits(const dist::WorkerConfig& config, std::size_t world,
                          std::size_t d) {
  const SyncStepResult step = trainer_first_round(config, world, d, 1);
  EXPECT_TRUE(step.full_precision);
  return step.timing.total_wire_bits;
}

/// Runs `world` ranks on threads, one transport each, and returns the
/// per-rank results in rank order.
std::vector<dist::WorkerResult> run_ranks(
    const dist::WorkerConfig& config, std::size_t world,
    const std::function<std::unique_ptr<Transport>(std::size_t)>& make) {
  std::vector<dist::WorkerResult> results(world);
  std::vector<std::thread> ranks;
  for (std::size_t r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      SyntheticDigits digits;
      const auto factory = [&digits] { return make_model(digits); };
      std::unique_ptr<Transport> transport = make(r);
      results[r] = dist::run_marsit_worker(*transport, digits, factory,
                                           config);
    });
  }
  for (std::thread& t : ranks) {
    t.join();
  }
  return results;
}

std::vector<dist::WorkerResult> run_over_sim_fabric(
    const dist::WorkerConfig& config, std::size_t world) {
  SimFabric fabric(world);
  std::vector<std::unique_ptr<Transport>> endpoints;
  for (std::size_t r = 0; r < world; ++r) {
    endpoints.push_back(fabric.endpoint(r));
  }
  return run_ranks(config, world, [&](std::size_t r) {
    return std::move(endpoints[r]);
  });
}

std::vector<dist::WorkerResult> run_over_sockets(
    const dist::WorkerConfig& config, std::size_t world) {
  std::vector<int> listeners(world);
  std::vector<std::uint16_t> ports(world);
  for (std::size_t r = 0; r < world; ++r) {
    listeners[r] = bind_loopback_listener(&ports[r]);
  }
  return run_ranks(config, world,
                   [&](std::size_t r) -> std::unique_ptr<Transport> {
    std::vector<int> fds = connect_socket_mesh(r, world, listeners[r],
                                               {ports.data(), ports.size()});
    return std::make_unique<SocketTransport>(r, std::move(fds));
  });
}

void check_reports(const std::vector<dist::WorkerResult>& results,
                   const dist::WorkerConfig& config) {
  for (std::size_t r = 0; r < results.size(); ++r) {
    ASSERT_EQ(results[r].rounds.size(), kRounds) << "rank " << r;
    for (const dist::RoundReport& report : results[r].rounds) {
      // Round t flushes full precision iff t % K == 0.
      EXPECT_EQ(report.full_precision,
                report.round % config.options.full_precision_period == 0);
      EXPECT_GT(report.predicted_comm_seconds, 0.0);
      EXPECT_GE(report.measured_comm_seconds, 0.0);
      EXPECT_GT(report.wire_bits, 0.0);
      EXPECT_GT(report.total_wire_bits, 0.0);
    }
    // A flush round moves 32× the sign bits; the ratio must show up in the
    // payload accounting of every rank's round totals.
    EXPECT_GT(results[r].rounds[0].total_wire_bits,
              8.0 * results[r].rounds[1].total_wire_bits);
  }
  // total_wire_bits is the whole-round, all-ranks figure: identical on
  // every rank and exactly the sum of the per-rank measured payload bits.
  for (std::size_t t = 0; t < kRounds; ++t) {
    double sum = 0.0;
    for (const dist::WorkerResult& result : results) {
      sum += result.rounds[t].wire_bits;
      EXPECT_DOUBLE_EQ(result.rounds[t].total_wire_bits,
                       results[0].rounds[t].total_wire_bits);
    }
    EXPECT_DOUBLE_EQ(sum, results[0].rounds[t].total_wire_bits)
        << "round " << t;
  }
}

void run_cell(MarParadigm paradigm, std::size_t world,
              const std::vector<Setting>& settings = {}) {
  SCOPED_TRACE(testing::Message()
               << mar_paradigm_name(paradigm) << " / " << world << " ranks");
  const dist::WorkerConfig config = variant_config(paradigm, world, settings);
  const std::uint64_t oracle = trainer_digest(config, world);
  // Every setting must reach the oracle: with any one of them reset to its
  // default the digest changes, so no cell can match with a setting ignored.
  for (std::size_t i = 0; i < settings.size(); ++i) {
    EXPECT_NE(trainer_digest(variant_config(paradigm, world, settings, i),
                             world),
              oracle)
        << "setting " << i << " does not change the oracle";
  }

  const std::vector<dist::WorkerResult> sim =
      run_over_sim_fabric(config, world);
  check_reports(sim, config);
  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_EQ(sim[r].param_digest, oracle) << "SimTransport rank " << r;
  }
  // The trainer prices the traffic the backend sends: a one-bit round
  // (round 1; K = 3) moves 2(M−1)·⌈D/64⌉·64 sign bits on every paradigm.
  SyntheticDigits digits;
  const std::size_t d = make_model(digits).param_count();
  const double one_bit_bits = trainer_one_bit_bits(config, world, d);
  EXPECT_EQ(one_bit_bits, sim[0].rounds[1].total_wire_bits);
  EXPECT_EQ(one_bit_bits,
            static_cast<double>(2 * (world - 1) * ((d + 63) / 64) * 64));
  // A flush (round 0) all-reduces 2(M−1)·D floats on every paradigm.
  const double flush_bits = trainer_flush_bits(config, world, d);
  EXPECT_EQ(flush_bits, sim[0].rounds[0].total_wire_bits);
  EXPECT_EQ(flush_bits, static_cast<double>(2 * (world - 1) * d * 32));

  const std::vector<dist::WorkerResult> sockets =
      run_over_sockets(config, world);
  check_reports(sockets, config);
  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_EQ(sockets[r].param_digest, oracle) << "SocketTransport rank "
                                               << r;
    // The α–β prediction and wire accounting are deterministic and
    // backend-independent: both transports replay the same hop schedule
    // through NetworkSim and send the same payload bytes.
    for (std::size_t t = 0; t < kRounds; ++t) {
      EXPECT_DOUBLE_EQ(sockets[r].rounds[t].predicted_comm_seconds,
                       sim[r].rounds[t].predicted_comm_seconds);
      EXPECT_DOUBLE_EQ(sockets[r].rounds[t].wire_bits,
                       sim[r].rounds[t].wire_bits);
      EXPECT_DOUBLE_EQ(sockets[r].rounds[t].total_wire_bits,
                       sim[r].rounds[t].total_wire_bits);
    }
  }
}

void run_matrix(MarParadigm paradigm) {
  set_log_level(LogLevel::kWarning);
  for (const std::size_t world : {std::size_t{4}, std::size_t{8}}) {
    run_cell(paradigm, world);
  }
}

/// A settings variant on the 4-rank ring and the 2×2 torus, K = 3.
void run_variant(const std::vector<Setting>& settings) {
  set_log_level(LogLevel::kWarning);
  for (const MarParadigm paradigm : {MarParadigm::kRing,
                                     MarParadigm::kTorus2d}) {
    run_cell(paradigm, 4, settings);
  }
}

TEST(DistCrossBackendTest, RingReduceScatter) {
  run_matrix(MarParadigm::kRing);
}

TEST(DistCrossBackendTest, TorusReduceScatter) {
  run_matrix(MarParadigm::kTorus2d);
}

TEST(DistCrossBackendTest, ParameterServerReduceScatter) {
  run_matrix(MarParadigm::kParameterServer);
}

TEST(DistCrossBackendTest, TreeReduceScatter) {
  run_matrix(MarParadigm::kTree);
}

TEST(DistCrossBackendTest, MomentumWithClippingAndFlushTrustRegion) {
  run_variant({
      [](dist::WorkerConfig& c) { c.optimizer = OptimizerKind::kMomentum; },
      [](dist::WorkerConfig& c) { c.clip_grad_norm = 0.5f; },
      [](dist::WorkerConfig& c) { c.options.full_precision_max_norm = 0.02f; },
  });
}

TEST(DistCrossBackendTest, AdamWithoutCompensation) {
  run_variant({
      [](dist::WorkerConfig& c) { c.optimizer = OptimizerKind::kAdam; },
      [](dist::WorkerConfig& c) { c.options.use_compensation = false; },
  });
}

}  // namespace
}  // namespace marsit
