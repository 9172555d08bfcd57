// Distributed Marsit worker — one rank of a real multi-process (or
// multi-thread) training run over a Transport (DESIGN.md §14).
//
// Each rank calls the simulator's per-rank code, not a copy of it: one
// LocalWorker (sim/trainer.hpp) built by make_train_sampler and
// init_replica runs the trainer's local step, and one MarsitRank
// (core/sync_strategy.hpp) holds Algorithm 1's state, as each of
// MarsitSync's workers does: a one-bit round's line 10 is owed against the
// aggregate left in the rank's plane until the next round's line 1 settles
// it, and the rank applies the round's update straight from those sign
// bits.  A run over SimTransport or SocketTransport therefore finishes
// with parameters bit-identical to the simulator's — the cross-backend
// determinism contract tests/dist_cross_backend_test pins via FNV-1a param
// digests.
//
// Line 1 runs inside the local step: the step hands u_m to the rank
// through a GradientSink (nn/layer.hpp), and plain SGD streams it from the
// backward one finished dW row at a time, so u_m is never stored; other
// optimizers and clipping hand it over whole once the step ends.  The
// arithmetic is the simulator's, element for element.
//
// Every round runs a hop schedule (core/hop_schedule.hpp) through
// execute_hop_schedule, the schedule's Transport interpreter; the trainer's
// in-memory folds interpret the same schedules, so both fold each (segment,
// op) pair with the same operands.  Every round moves the paradigm's
// reduce-scatter and all-gather volume on ring, torus, parameter server
// (colocated at rank 0) and binomial tree alike: 2(M−1)·D sign bits on a
// one-bit round, 2(M−1)·D floats on a full-precision flush.  The flush is
// the float all-reduce of every rank's u + c, built in place in its
// compensation (MarsitRank::contribute): each fold hop adds the arriving
// partial in the schedule's association, which MarsitSync's float fold
// shares, then the sum is scaled by 1/M, clipped and applied from that
// buffer before c restarts at zero.  Round t's frames are tagged
// t << 2 | stream.
//
// The α–β prediction reported per round comes from price_hop_schedule —
// the pricer of every round, the trainer's included — run once per round
// kind with wire-only formats (one_bit_wire, full_precision_wire: bits, no
// compression seconds); so RoundReport::total_wire_bits equals the sum of
// every rank's measured payload bits bit-for-bit — the invariant
// tests/dist_wire_volume_test pins — and MarsitSync's priced
// total_wire_bits (tests/dist_cross_backend_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/sync_strategy.hpp"
#include "data/dataset.hpp"
#include "net/cost_model.hpp"
#include "net/transport.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace marsit::dist {

struct WorkerConfig {
  std::size_t batch_size_per_worker = 32;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  float eta_l = 0.05f;
  /// Per-worker gradient clipping before the local optimizer (0 disables);
  /// same semantics as TrainerConfig::clip_grad_norm.
  float clip_grad_norm = 0.0f;
  std::size_t rounds = 10;
  /// Seeds TrainerConfig::seed / SyncConfig::seed would carry in the
  /// simulator run this worker must match.
  std::uint64_t trainer_seed = 7;
  std::uint64_t sync_seed = 7;
  /// Any of kRing / kTorus2d / kParameterServer / kTree.
  MarParadigm paradigm = MarParadigm::kRing;
  std::size_t torus_rows = 0;
  std::size_t torus_cols = 0;
  /// Nothing reads this field.
  SyncMode sync_mode = SyncMode::kReduceScatter;
  MarsitOptions options;
  /// Prices the per-round α–β prediction reported next to measured
  /// wall-clock.
  CostModel cost_model;
};

struct RoundReport {
  std::size_t round = 0;
  bool full_precision = false;
  /// Host wall-clock of this rank's local step: forward, backward, and line
  /// 1 (a flush's u + c) on each gradient slice as it arrives.
  double step_seconds = 0.0;
  /// Host wall-clock of this rank's communication phase, from its first
  /// hop to its last; line 1 ran before it, in step_seconds.  A flush's
  /// 1/M scale and trust region run inside it; its c ← 0 runs after it,
  /// together with the update.
  double measured_comm_seconds = 0.0;
  /// α–β prediction for the whole round's collective (all ranks), from a
  /// NetworkSim replay of the hop schedule this backend ran.
  double predicted_comm_seconds = 0.0;
  /// Payload bits this rank put on the wire this round.
  double wire_bits = 0.0;
  /// Payload bits ALL ranks put on the wire this round, from the same
  /// NetworkSim replay as predicted_comm_seconds.  Identical on every rank
  /// and bit-for-bit equal to the sum of per-rank wire_bits: 2(M−1)·D sign
  /// bits on one-bit rounds, 2(M−1)·D·32 on flushes.
  double total_wire_bits = 0.0;
};

struct WorkerResult {
  /// FNV-1a digest over the final parameter bytes — the cross-backend
  /// equality witness.
  std::uint64_t param_digest = 0;
  std::vector<RoundReport> rounds;
};

/// Runs `config.rounds` rounds of Marsit training as rank
/// `transport.rank()` of `transport.world_size()` workers.  Blocking; every
/// rank of the job must call this with identical config, dataset and model
/// factory.
WorkerResult run_marsit_worker(Transport& transport, const Dataset& dataset,
                               const std::function<Sequential()>& model_factory,
                               const WorkerConfig& config);

}  // namespace marsit::dist
