// DistributedTrainer — the end-to-end training simulator.
//
// Simulates M workers doing data-parallel training with a pluggable
// synchronization strategy (Marsit or any baseline):
//
//   * every worker applies the same global update x ← x − g_t, so the M
//     MAR replicas are one parameter vector: the trainer holds it, every
//     worker's LocalWorker model views it (Sequential::bind_params) and
//     keeps only its own gradients, activations and optimizer state, and
//     each round's update is applied once;
//   * per round, LocalWorker::step draws i.i.d. minibatches (the paper's
//     shuffled-cloud data assumption), computes real gradients on the
//     synthetic datasets, runs the local optimizer (Momentum/Adam/SGD) and
//     scales by the local stepsize, in the model's gradient buffer — the
//     step src/dist runs on each rank;
//   * the SyncStrategy aggregates and returns both the global update and the
//     round's simulated timing (communication + compression), to which the
//     trainer adds the simulated compute time from the cost model;
//   * gradient computation fans out over a thread pool (real parallelism for
//     wall-clock speed; simulated time is unaffected).
//
// All reported times are SIMULATED seconds from the cost model, not host
// wall-clock (DESIGN.md §2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/sync_strategy.hpp"
#include "data/dataset.hpp"
#include "net/cost_model.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace marsit {

/// Disjoint train/test index ranges carved out of the unbounded procedural
/// datasets, and the seed salts deriving the sampler and model-init streams
/// from TrainerConfig::seed.  make_train_sampler and init_replica apply
/// them; they stay public for benchmarks that rebuild those streams.
inline constexpr std::uint64_t kTrainSampleRange = 1u << 22;
inline constexpr std::uint64_t kTestSampleRange = 1u << 16;
inline constexpr std::uint64_t kSamplerSeedSalt = 0xda7a;
inline constexpr std::uint64_t kModelInitSeedSalt = 0x1417;

/// The sampler every worker draws its minibatches from, on the sampler
/// stream of the trainer seed `seed`.
ShardedSampler make_train_sampler(const Dataset& dataset,
                                  std::size_t num_workers,
                                  std::size_t batch_size, std::uint64_t seed);

/// Initializes `model` from the model-init stream of the trainer seed
/// `seed`, then checks that it has parameters and that its input and output
/// sizes match `dataset`.
void init_replica(Sequential& model, const Dataset& dataset,
                  std::uint64_t seed);

/// One worker's side of a round (Algorithm 2's local step): a model, its
/// local optimizer and the step's scratch.  DistributedTrainer holds one
/// per simulated worker, the distributed worker one per rank, so both
/// compute u_m with the same code.  u_m lives in the model's gradient
/// buffer; the worker holds no update buffer of its own.
class LocalWorker {
 public:
  LocalWorker(Sequential model, OptimizerKind optimizer);

  /// Computes worker `worker`'s u_m for round `round` into update().  Each
  /// of H = max(1, local_steps) local steps samples a minibatch, runs
  /// forward, loss and backward, clips the model's gradient in place to
  /// `clip_grad_norm` (0 disables), and has the local optimizer overwrite
  /// it with η_l · direction.  Plain SGD without clipping skips both: its
  /// backward runs at gradient scale η_l and writes u = η_l·g itself, the
  /// bytes `scale(g, η_l)` would give.  The step never writes the model's
  /// parameters: with H > 1 the model walks H steps on a private copy,
  /// u_m is the total movement, and the model is pointed back.
  void step(const ShardedSampler& sampler, std::size_t worker,
            std::size_t round, float eta_l, float clip_grad_norm,
            std::size_t local_steps);

  /// u_m from the last step(): a view of the model's gradient buffer, valid
  /// until the model's next backward.
  std::span<const float> update() const { return model_.grads(); }
  Sequential& model() { return model_; }
  const Sequential& model() const { return model_; }
  LocalOptimizer& optimizer() { return *optimizer_; }
  const LocalOptimizer& optimizer() const { return *optimizer_; }

 private:
  Sequential model_;
  std::unique_ptr<LocalOptimizer> optimizer_;
  Tensor dlogits_;  // ∂L/∂logits, sized on the first step
  Tensor walk_;     // the walked parameters (local_steps > 1)
  Batch batch_;
};

struct TrainerConfig {
  std::size_t batch_size_per_worker = 32;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  /// Local stepsize η_l.
  float eta_l = 0.05f;
  /// Per-worker gradient clipping: raw gradients with ℓ2 norm above this
  /// are rescaled to it before the local optimizer (0 disables).  Deep
  /// unnormalized nets need it to keep the first momentum steps from
  /// killing every ReLU.
  float clip_grad_norm = 0.0f;
  /// Local updates per synchronization (the paper's "clients perform
  /// multiple local updates between two successive synchronizations").
  /// With H > 1 each worker takes H local optimizer steps on a private copy
  /// of the parameters, and the synchronized vector u_m is the accumulated
  /// local movement; the global update alone moves the shared parameters.
  std::size_t local_steps = 1;
  std::size_t rounds = 200;
  /// Evaluate on held-out data every `eval_interval` rounds.
  std::size_t eval_interval = 20;
  std::size_t eval_samples = 512;
  std::uint64_t seed = 7;
  /// Rounds at which η_l is multiplied by lr_decay_factor.
  std::vector<std::size_t> lr_decay_rounds;
  float lr_decay_factor = 0.1f;
  /// Stop as soon as an evaluation reaches this accuracy (Table 1's
  /// rounds-to-converge protocol); unset = run all rounds.
  std::optional<double> stop_accuracy;
  /// Record the per-round sign matching rate between the global update and
  /// the exact mean update (Figure 1b's metric).  Adds O(M·D) per round.
  bool track_matching_rate = false;
  /// Compute worker gradients on the global thread pool.
  bool parallel_workers = true;

  // --- checkpoint/restore (DESIGN.md §11) ----------------------------------
  /// Write a checkpoint to `checkpoint_path` every this-many completed
  /// rounds (0 disables).  Checkpoints land after the round's evaluation,
  /// at the round boundary.
  std::size_t checkpoint_every = 0;
  /// Destination for cadenced checkpoints.  A "{round}" placeholder expands
  /// to the completed-round count (per-round history); without it the one
  /// file is overwritten each time.
  std::string checkpoint_path;
  /// Resume from this checkpoint file before round 0 (empty = fresh run).
  /// The checkpoint's meta must match the live run (shape, seeds, strategy
  /// name); training then continues from the stored round and is
  /// bit-identical to the uninterrupted run.
  std::string resume_from;
};

struct EvalPoint {
  std::size_t round = 0;            // rounds completed when evaluated
  double sim_seconds = 0.0;         // cumulative simulated time
  double wire_gigabits = 0.0;       // cumulative wire traffic
  double test_accuracy = 0.0;
  double test_loss = 0.0;
};

struct TrainResult {
  std::vector<EvalPoint> evals;
  double final_test_accuracy = 0.0;
  double best_test_accuracy = 0.0;
  std::size_t rounds_completed = 0;
  bool diverged = false;
  bool reached_stop_accuracy = false;

  // Cumulative simulated accounting.
  double sim_seconds = 0.0;
  double total_wire_bits = 0.0;
  /// Mean per-round phase split (compute / compression / communication) —
  /// the stacked bars of Figures 1a and 5.
  PhaseTimes mean_round_phases;
  /// Mean wire-format bits per element per round (Figure 3's "Bits").
  double mean_bits_per_element = 0.0;
  /// Mean sign matching rate (only if track_matching_rate).
  double mean_matching_rate = 0.0;

  // Fault accounting (all zero when the strategy's FaultPlan is empty).
  /// Rounds where membership faults removed at least one worker.
  std::size_t degraded_rounds = 0;
  /// Mean surviving-worker count per round (== num_workers when fault-free).
  double mean_active_workers = 0.0;
  /// Wire bits resent due to simulated packet loss or detected payload
  /// corruption, on top of total_wire_bits (which counts each payload once).
  double total_retransmitted_wire_bits = 0.0;
  /// Number of simulated retransmissions across all rounds.
  std::size_t total_retransmissions = 0;
  /// Workers re-admitted after sitting out at least one round (includes the
  /// flush-gated subset below).
  std::size_t total_rejoins = 0;
  /// Rejoins that waited for the K-round full-precision flush barrier
  /// (FaultPlan::DropOut::rejoin_at_flush).
  std::size_t total_flush_rejoins = 0;
  /// Senders excluded from a round because their payload stayed corrupted
  /// past the retry budget (never folded into the aggregate).
  std::size_t total_corruption_demotions = 0;
  /// Round this run resumed from (0 = fresh run); informational only, not
  /// part of the golden digests.
  std::size_t resumed_from_round = 0;
};

class DistributedTrainer {
 public:
  /// `model_factory` must build identical architectures.  Every model is
  /// bound to the trainer's one parameter vector, initialized once from
  /// config.seed (init_replica).
  DistributedTrainer(const Dataset& dataset,
                     std::function<Sequential()> model_factory,
                     SyncStrategy& strategy, TrainerConfig config);

  /// Parameter count of the model (the synchronized dimension D).
  std::size_t param_count() const { return param_count_; }

  /// Simulated seconds of one worker's forward+backward per round.
  double compute_seconds_per_round() const;

  TrainResult train();

  /// Evaluates the model on `samples` held-out examples.
  EvalPoint evaluate(std::size_t samples);

  /// Copies the current parameters into `out` (extent must equal
  /// param_count()); the golden determinism test hashes them.
  void copy_params_into(std::span<float> out) const;

 private:
  /// Accumulators that live across rounds and must survive a
  /// checkpoint/resume cycle together with TrainResult (everything train()
  /// folds into the final means is derived from these at the end).
  struct RunningTotals {
    PhaseTimes phase_totals;
    double bits_per_element_total = 0.0;
    double matching_total = 0.0;
    double active_workers_total = 0.0;
    float eta_l = 0.0f;
    /// First round index the loop should execute (0 unless resumed).
    std::size_t start_round = 0;
  };

  /// Serializes the complete run state after `rounds_done` rounds to
  /// config_.checkpoint_path (with "{round}" expanded).
  void write_checkpoint(std::size_t rounds_done, const TrainResult& result,
                        const RunningTotals& totals) const;
  /// Restores a run from config_.resume_from, rejecting checkpoints whose
  /// meta does not match this trainer/strategy (always-on checks).
  void restore_checkpoint(TrainResult& result, RunningTotals& totals);

  const Dataset& dataset_;
  SyncStrategy& strategy_;
  TrainerConfig config_;
  ShardedSampler sampler_;
  Tensor params_;  // x, viewed by every worker's model
  std::vector<LocalWorker> workers_;
  Tensor global_update_;
  std::size_t param_count_ = 0;

  // Running totals (populated during train()).
  double cumulative_seconds_ = 0.0;
  double cumulative_bits_ = 0.0;
};

}  // namespace marsit
