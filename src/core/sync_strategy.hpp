// Synchronization strategies: Marsit (paper Algorithm 1) and every baseline
// the evaluation compares against, behind one interface.
//
// Contract shared by all strategies: each round, every worker produces a
// local update vector u_m (its stochastic gradient with the local stepsize
// already applied, possibly transformed by a local optimizer).  The strategy
// aggregates them into one global update g_t that *every* worker applies as
// x ← x − g_t, so model replicas stay bit-identical — the invariant all MAR
// methods share and the reason the trainer can keep a single model copy.
//
// synchronize() also returns the round's simulated timing and wire-bit
// accounting: the round's hop schedule (core/hop_schedule.hpp) on this
// strategy's paradigm (ring / 2-D torus / parameter server / tree), priced
// on the strategy's NetworkSim.
//
// Algorithm 1's per-rank state lives in one type, MarsitRank: MarsitSync
// keeps one per worker and the distributed worker (dist/worker.hpp) one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "collectives/aggregators.hpp"
#include "collectives/timing.hpp"
#include "compress/bit_vector.hpp"
#include "core/hop_schedule.hpp"
#include "net/cost_model.hpp"
#include "net/fault_plan.hpp"
#include "net/network_sim.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace marsit {

class ThreadPool;

/// Single-valued and unread: Marsit has one one-bit plane, the
/// reduce-scatter schedule of core/segmented_fold.hpp.  The enum goes once
/// no caller assigns it any more.
enum class SyncMode { kReduceScatter };

struct SyncConfig {
  std::size_t num_workers = 0;
  MarParadigm paradigm = MarParadigm::kRing;
  /// Required when paradigm == kTorus2d; rows*cols must equal num_workers.
  std::size_t torus_rows = 0;
  std::size_t torus_cols = 0;
  /// Nothing reads this field.
  SyncMode sync_mode = SyncMode::kReduceScatter;
  CostModel cost_model;
  std::uint64_t seed = 1;
  /// Pool running the sharded rounds — one parallel_for task per shard
  /// chunk (DESIGN.md §12) — and Marsit's segment fold chains; nullptr uses
  /// global_thread_pool().  Results are bit-identical for any pool size: the
  /// chunk grid and per-chunk RNG streams depend only on the payload size
  /// and shard_chunk_elements (see parallel/shard.hpp), and Marsit's ⊙
  /// draws only on (segment, op).
  ThreadPool* pool = nullptr;
  /// Elements per sharded chunk (rounded up to whole 64-bit sign words).
  /// Part of SSDM's deterministic geometry — its per-chunk RNG streams
  /// change with it, so treat it as a tuning constant there.  Marsit's
  /// outputs do not depend on it: its rng grid is the fabric's segment
  /// partition, so for Marsit it is a pure performance knob.
  std::size_t shard_chunk_elements = std::size_t{1} << 16;
  /// Fault injection (see net/fault_plan.hpp).  Link-level faults flow into
  /// NetworkSim (retries, jitter, outages, stragglers inflate the timing);
  /// membership faults mark workers absent for whole rounds, and every
  /// strategy degrades gracefully: the reduction re-forms over the survivors
  /// with correct ⊙ weights / majority thresholds / mean normalization,
  /// while per-worker state (compensation, EF memory) of absent workers is
  /// carried forward untouched.  The default (empty) plan takes exactly the
  /// fault-free code paths: outputs and timings are bit-identical to a build
  /// without the fault layer.
  FaultPlan fault_plan;
};

struct SyncStepResult {
  CollectiveTiming timing;
  /// True when this round transmitted full-precision values (PSGD always;
  /// Marsit every K rounds).
  bool full_precision = false;
  /// Wire-format bits used to encode one element this round (the paper's
  /// Figure 3 "Bits" column): 32 for full precision, 1 for one-bit rounds,
  /// for sign-sums the fixed width ⌈log2(s+1)⌉+1 of the sum over this
  /// round's s contributors.
  double bits_per_element = 0.0;
  /// Workers that contributed this round (== num_workers unless the fault
  /// plan dropped some).
  std::size_t active_workers = 0;
  /// Workers returning this round after sitting out the previous one
  /// (includes the flush-gated subset below).
  std::size_t rejoined_workers = 0;
  /// Rejoins that landed on a full-precision flush boundary (rejoin_at_flush
  /// windows): the worker's stale per-round state was discarded at the
  /// barrier (see SyncStrategy::on_flush_rejoin).
  std::size_t flush_rejoined_workers = 0;
  /// Senders whose payload stayed corrupted past the retry budget and were
  /// excluded from the round through the survivor path.
  std::size_t demoted_workers = 0;
};

class SyncStrategy {
 public:
  explicit SyncStrategy(SyncConfig config);
  virtual ~SyncStrategy() = default;

  SyncStrategy(const SyncStrategy&) = delete;
  SyncStrategy& operator=(const SyncStrategy&) = delete;

  virtual std::string name() const = 0;

  const SyncConfig& config() const { return config_; }
  std::size_t round() const { return round_; }

  /// Aggregates the workers' update vectors into the global update.
  /// `inputs` holds num_workers spans of identical extent; `out` receives
  /// g_t.  Advances the round counter.
  SyncStepResult synchronize(const WorkerSpans& inputs, std::span<float> out);

  /// Full-precision flush period K of this strategy (0 = no flush rounds).
  /// Rejoin barriers and rejoin_at_flush drop-out windows key off this: at a
  /// multiple of K the global state is identical on every worker, so a
  /// returning worker needs no per-worker history.
  virtual std::size_t flush_period() const { return 0; }

  /// Checkpointing: serializes the strategy's cross-round state (round
  /// counter, Marsit compensation, EF residuals) so a resumed run continues
  /// bit-identically.  Per-round scratch is excluded — it is lazily
  /// rebuilt.  load_state must be paired with the same strategy and
  /// configuration that produced the bytes (the trainer checks names and
  /// seeds).
  virtual void save_state(ckpt::SnapshotWriter& writer) const;
  virtual void load_state(ckpt::SnapshotReader& reader);

 protected:
  virtual SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                        std::span<float> out) = 0;

  /// Hook invoked when `worker` re-enters exactly at a flush boundary (a
  /// rejoin_at_flush window closed here).  Strategies with per-worker
  /// history discard the worker's stale state — at the barrier the global
  /// state is replicated everywhere, so the fresh-start is exact (Marsit
  /// zeros the worker's compensation).  Default: nothing to discard.
  virtual void on_flush_rejoin(std::size_t worker);

  /// This round's hop_schedule of a `kind` round over `units` units, with
  /// a parameter server placed at `server`.  The schedule re-forms over
  /// this round's *surviving* membership, active_workers().size()
  /// participants (a torus that no longer tiles re-forms as a smaller torus
  /// when the survivor count still fills whole rows, else as a ring).
  /// Survivors are renumbered densely onto nodes 0..S−1, so per-node fault
  /// attributes follow re-formed fabric positions, not physical hosts.
  /// MarsitSync folds and prices these schedules with the PS at member 0.
  HopSchedule round_schedule(RoundKind kind, std::size_t units,
                             PsServer server) const;

  /// Timing of a baseline round in the given wire format: the kAllReduce
  /// round_schedule of `units` elements with the paper's PS on its own
  /// node, priced by price_hop_schedule on the strategy's own NetworkSim.
  CollectiveTiming mar_timing(std::size_t units, const WireFormat& wire);

  /// Original indices of the workers present this round, ascending.  Always
  /// the full fleet when the fault plan has no membership faults; never
  /// fewer than two (quorum: the lowest-indexed absent workers are
  /// re-admitted rather than letting the fabric collapse).
  const std::vector<std::size_t>& active_workers() const { return active_; }
  bool degraded_round() const {
    return active_.size() != config_.num_workers;
  }

  /// `inputs` filtered to the active workers.  Returns `inputs` itself on
  /// full-membership rounds (zero-copy); on degraded rounds returns a
  /// member scratch valid until the next call.
  const WorkerSpans& active_inputs(const WorkerSpans& inputs);

  /// Fresh per-round RNG (derived from the config seed and round index) so
  /// strategies are reproducible independent of call interleaving.
  Rng round_rng() const;

  SyncConfig config_;
  NetworkSim net_;
  std::size_t round_ = 0;
  std::vector<std::size_t> active_;  // this round's surviving worker indices
  WorkerSpans active_scratch_;       // filtered-span scratch (degraded rounds)
};

// --- concrete strategies -----------------------------------------------------

/// PSGD: full-precision aggregation (the non-compression baseline).  Runs on
/// any paradigm, including the parameter server for Figure 1a.
class PsgdSync final : public SyncStrategy {
 public:
  explicit PsgdSync(SyncConfig config);
  std::string name() const override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;
};

/// signSGD with majority vote [21] extended to MAR with growing sign-sums.
/// g_t = eta_s · sign(Σ_m sign(u_m)).
class SignSgdMvSync final : public SyncStrategy {
 public:
  SignSgdMvSync(SyncConfig config, float eta_s);
  std::string name() const override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;

  float eta_s_;
};

/// EF-signSGD [30] extended to MAR: per-worker error feedback around the
/// scaled-sign compressor; the wire carries sign-sums plus the running scale
/// sum, decoded as (mean scale)·(mean sign).
class EfSignSgdSync final : public SyncStrategy {
 public:
  explicit EfSignSgdSync(SyncConfig config);
  std::string name() const override;
  void save_state(ckpt::SnapshotWriter& writer) const override;
  void load_state(ckpt::SnapshotReader& reader) override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;

  // Per-worker EF memory e_m, lazily sized.  Within a round a survivor's
  // holds p = u_m + e_m, updated in place chunk by chunk.
  std::vector<Tensor> error_;
  // Round scratch (never serialized): per-survivor ‖p‖₁/d compressor
  // scales.  The chunk tasks take the packed signs from their arenas.
  std::vector<float> scales_;
};

/// SSDM [14] extended to MAR: stochastic signs (P(+1) = 1/2 + g_i/(2‖g‖))
/// aggregated in sign-sums; the update is the paper's sign-descent step
/// g_t = eta_s · sign(Σ_m s̃ign(u_m)) — SSDM descends on the sign, the norm
/// only shapes the per-element probability.
class SsdmMarSync final : public SyncStrategy {
 public:
  SsdmMarSync(SyncConfig config, float eta_s);
  std::string name() const override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;

  float eta_s_;
};

/// SSDM under a parameter server (the single-hop home turf of signSGD
/// methods; Figure 1's comparison point).  Uplink: per-worker stochastic
/// signs; downlink: the aggregated sign decision — one bit each way.
class SsdmPsSync final : public SyncStrategy {
 public:
  SsdmPsSync(SyncConfig config, float eta_s);
  std::string name() const override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;

  float eta_s_;
};

/// Cascading compression (paper §3.2): decompress-add-recompress at every
/// ring hop.  The negative baseline of Table 1 / Figure 1.  Ring only.
class CascadingSync final : public SyncStrategy {
 public:
  explicit CascadingSync(SyncConfig config);
  std::string name() const override;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;
};

/// Marsit (paper Algorithm 1): one-bit ⊙ aggregation with global
/// compensation, full-precision synchronization every K rounds.
struct MarsitOptions {
  /// Global stepsize η_s multiplying the aggregated sign vector.
  float eta_s = 1e-3f;
  /// Full-precision synchronization period; 0 disables it (the paper's
  /// "Marsit" row; K=∞).  K=1 degenerates to PSGD.
  std::size_t full_precision_period = 0;
  /// Ablation switch: disable the global compensation mechanism (the c
  /// vectors stay zero).  Used by bench/ablation_compensation.
  bool use_compensation = true;
  /// Trust region on the periodic full-precision update: the flushed mean
  /// (which carries ~K rounds of compensation mass) is rescaled to this ℓ2
  /// norm when larger (0 disables).  The paper's protocol controls the same
  /// hazard by decaying the learning rate at every full-precision
  /// synchronization; at this reproduction's aggressive per-round stepsizes
  /// an explicit cap is the stabler equivalent (see EXPERIMENTS.md).
  float full_precision_max_norm = 0.0f;
};

/// The flush's trust region: rescales the flushed `mean` in place to
/// options.full_precision_max_norm when its ℓ2 norm is larger.  MarsitSync
/// and the distributed worker both call it.
void clip_flush_mean(const MarsitOptions& options, std::span<float> mean);

/// One rank's Algorithm 1 state: its compensation c, its sign plane and the
/// line 10 it owes.  MarsitSync keeps one per worker and the distributed
/// worker keeps one, so both backends run these stages:
///
///   one-bit round  pack() every slice (line 1); fold the survivors'
///                  planes (lines 4–8) until each holds the aggregate s, as
///                  every socket rank's does; apply g = η_s·s (line 9);
///                  finish(false).  Line 10, c ← c − η_s·s, is owed until the
///                  rank's next pack() or contribute() settles it in the
///                  same pass, so an absent rank's debt waits in its plane.
///   flush          contribute() every slice (lines 12–13: u + c in place),
///                  all-reduce those rows, scale by 1/s and apply the mean,
///                  zero the rows (c restarts at zero), finish(true).
///
/// A slice may start and end at any element, and the slices of a round may
/// arrive in any order: a slice that covers part of a plane word merges its
/// bits into that word and leaves the word's other bits, owed or packed, as
/// they are.  Slices that share a plane word must not run at the same time;
/// slices that start at multiples of 64 elements share none.
class MarsitRank {
 public:
  /// A rank resuming with compensation `compensation`, owing nothing.
  MarsitRank(const MarsitOptions& options, Tensor compensation);

  std::size_t size() const { return compensation_.size(); }

  /// Line 1 on the slice of u that starts at element `begin`: settles the
  /// owed line 10 there, c ← u + c in place and packs sign(c) into the
  /// plane.  With use_compensation off it packs sign(u) and never writes c.
  void pack(std::span<const float> update, std::size_t begin);

  /// A flush's contribution on the slice: settles the owed line 10 there,
  /// then c ← u + c in place.
  void contribute(std::span<const float> update, std::size_t begin);

  /// Ends a round in which every slice was packed or contributed.  After a
  /// one-bit round the plane must hold the aggregate, and with
  /// use_compensation line 10 is owed against it; after a flush nothing is.
  void finish(bool full_precision);

  /// c ← 0, owing nothing: a rank rejoining at the flush barrier.
  void reset();

  /// c with the owed line 10 applied (a copy): what a checkpoint saves.
  Tensor settled() const;

  std::span<float> compensation() { return compensation_.span(); }
  std::span<std::uint64_t> signs() { return signs_.words(); }

 private:
  /// c on the slice [begin, begin + count), which must lie inside it.
  std::span<float> row(std::size_t begin, std::size_t count);

  /// Runs kernel(first, n, words) over the slice [begin, begin + count) in
  /// pieces: slice elements [first, first + n) against `words`, whose bit 0
  /// is the piece's first element.  Whole words are the plane's own; a
  /// piece inside one word gets a shifted one-word copy, merged back under
  /// the piece's mask once the kernel returns.
  template <typename Kernel>
  void for_each_piece(std::size_t begin, std::size_t count, Kernel&& kernel);

  MarsitOptions options_;
  Tensor compensation_;
  BitVector signs_;
  bool owed_ = false;
};

class MarsitSync final : public SyncStrategy {
 public:
  MarsitSync(SyncConfig config, MarsitOptions options);
  std::string name() const override;

  const MarsitOptions& options() const { return options_; }

  std::size_t flush_period() const override {
    return options_.full_precision_period;
  }
  void save_state(ckpt::SnapshotWriter& writer) const override;
  void load_state(ckpt::SnapshotReader& reader) override;

  /// Mean compensation-vector ℓ2 norm across workers (0 before the first
  /// one-bit round) — the error-accumulation diagnostic Figure 3 discusses.
  double mean_compensation_norm() const;

  /// Writes c̄_t = (1/M)Σ_m c_t^{(m)} into `out` (zeros before the first
  /// round).  Diagnostic: the paper's proof tracks the auxiliary sequence
  /// ỹ_t = x̃_t − c̄_t, which must follow exact SGD —
  /// tests/core_marsit_dynamics_test.cpp checks that identity numerically.
  void mean_compensation_into(std::span<float> out) const;

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override;
  void on_flush_rejoin(std::size_t worker) override;

  MarsitOptions options_;
  std::vector<MarsitRank> ranks_;  // one per worker, lazily sized
};

// --- factory ------------------------------------------------------------------

enum class SyncMethod {
  kPsgd,
  kSignSgdMv,
  kEfSignSgd,
  kSsdm,
  kSsdmPs,
  kCascading,
  kMarsit,
};

const char* sync_method_name(SyncMethod method);

struct MethodOptions {
  /// Global stepsize for sign-valued updates (signSGD-MV, SSDM, Marsit).
  float eta_s = 1e-3f;
  /// Marsit's K; 0 = never full precision.
  std::size_t full_precision_period = 0;
  /// Marsit's flush trust region (see MarsitOptions).
  float full_precision_max_norm = 0.0f;
};

std::unique_ptr<SyncStrategy> make_sync_strategy(SyncMethod method,
                                                 SyncConfig config,
                                                 MethodOptions options = {});

}  // namespace marsit
