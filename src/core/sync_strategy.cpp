#include "core/sync_strategy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "compress/kernels.hpp"
#include "compress/sign_codec.hpp"
#include "core/one_bit.hpp"
#include "core/segmented_fold.hpp"
#include "net/crc32.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/scratch_arena.hpp"
#include "parallel/shard.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/validate.hpp"

namespace marsit {

namespace {

/// Block length for the SSDM strategies' stochastic-sign norms (see
/// ssdm_pack): per-block norms keep the sign probabilities informative at
/// training-scale dimensions, like the per-tensor norms of deployed
/// systems.
constexpr std::size_t kSsdmBlock = 64;

std::size_t network_nodes(const SyncConfig& config) {
  return config.paradigm == MarParadigm::kParameterServer
             ? config.num_workers + 1
             : config.num_workers;
}

ThreadPool& strategy_pool(const SyncConfig& config) {
  return config.pool != nullptr ? *config.pool : global_thread_pool();
}

/// `count` zero tensors of `size` elements, each built in place (assign()
/// would zero one temporary and copy it `count` times).
std::vector<Tensor> zero_tensors(std::size_t count, std::size_t size) {
  std::vector<Tensor> tensors;
  tensors.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tensors.emplace_back(size);
  }
  return tensors;
}

/// Reads the per-worker vectors a strategy's save_state wrote: none, or one
/// per worker, all of one length: a round slices every worker's vector on
/// one chunk grid.
std::vector<Tensor> load_worker_vectors(ckpt::SnapshotReader& reader,
                                        std::size_t num_workers,
                                        const char* what) {
  const std::uint64_t count = reader.u64();
  MARSIT_CHECK(count == 0 || count == num_workers)
      << what << " for " << count << " workers, expected " << num_workers;
  std::vector<Tensor> vectors;
  vectors.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    vectors.push_back(Tensor::from_vector(reader.f32_vec()));
    MARSIT_CHECK(vectors.back().size() == vectors.front().size())
        << what << " of worker " << i << " has " << vectors.back().size()
        << " elements, worker 0's has " << vectors.front().size();
  }
  return vectors;
}

/// Publishes the per-round synchronization metrics.  Pure observation of the
/// already-computed step result.
void publish_sync_metrics(const SyncStepResult& result, bool degraded) {
  // Self-contained guard (the caller also checks): keeps the helper safe to
  // call from anywhere without re-paying metric registration.
  if (!obs::metrics_enabled()) {
    return;
  }
  static const obs::Counter rounds("sync.rounds");
  static const obs::Counter degraded_rounds("sync.degraded_rounds");
  static const obs::Counter full_precision_rounds(
      "sync.full_precision_rounds");
  static const obs::Counter wire_bits("sync.wire_bits");
  static const obs::Counter retransmitted_wire_bits(
      "sync.retransmitted_wire_bits");
  static const obs::Counter retransmissions("sync.retransmissions");
  static const obs::Counter rejoins("sync.rejoins");
  static const obs::Counter flush_rejoins("sync.flush_rejoins");
  static const obs::Counter demotions("sync.corruption_demotions");
  static const obs::Gauge active_workers("sync.active_workers");
  static const obs::Gauge bits_per_element("sync.bits_per_element");
  static const obs::Histogram completion_seconds("sync.completion_seconds");
  rounds.increment();
  if (degraded) {
    degraded_rounds.increment();
  }
  rejoins.add(static_cast<double>(result.rejoined_workers));
  flush_rejoins.add(static_cast<double>(result.flush_rejoined_workers));
  demotions.add(static_cast<double>(result.demoted_workers));
  if (result.full_precision) {
    full_precision_rounds.increment();
  }
  wire_bits.add(result.timing.total_wire_bits);
  retransmitted_wire_bits.add(result.timing.retransmitted_wire_bits);
  retransmissions.add(static_cast<double>(result.timing.retransmissions));
  active_workers.set(static_cast<double>(result.active_workers));
  bits_per_element.set(result.bits_per_element);
  completion_seconds.observe(result.timing.completion_seconds);
}

}  // namespace

SyncStrategy::SyncStrategy(SyncConfig config)
    : config_(config), net_(network_nodes(config), config.cost_model) {
  MARSIT_CHECK(config_.num_workers >= 2)
      << "synchronization needs at least 2 workers";
  if (config_.paradigm == MarParadigm::kTorus2d) {
    MARSIT_CHECK(config_.torus_rows >= 2 && config_.torus_cols >= 2 &&
                 config_.torus_rows * config_.torus_cols ==
                     config_.num_workers)
        << "torus " << config_.torus_rows << "x" << config_.torus_cols
        << " does not tile " << config_.num_workers << " workers";
  }
  config_.fault_plan.validate();
  // The plan lives inside config_, which is pinned for the strategy's
  // lifetime (strategies are non-copyable).
  net_.set_fault_plan(&config_.fault_plan);
  active_.reserve(config_.num_workers);
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    active_.push_back(w);
  }
}

SyncStepResult SyncStrategy::synchronize(const WorkerSpans& inputs,
                                         std::span<float> out) {
  MARSIT_CHECK(inputs.size() == config_.num_workers)
      << "got " << inputs.size() << " worker inputs, expected "
      << config_.num_workers;
  MARSIT_CHECK(!out.empty()) << "empty output span";
  for (const auto& in : inputs) {
    MARSIT_CHECK(in.size() == out.size())
        << "worker input extent " << in.size() << " vs output " << out.size();
  }
  net_.begin_round(round_);  // rounds are timed independently
  const FaultPlan& plan = config_.fault_plan;
  const std::size_t k = flush_period();
  std::vector<std::size_t> demoted;       // corruption past the retry budget
  std::vector<std::size_t> flush_rejoins; // rejoins landing on a flush
  std::vector<std::size_t> carry_rejoins; // rejoins with carried-over state
  std::size_t corruption_victims = 0;     // demoted before quorum re-admission
  if (plan.affects_membership()) {
    active_.clear();
    for (std::size_t w = 0; w < config_.num_workers; ++w) {
      if (plan.worker_absent(w, round_, k)) {
        continue;
      }
      if (plan.sender_demoted(w, round_)) {
        // The payload stayed corrupted through every retry; the sender sits
        // this round out rather than folding garbage into the aggregate.
        demoted.push_back(w);
        continue;
      }
      active_.push_back(w);
    }
    corruption_victims = demoted.size();
    // Quorum: a reduction needs at least two members.  Re-admit the
    // lowest-indexed absent workers (deterministic) rather than letting the
    // fabric collapse; demoted senders are re-admitted only as a last
    // resort (modeling retransmit-until-clean — their burned attempts are
    // still charged below).
    for (std::size_t w = 0; active_.size() < 2 && w < config_.num_workers;
         ++w) {
      if (std::find(active_.begin(), active_.end(), w) == active_.end() &&
          std::find(demoted.begin(), demoted.end(), w) == demoted.end()) {
        active_.insert(std::lower_bound(active_.begin(), active_.end(), w),
                       w);
      }
    }
    while (active_.size() < 2 && !demoted.empty()) {
      const std::size_t w = demoted.front();
      demoted.erase(demoted.begin());
      active_.insert(std::lower_bound(active_.begin(), active_.end(), w), w);
    }
    // Contract: whatever degradation + quorum re-admission produced must be
    // a valid membership — sorted unique ids in range, at least 2 of them —
    // before any paradigm re-forms over it.
    MARSIT_VALIDATE_CALL(validate::membership(active_, config_.num_workers));
    // Rejoins: workers present now that sat out the previous round.  A
    // rejoin_at_flush window closing exactly here re-enters at the barrier —
    // the strategy discards the worker's stale per-worker state, which is
    // exact because the flush state is replicated on every worker.
    if (round_ > 0) {
      for (const std::size_t w : active_) {
        if (!plan.worker_absent(w, round_ - 1, k)) {
          continue;
        }
        if (plan.flush_rejoin_at(w, round_, k)) {
          flush_rejoins.push_back(w);
          on_flush_rejoin(w);
        } else {
          carry_rejoins.push_back(w);
        }
      }
    }
    MARSIT_VALIDATE_CALL(
        validate::rejoin_membership(flush_rejoins, config_.num_workers,
                                    round_, k));
    MARSIT_VALIDATE_CALL(
        validate::rejoin_membership(carry_rejoins, config_.num_workers,
                                    round_, 0));
  }
  SyncStepResult result = do_synchronize(inputs, out);
  result.active_workers = active_.size();
  result.rejoined_workers = flush_rejoins.size() + carry_rejoins.size();
  result.flush_rejoined_workers = flush_rejoins.size();
  result.demoted_workers = demoted.size();
  if (corruption_victims > 0) {
    // Every demoted sender burned its payload (plus the CRC footer) on the
    // initial attempt and all retries before giving up; those bits hit the
    // wire even though the round excluded the sender.
    const double attempts = static_cast<double>(plan.max_retries + 1);
    const double burned_bits =
        attempts * (result.bits_per_element * static_cast<double>(out.size()) +
                    kCrcFooterBits);
    result.timing.retransmitted_wire_bits +=
        burned_bits * static_cast<double>(corruption_victims);
    result.timing.total_wire_bits +=
        burned_bits * static_cast<double>(corruption_victims);
    result.timing.retransmissions +=
        (plan.max_retries + 1) * corruption_victims;
  }
  if (obs::TraceSession* trace = obs::TraceSession::current()) {
    for (const std::size_t w : flush_rejoins) {
      trace->add_instant("flush-rejoin worker " + std::to_string(w),
                         "rejoin", trace->time_offset(), /*track=*/0);
    }
    for (const std::size_t w : carry_rejoins) {
      trace->add_instant("rejoin worker " + std::to_string(w), "rejoin",
                         trace->time_offset(), /*track=*/0);
    }
    for (const std::size_t w : demoted) {
      trace->add_instant("corruption-demoted worker " + std::to_string(w),
                         "demote", trace->time_offset(), /*track=*/0);
    }
  }
  if (obs::metrics_enabled()) {
    publish_sync_metrics(result, degraded_round());
  }
  ++round_;
  return result;
}

void SyncStrategy::on_flush_rejoin(std::size_t /*worker*/) {}

void SyncStrategy::save_state(ckpt::SnapshotWriter& writer) const {
  writer.u64(static_cast<std::uint64_t>(round_));
}

void SyncStrategy::load_state(ckpt::SnapshotReader& reader) {
  round_ = static_cast<std::size_t>(reader.u64());
}

const WorkerSpans& SyncStrategy::active_inputs(const WorkerSpans& inputs) {
  if (!degraded_round()) {
    return inputs;
  }
  active_scratch_.clear();
  active_scratch_.reserve(active_.size());
  for (std::size_t w : active_) {
    active_scratch_.push_back(inputs[w]);
  }
  return active_scratch_;
}

HopSchedule SyncStrategy::round_schedule(RoundKind kind, std::size_t units,
                                         PsServer server) const {
  const std::size_t m = active_.size();
  if (config_.paradigm == MarParadigm::kTorus2d) {
    if (const std::size_t rows = torus_rows_for(config_.torus_cols, m)) {
      MARSIT_VALIDATE_CALL(
          validate::torus_shape(rows, config_.torus_cols, m));
    }
  }
  return hop_schedule(kind, config_.paradigm, config_.torus_cols, m, units,
                      server);
}

CollectiveTiming SyncStrategy::mar_timing(std::size_t units,
                                          const WireFormat& wire) {
  return price_hop_schedule(
      round_schedule(RoundKind::kAllReduce, units, PsServer::kOwnNode), wire,
      net_);
}

Rng SyncStrategy::round_rng() const {
  return Rng(derive_seed(config_.seed, round_));
}

// --- PSGD ----------------------------------------------------------------

PsgdSync::PsgdSync(SyncConfig config) : SyncStrategy(config) {}

std::string PsgdSync::name() const {
  return std::string("PSGD-") + mar_paradigm_name(config_.paradigm);
}

SyncStepResult PsgdSync::do_synchronize(const WorkerSpans& inputs,
                                        std::span<float> out) {
  // Mean over the survivors: dropping absent workers renormalizes the
  // denominator automatically.
  aggregate_mean(active_inputs(inputs), out);
  SyncStepResult result;
  result.timing = mar_timing(out.size(), full_precision_wire());
  result.full_precision = true;
  result.bits_per_element = 32.0;
  return result;
}

// --- shared sign-sum plumbing ----------------------------------------------

namespace {

/// Per-chunk rng stream of a sharded majority round (SSDM's stochastic
/// signs).  Chunk 0 continues the round stream itself and later chunks
/// split off independent derived streams.
Rng marsit_chunk_rng(std::uint64_t round_seed, std::size_t chunk_index) {
  return Rng(chunk_index == 0 ? round_seed
                              : derive_seed(round_seed, chunk_index));
}

/// Geometry + knobs of one sharded majority round (signSGD-MV, SSDM-MAR,
/// SSDM-PS): every chunk packs all workers, accumulates the sign-sum,
/// majority-votes and unpacks — chunk-locally, with its own rng stream.
struct MajorityRound {
  float eta_s = 0.0f;
  /// false → deterministic signs (rng untouched); true → SSDM stochastic
  /// signs with block-local norms.
  bool stochastic = false;
  std::size_t ssdm_block = 0;
  std::uint64_t round_seed = 0;
  ThreadPool* pool = nullptr;
  std::size_t chunk_elements = 0;
};

/// out = eta_s · sign(Σ_m pack(u_m)), sharded over word-aligned chunks.
void sharded_majority_sync(const WorkerSpans& inputs, std::span<float> out,
                           const MajorityRound& cfg) {
  const std::size_t d = out.size();
  const std::size_t m = inputs.size();
  const ShardPlan plan(d, cfg.chunk_elements);
  MARSIT_CHECK(!cfg.stochastic || cfg.ssdm_block > 0)
      << "sharded stochastic packing needs block-local norms";
  MARSIT_CHECK(!cfg.stochastic ||
               plan.chunk_elements() % cfg.ssdm_block == 0)
      << "shard chunk " << plan.chunk_elements()
      << " must be a multiple of the SSDM block " << cfg.ssdm_block;
  MARSIT_VALIDATE_CALL(validate_shard_plan(plan));
  // One task per chunk (DESIGN.md §12).  Scratch comes from the thread's
  // arena, so the steady-state hot loop performs zero heap allocations
  // (ScratchArena::total_grows() is the counting hook the tests pin).
  parallel_for(*cfg.pool, plan.num_chunks(), [&](std::size_t c) {
    ScratchArena& arena = this_thread_arena();
    arena.reset();
    const Shard shard = plan.chunk(c);
    const std::size_t n = shard.size();
    const std::size_t nw = shard.num_words();
    // Pack every worker's chunk and tally the sign-sum.  All rng
    // consumption lives here, in worker order, on the chunk's own stream.
    const std::span<std::int32_t> values = arena.counts(n);
    std::fill(values.begin(), values.end(), 0);
    Rng rng = marsit_chunk_rng(cfg.round_seed, c);
    const std::span<std::uint64_t> words = arena.words(nw);
    for (std::size_t w = 0; w < m; ++w) {
      if (cfg.stochastic) {
        ssdm_pack_words(inputs[w].subspan(shard.begin, n), rng,
                        cfg.ssdm_block, words);
      } else {
        kernels::pack_signs_words(inputs[w].subspan(shard.begin, n), words);
      }
      kernels::accumulate_counts_words(words, values);
    }
    // Vote: majority over the tallied counts, decoded into the output.
    const std::span<std::uint64_t> verdict = arena.words(nw);
    kernels::majority_words(values, verdict);
    kernels::unpack_signs_words(verdict, cfg.eta_s,
                                out.subspan(shard.begin, n));
  });
}

}  // namespace

// --- signSGD with majority vote ---------------------------------------------

SignSgdMvSync::SignSgdMvSync(SyncConfig config, float eta_s)
    : SyncStrategy(config), eta_s_(eta_s) {
  MARSIT_CHECK(eta_s_ > 0.0f) << "signSGD-MV needs a positive global stepsize";
}

std::string SignSgdMvSync::name() const {
  return std::string("signSGD-") + mar_paradigm_name(config_.paradigm);
}

SyncStepResult SignSgdMvSync::do_synchronize(const WorkerSpans& inputs,
                                             std::span<float> out) {
  const std::size_t d = out.size();
  MajorityRound majority;
  majority.eta_s = eta_s_;
  majority.pool = &strategy_pool(config_);
  majority.chunk_elements = config_.shard_chunk_elements;
  // Majority-vote over the survivors; absent workers simply cast no vote.
  sharded_majority_sync(active_inputs(inputs), out, majority);

  SyncStepResult result;
  result.timing = mar_timing(d, sign_sum_wire(config_.cost_model));
  result.bits_per_element =
      static_cast<double>(sign_sum_bits_per_element(active_workers().size()));
  return result;
}

// --- EF-signSGD ---------------------------------------------------------------

EfSignSgdSync::EfSignSgdSync(SyncConfig config) : SyncStrategy(config) {}

std::string EfSignSgdSync::name() const {
  return std::string("EF-signSGD-") + mar_paradigm_name(config_.paradigm);
}

void EfSignSgdSync::save_state(ckpt::SnapshotWriter& writer) const {
  SyncStrategy::save_state(writer);
  writer.u64(static_cast<std::uint64_t>(error_.size()));
  for (const Tensor& e : error_) {
    writer.f32_span(e.span());
  }
}

void EfSignSgdSync::load_state(ckpt::SnapshotReader& reader) {
  SyncStrategy::load_state(reader);
  error_ = load_worker_vectors(reader, config_.num_workers, "EF state");
}

SyncStepResult EfSignSgdSync::do_synchronize(const WorkerSpans& inputs,
                                             std::span<float> out) {
  const std::size_t d = out.size();
  if (error_.empty()) {
    error_ = zero_tensors(config_.num_workers, d);
  }
  // Only the survivors compress and contribute; an absent worker's EF
  // memory e_m is carried forward untouched and re-enters the feedback loop
  // when the worker returns.
  const std::vector<std::size_t>& active = active_workers();
  const std::size_t s = active.size();
  scales_.resize(s);

  // Whole-vector pre-pass: the compressor scale is the *global* ‖p‖₁/d, so
  // it cannot be computed chunk-locally.  Float order matches the previous
  // serial loop (add, then the scale reduction, per worker in turn).  The
  // add runs in place: from here to the error-feedback update e_m holds p.
  double scale_sum = 0.0;
  for (std::size_t i = 0; i < s; ++i) {
    const std::size_t w = active[i];
    add(inputs[w], error_[w].span(), error_[w].span());
    scales_[i] = scaled_sign_scale(error_[w].span());
    scale_sum += scales_[i];
  }
  const float mean_scale =
      static_cast<float>(scale_sum / static_cast<double>(s));

  // One task per chunk (DESIGN.md §12): pack and tally the sign-sum, then
  // decode the mean and run the per-worker error-feedback update — all
  // chunk-local and rng-free, so the outputs are the same for any pool size
  // and chunk size.
  const ShardPlan plan(d, config_.shard_chunk_elements);
  MARSIT_VALIDATE_CALL(validate_shard_plan(plan));
  const float inv_s = 1.0f / static_cast<float>(s);
  parallel_for(strategy_pool(config_), plan.num_chunks(), [&](std::size_t c) {
    ScratchArena& arena = this_thread_arena();
    arena.reset();
    const Shard shard = plan.chunk(c);
    const std::size_t n = shard.size();
    const std::size_t nw = shard.num_words();
    const std::span<std::int32_t> values = arena.counts(n);
    std::fill(values.begin(), values.end(), 0);
    // Survivor i's packed chunk signs: signs[i·nw, (i+1)·nw).
    const std::span<std::uint64_t> signs = arena.words(s * nw);
    for (std::size_t i = 0; i < s; ++i) {
      const std::span<std::uint64_t> words = signs.subspan(i * nw, nw);
      kernels::pack_signs_words(
          error_[active[i]].span().subspan(shard.begin, n), words);
      kernels::accumulate_counts_words(words, values);
    }
    // Decode the mean exactly as SignSum::mean_into + scale() did: int sum
    // → ·(1/s) first, the mean scale as a separate multiply.
    const auto out_chunk = out.subspan(shard.begin, n);
    for (std::size_t el = 0; el < n; ++el) {
      out_chunk[el] = static_cast<float>(values[el]) * inv_s;
    }
    scale(out_chunk, mean_scale);
    // e_m ← p − decode(scale_m, signs_m), chunk-locally per survivor.
    const std::span<float> delta = arena.floats(n);
    for (std::size_t i = 0; i < s; ++i) {
      const auto error = error_[active[i]].span().subspan(shard.begin, n);
      kernels::unpack_signs_words(signs.subspan(i * nw, nw), scales_[i],
                                  delta);
      sub(error, delta, error);
    }
  });

  // One float scale rides along per message (the running scale sum).  The
  // decoded mean renormalizes by the survivor count on degraded rounds.
  SyncStepResult result;
  result.timing = mar_timing(d, sign_sum_wire(config_.cost_model, 1));
  result.bits_per_element = static_cast<double>(sign_sum_bits_per_element(s));
  return result;
}

// --- SSDM under MAR -------------------------------------------------------------

SsdmMarSync::SsdmMarSync(SyncConfig config, float eta_s)
    : SyncStrategy(config), eta_s_(eta_s) {
  MARSIT_CHECK(eta_s_ > 0.0f) << "SSDM needs a positive global stepsize";
}

std::string SsdmMarSync::name() const {
  return std::string("SSDM-") + mar_paradigm_name(config_.paradigm);
}

SyncStepResult SsdmMarSync::do_synchronize(const WorkerSpans& inputs,
                                           std::span<float> out) {
  const std::size_t d = out.size();
  MajorityRound majority;
  majority.eta_s = eta_s_;
  majority.stochastic = true;
  majority.ssdm_block = kSsdmBlock;
  majority.round_seed = derive_seed(config_.seed, round_);
  majority.pool = &strategy_pool(config_);
  majority.chunk_elements = config_.shard_chunk_elements;
  sharded_majority_sync(active_inputs(inputs), out, majority);

  SyncStepResult result;
  result.timing = mar_timing(d, sign_sum_wire(config_.cost_model));
  result.bits_per_element =
      static_cast<double>(sign_sum_bits_per_element(active_workers().size()));
  return result;
}

// --- SSDM under PS ---------------------------------------------------------------

SsdmPsSync::SsdmPsSync(SyncConfig config, float eta_s)
    : SyncStrategy(config), eta_s_(eta_s) {
  MARSIT_CHECK(config_.paradigm == MarParadigm::kParameterServer)
      << "SsdmPsSync requires the parameter-server paradigm";
  MARSIT_CHECK(eta_s_ > 0.0f) << "SSDM needs a positive global stepsize";
}

std::string SsdmPsSync::name() const { return "SSDM-PS"; }

SyncStepResult SsdmPsSync::do_synchronize(const WorkerSpans& inputs,
                                          std::span<float> out) {
  // Uplink: each worker's stochastic signs; server majority-votes them and
  // broadcasts the one-bit decision.
  const std::size_t d = out.size();
  MajorityRound majority;
  majority.eta_s = eta_s_;
  majority.stochastic = true;
  majority.ssdm_block = kSsdmBlock;
  majority.round_seed = derive_seed(config_.seed, round_);
  majority.pool = &strategy_pool(config_);
  majority.chunk_elements = config_.shard_chunk_elements;
  sharded_majority_sync(active_inputs(inputs), out, majority);

  WireFormat wire;
  wire.reduce_bits = [](std::size_t elements, std::size_t) {
    return static_cast<double>(elements) + 32.0;
  };
  wire.gather_bits = [](std::size_t elements) {
    return static_cast<double>(elements) + 32.0;
  };
  wire.initial_pack_seconds_per_element =
      1.0 / config_.cost_model.stochastic_sign_rate;
  wire.serial_seconds_per_element =
      1.0 / config_.cost_model.sign_unpack_rate;
  wire.final_unpack_seconds_per_element =
      1.0 / config_.cost_model.sign_unpack_rate;

  SyncStepResult result;
  result.timing = mar_timing(d, wire);
  result.bits_per_element = 1.0;
  return result;
}

// --- cascading compression --------------------------------------------------------

CascadingSync::CascadingSync(SyncConfig config) : SyncStrategy(config) {
  MARSIT_CHECK(config_.paradigm == MarParadigm::kRing)
      << "cascading compression is defined on the ring paradigm";
}

std::string CascadingSync::name() const { return "Cascading-RAR"; }

SyncStepResult CascadingSync::do_synchronize(const WorkerSpans& inputs,
                                             std::span<float> out) {
  Rng rng = round_rng();
  // The cascade chain re-forms over the survivors (its 1/M normalization
  // follows the chain length).
  cascading_aggregate(active_inputs(inputs), rng, out);

  SyncStepResult result;
  result.timing = mar_timing(out.size(), cascading_wire(config_.cost_model));
  result.bits_per_element = 1.0;
  return result;
}

// --- Marsit -------------------------------------------------------------------------

void clip_flush_mean(const MarsitOptions& options, std::span<float> mean) {
  if (options.full_precision_max_norm > 0.0f) {
    const float norm = l2_norm(mean);
    if (norm > options.full_precision_max_norm) {
      scale(mean, options.full_precision_max_norm / norm);
    }
  }
}

MarsitRank::MarsitRank(const MarsitOptions& options, Tensor compensation)
    : options_(options),
      compensation_(std::move(compensation)),
      signs_(compensation_.size()) {}

std::span<std::uint64_t> MarsitRank::plane(std::size_t begin,
                                           std::size_t count) {
  MARSIT_CHECK(begin % kernels::kWordBits == 0 && begin + count <= size())
      << "slice [" << begin << ", " << begin + count << ") of " << size();
  return signs_.words().subspan(begin / kernels::kWordBits,
                                kernels::words_for(count));
}

void MarsitRank::pack(std::span<const float> update, std::size_t begin) {
  const std::span<std::uint64_t> words = plane(begin, update.size());
  if (!options_.use_compensation) {
    // sign(u) is sign(u + 0.0f), NaN and −0.0 included.
    kernels::pack_signs_words(update, words);
    return;
  }
  kernels::settle_add_pack_signs_words(
      owed_ ? words : std::span<std::uint64_t>{}, -options_.eta_s, update,
      compensation_.span().subspan(begin, update.size()), words);
}

std::span<float> MarsitRank::contribute(std::span<const float> update,
                                        std::size_t begin) {
  const std::span<float> row =
      compensation_.span().subspan(begin, update.size());
  if (owed_) {
    kernels::accumulate_signs_words(plane(begin, update.size()),
                                    -options_.eta_s, row);
  }
  add(update, row, row);
  return row;
}

void MarsitRank::finish(bool full_precision) {
  owed_ = !full_precision && options_.use_compensation;
}

void MarsitRank::reset() {
  compensation_.zero();
  owed_ = false;
}

Tensor MarsitRank::settled() const {
  Tensor c = compensation_;
  if (owed_) {
    kernels::accumulate_signs_words(signs_.words(), -options_.eta_s,
                                    c.span());
  }
  return c;
}

MarsitSync::MarsitSync(SyncConfig config, MarsitOptions options)
    : SyncStrategy(config), options_(options) {
  // All four paradigms are supported: ring and torus are the paper's
  // multi-hop schedules; the parameter server (server colocated at rank 0)
  // and binomial tree exist as comparison baselines with the same ⊙ fold
  // semantics, so the cross-backend conformance matrix can cover them.
  MARSIT_CHECK(options_.eta_s > 0.0f) << "Marsit needs a positive eta_s";
}

std::string MarsitSync::name() const {
  // Appends (not operator+ chains): gcc 12's -Wrestrict misfires on
  // libstdc++'s operator+(const char*, string&&) when it inlines here.
  std::string base = "Marsit";
  if (options_.full_precision_period > 0) {
    base += '-';
    base += std::to_string(options_.full_precision_period);
  }
  base += '-';
  base += mar_paradigm_name(config_.paradigm);
  return base;
}

void MarsitSync::save_state(ckpt::SnapshotWriter& writer) const {
  SyncStrategy::save_state(writer);
  writer.u64(static_cast<std::uint64_t>(ranks_.size()));
  for (const MarsitRank& rank : ranks_) {
    writer.f32_span(rank.settled().span());
  }
}

void MarsitSync::load_state(ckpt::SnapshotReader& reader) {
  SyncStrategy::load_state(reader);
  ranks_.clear();
  for (Tensor& c :
       load_worker_vectors(reader, config_.num_workers, "compensation")) {
    ranks_.emplace_back(options_, std::move(c));
  }
}

void MarsitSync::on_flush_rejoin(std::size_t worker) {
  // The worker re-enters at the flush barrier: its pre-drop residual is
  // stale history of a trajectory it did not follow — discard it before the
  // flush mean folds compensations in.  The global flush state is identical
  // on every worker, so the fresh start is exact.
  if (worker < ranks_.size()) {
    ranks_[worker].reset();
  }
}

double MarsitSync::mean_compensation_norm() const {
  if (ranks_.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const MarsitRank& rank : ranks_) {
    total += l2_norm(rank.settled().span());
  }
  return total / static_cast<double>(ranks_.size());
}

void MarsitSync::mean_compensation_into(std::span<float> out) const {
  zero(out);
  if (ranks_.empty()) {
    return;
  }
  for (const MarsitRank& rank : ranks_) {
    const Tensor c = rank.settled();
    MARSIT_CHECK(c.size() == out.size())
        << "compensation extent " << c.size() << " vs out " << out.size();
    axpy(1.0f, c.span(), out);
  }
  scale(out, 1.0f / static_cast<float>(ranks_.size()));
}

SyncStepResult MarsitSync::do_synchronize(const WorkerSpans& inputs,
                                          std::span<float> out) {
  const std::size_t d = out.size();
  if (ranks_.empty()) {
    ranks_.reserve(config_.num_workers);
    for (std::size_t w = 0; w < config_.num_workers; ++w) {
      ranks_.emplace_back(options_, Tensor(d));
    }
  }
  MARSIT_CHECK(ranks_.front().size() == d)
      << "compensation has " << ranks_.front().size()
      << " elements, the update " << d;

  SyncStepResult result;
  const bool full_precision =
      options_.full_precision_period > 0 &&
      round_ % options_.full_precision_period == 0;

  // On a degraded round only the survivors contribute.  An absent worker's
  // rank is not touched: its compensation re-enters the aggregate when it
  // returns (Algorithm 1's line 1 still folds it in), and the line 10 it
  // owes waits in its own plane until then.
  const auto& active = active_workers();
  const std::size_t s = active.size();
  const ShardPlan plan(d, config_.shard_chunk_elements);
  MARSIT_VALIDATE_CALL(validate_shard_plan(plan));
  ThreadPool& pool = strategy_pool(config_);
  if (full_precision) {
    // Lines 12–13: each survivor's u_m + c_m, built in place in c_m,
    // summed in the association of the all-reduce the socket worker runs,
    // scaled by 1/s; c_m is reset.  Each shard chunk folds its own units,
    // so the mean is the same for any pool and chunk size.  The trust
    // region then scales the whole mean.
    const HopSchedule schedule =
        round_schedule(RoundKind::kAllReduce, d, PsServer::kMember0);
    const float inv_s = 1.0f / static_cast<float>(s);
    parallel_for(pool, plan.num_chunks(), [&](std::size_t c) {
      const Shard shard = plan.chunk(c);
      const std::size_t n = shard.size();
      std::vector<std::span<float>> rows;
      rows.reserve(s);
      for (const std::size_t w : active) {
        ranks_[w].contribute(inputs[w].subspan(shard.begin, n), shard.begin);
        rows.push_back(ranks_[w].compensation());
      }
      fold_float_schedule(schedule, rows, {shard.begin, n}, out);
      scale(out.subspan(shard.begin, n), inv_s);
      for (const std::span<float> row : rows) {
        zero(row.subspan(shard.begin, n));
      }
    });
    for (const std::size_t w : active) {
      ranks_[w].finish(true);
    }
    clip_flush_mean(options_, out);
    result.timing = price_hop_schedule(schedule, full_precision_wire(), net_);
    result.full_precision = true;
    result.bits_per_element = 32.0;
    return result;
  }

  // One-bit round.  Packing and unpacking walk word-aligned shard chunks on
  // the pool (chunks own disjoint words and consume no rng); the ⊙
  // reduction in between folds the segment-seeded chains of the paradigm's
  // hop schedule (core/hop_schedule.hpp) on the pool, whose draws depend
  // only on (seed, round, segment, op).  The result is therefore
  // bit-identical for any pool size and any shard_chunk_elements.  The
  // fold re-forms over the survivors exactly as a native s-worker run
  // would, so a degraded M-worker ring matches an s-worker ring
  // bit-for-bit.
  std::vector<std::span<std::uint64_t>> planes;
  planes.reserve(s);
  for (const std::size_t w : active) {
    planes.push_back(ranks_[w].signs());
  }
  // Line 1 of Algorithm 1, per survivor: settle the previous round's owed
  // line 10, fold the update into the compensation and pack the signs.
  parallel_for(pool, plan.num_chunks(), [&](std::size_t c) {
    const Shard shard = plan.chunk(c);
    for (const std::size_t w : active) {
      ranks_[w].pack(inputs[w].subspan(shard.begin, shard.size()),
                     shard.begin);
    }
  });
  // Lines 4–8: the ⊙ reduction, leaving the aggregate in planes[0].
  marsit_fold_signs_segmented(config_.paradigm, config_.torus_rows,
                              config_.torus_cols, planes,
                              derive_seed(config_.seed, round_), &pool);
  // Line 9: g_t = eta_s · sign-vector, which the caller applies once for
  // every worker; every other survivor's plane gets the aggregate, against
  // which it owes line 10, c_{t+1}^{(m)} = (u_m + c_m) − g_t, until its
  // next round settles it.
  parallel_for(pool, plan.num_chunks(), [&](std::size_t c) {
    const Shard shard = plan.chunk(c);
    const auto aggregate =
        planes.front().subspan(shard.word_begin(), shard.num_words());
    kernels::unpack_signs_words(aggregate, options_.eta_s,
                                out.subspan(shard.begin, shard.size()));
    for (std::size_t i = 1; i < s; ++i) {
      std::ranges::copy(aggregate,
                        planes[i].subspan(shard.word_begin()).begin());
    }
  });
  for (const std::size_t w : active) {
    ranks_[w].finish(false);
  }

  // Priced as folded: the same generator call, the PS at member 0.
  result.timing = price_hop_schedule(
      round_schedule(RoundKind::kOneBit, kernels::words_for(d),
                     PsServer::kMember0),
      marsit_wire(config_.cost_model), net_);
  result.bits_per_element = 1.0;
  // The residual-magnitude gauge costs an O(M·D) norm pass, so it is
  // computed only when someone is listening.
  if (obs::metrics_enabled()) {
    static const obs::Gauge compensation_norm("marsit.compensation_norm");
    compensation_norm.set(mean_compensation_norm());
  }
  return result;
}

// --- factory ---------------------------------------------------------------------

const char* sync_method_name(SyncMethod method) {
  switch (method) {
    case SyncMethod::kPsgd:
      return "PSGD";
    case SyncMethod::kSignSgdMv:
      return "signSGD";
    case SyncMethod::kEfSignSgd:
      return "EF-signSGD";
    case SyncMethod::kSsdm:
      return "SSDM";
    case SyncMethod::kSsdmPs:
      return "SSDM-PS";
    case SyncMethod::kCascading:
      return "Cascading";
    case SyncMethod::kMarsit:
      return "Marsit";
  }
  return "?";
}

std::unique_ptr<SyncStrategy> make_sync_strategy(SyncMethod method,
                                                 SyncConfig config,
                                                 MethodOptions options) {
  switch (method) {
    case SyncMethod::kPsgd:
      return std::make_unique<PsgdSync>(config);
    case SyncMethod::kSignSgdMv:
      return std::make_unique<SignSgdMvSync>(config, options.eta_s);
    case SyncMethod::kEfSignSgd:
      return std::make_unique<EfSignSgdSync>(config);
    case SyncMethod::kSsdm:
      return std::make_unique<SsdmMarSync>(config, options.eta_s);
    case SyncMethod::kSsdmPs:
      return std::make_unique<SsdmPsSync>(config, options.eta_s);
    case SyncMethod::kCascading:
      return std::make_unique<CascadingSync>(config);
    case SyncMethod::kMarsit: {
      MarsitOptions marsit_options;
      marsit_options.eta_s = options.eta_s;
      marsit_options.full_precision_period = options.full_precision_period;
      marsit_options.full_precision_max_norm =
          options.full_precision_max_norm;
      return std::make_unique<MarsitSync>(config, marsit_options);
    }
  }
  MARSIT_CHECK(false) << "unknown sync method";
  return nullptr;
}

}  // namespace marsit
