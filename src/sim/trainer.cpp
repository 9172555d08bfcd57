#include "sim/trainer.hpp"

#include <algorithm>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "ckpt/snapshot.hpp"
#include "collectives/aggregators.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace marsit {

ShardedSampler make_train_sampler(const Dataset& dataset,
                                  std::size_t num_workers,
                                  std::size_t batch_size,
                                  std::uint64_t seed) {
  return ShardedSampler(dataset, num_workers, batch_size, kTrainSampleRange,
                        kTestSampleRange, derive_seed(seed, kSamplerSeedSalt));
}

void init_replica(Sequential& model, const Dataset& dataset,
                  std::uint64_t seed) {
  Rng init_rng(derive_seed(seed, kModelInitSeedSalt));
  model.init(init_rng);
  MARSIT_CHECK(model.param_count() > 0) << "model has no parameters";
  MARSIT_CHECK(model.in_size() == dataset.sample_size())
      << "model input " << model.in_size() << " vs dataset sample "
      << dataset.sample_size();
  MARSIT_CHECK(model.out_size() == dataset.num_classes())
      << "model output " << model.out_size() << " vs dataset classes "
      << dataset.num_classes();
}

LocalWorker::LocalWorker(Sequential model, OptimizerKind optimizer)
    : model_(std::move(model)), optimizer_(make_optimizer(optimizer)) {}

void LocalWorker::step(const ShardedSampler& sampler, std::size_t worker,
                       std::size_t round, float eta_l, float clip_grad_norm,
                       std::size_t local_steps, const GradientSink& sink) {
  local_steps = std::max<std::size_t>(1, local_steps);
  const std::span<float> params = model_.params();
  if (local_steps > 1) {
    // Walk a private copy, so the parameters this model shares with the
    // other workers stay untouched.
    if (walk_.size() != params.size()) {
      walk_ = Tensor(params.size());
    }
    copy_into(params, walk_.span());
    model_.bind_params(walk_.span());
  }

  // Plain SGD's u = η_l·g is written by the backward itself, at gradient
  // scale η_l; clipping must see the raw gradient, so it keeps scale 1.
  const bool clips = clip_grad_norm > 0.0f;
  const bool fused = !clips && optimizer_->direction_is_gradient();
  // u = η_l·g is final as the backward writes it only for fused SGD at one
  // local step; only then may the backward hand it straight to the sink.
  const bool streams = sink && fused && local_steps == 1;
  const std::span<float> update = model_.grads();
  for (std::size_t h = 0; h < local_steps; ++h) {
    sampler.worker_batch(worker, round * local_steps + h, batch_);

    const auto logits = model_.forward(batch_.inputs.span(), batch_.size());
    if (dlogits_.size() != logits.size()) {
      dlogits_ = Tensor(logits.size());  // sized once; reused every step
    }
    softmax_cross_entropy(logits, {batch_.labels.data(), batch_.labels.size()},
                          model_.out_size(), dlogits_.span());
    if (streams) {
      model_.backward(dlogits_.span(), batch_.size(), eta_l, sink);
    } else {
      model_.backward(dlogits_.span(), batch_.size(), fused ? eta_l : 1.0f);
    }

    if (!fused) {
      if (clips) {
        const float norm = l2_norm(update);
        if (norm > clip_grad_norm) {
          scale(update, clip_grad_norm / norm);
        }
      }
      optimizer_->transform(update, eta_l);
    }
    if (local_steps > 1) {
      model_.apply_update(update);
    }
  }

  if (local_steps > 1) {
    // u_m = x − x_walk, so x ← x − u replays the local walk; the global
    // update stays the only change to x.
    sub(params, walk_.span(), update);
    model_.bind_params(params);
  }
  if (sink && !streams) {
    sink(0, update);
  }
}

DistributedTrainer::DistributedTrainer(
    const Dataset& dataset, std::function<Sequential()> model_factory,
    SyncStrategy& strategy, TrainerConfig config)
    : dataset_(dataset),
      strategy_(strategy),
      config_(config),
      sampler_(make_train_sampler(dataset, strategy.config().num_workers,
                                  config.batch_size_per_worker, config.seed)) {
  const std::size_t m = strategy_.config().num_workers;
  MARSIT_CHECK(m >= 2) << "trainer needs at least two workers";
  MARSIT_CHECK(model_factory != nullptr) << "null model factory";

  workers_.reserve(m);
  for (std::size_t w = 0; w < m; ++w) {
    workers_.emplace_back(model_factory(), config_.optimizer);
  }
  param_count_ = workers_.front().model().param_count();
  // One parameter vector for all M workers: every update is global, so
  // the MAR replicas never differ.
  params_ = Tensor(param_count_);
  for (LocalWorker& worker : workers_) {
    worker.model().bind_params(params_.span());
  }
  init_replica(workers_.front().model(), dataset_, config_.seed);
  global_update_ = Tensor(param_count_);
}

double DistributedTrainer::compute_seconds_per_round() const {
  const double flops =
      workers_.front().model().flops_per_sample() *
      static_cast<double>(config_.batch_size_per_worker) *
      static_cast<double>(std::max<std::size_t>(1, config_.local_steps));
  return strategy_.config().cost_model.compute_seconds(flops);
}

void DistributedTrainer::copy_params_into(std::span<float> out) const {
  copy_into(params_.span(), out);
}

EvalPoint DistributedTrainer::evaluate(std::size_t samples) {
  EvalPoint point;
  point.sim_seconds = cumulative_seconds_;
  point.wire_gigabits = cumulative_bits_ / 1e9;

  Sequential& model = workers_.front().model();
  Batch batch;
  std::size_t done = 0;
  std::size_t correct = 0;
  double loss = 0.0;
  std::size_t block = 0;
  const std::size_t chunk = std::min<std::size_t>(samples, 256);
  while (done < samples) {
    const std::size_t take = std::min(chunk, samples - done);
    sampler_.test_batch(take, block++, batch);
    const auto logits = model.forward(batch.inputs.span(), batch.size());
    const LossResult result = softmax_cross_entropy_eval(
        logits, {batch.labels.data(), batch.labels.size()},
        dataset_.num_classes());
    correct += result.correct;
    loss += result.loss * static_cast<double>(take);
    done += take;
  }
  point.test_accuracy =
      static_cast<double>(correct) / static_cast<double>(samples);
  point.test_loss = loss / static_cast<double>(samples);
  return point;
}

TrainResult DistributedTrainer::train() {
  const std::size_t m = strategy_.config().num_workers;
  const double compute_seconds = compute_seconds_per_round();

  TrainResult result;
  RunningTotals totals;
  totals.eta_l = config_.eta_l;
  Tensor exact_mean(param_count_);
  // O(log n) decay lookup per round instead of a linear scan of the
  // (unordered) configured list.
  std::vector<std::size_t> decay_rounds = config_.lr_decay_rounds;
  std::sort(decay_rounds.begin(), decay_rounds.end());

  cumulative_seconds_ = 0.0;
  cumulative_bits_ = 0.0;

  if (!config_.resume_from.empty()) {
    // Crash-restart equivalence: everything the loop below reads or folds
    // into the result is restored here, so continuing from round
    // totals.start_round reproduces the uninterrupted run bit for bit.
    restore_checkpoint(result, totals);
  }

  for (std::size_t t = totals.start_round; t < config_.rounds; ++t) {
    if (std::binary_search(decay_rounds.begin(), decay_rounds.end(), t)) {
      totals.eta_l *= config_.lr_decay_factor;
    }
    const float eta_l = totals.eta_l;

    const auto local_step = [&](std::size_t w) {
      workers_[w].step(sampler_, w, t, eta_l, config_.clip_grad_norm,
                       config_.local_steps);
    };
    if (config_.parallel_workers) {
      parallel_for(global_thread_pool(), m, local_step);
    } else {
      for (std::size_t w = 0; w < m; ++w) {
        local_step(w);
      }
    }

    WorkerSpans spans;
    spans.reserve(m);
    for (const LocalWorker& worker : workers_) {
      spans.push_back(worker.update());
    }
    // Round timeline: [round_start, sync_start] is compute, the collective
    // runs from sync_start with a local clock.  Publishing sync_start as the
    // session's time offset lets the nested emitters (timing schedules,
    // NetworkSim) place their spans on the global simulated timeline.
    const double round_start = cumulative_seconds_;
    const double sync_start = round_start + compute_seconds;
    obs::TraceSession* const trace = obs::TraceSession::current();
    if (trace != nullptr) {
      trace->set_time_offset(sync_start);
    }
    const SyncStepResult step =
        strategy_.synchronize(spans, global_update_.span());
    const double sync_end = sync_start + step.timing.completion_seconds;
    if (trace != nullptr) {
      trace->add_span("round " + std::to_string(t), "round", round_start,
                      sync_end, /*track=*/0);
      trace->add_span("compute", "compute", round_start, sync_start,
                      /*track=*/0);
      trace->add_span("sync", "sync", sync_start, sync_end, /*track=*/0);
    }

    double round_matching_rate = 0.0;
    if (config_.track_matching_rate) {
      aggregate_mean(spans, exact_mean.span());
      round_matching_rate =
          sign_matching_rate(exact_mean.span(), global_update_.span());
      totals.matching_total += round_matching_rate;
    }

    // Every worker's model views params_: one update moves all M.
    workers_.front().model().apply_update(global_update_.span());

    cumulative_seconds_ += compute_seconds + step.timing.completion_seconds;
    cumulative_bits_ += step.timing.total_wire_bits;
    totals.bits_per_element_total += step.bits_per_element;
    totals.active_workers_total += static_cast<double>(step.active_workers);
    if (step.active_workers < m) {
      ++result.degraded_rounds;
    }
    result.total_retransmitted_wire_bits +=
        step.timing.retransmitted_wire_bits;
    result.total_retransmissions += step.timing.retransmissions;
    result.total_rejoins += step.rejoined_workers;
    result.total_flush_rejoins += step.flush_rejoined_workers;
    result.total_corruption_demotions += step.demoted_workers;
    totals.phase_totals.compute += compute_seconds;
    totals.phase_totals.compression +=
        step.timing.compression_seconds_per_worker();
    totals.phase_totals.communication += step.timing.communication_seconds();
    result.rounds_completed = t + 1;

    if (trace != nullptr) {
      // One JSONL object per round.  `wire_bits` carries exactly the value
      // accumulated into cumulative_bits_ above, so summing the stream
      // reproduces TrainResult::total_wire_bits bit-for-bit.
      obs::RoundRecord record;
      record.round = t;
      record.set("sim_seconds", cumulative_seconds_);
      record.set("compute_seconds", compute_seconds);
      record.set("sync_seconds", step.timing.completion_seconds);
      record.set("wire_bits", step.timing.total_wire_bits);
      record.set("retransmitted_wire_bits",
                 step.timing.retransmitted_wire_bits);
      record.set("retransmissions",
                 static_cast<double>(step.timing.retransmissions));
      record.set("active_workers",
                 static_cast<double>(step.active_workers));
      record.set("bits_per_element", step.bits_per_element);
      record.set("full_precision", step.full_precision ? 1.0 : 0.0);
      record.set("compression_seconds",
                 step.timing.compression_seconds_per_worker());
      record.set("communication_seconds",
                 step.timing.communication_seconds());
      if (config_.track_matching_rate) {
        record.set("matching_rate", round_matching_rate);
      }
      if (strategy_.config().fault_plan.has_faults()) {
        // Only fault-configured runs carry the recovery keys, so the
        // default trace shape stays byte-identical to pre-fault builds.
        record.set("rejoined_workers",
                   static_cast<double>(step.rejoined_workers));
        record.set("flush_rejoined_workers",
                   static_cast<double>(step.flush_rejoined_workers));
        record.set("demoted_workers",
                   static_cast<double>(step.demoted_workers));
      }
      trace->add_round_record(std::move(record));
    }
    if (obs::metrics_enabled()) {
      static const obs::Counter rounds_counter("trainer.rounds");
      static const obs::Gauge sim_seconds("trainer.sim_seconds");
      static const obs::Gauge eta_l_gauge("trainer.eta_l");
      rounds_counter.increment();
      sim_seconds.set(cumulative_seconds_);
      eta_l_gauge.set(static_cast<double>(eta_l));
      if (config_.track_matching_rate) {
        static const obs::Histogram matching_rate("trainer.matching_rate");
        matching_rate.observe(round_matching_rate);
      }
    }

    if (!all_finite(global_update_.span()) ||
        !all_finite(workers_.front().update())) {
      result.diverged = true;
      MARSIT_LOG(kWarning) << "training diverged at round " << t;
      break;
    }

    const bool eval_now = config_.eval_interval > 0 &&
                          ((t + 1) % config_.eval_interval == 0 ||
                           t + 1 == config_.rounds);
    if (eval_now) {
      EvalPoint point = evaluate(config_.eval_samples);
      point.round = t + 1;
      result.best_test_accuracy =
          std::max(result.best_test_accuracy, point.test_accuracy);
      result.evals.push_back(point);
      if (obs::metrics_enabled()) {
        static const obs::Counter evals("trainer.evals");
        static const obs::Gauge test_accuracy("trainer.test_accuracy");
        evals.increment();
        test_accuracy.set(point.test_accuracy);
      }
      if (config_.stop_accuracy &&
          point.test_accuracy >= *config_.stop_accuracy) {
        result.reached_stop_accuracy = true;
        break;
      }
    }

    if (config_.checkpoint_every > 0 && !config_.checkpoint_path.empty() &&
        (t + 1) % config_.checkpoint_every == 0) {
      // After the round's evaluation, at the round boundary, so the evals
      // list is consistent with rounds_completed.
      write_checkpoint(t + 1, result, totals);
    }
  }

  if (result.evals.empty() || result.evals.back().round !=
                                  result.rounds_completed) {
    if (!result.diverged) {
      EvalPoint point = evaluate(config_.eval_samples);
      point.round = result.rounds_completed;
      result.best_test_accuracy =
          std::max(result.best_test_accuracy, point.test_accuracy);
      result.evals.push_back(point);
    }
  }
  if (!result.evals.empty()) {
    result.final_test_accuracy = result.evals.back().test_accuracy;
  }

  const double rounds = static_cast<double>(
      std::max<std::size_t>(1, result.rounds_completed));
  result.sim_seconds = cumulative_seconds_;
  result.total_wire_bits = cumulative_bits_;
  result.mean_round_phases.compute = totals.phase_totals.compute / rounds;
  result.mean_round_phases.compression =
      totals.phase_totals.compression / rounds;
  result.mean_round_phases.communication =
      totals.phase_totals.communication / rounds;
  result.mean_bits_per_element = totals.bits_per_element_total / rounds;
  result.mean_matching_rate =
      config_.track_matching_rate ? totals.matching_total / rounds : 0.0;
  result.mean_active_workers = totals.active_workers_total / rounds;
  return result;
}

void DistributedTrainer::write_checkpoint(std::size_t rounds_done,
                                          const TrainResult& result,
                                          const RunningTotals& totals) const {
  const SyncConfig& sync = strategy_.config();
  ckpt::Checkpoint checkpoint;
  checkpoint.meta.round = rounds_done;
  checkpoint.meta.param_count = param_count_;
  checkpoint.meta.num_workers = sync.num_workers;
  checkpoint.meta.trainer_seed = config_.seed;
  checkpoint.meta.strategy_seed = sync.seed;
  checkpoint.meta.fault_seed = sync.fault_plan.seed;
  checkpoint.meta.strategy_name = strategy_.name();

  const std::span<const float> params = params_.span();
  checkpoint.params.assign(params.begin(), params.end());

  ckpt::SnapshotWriter optimizer_state;
  optimizer_state.u8(static_cast<std::uint8_t>(config_.optimizer));
  optimizer_state.u64(static_cast<std::uint64_t>(workers_.size()));
  for (const LocalWorker& worker : workers_) {
    worker.optimizer().save_state(optimizer_state);
  }
  checkpoint.optimizer_state = optimizer_state.bytes();

  ckpt::SnapshotWriter strategy_state;
  strategy_.save_state(strategy_state);
  checkpoint.strategy_state = strategy_state.bytes();

  // Cumulative accounting: stored, not replayed, so the resumed run's
  // TrainResult equals the uninterrupted one exactly (replaying would need
  // the skipped rounds' step results).
  ckpt::SnapshotWriter trainer_state;
  trainer_state.f32(totals.eta_l);
  trainer_state.f64(cumulative_seconds_);
  trainer_state.f64(cumulative_bits_);
  trainer_state.f64(totals.phase_totals.compute);
  trainer_state.f64(totals.phase_totals.compression);
  trainer_state.f64(totals.phase_totals.communication);
  trainer_state.f64(totals.bits_per_element_total);
  trainer_state.f64(totals.matching_total);
  trainer_state.f64(totals.active_workers_total);
  trainer_state.u64(static_cast<std::uint64_t>(result.rounds_completed));
  trainer_state.u64(static_cast<std::uint64_t>(result.degraded_rounds));
  trainer_state.u64(static_cast<std::uint64_t>(result.total_retransmissions));
  trainer_state.u64(static_cast<std::uint64_t>(result.total_rejoins));
  trainer_state.u64(static_cast<std::uint64_t>(result.total_flush_rejoins));
  trainer_state.u64(
      static_cast<std::uint64_t>(result.total_corruption_demotions));
  trainer_state.f64(result.total_retransmitted_wire_bits);
  trainer_state.f64(result.best_test_accuracy);
  trainer_state.u8(result.diverged ? 1 : 0);
  trainer_state.u8(result.reached_stop_accuracy ? 1 : 0);
  trainer_state.u64(static_cast<std::uint64_t>(result.evals.size()));
  for (const EvalPoint& eval : result.evals) {
    trainer_state.u64(static_cast<std::uint64_t>(eval.round));
    trainer_state.f64(eval.sim_seconds);
    trainer_state.f64(eval.wire_gigabits);
    trainer_state.f64(eval.test_accuracy);
    trainer_state.f64(eval.test_loss);
  }
  checkpoint.trainer_state = trainer_state.bytes();

  const std::string path =
      ckpt::expand_checkpoint_path(config_.checkpoint_path, rounds_done);
  ckpt::save_checkpoint(path, checkpoint);
  if (obs::metrics_enabled()) {
    static const obs::Counter checkpoints("trainer.checkpoints");
    checkpoints.increment();
  }
}

void DistributedTrainer::restore_checkpoint(TrainResult& result,
                                            RunningTotals& totals) {
  const SyncConfig& sync = strategy_.config();
  const ckpt::Checkpoint checkpoint =
      ckpt::load_checkpoint(config_.resume_from);

  // A checkpoint restores only into the run that produced it: same shape,
  // same seeds, same strategy.  Anything else would resume *a* run, not
  // *this* run — reject loudly instead.
  const ckpt::CheckpointMeta& meta = checkpoint.meta;
  MARSIT_CHECK(meta.param_count == param_count_)
      << "checkpoint has " << meta.param_count << " parameters, model has "
      << param_count_;
  MARSIT_CHECK(meta.num_workers == sync.num_workers)
      << "checkpoint ran " << meta.num_workers << " workers, config says "
      << sync.num_workers;
  MARSIT_CHECK(meta.strategy_name == strategy_.name())
      << "checkpoint strategy '" << meta.strategy_name << "' vs live '"
      << strategy_.name() << "'";
  MARSIT_CHECK(meta.trainer_seed == config_.seed)
      << "checkpoint trainer seed " << meta.trainer_seed << " vs "
      << config_.seed;
  MARSIT_CHECK(meta.strategy_seed == sync.seed)
      << "checkpoint strategy seed " << meta.strategy_seed << " vs "
      << sync.seed;
  MARSIT_CHECK(meta.fault_seed == sync.fault_plan.seed)
      << "checkpoint fault seed " << meta.fault_seed << " vs "
      << sync.fault_plan.seed;
  MARSIT_CHECK(meta.round <= config_.rounds)
      << "checkpoint at round " << meta.round << " is past the configured "
      << config_.rounds;

  copy_into(checkpoint.params, params_.span());

  ckpt::SnapshotReader optimizer_state({checkpoint.optimizer_state.data(),
                                        checkpoint.optimizer_state.size()});
  const auto kind = static_cast<OptimizerKind>(optimizer_state.u8());
  MARSIT_CHECK(kind == config_.optimizer)
      << "checkpoint optimizer kind differs from the configured one";
  const std::uint64_t optimizer_count = optimizer_state.u64();
  MARSIT_CHECK(optimizer_count == workers_.size())
      << "checkpoint has " << optimizer_count << " optimizer states for "
      << workers_.size() << " workers";
  for (LocalWorker& worker : workers_) {
    worker.optimizer().load_state(optimizer_state);
  }
  MARSIT_CHECK(optimizer_state.done())
      << "optimizer section has trailing bytes";

  ckpt::SnapshotReader strategy_state({checkpoint.strategy_state.data(),
                                       checkpoint.strategy_state.size()});
  strategy_.load_state(strategy_state);
  MARSIT_CHECK(strategy_state.done()) << "strategy section has trailing bytes";

  ckpt::SnapshotReader trainer_state({checkpoint.trainer_state.data(),
                                      checkpoint.trainer_state.size()});
  totals.eta_l = trainer_state.f32();
  cumulative_seconds_ = trainer_state.f64();
  cumulative_bits_ = trainer_state.f64();
  totals.phase_totals.compute = trainer_state.f64();
  totals.phase_totals.compression = trainer_state.f64();
  totals.phase_totals.communication = trainer_state.f64();
  totals.bits_per_element_total = trainer_state.f64();
  totals.matching_total = trainer_state.f64();
  totals.active_workers_total = trainer_state.f64();
  result.rounds_completed =
      static_cast<std::size_t>(trainer_state.u64());
  result.degraded_rounds = static_cast<std::size_t>(trainer_state.u64());
  result.total_retransmissions =
      static_cast<std::size_t>(trainer_state.u64());
  result.total_rejoins = static_cast<std::size_t>(trainer_state.u64());
  result.total_flush_rejoins = static_cast<std::size_t>(trainer_state.u64());
  result.total_corruption_demotions =
      static_cast<std::size_t>(trainer_state.u64());
  result.total_retransmitted_wire_bits = trainer_state.f64();
  result.best_test_accuracy = trainer_state.f64();
  result.diverged = trainer_state.u8() != 0;
  result.reached_stop_accuracy = trainer_state.u8() != 0;
  const std::uint64_t eval_count = trainer_state.u64();
  result.evals.clear();
  result.evals.reserve(static_cast<std::size_t>(eval_count));
  for (std::uint64_t i = 0; i < eval_count; ++i) {
    EvalPoint eval;
    eval.round = static_cast<std::size_t>(trainer_state.u64());
    eval.sim_seconds = trainer_state.f64();
    eval.wire_gigabits = trainer_state.f64();
    eval.test_accuracy = trainer_state.f64();
    eval.test_loss = trainer_state.f64();
    result.evals.push_back(eval);
  }
  MARSIT_CHECK(trainer_state.done()) << "trainer section has trailing bytes";
  MARSIT_CHECK(result.rounds_completed == meta.round)
      << "trainer section rounds_completed " << result.rounds_completed
      << " disagrees with meta round " << meta.round;

  totals.start_round = static_cast<std::size_t>(meta.round);
  result.resumed_from_round = totals.start_round;
  MARSIT_LOG(kInfo) << "resumed from " << config_.resume_from << " at round "
                    << totals.start_round;
}

}  // namespace marsit
