// Crash-restart equivalence (ISSUE tentpole): checkpoint a run at round r,
// rebuild trainer + strategy from scratch, resume, and train to round T —
// the digest of the final parameters and the complete TrainResult
// accounting must equal the uninterrupted run's, bit for bit, for every
// checkpoint round (including one mid-flush-period and one exactly at the
// Marsit K-round flush), for one-bit and sign-sum strategies, and for
// thread-pool sizes 1 and 4.  Also pinned: a run that *writes* checkpoints
// is bit-identical to one that does not (checkpointing never perturbs).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/models.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/trainer.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace marsit {
namespace {

constexpr std::size_t kRounds = 12;

/// FNV-1a over raw bit patterns (mirrors sim_golden_determinism_test): two
/// runs hash equal iff their trajectories are bit-identical.
class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(float v) { add_bytes(&v, sizeof(v)); }
  void add(double v) { add_bytes(&v, sizeof(v)); }
  void add(std::uint64_t v) { add_bytes(&v, sizeof(v)); }
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct ResumeCase {
  const char* key;
  SyncMethod method;
};

// Marsit (per-worker compensation + the K-round flush) and EF-signSGD
// (per-worker error-feedback residuals) cover the per-worker strategy
// state; signSGD-MV and SSDM keep only the round counter, which the
// per-round rng of SSDM's stochastic signs is keyed by.
constexpr ResumeCase kCases[] = {
    {"marsit", SyncMethod::kMarsit},
    {"ef-signsgd", SyncMethod::kEfSignSgd},
    {"signsgd-mv", SyncMethod::kSignSgdMv},
    {"ssdm", SyncMethod::kSsdm},
};

std::unique_ptr<SyncStrategy> build_strategy(SyncMethod method,
                                             ThreadPool* pool) {
  SyncConfig sync_config;
  sync_config.num_workers = 4;
  sync_config.paradigm = MarParadigm::kRing;
  sync_config.seed = 2024;
  sync_config.pool = pool;
  MethodOptions options;
  options.eta_s = 2e-3f;
  if (method == SyncMethod::kMarsit) {
    options.full_precision_period = 5;  // K: flush at rounds 5 and 10
  }
  return make_sync_strategy(method, sync_config, options);
}

TrainerConfig base_config() {
  TrainerConfig config;
  config.batch_size_per_worker = 16;
  config.optimizer = OptimizerKind::kMomentum;  // cross-round velocity state
  config.eta_l = 0.05f;
  config.rounds = kRounds;
  config.eval_interval = 6;
  config.eval_samples = 128;
  config.seed = 99;
  config.track_matching_rate = true;
  return config;
}

std::uint64_t run_digest(SyncMethod method, ThreadPool* pool,
                         const TrainerConfig& config) {
  SyntheticDigits digits;
  auto strategy = build_strategy(method, pool);
  auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {24}, digits.num_classes());
  };
  DistributedTrainer trainer(digits, factory, *strategy, config);
  const TrainResult result = trainer.train();

  std::vector<float> params(trainer.param_count());
  trainer.copy_params_into({params.data(), params.size()});

  Fnv1a hash;
  for (const float p : params) {
    hash.add(p);
  }
  hash.add(static_cast<std::uint64_t>(result.rounds_completed));
  hash.add(result.sim_seconds);
  hash.add(result.total_wire_bits);
  hash.add(result.mean_bits_per_element);
  hash.add(result.mean_matching_rate);
  hash.add(result.mean_active_workers);
  hash.add(result.final_test_accuracy);
  hash.add(result.best_test_accuracy);
  hash.add(result.mean_round_phases.compute);
  hash.add(result.mean_round_phases.compression);
  hash.add(result.mean_round_phases.communication);
  hash.add(result.total_retransmitted_wire_bits);
  hash.add(static_cast<std::uint64_t>(result.total_retransmissions));
  hash.add(static_cast<std::uint64_t>(result.total_rejoins));
  hash.add(static_cast<std::uint64_t>(result.total_flush_rejoins));
  hash.add(static_cast<std::uint64_t>(result.total_corruption_demotions));
  hash.add(static_cast<std::uint64_t>(result.degraded_rounds));
  for (const EvalPoint& eval : result.evals) {
    hash.add(static_cast<std::uint64_t>(eval.round));
    hash.add(eval.sim_seconds);
    hash.add(eval.wire_gigabits);
    hash.add(eval.test_accuracy);
    hash.add(eval.test_loss);
  }
  hash.add(static_cast<std::uint64_t>(result.diverged ? 1 : 0));
  return hash.digest();
}

std::string checkpoint_template(const char* key, std::size_t pool_size) {
  return ::testing::TempDir() + "resume_" + key + "_p" +
         std::to_string(pool_size) + "_{round}.bin";
}

TEST(ResumeDeterminismTest, ResumeReproducesUninterruptedRun) {
  set_log_level(LogLevel::kError);
  // Checkpoint rounds: 1 (earliest), 4 (K−1, compensation at its fullest),
  // 5 (exactly the Marsit flush, compensation just zeroed), 7 (mid-epoch,
  // past an eval at round 6 so the evals list must restore too).
  const std::size_t resume_rounds[] = {1, 4, 5, 7};

  for (const std::size_t pool_size : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(pool_size);
    for (const ResumeCase& c : kCases) {
      const std::uint64_t uninterrupted =
          run_digest(c.method, &pool, base_config());

      // A run that writes a checkpoint every round must not perturb the
      // trajectory...
      TrainerConfig writing = base_config();
      writing.checkpoint_every = 1;
      writing.checkpoint_path = checkpoint_template(c.key, pool_size);
      const std::uint64_t with_checkpoints =
          run_digest(c.method, &pool, writing);
      EXPECT_EQ(with_checkpoints, uninterrupted)
          << c.key << " pool " << pool_size
          << ": writing checkpoints changed the run";

      // ... and resuming from any of its checkpoints must land on the same
      // digest as never having stopped.
      for (const std::size_t r : resume_rounds) {
        TrainerConfig resumed = base_config();
        resumed.resume_from =
            ckpt::expand_checkpoint_path(writing.checkpoint_path, r);
        EXPECT_EQ(run_digest(c.method, &pool, resumed), uninterrupted)
            << c.key << " pool " << pool_size << ": resume from round " << r
            << " diverged from the uninterrupted run";
      }
    }
  }
}

TEST(ResumeDeterminismTest, RejectsMismatchedRun) {
  set_log_level(LogLevel::kError);
  ThreadPool pool(1);
  TrainerConfig writing = base_config();
  writing.checkpoint_every = 4;
  writing.checkpoint_path =
      ::testing::TempDir() + "resume_mismatch_{round}.bin";
  (void)run_digest(SyncMethod::kMarsit, &pool, writing);
  const std::string path =
      ckpt::expand_checkpoint_path(writing.checkpoint_path, 4);

  SyntheticDigits digits;
  auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {24}, digits.num_classes());
  };

  // Wrong strategy: a signSGD run must refuse a Marsit checkpoint.
  {
    auto strategy = build_strategy(SyncMethod::kSignSgdMv, &pool);
    TrainerConfig config = base_config();
    config.resume_from = path;
    DistributedTrainer trainer(digits, factory, *strategy, config);
    EXPECT_THROW((void)trainer.train(), CheckError);
  }
  // Wrong trainer seed: same shape, different run.
  {
    auto strategy = build_strategy(SyncMethod::kMarsit, &pool);
    TrainerConfig config = base_config();
    config.resume_from = path;
    config.seed = 100;
    DistributedTrainer trainer(digits, factory, *strategy, config);
    EXPECT_THROW((void)trainer.train(), CheckError);
  }
}

}  // namespace
}  // namespace marsit
