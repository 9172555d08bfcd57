// Golden determinism regression: a fixed-seed, quickstart-shaped training
// run per case (a strategy and its workers' local step), hashed (final
// parameters + TrainResult accounting) and asserted against a committed
// golden file — and asserted identical across thread-pool sizes 1, 4, and
// hardware.
//
// The pool-size invariance check is unconditional: it guards the sharded
// pipelines' (seed, round, chunk) rng discipline.  The golden-file check
// pins the exact numeric trajectory so an accidental change to rng
// consumption order, fold order, or accounting shows up as a diff — not as
// a silent drift.  To regenerate after an *intentional* change:
//
//   MARSIT_REGEN_GOLDEN=1 ./build/tests/sim_golden_determinism_test
//
// then commit tests/golden/train_golden.txt with the behavior change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"

namespace marsit {
namespace {

/// FNV-1a over raw bit patterns: float/size_t values hash by representation,
/// so two runs hash equal iff they are bit-identical.
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

enum class GoldenModel { kMlp, kAlexNet };

/// One golden run: a strategy, the local step its workers take and the
/// model they train.
struct GoldenCase {
  const char* key;
  SyncMethod method;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  float clip_grad_norm = 0.0f;
  std::size_t local_steps = 1;
  GoldenModel model = GoldenModel::kMlp;
};

// The first six cases run plain SGD with one local step on the MLP.  The
// next two pin the local optimizers, gradient clipping and the multi-step
// local walk, which both backends share through LocalWorker.  The last two
// run SGD through AlexNet-mini's convolutions and SGD with clipping, the
// two paths where the local step's gradient scale meets a layer other than
// Linear or an unscaled gradient.
constexpr float kFiringClip = 0.8f;
constexpr GoldenCase kCases[] = {
    {"psgd-rar", SyncMethod::kPsgd},
    {"signsgd-rar", SyncMethod::kSignSgdMv},
    {"ef-signsgd-rar", SyncMethod::kEfSignSgd},
    {"ssdm-rar", SyncMethod::kSsdm},
    {"cascading-rar", SyncMethod::kCascading},
    {"marsit-rar", SyncMethod::kMarsit},
    {"marsit-rar-momentum-clip-h3", SyncMethod::kMarsit,
     OptimizerKind::kMomentum, kFiringClip, 3},
    {"psgd-rar-adam", SyncMethod::kPsgd, OptimizerKind::kAdam},
    {"marsit-rar-alexnet", SyncMethod::kMarsit, OptimizerKind::kSgd, 0.0f, 1,
     GoldenModel::kAlexNet},
    {"psgd-rar-sgd-clip", SyncMethod::kPsgd, OptimizerKind::kSgd,
     kFiringClip},
};

SyncConfig golden_sync_config(ThreadPool* pool) {
  SyncConfig sync_config;
  sync_config.num_workers = 4;
  sync_config.paradigm = MarParadigm::kRing;
  sync_config.seed = 2024;
  sync_config.pool = pool;
  return sync_config;
}

TrainerConfig golden_trainer_config(const GoldenCase& c) {
  TrainerConfig config;
  config.batch_size_per_worker = 16;
  config.optimizer = c.optimizer;
  config.eta_l = 0.05f;
  config.clip_grad_norm = c.clip_grad_norm;
  config.local_steps = c.local_steps;
  config.rounds = 12;
  config.eval_interval = 6;
  config.eval_samples = 128;
  config.seed = 99;
  config.track_matching_rate = true;
  return config;
}

Sequential golden_model(const SyntheticDigits& digits, const GoldenCase& c) {
  if (c.model == GoldenModel::kAlexNet) {
    return make_alexnet_mini(digits.image_dims(), digits.num_classes());
  }
  return make_mlp(digits.sample_size(), {24}, digits.num_classes());
}

/// A finished run; the trainer keeps its final parameters.
struct GoldenRun {
  std::unique_ptr<SyncStrategy> strategy;
  std::unique_ptr<DistributedTrainer> trainer;
  TrainResult result;
};

/// Trains case `c` for `rounds` rounds (quickstart-shaped: 4 workers on a
/// ring, small MLP on the digit dataset) on `pool`.
GoldenRun run_case(const SyntheticDigits& digits, const GoldenCase& c,
                   ThreadPool* pool, std::size_t rounds) {
  MethodOptions options;
  options.eta_s = 2e-3f;
  if (c.method == SyncMethod::kMarsit) {
    options.full_precision_period = 5;
  }
  GoldenRun run;
  run.strategy =
      make_sync_strategy(c.method, golden_sync_config(pool), options);
  TrainerConfig config = golden_trainer_config(c);
  config.rounds = rounds;
  run.trainer = std::make_unique<DistributedTrainer>(
      digits, [&digits, &c] { return golden_model(digits, c); },
      *run.strategy, config);
  run.result = run.trainer->train();
  return run;
}

/// One golden run with the given pool; returns the FNV digest of the final
/// parameters and the TrainResult accounting.
std::uint64_t run_digest(const GoldenCase& c, ThreadPool* pool) {
  SyntheticDigits digits;
  const GoldenRun run =
      run_case(digits, c, pool, golden_trainer_config(c).rounds);
  const DistributedTrainer& trainer = *run.trainer;
  const TrainResult& result = run.result;

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
  hash.add(static_cast<std::uint64_t>(result.diverged ? 1 : 0));
  return hash.digest();
}

TEST(GoldenDeterminismTest, ClipCaseClipsMostRounds) {
  // A clip case pins gradient clipping only if clipping moves the gradient:
  // in most (round, worker) pairs, the first local step must see a raw
  // gradient longer than the clip norm.  Round t starts from the
  // parameters of the same run stopped after t rounds.
  set_log_level(LogLevel::kError);
  SyntheticDigits digits;
  std::size_t clip_cases = 0;
  for (const GoldenCase& c : kCases) {
    if (c.clip_grad_norm <= 0.0f) {
      continue;
    }
    ++clip_cases;
    const TrainerConfig config = golden_trainer_config(c);
    const std::size_t workers = golden_sync_config(nullptr).num_workers;
    const ShardedSampler sampler = make_train_sampler(
        digits, workers, config.batch_size_per_worker, config.seed);
    Sequential model = golden_model(digits, c);
    Batch batch;
    std::size_t fired = 0;
    for (std::size_t t = 0; t < config.rounds; ++t) {
      const GoldenRun run = run_case(digits, c, nullptr, t);
      run.trainer->copy_params_into(model.params());
      for (std::size_t w = 0; w < workers; ++w) {
        sampler.worker_batch(w, t * config.local_steps, batch);
        const auto logits = model.forward(batch.inputs.span(), batch.size());
        std::vector<float> dlogits(logits.size());
        softmax_cross_entropy(
            logits, {batch.labels.data(), batch.labels.size()},
            model.out_size(), {dlogits.data(), dlogits.size()});
        model.backward({dlogits.data(), dlogits.size()}, batch.size());
        fired += l2_norm(model.grads()) > c.clip_grad_norm ? 1 : 0;
      }
    }
    EXPECT_GE(fired, config.rounds * workers * 3 / 4)
        << c.key << ": " << fired << " of " << config.rounds * workers
        << " steps clipped";
  }
  EXPECT_EQ(clip_cases, 2u);
}

std::string golden_path() {
  return std::string(MARSIT_GOLDEN_DIR) + "/train_golden.txt";
}

struct GoldenFile {
  /// Toolchain + flags that produced the digests.  Float trajectories are
  /// deterministic per build configuration, not across configurations
  /// (-ffp-contract, -march, libm all shift the last ulps), so digests only
  /// compare when the fingerprints match.
  std::string fingerprint;
  std::map<std::string, std::uint64_t> digests;
};

GoldenFile load_golden() {
  GoldenFile golden;
  std::ifstream in(golden_path());
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "fingerprint") {
      fields >> std::ws;
      std::getline(fields, golden.fingerprint);
      continue;
    }
    std::string hex;
    if (fields >> hex) {
      golden.digests[key] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return golden;
}

std::string to_hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

TEST(GoldenDeterminismTest, PoolSizeInvariantAndMatchesGolden) {
  set_log_level(LogLevel::kError);
  ThreadPool pool1(1), pool4(4), pool_hw(0);

  std::map<std::string, std::uint64_t> digests;
  for (const GoldenCase& c : kCases) {
    const std::uint64_t d1 = run_digest(c, &pool1);
    const std::uint64_t d4 = run_digest(c, &pool4);
    const std::uint64_t dh = run_digest(c, &pool_hw);
    EXPECT_EQ(d1, d4) << c.key << ": pool sizes 1 vs 4 diverge";
    EXPECT_EQ(d1, dh) << c.key << ": pool sizes 1 vs hardware diverge";
    digests[c.key] = d1;
  }

  if (std::getenv("MARSIT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << "fingerprint " << MARSIT_GOLDEN_FINGERPRINT << "\n";
    for (const auto& [key, digest] : digests) {
      out << key << " " << to_hex(digest) << "\n";
    }
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  const GoldenFile golden = load_golden();
  ASSERT_FALSE(golden.digests.empty())
      << "missing/empty " << golden_path()
      << " — run with MARSIT_REGEN_GOLDEN=1 to create it";
  if (golden.fingerprint != MARSIT_GOLDEN_FINGERPRINT) {
    GTEST_SKIP() << "golden digests were produced by a different build "
                    "configuration (\""
                 << golden.fingerprint << "\" vs \""
                 << MARSIT_GOLDEN_FINGERPRINT
                 << "\"); pool-size invariance was still asserted above.";
  }
  for (const auto& [key, digest] : digests) {
    const auto it = golden.digests.find(key);
    ASSERT_NE(it, golden.digests.end()) << "no golden entry for " << key;
    EXPECT_EQ(digest, it->second)
        << key << ": numeric trajectory changed (got " << to_hex(digest)
        << ", golden " << to_hex(it->second)
        << ").  If intentional, regenerate with MARSIT_REGEN_GOLDEN=1.";
  }
}

}  // namespace
}  // namespace marsit
