// Kill-and-resume drill: crash-restart equivalence with a real SIGKILL.
//
// Two modes over the same fixed training job (4-worker ring, Marsit with
// K = 5, momentum optimizer):
//
//   --digest
//       Run uninterrupted and print the FNV-1a digest of the final
//       parameters plus the TrainResult accounting.
//
//   --kill-at R --dir DIR
//       Delete DIR's drill snapshots, then fork a child that trains with a
//       checkpoint every round; as soon as the round-R snapshot appears in
//       DIR the parent delivers SIGKILL — the child dies mid-round, exactly
//       like a crashed job — then a fresh trainer resumes from that
//       snapshot and prints the same digest.
//
// The two digests must be identical (DESIGN.md §11): a resumed run is
// bit-for-bit the run that never died.  CI drills this in Release and
// contract-validation builds:
//
//   ./build/examples/kill_resume --digest
//   ./build/examples/kill_resume --kill-at 7 --dir /tmp/marsit_ckpt
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <iostream>

#include "ckpt/checkpoint.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/models.hpp"
#include "sim/trainer.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace {

using namespace marsit;

constexpr std::size_t kRounds = 40;

/// FNV-1a over raw bit patterns (the golden-test digest convention).
class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add(T value) {
    add_bytes(&value, sizeof(value));
  }
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

TrainerConfig job_config() {
  TrainerConfig config;
  config.batch_size_per_worker = 16;
  config.optimizer = OptimizerKind::kMomentum;
  config.eta_l = 0.05f;
  config.rounds = kRounds;
  config.eval_interval = 10;
  config.eval_samples = 256;
  config.seed = 99;
  return config;
}

std::uint64_t run_digest(const TrainerConfig& config) {
  SyntheticDigits digits;
  auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {24}, digits.num_classes());
  };
  SyncConfig sync_config;
  sync_config.num_workers = 4;
  sync_config.paradigm = MarParadigm::kRing;
  sync_config.seed = 2024;
  MethodOptions options;
  options.eta_s = 2e-3f;
  options.full_precision_period = 5;
  auto strategy = make_sync_strategy(SyncMethod::kMarsit, sync_config, options);

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
  hash.add(result.final_test_accuracy);
  hash.add(result.best_test_accuracy);
  for (const EvalPoint& eval : result.evals) {
    hash.add(static_cast<std::uint64_t>(eval.round));
    hash.add(eval.test_accuracy);
    hash.add(eval.test_loss);
  }
  return hash.digest();
}

bool file_exists(const std::string& path) {
  struct stat info {};
  return ::stat(path.c_str(), &info) == 0;
}

std::string arg_value(int argc, char** argv, const std::string& key,
                      const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == key) {
      return argv[i + 1];
    }
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const std::string& key) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == key) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarning);

  if (has_flag(argc, argv, "--digest")) {
    std::cout << std::hex << run_digest(job_config()) << "\n";
    return 0;
  }

  const std::string kill_at_text = arg_value(argc, argv, "--kill-at", "");
  if (kill_at_text.empty()) {
    std::cerr << "usage: kill_resume --digest | --kill-at R [--dir DIR]\n";
    return 2;
  }
  const std::size_t kill_at =
      static_cast<std::size_t>(std::atol(kill_at_text.c_str()));
  MARSIT_CHECK(kill_at > 0 && kill_at < kRounds)
      << "--kill-at must lie in (0, " << kRounds << ")";
  const std::string dir = arg_value(argc, argv, "--dir", "/tmp/marsit_ckpt");
  ::mkdir(dir.c_str(), 0755);
  const std::string ckpt_template = dir + "/drill_{round}.bin";
  const std::string kill_trigger =
      ckpt::expand_checkpoint_path(ckpt_template, kill_at);
  // A snapshot left in DIR by an earlier run would end the child at once
  // and resume from stale state: start from an empty drill.
  for (std::size_t round = 0; round <= kRounds; ++round) {
    ::unlink(ckpt::expand_checkpoint_path(ckpt_template, round).c_str());
  }

  const pid_t child = ::fork();
  MARSIT_CHECK(child >= 0) << "fork failed";
  if (child == 0) {
    // Child: train the full job, snapshotting every round.  It never prints
    // a digest — the parent kills it long before round 40.
    TrainerConfig config = job_config();
    config.checkpoint_every = 1;
    config.checkpoint_path = ckpt_template;
    (void)run_digest(config);
    ::_exit(0);
  }

  // Parent: the instant the round-R snapshot lands, SIGKILL the child —
  // no flush, no destructors, a genuine crash.
  while (!file_exists(kill_trigger)) {
    ::usleep(2000);
    int status = 0;
    MARSIT_CHECK(::waitpid(child, &status, WNOHANG) == 0)
        << "trainer exited before writing " << kill_trigger;
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  std::cerr << "killed trainer pid " << child << " after round " << kill_at
            << " snapshot; resuming from " << kill_trigger << "\n";

  TrainerConfig config = job_config();
  config.resume_from = kill_trigger;
  std::cout << std::hex << run_digest(config) << "\n";
  return 0;
}
