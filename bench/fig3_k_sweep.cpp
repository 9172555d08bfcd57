// Figure 3 — Training CIFAR-10 over AlexNet with Marsit at
// K ∈ {1, 50, 100, 200, ∞}: (a) accuracy curves over training and (b) the
// convergence table {K, time, accuracy, average bits per element}.
//
// The paper's table:  K=1: 40.2 min / 93.4 % / 32 bits; K=50: 22.1 / 92.3 /
// 1.62; K=100: 21.3 / 91.7 / 1.31; K=200: 22.4 / 92.0 / 1.16; K=∞: 18.8 /
// 90.8 / 1.  Shape: K=1 (always full precision) is most accurate but
// slowest; K=∞ is fastest and cheapest but least accurate; intermediate K
// trades between them.  Bits follow (K−1+32)/K exactly.
//
// Reproduction: SyntheticImages + AlexNetMini, 400 rounds (the paper's run
// length), K scaled to the run: {1, 25, 50, 100, ∞}.
//
// The bench checks the two shapes that hold on every build and exits 1 if
// one fails: simulated time never rises from K = 1 toward K = ∞, and each
// K's bits/elem is its flush share at 32 bits plus the rest at 1, which is
// (K−1+32)/K when K divides the rounds.  Final accuracy is printed, not
// checked: it is not monotone in K on the recorded runs (EXPERIMENTS.md,
// Figure 3).
#include <cmath>

#include "bench_util.hpp"
#include "data/synthetic_images.hpp"
#include "nn/models.hpp"

using namespace marsit;
using namespace marsit::bench;

int main(int argc, char** argv) {
  quiet_logs();
  const std::size_t rounds = arg_override(argc, argv, "--rounds", 400);
  const std::size_t workers = 4;

  print_header(
      "Figure 3: Marsit full-precision period K sweep (images/AlexNet-mini)",
      {"K=1: slowest, most accurate, 32 bits/elem; K=inf: fastest, least "
       "accurate, 1 bit/elem; bits = (K-1+32)/K"});

  SyntheticImages images;
  auto factory = [&images] {
    return make_alexnet_mini(images.image_dims(), images.num_classes());
  };

  struct Sweep {
    std::string label;
    std::size_t k;
  };
  const std::vector<Sweep> sweeps = {
      {"1", 1}, {"25", 25}, {"50", 50}, {"100", 100}, {"inf", 0}};

  TextTable curve({"K", "round", "sim time", "test acc (%)"});
  TextTable summary({"K", "sim time", "final acc (%)", "bits/elem"});
  bool time_never_rises = true;
  bool bits_follow_k = true;
  double previous_seconds = 0.0;

  for (const Sweep& sweep : sweeps) {
    MarsitOptions options;
    options.eta_s = 2e-3f;
    options.full_precision_period = sweep.k;
    options.full_precision_max_norm = 0.5f;
    MarsitSync strategy(ring_config(workers), options);

    TrainerConfig config;
    config.batch_size_per_worker = 16;
    config.optimizer = OptimizerKind::kMomentum;
    config.clip_grad_norm = 2.0f;
    config.eta_l = 0.05f;
    config.rounds = rounds;
    config.eval_interval = rounds / 8;
    config.eval_samples = 512;
    config.seed = 10;

    DistributedTrainer trainer(images, factory, strategy, config);
    const TrainResult result = trainer.train();

    for (const EvalPoint& point : result.evals) {
      curve.add_row({sweep.label, std::to_string(point.round),
                     format_duration(point.sim_seconds),
                     format_fixed(100.0 * point.test_accuracy, 1)});
    }
    summary.add_row({sweep.label, format_duration(result.sim_seconds),
                     format_fixed(100.0 * result.final_test_accuracy, 1),
                     format_fixed(result.mean_bits_per_element, 2)});

    if (&sweep != &sweeps.front()) {
      time_never_rises =
          time_never_rises && result.sim_seconds <= previous_seconds;
    }
    previous_seconds = result.sim_seconds;
    // Rounds 0, K, 2K, ... flush at 32 bits per element; the rest send one.
    const double flushes =
        sweep.k == 0 ? 0.0
                     : static_cast<double>((rounds + sweep.k - 1) / sweep.k);
    const double expected_bits =
        (32.0 * flushes + static_cast<double>(rounds) - flushes) /
        static_cast<double>(rounds);
    bits_follow_k = bits_follow_k &&
                    std::fabs(result.mean_bits_per_element - expected_bits) <
                        1e-9 * expected_bits;
  }

  std::cout << "(a) accuracy over training\n";
  curve.print(std::cout);
  std::cout << "\n(b) convergence summary\n";
  summary.print(std::cout);
  std::cout << "\n";
  bool ok = shape_check("sim time never rises from K=1 toward K=inf",
                        time_never_rises);
  ok = shape_check("bits/elem = (32 per flush + 1 per one-bit round) / "
                   "rounds at every K, (K-1+32)/K when K divides the rounds",
                   bits_follow_k) &&
       ok;
  std::cout << "note: final accuracy is printed, not checked "
               "(EXPERIMENTS.md, Figure 3).\n";
  return ok ? 0 : 1;
}
