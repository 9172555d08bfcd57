// Table 1 — Training "MNIST over AlexNet": cascading compression vs no
// compression at M ∈ {3, 8}.  The paper reports rounds-to-converge, best
// accuracy over a stepsize grid {0.03, 0.01, 0.005}, and wall time; its
// findings: cascading needs more rounds and loses accuracy at M=3 and
// *diverges* at M=8, while non-compressed training improves with more
// workers.
//
// Reproduction: SyntheticDigits + AlexNetMini (DESIGN.md §2), simulated
// time, convergence target 97 % test accuracy.  Cascading never converges
// here at either M and stays near chance, so "degrades as M grows" cannot
// show; the bench checks the shape that holds on every build, cascading's
// best accuracy below PSGD's at every M, and exits 1 if it fails.
#include <map>

#include "bench_util.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/models.hpp"

using namespace marsit;
using namespace marsit::bench;

namespace {

struct RunOutcome {
  std::size_t rounds = 0;
  double best_accuracy = 0.0;
  double sim_minutes = 0.0;
  bool converged = false;
  bool diverged = false;
};

RunOutcome run(SyncMethod method, std::size_t workers, float eta_l,
               std::size_t max_rounds) {
  SyntheticDigits digits;
  auto factory = [&digits] {
    return make_alexnet_mini(digits.image_dims(), digits.num_classes());
  };
  auto strategy = make_sync_strategy(method, ring_config(workers));

  TrainerConfig config;
  config.batch_size_per_worker = 16;
  config.eta_l = eta_l;
  config.rounds = max_rounds;
  config.eval_interval = 10;
  config.eval_samples = 512;
  config.seed = 9;
  config.stop_accuracy = 0.97;

  DistributedTrainer trainer(digits, factory, *strategy, config);
  const TrainResult result = trainer.train();

  RunOutcome outcome;
  outcome.rounds = result.rounds_completed;
  outcome.best_accuracy = result.best_test_accuracy;
  outcome.sim_minutes = result.sim_seconds / 60.0;
  outcome.converged = result.reached_stop_accuracy;
  outcome.diverged = result.diverged;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  quiet_logs();
  const std::size_t max_rounds = arg_override(argc, argv, "--rounds", 300);

  print_header(
      "Table 1: cascading compression vs no compression (digits/AlexNet-mini)",
      {"cascading M=3: 187 rounds, 87.2 % — M=8: 1K+ rounds, divergence",
       "no compression M=3: 129 rounds, 99.1 % — M=8: 76 rounds, 99.2 %"});

  const std::vector<float> stepsizes = {0.03f, 0.01f, 0.005f};
  const std::vector<std::size_t> worker_counts = {3, 8};

  TextTable table({"scheme", "M", "rounds", "best acc (%)", "sim time",
                   "status"});
  // Best accuracy per (scheme, M).
  std::map<std::pair<SyncMethod, std::size_t>, double> best_accuracy;
  for (const auto& [label, method] :
       std::vector<std::pair<std::string, SyncMethod>>{
           {"cascading compression", SyncMethod::kCascading},
           {"no compression", SyncMethod::kPsgd}}) {
    for (const std::size_t workers : worker_counts) {
      // Best result over the stepsize grid, like the paper's protocol:
      // prefer converged runs with fewer rounds, else highest accuracy.
      RunOutcome best;
      bool have_converged = false;
      for (float eta_l : stepsizes) {
        const RunOutcome outcome = run(method, workers, eta_l, max_rounds);
        const bool better =
            outcome.converged
                ? (!have_converged || outcome.rounds < best.rounds)
                : (!have_converged &&
                   outcome.best_accuracy > best.best_accuracy);
        if (better) {
          best = outcome;
          have_converged = have_converged || outcome.converged;
        }
      }
      std::string status = best.converged ? "converged"
                           : best.diverged ? "DIVERGED"
                                           : "not converged";
      best_accuracy[{method, workers}] = best.best_accuracy;
      table.add_row({label, std::to_string(workers),
                     best.converged ? std::to_string(best.rounds)
                                    : std::to_string(max_rounds) + "+",
                     format_fixed(100.0 * best.best_accuracy, 1),
                     format_duration(best.sim_minutes * 60.0), status});
    }
  }
  table.print(std::cout);
  std::cout << "\n";
  bool below = true;
  for (const std::size_t workers : worker_counts) {
    below = below && best_accuracy[{SyncMethod::kCascading, workers}] <
                         best_accuracy[{SyncMethod::kPsgd, workers}];
  }
  const bool ok = shape_check(
      "cascading's best accuracy is below PSGD's at every M", below);
  std::cout << "note: the paper's \"degrades as M grows\" is not checked "
               "(EXPERIMENTS.md, Table 1).\n";
  return ok ? 0 : 1;
}
