// Fault sweep — degradation curves for the synchronization methods under
// injected faults.
//
// Not a paper figure: the paper assumes a healthy fleet.  This bench maps
// how gracefully each method degrades when the fleet is not healthy, using
// the seeded FaultPlan layer (net/fault_plan.hpp):
//
//   * dropout      — every worker sits out each round w.p. p; the reduction
//                    re-forms over the survivors;
//   * packet-loss  — each transmission attempt is lost w.p. p and retried
//                    with exponential backoff, inflating both completion
//                    time and wire traffic;
//   * straggler    — one node's links serialize `s`× slower, stretching the
//                    critical path of every schedule that touches it;
//   * corruption   — each attempt delivers a corrupted payload w.p. p; a
//                    CRC32 footer (+32 wire bits per message) detects it and
//                    the sender retries; past the retry budget the sender is
//                    demoted to absent-for-the-round (never folded into ⊙);
//   * rejoin       — two staggered explicit drop-out windows, replayed with
//                    the rejoin-at-flush barrier off (severity 0, workers
//                    re-enter the instant their window closes, carrying
//                    compensation) and on (severity 1, re-entry waits for
//                    the next K-round full-precision flush, where the global
//                    state is identical on every worker).
//
// For every (fault type, severity, method) cell a short training run records
// final accuracy, simulated time, degraded-round counts, retransmission and
// rejoin/demotion totals.  Severity 0 of the probabilistic faults is the
// fault-free baseline, so each method's row set is a degradation curve.
// Output: a human-readable table on stdout plus a machine-readable JSON
// file (--out PATH, default fault_sweep.json).  The bench then prints its
// shape checks and exits 1 if one fails.
#include <algorithm>
#include <fstream>

#include "bench_util.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/models.hpp"
#include "obs/json_writer.hpp"

using namespace marsit;
using namespace marsit::bench;

namespace {

struct FaultSpec {
  std::string type;  // "dropout" | "packet-loss" | "straggler" | "corruption"
  std::vector<double> severities;  // first entry is the fault-free baseline
};

FaultPlan make_plan(const FaultSpec& spec, double severity,
                    std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  if (spec.type == "dropout") {
    plan.dropout_rate = severity;
  } else if (spec.type == "packet-loss") {
    plan.packet_loss = severity;
  } else if (spec.type == "straggler") {
    if (severity > 1.0) {
      plan.stragglers.push_back({1, severity});
    }
  } else if (spec.type == "corruption") {
    plan.corruption_rate = severity;
    // A short retry budget so saturating corruption actually demotes senders
    // within the sweep (the 16-attempt default makes demotion astronomically
    // rare even at severity 0.5).
    plan.max_retries = 3;
  } else {
    MARSIT_CHECK(false) << "unknown fault type " << spec.type;
  }
  return plan;
}

/// One (fault, severity, method) cell's training run.
struct Cell {
  std::string fault;
  std::string method;
  TrainResult result;
};

/// The rows a sweep reports for one run, compared exactly.
bool same_rows(const TrainResult& a, const TrainResult& b) {
  return a.final_test_accuracy == b.final_test_accuracy &&
         a.sim_seconds == b.sim_seconds &&
         a.total_wire_bits == b.total_wire_bits &&
         a.degraded_rounds == b.degraded_rounds &&
         a.total_rejoins == b.total_rejoins;
}

/// Two staggered one-worker outages, deliberately unaligned with the K-round
/// flush so the gated variant (severity 1) has to wait for the next barrier.
FaultPlan make_rejoin_plan(bool at_flush, std::size_t rounds,
                           std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  const std::size_t third = rounds / 3;
  plan.dropouts.push_back({2, third / 2 + 1, third + 1, at_flush});
  plan.dropouts.push_back({5, third + 2, 2 * third + 2, at_flush});
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  quiet_logs();
  const std::size_t rounds = arg_override(argc, argv, "--rounds", 60);
  const std::size_t workers = 8;

  std::string out_path = "fault_sweep.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") {
      out_path = argv[i + 1];
    }
  }

  print_header(
      "Fault sweep: graceful degradation under injected faults",
      {"not a paper figure; severity 0 of each fault type is the healthy "
       "baseline",
       "dropout re-forms the reduction over survivors; packet loss and "
       "corruption retry",
       "with backoff; a straggler stretches every schedule that routes "
       "through it;",
       "the rejoin sweep replays fixed outages with the flush barrier "
       "off/on"});

  const std::vector<FaultSpec> faults = {
      {"dropout", {0.0, 0.1, 0.25, 0.4}},
      {"packet-loss", {0.0, 0.02, 0.05, 0.1}},
      {"straggler", {1.0, 2.0, 4.0, 8.0}},
      {"corruption", {0.0, 0.05, 0.2, 0.5}},
  };
  // Five of the six Table 2 methods (Marsit-100 behaves like Marsit here).
  std::vector<MethodSpec> methods = paper_method_lineup();
  methods.erase(methods.begin() + 4);  // drop Marsit-100

  SyntheticDigits digits;
  auto factory = [&digits] {
    return make_mlp(digits.sample_size(), {48}, digits.num_classes());
  };

  TextTable table({"fault", "severity", "method", "final acc (%)", "sim time",
                   "degraded rounds", "mean active", "retx (Mb)", "rejoins"});
  std::ofstream out(out_path);
  MARSIT_CHECK(out.good()) << "cannot open " << out_path;
  obs::JsonWriter json(out, /*pretty=*/true);
  json.begin_object();
  json.kv("rounds", rounds);
  json.kv("workers", workers);
  json.key("curves");
  json.begin_array();
  std::vector<Cell> cells;

  const auto run_cell = [&](const std::string& fault, double severity,
                            const MethodSpec& method, const FaultPlan& plan) {
    SyncConfig sync_config = ring_config(workers);
    sync_config.fault_plan = plan;
    auto strategy = build_method(method, sync_config, 2e-3f);

    TrainerConfig config;
    config.batch_size_per_worker = 16;
    config.optimizer = OptimizerKind::kMomentum;
    config.clip_grad_norm = 2.0f;
    config.eta_l = 0.05f;
    config.rounds = rounds;
    config.eval_interval = 0;  // evaluate once, at the end
    config.eval_samples = 512;
    config.seed = 10;

    DistributedTrainer trainer(digits, factory, *strategy, config);
    const TrainResult result = trainer.train();

    const double retx_megabits = result.total_retransmitted_wire_bits / 1e6;
    // total_rejoins already includes the flush-gated subset.
    const std::size_t rejoins = result.total_rejoins;
    table.add_row({fault, format_fixed(severity, 2), method.label,
                   format_fixed(100.0 * result.final_test_accuracy, 1),
                   format_duration(result.sim_seconds),
                   std::to_string(result.degraded_rounds),
                   format_fixed(result.mean_active_workers, 2),
                   format_fixed(retx_megabits, 2), std::to_string(rejoins)});

    json.begin_object();
    json.kv("fault", fault);
    json.kv("severity", severity);
    json.kv("method", method.label);
    json.kv("final_accuracy", result.final_test_accuracy);
    json.kv("sim_seconds", result.sim_seconds);
    json.kv("total_wire_bits", result.total_wire_bits);
    json.kv("degraded_rounds", result.degraded_rounds);
    json.kv("mean_active_workers", result.mean_active_workers);
    json.kv("retransmitted_wire_bits", result.total_retransmitted_wire_bits);
    json.kv("retransmissions", result.total_retransmissions);
    json.kv("rejoins", result.total_rejoins);
    json.kv("flush_rejoins", result.total_flush_rejoins);
    json.kv("corruption_demotions", result.total_corruption_demotions);
    json.kv("diverged", result.diverged);
    json.end_object();
    cells.push_back({fault, method.label, result});
  };

  for (const FaultSpec& fault : faults) {
    for (const double severity : fault.severities) {
      for (const MethodSpec& method : methods) {
        run_cell(fault.type, severity, method,
                 make_plan(fault, severity, /*seed=*/91));
      }
    }
  }

  // Rejoin sweep (same JSON row shape): the Table 2 "Marsit" entry has no
  // flush period, so the gated variant would degenerate to the plain one —
  // give Marsit K = 10 here, which puts two flush barriers after the
  // outage windows within the default 60 rounds.
  std::vector<MethodSpec> rejoin_methods = methods;
  for (MethodSpec& method : rejoin_methods) {
    if (method.method == SyncMethod::kMarsit) {
      method.full_precision_period = 10;
    }
  }
  for (const double severity : {0.0, 1.0}) {
    for (const MethodSpec& method : rejoin_methods) {
      run_cell("rejoin", severity, method,
               make_rejoin_plan(severity > 0.0, rounds, /*seed=*/91));
    }
  }

  json.end_array();
  json.end_object();
  out << "\n";

  table.print(std::cout);
  std::cout << "\nJSON degradation curves written to " << out_path << "\n\n";

  // One method's rows of `fault`, in severity order.
  const auto rows = [&cells](const std::string& fault,
                             const std::string& method) {
    std::vector<const TrainResult*> found;
    for (const Cell& cell : cells) {
      if (cell.fault == fault && cell.method == method) {
        found.push_back(&cell.result);
      }
    }
    return found;
  };
  bool healthy_rows_agree = true;
  bool dropout_degrades_more = true;
  bool retries_resend = true;
  bool retries_slow_down = true;
  bool stragglers_never_speed_up = true;
  bool corruption_demotes = true;
  bool marsit_waits_for_flush = false;
  bool others_ignore_flush_gate = true;
  for (const MethodSpec& method : methods) {
    const std::string& label = method.label;
    const TrainResult& healthy = *rows("dropout", label).front();
    for (const char* fault : {"packet-loss", "straggler", "corruption"}) {
      healthy_rows_agree =
          healthy_rows_agree && same_rows(*rows(fault, label).front(), healthy);
    }
    const auto dropout = rows("dropout", label);
    for (std::size_t i = 1; i < dropout.size(); ++i) {
      dropout_degrades_more = dropout_degrades_more &&
                              dropout[i]->degraded_rounds >
                                  dropout[i - 1]->degraded_rounds;
    }
    for (const char* fault : {"packet-loss", "corruption"}) {
      const auto retried = rows(fault, label);
      for (std::size_t i = 1; i < retried.size(); ++i) {
        retries_resend =
            retries_resend && retried[i]->total_retransmitted_wire_bits > 0.0;
        retries_slow_down = retries_slow_down && retried[i]->sim_seconds >
                                                     retried[i - 1]->sim_seconds;
      }
    }
    const auto straggler = rows("straggler", label);
    for (std::size_t i = 1; i < straggler.size(); ++i) {
      stragglers_never_speed_up =
          stragglers_never_speed_up &&
          straggler[i]->sim_seconds >= straggler[i - 1]->sim_seconds;
    }
    corruption_demotes = corruption_demotes &&
                         rows("corruption", label).back()
                                 ->total_corruption_demotions > 0;
    const auto rejoin = rows("rejoin", label);
    if (method.method == SyncMethod::kMarsit) {
      marsit_waits_for_flush =
          rejoin[1]->total_flush_rejoins > 0 &&
          rejoin[1]->degraded_rounds > rejoin[0]->degraded_rounds;
    } else {
      others_ignore_flush_gate =
          others_ignore_flush_gate && same_rows(*rejoin[0], *rejoin[1]);
    }
  }
  const bool none_diverged =
      std::none_of(cells.begin(), cells.end(),
                   [](const Cell& cell) { return cell.result.diverged; });

  bool ok = shape_check(
      "per method, the four fault-free rows (severity 0, straggler 1.00) "
      "agree on accuracy, sim time, wire bits, degraded rounds and rejoins",
      healthy_rows_agree);
  ok = shape_check("no run diverges", none_diverged) && ok;
  ok = shape_check("dropout's degraded rounds rise with severity",
                   dropout_degrades_more) &&
       ok;
  ok = shape_check("packet-loss and corruption rows above severity 0 "
                   "retransmit bits",
                   retries_resend) &&
       ok;
  ok = shape_check("packet-loss and corruption sim time rises with severity",
                   retries_slow_down) &&
       ok;
  ok = shape_check("straggler sim time never falls as severity rises",
                   stragglers_never_speed_up) &&
       ok;
  ok = shape_check("corruption at 0.50 demotes at least one sender",
                   corruption_demotes) &&
       ok;
  ok = shape_check("rejoin: Marsit's flush-gated row has flush rejoins and "
                   "more degraded rounds than its ungated row",
                   marsit_waits_for_flush) &&
       ok;
  ok = shape_check("rejoin: every other method's two rows are equal",
                   others_ignore_flush_gate) &&
       ok;
  return ok ? 0 : 1;
}
