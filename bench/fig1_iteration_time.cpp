// Figure 1a — Per-iteration time breakdown (computation / compression /
// communication) for training MNIST over AlexNet with 3 workers, comparing:
//
//   PSGD under PS, PSGD under RAR (all-reduce), SSDM under PS,
//   SSDM under MAR (growing sign-sums), and cascading compression.
//
// The paper's findings: RAR beats PS for full precision; SSDM-MAR's growing
// packages make it slower than its PS version; cascading compression's
// decompress-recompress dominates its iteration.
//
// This is a cost-model experiment (no training needed): we use the real
// AlexNet scale the paper trained (23M parameters — its Table 2 size) and
// the calibrated CostModel (net/cost_model.hpp).  Every row prices its
// paradigm's hop schedule (core/hop_schedule.hpp), the PS on its own node.
// The binary exits 1 unless the four shapes above hold.
#include "bench_util.hpp"
#include "collectives/timing.hpp"
#include "core/hop_schedule.hpp"

using namespace marsit;
using namespace marsit::bench;

int main(int argc, char** argv) {
  quiet_logs();
  const std::size_t workers = 3;
  const std::size_t d = arg_override(argc, argv, "--params", 23u * 1000 * 1000);
  const CostModel model;

  // Computation: AlexNet forward+backward ≈ 6 flops/param/sample ×
  // reuse; use the standard ~3× forward estimate on a 16-sample batch.
  const double batch = 16.0;
  const double compute_flops = 6.0 * static_cast<double>(d) * batch;
  const double compute_seconds = model.compute_seconds(compute_flops);

  print_header(
      "Figure 1a: per-iteration time breakdown (MNIST/AlexNet, M=3)",
      {"RAR full-precision < PS full-precision; SSDM-MAR slower than "
       "SSDM-PS in transmission; cascading dominated by its "
       "decompression-compression period"});

  const auto price = [&](MarParadigm paradigm, const WireFormat& wire) {
    const HopSchedule schedule =
        hop_schedule(RoundKind::kAllReduce, paradigm, 0, workers, d,
                     PsServer::kOwnNode);
    NetworkSim net(schedule.nodes, model);
    return price_hop_schedule(schedule, wire, net);
  };
  WireFormat ssdm_ps;
  ssdm_ps.reduce_bits = [](std::size_t elements, std::size_t) {
    return static_cast<double>(elements) + 32.0;
  };
  ssdm_ps.gather_bits = [](std::size_t elements) {
    return static_cast<double>(elements) + 32.0;
  };
  ssdm_ps.initial_pack_seconds_per_element = 1.0 / model.stochastic_sign_rate;
  ssdm_ps.final_unpack_seconds_per_element = 1.0 / model.sign_unpack_rate;

  struct Row {
    std::string label;
    CollectiveTiming timing;
    double total() const { return timing.completion_seconds; }
  };
  const MarParadigm ps = MarParadigm::kParameterServer;
  const MarParadigm ring = MarParadigm::kRing;
  const std::vector<Row> rows = {
      {"PSGD (PS)", price(ps, full_precision_wire())},
      {"PSGD (RAR)", price(ring, full_precision_wire())},
      {"SSDM (PS)", price(ps, ssdm_ps)},
      {"SSDM (MAR)", price(ring, sign_sum_wire(model, 1))},
      {"Cascading (RAR)", price(ring, cascading_wire(model))},
      {"Marsit (RAR)", price(ring, marsit_wire(model))},
  };
  const Row& psgd_ps = rows[0];
  const Row& psgd_rar = rows[1];
  const Row& ssdm_ps_row = rows[2];
  const Row& ssdm_mar = rows[3];
  const Row& cascading = rows[4];
  const Row& marsit = rows[5];

  TextTable table({"method", "compute", "compression", "communication",
                   "iteration total", "wire bits/worker"});
  for (const Row& row : rows) {
    table.add_row({row.label, format_duration(compute_seconds),
                   format_duration(row.timing.compression_seconds_per_worker()),
                   format_duration(row.timing.communication_seconds()),
                   format_duration(compute_seconds + row.total()),
                   format_bytes(row.timing.bits_per_worker / 8.0)});
  }
  table.print(std::cout);

  // Every row shares the compute bar, so totals compare on completion.
  bool cascading_largest = true;
  bool marsit_smallest = true;
  for (const Row& row : rows) {
    cascading_largest = cascading_largest &&
                        row.timing.compression_seconds_per_worker() <=
                            cascading.timing.compression_seconds_per_worker();
    marsit_smallest = marsit_smallest && row.total() >= marsit.total();
  }
  std::cout << "\n";
  bool ok = shape_check("PSGD-RAR total < PSGD-PS total",
                        psgd_rar.total() < psgd_ps.total());
  ok = shape_check("SSDM-MAR communication > SSDM-PS communication",
                   ssdm_mar.timing.communication_seconds() >
                       ssdm_ps_row.timing.communication_seconds()) &&
       ok;
  ok = shape_check("cascading has the largest compression bar",
                   cascading_largest) &&
       ok;
  ok = shape_check("Marsit has the smallest total", marsit_smallest) && ok;
  return ok ? 0 : 1;
}
