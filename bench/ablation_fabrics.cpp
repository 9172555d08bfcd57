// Fabric ablation — one synchronization of a 25M-parameter model across all
// four fabrics (ring, 2-D torus, binomial tree, parameter server) × three
// wire formats (float32, growing sign-sums, Marsit one-bit), at M = 32.
//
// The paper implements RAR and TAR and claims easy extension to
// segmented-ring and tree all-reduce; the weighted ⊙ operator indeed folds
// tree merges (tests/collectives_tree_test.cpp), and this bench quantifies
// when each fabric wins: the ring is bandwidth-optimal, the torus sits
// between, and the PS serializes on its server NIC.  At 64k parameters the
// tree's 2·log2(M) hops win for sign-sum and one-bit payloads; a float32
// tree hop still moves the whole 256 KB vector, so there the torus wins
// and even the ring beats the tree.  Every cell prices its fabric's hop schedule
// (core/hop_schedule.hpp), the PS on its own node.
#include "bench_util.hpp"
#include "collectives/timing.hpp"
#include "core/hop_schedule.hpp"

using namespace marsit;
using namespace marsit::bench;

int main(int argc, char** argv) {
  quiet_logs();
  const std::size_t m = 32;
  const std::size_t d = arg_override(argc, argv, "--params", 25u * 1000 * 1000);
  const CostModel model;

  print_header(
      "Fabric ablation: one synchronization at M=32, 25M parameters",
      {"ring bandwidth-optimal, tree latency-optimal, torus in between, PS "
       "server-bound; Marsit's 1-bit payloads help every fabric"});

  struct Format {
    std::string label;
    WireFormat wire;
  };
  const std::vector<Format> formats = {
      {"float32", full_precision_wire()},
      {"sign-sum", sign_sum_wire(model)},
      {"Marsit 1-bit", marsit_wire(model)},
  };

  const auto completion = [&](MarParadigm paradigm, std::size_t params,
                              const WireFormat& wire) {
    const HopSchedule schedule =
        hop_schedule(RoundKind::kAllReduce, paradigm, /*torus_cols=*/8, m,
                     params, PsServer::kOwnNode);
    NetworkSim net(schedule.nodes, model);
    return format_duration(
        price_hop_schedule(schedule, wire, net).completion_seconds);
  };
  const std::vector<MarParadigm> fabrics = {
      MarParadigm::kRing, MarParadigm::kTorus2d, MarParadigm::kTree,
      MarParadigm::kParameterServer};

  TextTable table({"wire format", "ring x32", "torus 4x8", "tree x32",
                   "PS x32"});
  for (const Format& format : formats) {
    std::vector<std::string> row = {format.label};
    for (const MarParadigm fabric : fabrics) {
      row.push_back(completion(fabric, d, format.wire));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  // Latency-bound regime: small payload, same fabrics but the PS.
  std::cout << "\nlatency-bound regime (64k parameters):\n\n";
  TextTable small({"wire format", "ring x32", "torus 4x8", "tree x32"});
  const std::size_t small_d = 1 << 16;
  for (const Format& format : formats) {
    std::vector<std::string> row = {format.label};
    for (std::size_t f = 0; f + 1 < fabrics.size(); ++f) {
      row.push_back(completion(fabrics[f], small_d, format.wire));
    }
    small.add_row(std::move(row));
  }
  small.print(std::cout);
  std::cout << "\nshape check: at 25M params the ring/torus rows beat the "
               "tree (bandwidth\nbound); at 64k params the tree wins for "
               "sign-sum and one-bit payloads,\nbut a float32 tree hop "
               "still moves the whole 256 KB vector and loses.\n";
  return 0;
}
