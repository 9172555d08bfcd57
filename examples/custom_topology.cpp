// Example: using the lower-level building blocks directly — no trainer.
//
// Demonstrates (1) the ⊙ one-bit aggregation on raw sign vectors, (2) the
// hop schedules of ring / torus / PS fabrics priced at a model size of your
// choice, and (3) how to plug a custom wire format into the pricer —
// everything an integrator needs to evaluate Marsit for their own cluster
// shape before touching training code.
//
//   ./build/examples/custom_topology [million_params] [--trace out.trace.json]
#include <cstdlib>
#include <iostream>

#include "collectives/timing.hpp"
#include "compress/sign_codec.hpp"
#include "core/hop_schedule.hpp"
#include "core/one_bit.hpp"
#include "obs/exporter.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace marsit;
  obs::ScopedTrace trace(argc, argv);

  const std::size_t million = argc > 1 && argv[1][0] != '-'
                                  ? static_cast<std::size_t>(std::atol(argv[1]))
                                  : 25;
  const std::size_t d = million * 1000 * 1000;  // ResNet-50 scale by default

  // --- 1. one-bit aggregation on raw vectors --------------------------------
  std::cout << "1. Unbiased one-bit aggregation (8 workers, 10k elements)\n";
  const std::size_t small_d = 10000;
  Rng rng(1);
  std::vector<Tensor> gradients;
  std::vector<BitVector> signs;
  for (int w = 0; w < 8; ++w) {
    Tensor g(small_d);
    fill_normal(g.span(), rng, 0.1f, 1.0f);  // slight positive drift
    signs.push_back(pack_signs(g.span()));
    gradients.push_back(std::move(g));
  }
  const BitVector folded = one_bit_fold(signs, rng);
  std::cout << "   positive-sign fraction after fold: "
            << format_fixed(static_cast<double>(folded.popcount()) / small_d,
                            3)
            << "  (workers' mean positive fraction: "
            << format_fixed(
                   [&] {
                     double total = 0;
                     for (const auto& s : signs) {
                       total += static_cast<double>(s.popcount()) / small_d;
                     }
                     return total / 8.0;
                   }(),
                   3)
            << ")\n\n";

  // --- 2. fabric comparison at your model size -----------------------------
  std::cout << "2. One synchronization of a " << million
            << "M-parameter model\n\n";
  const CostModel model;
  TextTable table({"fabric", "wire format", "completion", "bits/worker"});

  // A round's collective is its paradigm's hop schedule, priced on a
  // network with a node for every rank the schedule touches (the PS gets
  // its own).
  const auto price = [&](MarParadigm paradigm, const WireFormat& wire) {
    const HopSchedule schedule =
        hop_schedule(RoundKind::kAllReduce, paradigm, /*torus_cols=*/8, 32, d,
                     PsServer::kOwnNode);
    NetworkSim net(schedule.nodes, model);
    return price_hop_schedule(schedule, wire, net);
  };
  for (const auto& [name, wire] :
       std::vector<std::pair<std::string, WireFormat>>{
           {"float32", full_precision_wire()},
           {"Marsit 1-bit", marsit_wire(model)}}) {
    for (const auto& [fabric, paradigm] :
         std::vector<std::pair<std::string, MarParadigm>>{
             {"ring x32", MarParadigm::kRing},
             {"torus 4x8", MarParadigm::kTorus2d},
             {"PS x32", MarParadigm::kParameterServer}}) {
      const CollectiveTiming timing = price(paradigm, wire);
      table.add_row({fabric, name, format_duration(timing.completion_seconds),
                     format_bytes(timing.bits_per_worker / 8.0)});
    }
  }
  table.print(std::cout);

  // --- 3. a custom wire format ----------------------------------------------
  std::cout << "\n3. Custom wire format: 4-bit quantization with a "
               "per-message float scale\n";
  WireFormat int4;
  int4.reduce_bits = [](std::size_t elements, std::size_t) {
    return 4.0 * static_cast<double>(elements) + 32.0;
  };
  int4.gather_bits = [](std::size_t elements) {
    return 4.0 * static_cast<double>(elements) + 32.0;
  };
  int4.initial_pack_seconds_per_element = 1.0 / model.sign_pack_rate;
  int4.serial_seconds_per_element = 1.0 / model.sign_unpack_rate;
  int4.final_unpack_seconds_per_element = 1.0 / model.sign_unpack_rate;
  const CollectiveTiming timing = price(MarParadigm::kRing, int4);
  std::cout << "   ring x32 completion: "
            << format_duration(timing.completion_seconds) << ", "
            << format_bytes(timing.bits_per_worker / 8.0) << " per worker\n";
  return 0;
}
