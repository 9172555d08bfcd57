// Figure 5 — Per-round time breakdown (computation / compression /
// communication) for the six methods under RAR and TAR at the paper's
// cluster scale (32 workers), training AlexNet on CIFAR-10 (23M params).
//
// Paper shape: communication dominates under RAR; every method communicates
// faster under TAR; Marsit(-100) spends the least time communicating, with
// only minor compression overhead.
//
// Cost-model experiment: every cell prices its paradigm's hop schedule
// (core/hop_schedule.hpp).  The sign-sum baselines' Elias-coded wire image
// is measured from real data (32 random sign vectors folded through the
// actual codec) rather than assumed.  Pass `--out PATH` to also write the
// breakdown as machine-readable JSON.  The binary exits 1 unless every
// method communicates faster under TAR than under RAR and the Marsit rows
// communicate fastest in both paradigms.
#include <fstream>
#include <optional>

#include "bench_util.hpp"
#include "collectives/aggregators.hpp"
#include "collectives/timing.hpp"
#include "compress/sign_codec.hpp"
#include "compress/sign_sum.hpp"
#include "core/hop_schedule.hpp"
#include "obs/json_writer.hpp"
#include "tensor/ops.hpp"

using namespace marsit;
using namespace marsit::bench;

namespace {

/// Measures Elias-γ bits/element per contribution count on synthetic
/// correlated gradients (shared signal + worker noise), 32 workers.
std::vector<double> measured_elias_bits(std::size_t workers, Rng& rng) {
  const std::size_t d = 1 << 16;
  Tensor signal(d);
  fill_normal(signal.span(), rng, 0.0f, 1.0f);
  std::vector<BitVector> signs;
  Tensor g(d);
  for (std::size_t w = 0; w < workers; ++w) {
    for (std::size_t i = 0; i < d; ++i) {
      g[i] = signal[i] + static_cast<float>(rng.normal(0.0, 1.0));
    }
    signs.push_back(pack_signs(g.span()));
  }
  return aggregate_sign_sum(signs, true).elias_bits_per_element;
}

}  // namespace

int main(int argc, char** argv) {
  quiet_logs();
  const std::size_t workers = 32;
  const std::size_t cols = 8;  // a 4×8 torus
  const std::size_t d = arg_override(argc, argv, "--params", 23u * 1000 * 1000);
  const CostModel model;

  // AlexNet on CIFAR-10, 16-sample local batch.
  const double compute_seconds =
      model.compute_seconds(6.0 * static_cast<double>(d) * 16.0);

  print_header(
      "Figure 5: per-round time breakdown under RAR and TAR (M=32, "
      "AlexNet-scale)",
      {"communication dominates under RAR; TAR faster for every method;",
       "Marsit's communication smallest with minor compression overhead"});

  Rng rng(18);
  const std::vector<double> elias_bpe = measured_elias_bits(workers, rng);
  // A real sender picks the cheaper of the fixed-width and Elias encodings
  // per message (one header bit decides); on correlated gradients the
  // fixed width often wins (see bench/ablation_elias).
  auto elias_lookup = [elias_bpe](std::size_t contributions) {
    const std::size_t index =
        std::min(contributions, elias_bpe.size()) - 1;
    return std::min(elias_bpe[index],
                    static_cast<double>(
                        sign_sum_bits_per_element(contributions)));
  };

  struct MethodWire {
    std::string label;
    WireFormat wire;
  };
  const std::vector<MethodWire> methods = {
      {"PSGD", full_precision_wire()},
      {"signSGD", sign_sum_elias_wire(model, elias_lookup)},
      {"EF-signSGD", sign_sum_elias_wire(model, elias_lookup)},
      {"SSDM", sign_sum_elias_wire(model, elias_lookup)},
      {"Marsit-100", marsit_wire(model)},
      {"Marsit", marsit_wire(model)},
  };

  std::string out_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") {
      out_path = argv[i + 1];
    }
  }
  std::ofstream out_stream;
  std::optional<obs::JsonWriter> json;
  if (!out_path.empty()) {
    out_stream.open(out_path);
    MARSIT_CHECK(out_stream.good()) << "cannot open " << out_path;
    json.emplace(out_stream, /*pretty=*/true);
    json->begin_object();
    json->kv("workers", workers);
    json->kv("params", d);
    json->kv("compute_seconds", compute_seconds);
    json->key("cells");
    json->begin_array();
  }

  const auto price = [&](MarParadigm paradigm, const WireFormat& wire) {
    const HopSchedule schedule =
        hop_schedule(RoundKind::kAllReduce, paradigm, cols, workers, d);
    NetworkSim net(schedule.nodes, model);
    return price_hop_schedule(schedule, wire, net);
  };
  const std::vector<MarParadigm> paradigms = {MarParadigm::kRing,
                                              MarParadigm::kTorus2d};
  // communication[p][i]: method i's communication bar under paradigms[p].
  std::vector<std::vector<double>> communication(paradigms.size());
  TextTable table({"paradigm", "method", "compute", "compression",
                   "communication", "round total"});
  for (std::size_t p = 0; p < paradigms.size(); ++p) {
    const char* paradigm = mar_paradigm_name(paradigms[p]);
    for (const MethodWire& method : methods) {
      CollectiveTiming timing = price(paradigms[p], method.wire);
      // Marsit-100 amortizes one 32-bit round per 100: add 1 % of the
      // full-precision round's extra cost.
      if (method.label == "Marsit-100") {
        const CollectiveTiming fp =
            price(paradigms[p], full_precision_wire());
        timing.completion_seconds +=
            (fp.completion_seconds - timing.completion_seconds) / 100.0;
      }
      communication[p].push_back(timing.communication_seconds());
      table.add_row({paradigm, method.label,
                     format_duration(compute_seconds),
                     format_duration(timing.compression_seconds_per_worker()),
                     format_duration(timing.communication_seconds()),
                     format_duration(compute_seconds +
                                     timing.completion_seconds)});
      if (json) {
        json->begin_object();
        json->kv("paradigm", paradigm);
        json->kv("method", method.label);
        json->kv("compression_seconds",
                 timing.compression_seconds_per_worker());
        json->kv("communication_seconds", timing.communication_seconds());
        json->kv("round_seconds",
                 compute_seconds + timing.completion_seconds);
        json->kv("total_wire_bits", timing.total_wire_bits);
        json->end_object();
      }
    }
  }
  if (json) {
    json->end_array();
    json->end_object();
    json.reset();
    out_stream << "\n";
    std::cout << "\nJSON breakdown written to " << out_path << "\n";
  }
  table.print(std::cout);

  bool tar_faster = true;
  bool marsit_fastest = true;
  const auto is_marsit = [&methods](std::size_t i) {
    return methods[i].label.starts_with("Marsit");
  };
  for (std::size_t i = 0; i < methods.size(); ++i) {
    tar_faster = tar_faster && communication[1][i] < communication[0][i];
    for (std::size_t j = 0; j < methods.size(); ++j) {
      for (const std::vector<double>& row : communication) {
        marsit_fastest = marsit_fastest &&
                         (!is_marsit(i) || is_marsit(j) || row[i] < row[j]);
      }
    }
  }
  std::cout << "\n";
  bool ok = shape_check("every method communicates faster under TAR than "
                        "RAR",
                        tar_faster);
  ok = shape_check("the Marsit rows communicate fastest under RAR and TAR",
                   marsit_fastest) &&
       ok;
  return ok ? 0 : 1;
}
