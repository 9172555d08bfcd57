// Elias-coding ablation — wire bits per element of the sign-sum baselines
// (fixed width vs Elias-γ, both measured on real folded data) vs Marsit's
// constant one bit, across worker counts and gradient-correlation regimes.
//
// Elias coding only pays when the sums concentrate near zero (uncorrelated
// worker signs); on correlated gradients the sums pile up at ±M and γ codes
// get *longer* than the fixed width — so a deployed sender picks
// min(fixed, Elias) per message (the "hybrid" column, used by the Figure 5
// bench).  Marsit needs none of this: one bit at every hop by construction.
//
// Exits 1 unless the printed shape holds: at every M, Elias on uncorrelated
// sums < fixed width < Elias on correlated sums, every column stays above
// Marsit's 1 bit, and the fixed − Elias(uncorrelated) gap grows with M.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "collectives/aggregators.hpp"
#include "compress/sign_codec.hpp"
#include "compress/sign_sum.hpp"
#include "tensor/ops.hpp"

using namespace marsit;
using namespace marsit::bench;

namespace {

/// Measured Elias bits/element at full contribution count for worker sign
/// vectors with the given cross-worker correlation (signal-to-noise).
double measured_elias(std::size_t m, std::size_t d, double signal_weight,
                      Rng& rng) {
  Tensor signal(d);
  fill_normal(signal.span(), rng, 0.0f, 1.0f);
  std::vector<BitVector> signs;
  Tensor g(d);
  for (std::size_t w = 0; w < m; ++w) {
    for (std::size_t i = 0; i < d; ++i) {
      g[i] = static_cast<float>(signal[i] * signal_weight + rng.normal());
    }
    signs.push_back(pack_signs(g.span()));
  }
  return aggregate_sign_sum(signs, true).elias_bits_per_element.back();
}

}  // namespace

int main(int argc, char** argv) {
  quiet_logs();
  const std::size_t d = arg_override(argc, argv, "--params", 1u << 16);

  print_header(
      "Ablation: Elias coding vs fixed-width sign-sums vs Marsit's one bit",
      {"baselines need ceil(log2(M+1))+1 bits/elem at the last hop; Elias "
       "helps only on weakly-correlated sums; Marsit is 1 bit always"});

  TextTable table({"M", "fixed", "Elias (uncorrelated)",
                   "Elias (correlated)", "hybrid min", "Marsit"});

  std::vector<std::string> failures;
  double previous_gap = 0.0;
  for (std::size_t m : {4u, 8u, 16u, 32u, 64u}) {
    Rng rng(60 + m);
    const double fixed = static_cast<double>(sign_sum_bits_per_element(m));
    const double elias_uncorr = measured_elias(m, d, 0.0, rng);
    const double elias_corr = measured_elias(m, d, 1.0, rng);
    const double hybrid = std::min({fixed, elias_uncorr, elias_corr});
    table.add_row({std::to_string(m), format_fixed(fixed, 0),
                   format_fixed(elias_uncorr, 2),
                   format_fixed(elias_corr, 2), format_fixed(hybrid, 2),
                   "1"});
    const std::string at = " at M = " + std::to_string(m);
    if (!(elias_uncorr < fixed && fixed < elias_corr)) {
      failures.push_back("Elias (uncorrelated) < fixed < Elias (correlated)" +
                         at);
    }
    if (!(hybrid > 1.0)) {  // the smallest of the baseline columns
      failures.push_back("every column above Marsit's 1 bit" + at);
    }
    const double gap = fixed - elias_uncorr;
    if (!(gap > previous_gap)) {
      failures.push_back("fixed - Elias (uncorrelated) grows with M" + at);
    }
    previous_gap = gap;
  }
  table.print(std::cout);
  std::cout << "\nshape check: on uncorrelated sums Elias beats the fixed "
               "width and the gap\ngrows with M; on correlated sums it "
               "loses; all columns stay far above\nMarsit's constant 1.\n";
  for (const std::string& failure : failures) {
    std::cout << "shape check FAILED: " << failure << "\n";
  }
  return failures.empty() ? 0 : 1;
}
