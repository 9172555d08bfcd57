#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

void print_outcome(const Outcome& outcome) {
  for (const auto& [what, samples] : outcome.sample_counts) {
    std::printf("samples %s: %zu\n", what.c_str(), samples);
  }
  for (const std::string& problem : outcome.problems) {
    std::printf("FAILED: %s\n", problem.c_str());
  }
  const bool correct = outcome.problems.empty();
  const std::uint64_t failed = correct ? 0 : outcome.attempted;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    // JSON has no NaN/Inf; a metric that could not be formed reads 0.
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(), value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
