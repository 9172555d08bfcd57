// Plain-text table formatting for the benchmark harness.  Every bench binary
// that reproduces a paper table/figure prints its rows through TextTable so
// the output is aligned, diffable, and optionally written as CSV for
// downstream plotting.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace marsit {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders with aligned columns, a header underline, and 2-space gutters.
  void print(std::ostream& out) const;

  /// Renders as RFC-4180-ish CSV (values containing commas/quotes quoted).
  void print_csv(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision float formatting ("12.34"); benches use it so table cells
/// are stable across libstdc++ versions.
std::string format_fixed(double value, int decimals);

/// Scientific notation ("3.8e+22") for quantities spanning many decades
/// (e.g. the cascading-compression deviation of Theorem 3).
std::string format_scientific(double value, int decimals = 2);

/// Human-readable byte/bit counts: "1.5 GB", "312 MB", "8.0 Kb"...
std::string format_bytes(double bytes);

/// Seconds to "12.3 s" / "4.1 min" / "710 ms" as magnitude dictates.
std::string format_duration(double seconds);

}  // namespace marsit
