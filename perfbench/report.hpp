// What one benchmark run reports: the correctness gate's round accounting
// and the named metrics, printed as the single JSON object on the last line
// of standard output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  /// Rounds run.  A run with any problem — digest or volume mismatch, rank
  /// failure, watchdog timeout — counts all of them failed.
  std::uint64_t attempted = 0;
  /// Why the correctness gate failed, for the log; empty when it passed.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  /// Sample count behind each percentile metric, for the log line.
  std::vector<std::pair<std::string, std::size_t>> sample_counts;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& problem) { problems.push_back(problem); }
  void count(const std::string& what, std::size_t samples) {
    sample_counts.emplace_back(what, samples);
  }
};

/// Options of one invocation (see main.cpp for the command line).
struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  /// Self-test hook: corrupt the reference digest so every episode
  /// mismatches and the gate must fail all rounds.
  bool inject_digest_mismatch = false;
  /// Where the traced run writes its merged timeline ("" = nowhere).
  std::string trace_dir;
};

/// Prints the sample counts and problems as log lines, then the result
/// object as the last line of standard output.
void print_outcome(const Outcome& outcome);

}  // namespace perfbench
