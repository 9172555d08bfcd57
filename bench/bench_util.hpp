// Shared plumbing for the table/figure reproduction benches.
//
// Every bench binary prints (a) the paper's expectation for the experiment
// it regenerates and (b) the measured rows, through TextTable, so the output
// is directly comparable to the paper (EXPERIMENTS.md records the
// comparison).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
// marsit-lint: allow(header-hygiene): bench mains print via std::cout and
// this is their shared, bench-only helper header — no library includes it.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/sync_strategy.hpp"
#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "sim/trainer.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace marsit::bench {

/// Ring SyncConfig with the repo-wide default cost model.
inline SyncConfig ring_config(std::size_t workers, std::uint64_t seed = 2022) {
  SyncConfig config;
  config.num_workers = workers;
  config.paradigm = MarParadigm::kRing;
  config.seed = seed;
  return config;
}

inline SyncConfig torus_config(std::size_t rows, std::size_t cols,
                               std::uint64_t seed = 2022) {
  SyncConfig config;
  config.num_workers = rows * cols;
  config.paradigm = MarParadigm::kTorus2d;
  config.torus_rows = rows;
  config.torus_cols = cols;
  config.seed = seed;
  return config;
}

/// The six methods of Table 2 / Figures 4 and 5, in paper order.
struct MethodSpec {
  std::string label;
  SyncMethod method;
  std::size_t full_precision_period = 0;  // Marsit's K
};

inline std::vector<MethodSpec> paper_method_lineup() {
  return {
      {"PSGD", SyncMethod::kPsgd, 0},
      {"signSGD", SyncMethod::kSignSgdMv, 0},
      {"EF-signSGD", SyncMethod::kEfSignSgd, 0},
      {"SSDM", SyncMethod::kSsdm, 0},
      {"Marsit-100", SyncMethod::kMarsit, 100},
      {"Marsit", SyncMethod::kMarsit, 0},
  };
}

inline std::unique_ptr<SyncStrategy> build_method(const MethodSpec& spec,
                                                  SyncConfig config,
                                                  float eta_s) {
  MethodOptions options;
  options.eta_s = eta_s;
  options.full_precision_period = spec.full_precision_period;
  return make_sync_strategy(spec.method, config, options);
}

/// Prints a section header followed by the paper's expectation line(s).
inline void print_header(const std::string& title,
                         const std::vector<std::string>& paper_notes) {
  std::cout << "\n=== " << title << " ===\n";
  for (const auto& note : paper_notes) {
    std::cout << "paper: " << note << "\n";
  }
  std::cout << "\n";
}

/// Parses an optional positive-integer CLI override (bench binaries accept
/// `--rounds N` style scaling so CI can run them shorter).
inline std::size_t arg_override(int argc, char** argv, const std::string& key,
                                std::size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == key) {
      const long value = std::atol(argv[i + 1]);
      if (value > 0) {
        return static_cast<std::size_t>(value);
      }
    }
  }
  return fallback;
}

/// Prints one of a figure's shape checks and returns whether it holds; a
/// figure bench exits 1 when any of its checks fails.
inline bool shape_check(const std::string& claim, bool holds) {
  std::cout << "shape check: " << claim << (holds ? ": ok" : ": FAILED")
            << "\n";
  return holds;
}

inline void quiet_logs() { set_log_level(LogLevel::kWarning); }

}  // namespace marsit::bench
