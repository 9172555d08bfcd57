// perfbench — wall-clock benchmark of the Marsit round.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR] [--inject-digest-mismatch]
//
// Runs one workload for S seconds of measured training and prints, as the
// last line of standard output, one JSON object: the correctness gate's
// verdict, rounds attempted and failed, and the metrics — the end-to-end
// set untraced, the per-layer set with --trace 1.  run.py builds this
// binary and is the command to use; README.md describes every metric.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "runs.hpp"
#include "util/logging.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] "
               "[--inject-digest-mismatch]\n",
               message);
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-digest-mismatch") {
      options.inject_digest_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = find_workload(value);
      if (options.workload == nullptr) {
        return usage(("unknown workload " + std::string(value)).c_str());
      }
    } else if (flag == "--seed" && parse_number(value, number) &&
               number >= 0) {
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" && parse_number(value, number) &&
               number > 0 && number <= 120) {
      options.seconds = number;
    } else if (flag == "--trace" && (std::string(value) == "0" ||
                                     std::string(value) == "1")) {
      options.traced = std::string(value) == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (options.workload == nullptr || !have_seed) {
    return usage("--workload and --seed are required");
  }
  // A rank that dies mid-write must surface as a failed write, not kill
  // the writer; children inherit this.
  std::signal(SIGPIPE, SIG_IGN);
  marsit::set_log_level(marsit::LogLevel::kWarning);
  try {
    const Outcome outcome = options.workload->in_process
                                ? run_sim_workload(options)
                                : run_socket_workload(options);
    print_outcome(outcome);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
