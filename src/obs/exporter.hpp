// Writers that turn a recorded TraceSession into files:
//
//   * write_chrome_trace — chrome://tracing / Perfetto-loadable JSON.  One
//     complete ("ph":"X") event per span with microsecond timestamps on the
//     simulated timeline, instant ("ph":"i") events for markers, thread_name
//     metadata naming the tracks, and two non-standard top-level keys
//     chrome ignores: "roundMetrics" (the per-round records) and "metrics"
//     (a scrape of the global MetricsRegistry at export time);
//
//   * write_round_jsonl — the per-round metrics stream, one JSON object per
//     line in record order (field order preserved).  This is the
//     machine-readable side: summing the stream's `wire_bits` reproduces
//     TrainResult::total_wire_bits exactly.
//
// ScopedTrace writes both files for the example binaries' `--trace` flag.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/trace.hpp"

namespace marsit::obs {

/// Writes the session's spans as a chrome://tracing JSON object.
void write_chrome_trace(const TraceSession& session, std::ostream& out);

/// Writes the session's round records as JSONL (one object per line).
void write_round_jsonl(const TraceSession& session, std::ostream& out);

/// `--trace <path>` support for the example binaries: when the flag is
/// present, construction installs a TraceSession and enables the global
/// metrics registry; destruction exports the chrome trace to <path>, the
/// per-round JSONL stream to <path>.jsonl, and uninstalls.  Without the
/// flag the stack runs exactly as before (tracing off, metrics off).
class ScopedTrace {
 public:
  ScopedTrace(int argc, char** argv);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  bool active() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  TraceSession& session() { return session_; }

 private:
  TraceSession session_;
  std::string path_;
};

}  // namespace marsit::obs
