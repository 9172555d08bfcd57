// TraceSession — span recording on the *simulated* timeline, exportable as
// chrome://tracing JSON (see exporter.hpp), plus the per-round metrics
// stream the trainer publishes as JSONL.
//
// Span hierarchy (DESIGN.md §9):
//
//   round t                          track 0 ("trainer")
//   ├─ compute                       track 0
//   └─ sync                          track 0
//      ├─ reduce-scatter / …         track 0 ("phase" spans from the
//      │                             collective schedules)
//      └─ hop a→b                    track 1+a (one track per fabric node,
//                                    emitted by NetworkSim::transfer)
//   rejoin / corruption-demoted      instant events, track 0 (membership
//                                    faults, SyncStrategy::synchronize)
//
// Installation follows the same global-pointer pattern as the metrics
// enable flag: `TraceSession::install(&session)` makes `current()` non-null
// and every instrumentation site live; with no session installed the sites
// cost one relaxed atomic load.  Times are simulated seconds.
//
// The collective schedules and the network simulator run with
// collective-local clocks (every round starts at 0); the trainer publishes
// the round's global start through set_time_offset() so nested layers can
// place their spans on the global timeline (they add time_offset()
// explicitly — add_span itself never offsets).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_safety.hpp"

namespace marsit::obs {

struct TraceSpan {
  std::string name;
  /// Category: "round" | "compute" | "sync" | "phase" | "hop" | "rejoin" |
  /// "demote".
  std::string cat;
  double start_seconds = 0.0;
  /// == start_seconds for instant events.
  double end_seconds = 0.0;
  /// Chrome tid: 0 = trainer/schedule track, 1+n = fabric node n.
  std::uint32_t track = 0;
  bool instant = false;
};

/// One round's worth of scalar telemetry, streamed as one JSONL object.
/// Field order is preserved in the output.
struct RoundRecord {
  std::size_t round = 0;
  std::vector<std::pair<std::string, double>> fields;

  void set(std::string_view key, double value) {
    fields.emplace_back(key, value);
  }
};

class TraceSession {
 public:
  TraceSession() = default;
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void add_span(std::string name, std::string cat, double start_seconds,
                double end_seconds, std::uint32_t track);
  void add_instant(std::string name, std::string cat, double at_seconds,
                   std::uint32_t track);
  void add_round_record(RoundRecord record);

  /// Global simulated time of the current collective's local t=0.  Set by
  /// the trainer before each synchronize(); added explicitly by the
  /// collective-local emitters (timing schedules, NetworkSim).
  void set_time_offset(double seconds) {
    time_offset_.store(seconds, std::memory_order_relaxed);
  }
  double time_offset() const {
    return time_offset_.load(std::memory_order_relaxed);
  }

  std::vector<TraceSpan> spans() const;
  std::vector<RoundRecord> rounds() const;
  std::size_t span_count() const;
  std::size_t span_count(std::string_view cat) const;

  /// The installed session, or nullptr when tracing is off.
  static TraceSession* current() {
    return current_.load(std::memory_order_acquire);
  }
  /// Installs `session` (nullptr uninstalls).  A session must be
  /// uninstalled before it is destroyed; the destructor checks.
  static void install(TraceSession* session) {
    current_.store(session, std::memory_order_release);
  }

 private:
  mutable Mutex mu_;  // guards the recorded span / round streams
  std::vector<TraceSpan> spans_ MARSIT_GUARDED_BY(mu_);
  std::vector<RoundRecord> rounds_ MARSIT_GUARDED_BY(mu_);
  std::atomic<double> time_offset_{0.0};

  static std::atomic<TraceSession*> current_;
};

inline bool tracing_enabled() { return TraceSession::current() != nullptr; }

}  // namespace marsit::obs
