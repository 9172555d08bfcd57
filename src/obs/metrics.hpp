// MetricsRegistry — named counters / gauges / histograms for the whole
// stack, designed around two constraints:
//
//   * **zero-cost when disabled** (the default): every publish helper first
//     reads one relaxed atomic flag and returns; no allocation, no lock.
//     Instrumented hot paths (NetworkSim::transfer, SyncStrategy::synchronize,
//     the trainer loop) therefore stay bit-identical — the instrumentation
//     never touches values or RNG streams, only observes them;
//
//   * **one mutex when enabled**: each metric is one slot under the
//     registry mutex, and a publish locks it for a few adds.  No pool task
//     publishes (every instrumentation site sits outside the parallel_for
//     bodies), so only threads that each drive a whole round — one per rank
//     in an in-process multi-rank run — ever share the lock.
//
// Metric kinds:
//   counter   — monotonically accumulating double (wire bits, retries);
//   gauge     — last-writer-wins value (active workers, compensation norm);
//   histogram — log2-bucketed distribution with sum/count/min/max
//               (per-hop latencies, round completion times).
//
// Metric names are dot-separated lowercase paths ("sync.wire_bits") —
// DESIGN.md §9 lists every name the stack publishes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_safety.hpp"

namespace marsit::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* metric_kind_name(MetricKind kind);

/// Histogram geometry: power-of-two buckets.  Bucket i counts values in
/// [2^(i + kHistogramMinExp), 2^(i + 1 + kHistogramMinExp)); values below
/// the first floor land in bucket 0, values at or above the last in the
/// final bucket.  With kMinExp = -40 and 64 buckets the range spans ~1e-12
/// (picosecond-scale simulated latencies) to ~1.7e7.
constexpr int kHistogramMinExp = -40;
constexpr std::size_t kHistogramBuckets = 64;

/// Bucket index for `value` (values <= 0 land in bucket 0).
std::size_t histogram_bucket(double value);
/// Inclusive lower bound of bucket `index`.
double histogram_bucket_floor(std::size_t index);

/// One metric's state; scrape() returns copies.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter total or gauge value; histogram sum of observations.
  double value = 0.0;
  /// Publish count (counter adds / gauge sets / histogram observations).
  std::uint64_t count = 0;
  double min = 0.0;  // histogram only
  double max = 0.0;  // histogram only
  /// kHistogramBuckets entries for histograms, empty otherwise.
  std::vector<std::uint64_t> buckets;
};

class MetricsRegistry {
 public:
  using Id = std::uint32_t;

  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or looks up) `name`.  Re-registering an existing name with
  /// the same kind returns the existing id; a kind mismatch throws.
  Id register_metric(std::string_view name, MetricKind kind);

  /// Publishing.  All are no-ops while the registry is disabled; when
  /// enabled they update the metric's slot under the registry mutex.
  void add(Id id, double delta);
  void set(Id id, double value);
  void observe(Id id, double value);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Every metric's snapshot, in registration order.
  std::vector<MetricSnapshot> scrape() const;

  /// Snapshot of one metric by name; a zeroed snapshot with an empty name
  /// when unregistered.  Convenience for tests and exporters.
  MetricSnapshot find(std::string_view name) const;

  /// Counter/gauge value by name (0 when unregistered).
  double value(std::string_view name) const { return find(name).value; }

  /// Zeroes every metric, keeping registrations.
  void reset();

  std::size_t metric_count() const;

  /// The process-wide registry every instrumentation site publishes into.
  static MetricsRegistry& global();

 private:
  /// The slot of a registered id (checked).
  MetricSnapshot& slot(Id id) MARSIT_REQUIRES(mu_);

  std::atomic<bool> enabled_{false};

  mutable Mutex mu_;  // guards every slot and the registration list
  std::vector<MetricSnapshot> slots_ MARSIT_GUARDED_BY(mu_);
};

inline bool metrics_enabled() { return MetricsRegistry::global().enabled(); }
inline void set_metrics_enabled(bool enabled) {
  MetricsRegistry::global().set_enabled(enabled);
}

/// Typed handles binding a name in the global registry at construction.
/// Instrumentation sites declare them `static const` so registration runs
/// once; publishing is enabled-gated and therefore free when off.
class Counter {
 public:
  explicit Counter(std::string_view name)
      : id_(MetricsRegistry::global().register_metric(name,
                                                      MetricKind::kCounter)) {}
  void add(double delta) const {
    auto& registry = MetricsRegistry::global();
    if (registry.enabled()) {
      registry.add(id_, delta);
    }
  }
  void increment() const { add(1.0); }

 private:
  MetricsRegistry::Id id_;
};

class Gauge {
 public:
  explicit Gauge(std::string_view name)
      : id_(MetricsRegistry::global().register_metric(name,
                                                      MetricKind::kGauge)) {}
  void set(double value) const {
    auto& registry = MetricsRegistry::global();
    if (registry.enabled()) {
      registry.set(id_, value);
    }
  }

 private:
  MetricsRegistry::Id id_;
};

class Histogram {
 public:
  explicit Histogram(std::string_view name)
      : id_(MetricsRegistry::global().register_metric(
            name, MetricKind::kHistogram)) {}
  void observe(double value) const {
    auto& registry = MetricsRegistry::global();
    if (registry.enabled()) {
      registry.observe(id_, value);
    }
  }

 private:
  MetricsRegistry::Id id_;
};

}  // namespace marsit::obs
