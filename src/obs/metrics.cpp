#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace marsit::obs {

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

std::size_t histogram_bucket(double value) {
  if (!(value > 0.0)) {
    return 0;  // non-positive (and NaN) values land in the first bucket
  }
  int exp = 0;
  std::frexp(value, &exp);  // value = frac * 2^exp, frac in [0.5, 1)
  const long index = static_cast<long>(exp) - 1 - kHistogramMinExp;
  if (index < 0) {
    return 0;
  }
  if (index >= static_cast<long>(kHistogramBuckets)) {
    return kHistogramBuckets - 1;
  }
  return static_cast<std::size_t>(index);
}

double histogram_bucket_floor(std::size_t index) {
  MARSIT_CHECK(index < kHistogramBuckets) << "bucket " << index
                                          << " out of range";
  return std::ldexp(1.0, static_cast<int>(index) + kHistogramMinExp);
}

MetricsRegistry::Id MetricsRegistry::register_metric(std::string_view name,
                                                     MetricKind kind) {
  MARSIT_CHECK(!name.empty()) << "metric name must be non-empty";
  const MutexLock lock(mu_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].name == name) {
      MARSIT_CHECK(slots_[i].kind == kind)
          << "metric '" << slots_[i].name << "' re-registered as "
          << metric_kind_name(kind) << ", was "
          << metric_kind_name(slots_[i].kind);
      return static_cast<Id>(i);
    }
  }
  MetricSnapshot& added = slots_.emplace_back();
  added.name = name;
  added.kind = kind;
  if (kind == MetricKind::kHistogram) {
    added.buckets.assign(kHistogramBuckets, 0);
  }
  return static_cast<Id>(slots_.size() - 1);
}

MetricSnapshot& MetricsRegistry::slot(Id id) {
  MARSIT_CHECK(id < slots_.size()) << "metric id " << id << " out of range";
  return slots_[id];
}

void MetricsRegistry::add(Id id, double delta) {
  if (!enabled()) {
    return;
  }
  const MutexLock lock(mu_);
  MetricSnapshot& metric = slot(id);
  metric.value += delta;
  ++metric.count;
}

void MetricsRegistry::set(Id id, double value) {
  if (!enabled()) {
    return;
  }
  const MutexLock lock(mu_);
  MetricSnapshot& metric = slot(id);
  metric.value = value;
  ++metric.count;
}

void MetricsRegistry::observe(Id id, double value) {
  if (!enabled()) {
    return;
  }
  const MutexLock lock(mu_);
  MetricSnapshot& metric = slot(id);
  MARSIT_CHECK(metric.kind == MetricKind::kHistogram)
      << "metric '" << metric.name << "' is not a histogram";
  if (metric.count == 0) {
    metric.min = value;
    metric.max = value;
  } else {
    metric.min = std::min(metric.min, value);
    metric.max = std::max(metric.max, value);
  }
  metric.value += value;
  ++metric.count;
  ++metric.buckets[histogram_bucket(value)];
}

std::vector<MetricSnapshot> MetricsRegistry::scrape() const {
  const MutexLock lock(mu_);
  return slots_;
}

MetricSnapshot MetricsRegistry::find(std::string_view name) const {
  const MutexLock lock(mu_);
  for (const MetricSnapshot& metric : slots_) {
    if (metric.name == name) {
      return metric;
    }
  }
  return {};
}

void MetricsRegistry::reset() {
  const MutexLock lock(mu_);
  for (MetricSnapshot& metric : slots_) {
    metric.value = 0.0;
    metric.count = 0;
    metric.min = 0.0;
    metric.max = 0.0;
    std::fill(metric.buckets.begin(), metric.buckets.end(), 0);
  }
}

std::size_t MetricsRegistry::metric_count() const {
  const MutexLock lock(mu_);
  return slots_.size();
}

MetricsRegistry& MetricsRegistry::global() {
  // marsit-lint: allow(concurrency-discipline): function-local static with a
  // thread-safe magic-statics init; the registry itself locks mu_ internally
  // and is deliberately leaked so publishing threads may outlive main().
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return *registry;
}

}  // namespace marsit::obs
