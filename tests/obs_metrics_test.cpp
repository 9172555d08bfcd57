// MetricsRegistry: registration, per-kind publish semantics, concurrent
// publishers, the disabled fast path, and histogram bucket geometry.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace marsit::obs {
namespace {

TEST(MetricsRegistryTest, RegisterIsIdempotentPerName) {
  MetricsRegistry registry;
  const auto id = registry.register_metric("a.counter", MetricKind::kCounter);
  EXPECT_EQ(registry.register_metric("a.counter", MetricKind::kCounter), id);
  EXPECT_NE(registry.register_metric("a.other", MetricKind::kCounter), id);
  EXPECT_EQ(registry.metric_count(), 2u);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.register_metric("a.counter", MetricKind::kCounter);
  EXPECT_THROW(registry.register_metric("a.counter", MetricKind::kGauge),
               CheckError);
}

TEST(MetricsRegistryTest, RegistersAndPublishesTwoHundredMetrics) {
  // No fixed capacity: every registered metric keeps its own slot.
  constexpr std::size_t kMetrics = 200;
  MetricsRegistry registry;
  registry.set_enabled(true);
  const MetricKind kinds[] = {MetricKind::kCounter, MetricKind::kGauge,
                              MetricKind::kHistogram};
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kMetrics; ++i) {
    // Append, not operator+: gcc 12's -Wrestrict misfires when it inlines
    // libstdc++'s operator+(const char*, string&&) here.
    std::string& name = names.emplace_back("m");
    name += std::to_string(i);
    const auto id = registry.register_metric(name, kinds[i % 3]);
    ASSERT_EQ(id, i);
    const auto value = static_cast<double>(i + 1);
    switch (kinds[i % 3]) {
      case MetricKind::kCounter:
        registry.add(id, value);
        break;
      case MetricKind::kGauge:
        registry.set(id, value);
        break;
      case MetricKind::kHistogram:
        registry.observe(id, value);
        break;
    }
  }
  const std::vector<MetricSnapshot> snaps = registry.scrape();
  ASSERT_EQ(snaps.size(), kMetrics);
  for (std::size_t i = 0; i < kMetrics; ++i) {
    EXPECT_EQ(snaps[i].name, names[i]);
    EXPECT_EQ(snaps[i].kind, kinds[i % 3]);
    EXPECT_EQ(snaps[i].value, static_cast<double>(i + 1)) << snaps[i].name;
    EXPECT_EQ(snaps[i].count, 1u) << snaps[i].name;
  }
}

TEST(MetricsRegistryTest, CounterAccumulates) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  const auto id = registry.register_metric("c", MetricKind::kCounter);
  registry.add(id, 2.0);
  registry.add(id, 0.5);
  const MetricSnapshot snap = registry.find("c");
  EXPECT_EQ(snap.kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snap.value, 2.5);
  EXPECT_EQ(snap.count, 2u);
}

TEST(MetricsRegistryTest, GaugeIsLastWriterWins) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  const auto id = registry.register_metric("g", MetricKind::kGauge);
  registry.set(id, 7.0);
  registry.set(id, 3.0);
  const MetricSnapshot snap = registry.find("g");
  EXPECT_DOUBLE_EQ(snap.value, 3.0);
  EXPECT_EQ(snap.count, 2u);
}

TEST(MetricsRegistryTest, HistogramTracksSumCountExtremaAndBuckets) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  const auto id = registry.register_metric("h", MetricKind::kHistogram);
  registry.observe(id, 1.0);
  registry.observe(id, 4.0);
  registry.observe(id, 0.25);
  const MetricSnapshot snap = registry.find("h");
  EXPECT_DOUBLE_EQ(snap.value, 5.25);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.min, 0.25);
  EXPECT_DOUBLE_EQ(snap.max, 4.0);
  ASSERT_EQ(snap.buckets.size(), kHistogramBuckets);
  std::uint64_t total = 0;
  for (const std::uint64_t b : snap.buckets) {
    total += b;
  }
  EXPECT_EQ(total, 3u);
  // The three observations land in distinct power-of-two buckets.
  EXPECT_EQ(snap.buckets[histogram_bucket(1.0)], 1u);
  EXPECT_EQ(snap.buckets[histogram_bucket(4.0)], 1u);
  EXPECT_EQ(snap.buckets[histogram_bucket(0.25)], 1u);
}

TEST(MetricsRegistryTest, BucketGeometry) {
  // Bucket floors are powers of two; each value lands in the bucket whose
  // floor is the largest power of two ≤ value.
  for (double v : {1e-9, 0.125, 1.0, 3.9, 1024.0}) {
    const std::size_t b = histogram_bucket(v);
    ASSERT_LT(b, kHistogramBuckets);
    EXPECT_LE(histogram_bucket_floor(b), v);
    if (b + 1 < kHistogramBuckets) {
      EXPECT_GT(histogram_bucket_floor(b + 1), v);
    }
  }
  // Non-positive values land in bucket 0 rather than throwing.
  EXPECT_EQ(histogram_bucket(0.0), 0u);
  EXPECT_EQ(histogram_bucket(-5.0), 0u);
}

TEST(MetricsRegistryTest, DisabledPublishesAreDropped) {
  MetricsRegistry registry;
  const auto c = registry.register_metric("c", MetricKind::kCounter);
  const auto g = registry.register_metric("g", MetricKind::kGauge);
  const auto h = registry.register_metric("h", MetricKind::kHistogram);
  registry.add(c, 1.0);
  registry.set(g, 1.0);
  registry.observe(h, 1.0);
  EXPECT_EQ(registry.find("c").count, 0u);
  EXPECT_EQ(registry.find("g").count, 0u);
  EXPECT_EQ(registry.find("h").count, 0u);
}

TEST(MetricsRegistryTest, ConcurrentPublishersSumExactly) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  const auto c = registry.register_metric("c", MetricKind::kCounter);
  const auto h = registry.register_metric("h", MetricKind::kHistogram);
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, c, h] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        registry.add(c, 1.0);
        registry.observe(h, 2.0);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Small integers add exactly in any order, so no publish may be lost.
  constexpr auto kPublishes = static_cast<std::uint64_t>(kThreads) *
                              static_cast<std::uint64_t>(kAddsPerThread);
  const MetricSnapshot counter = registry.find("c");
  EXPECT_EQ(counter.value, static_cast<double>(kPublishes));
  EXPECT_EQ(counter.count, kPublishes);
  const MetricSnapshot histogram = registry.find("h");
  EXPECT_EQ(histogram.value, 2.0 * static_cast<double>(kPublishes));
  EXPECT_EQ(histogram.count, kPublishes);
  EXPECT_EQ(histogram.buckets[histogram_bucket(2.0)], kPublishes);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  const auto c = registry.register_metric("c", MetricKind::kCounter);
  registry.add(c, 5.0);
  registry.reset();
  EXPECT_EQ(registry.metric_count(), 1u);
  EXPECT_DOUBLE_EQ(registry.find("c").value, 0.0);
  EXPECT_EQ(registry.find("c").count, 0u);
  registry.add(c, 1.0);  // still publishable after reset
  EXPECT_DOUBLE_EQ(registry.find("c").value, 1.0);
}

TEST(MetricsRegistryTest, FindUnregisteredReturnsEmptySnapshot) {
  MetricsRegistry registry;
  const MetricSnapshot snap = registry.find("nope");
  EXPECT_TRUE(snap.name.empty());
  EXPECT_EQ(snap.count, 0u);
}

TEST(MetricsRegistryTest, ScrapePreservesRegistrationOrder) {
  MetricsRegistry registry;
  registry.register_metric("z.last", MetricKind::kCounter);
  registry.register_metric("a.first", MetricKind::kGauge);
  const auto snaps = registry.scrape();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].name, "z.last");
  EXPECT_EQ(snaps[1].name, "a.first");
}

TEST(MetricsHandleTest, HandlesPublishToGlobalOnlyWhenEnabled) {
  auto& global = MetricsRegistry::global();
  global.reset();
  set_metrics_enabled(false);
  const Counter counter("obs_test.handle_counter");
  const Gauge gauge("obs_test.handle_gauge");
  const Histogram histogram("obs_test.handle_histogram");
  counter.increment();
  gauge.set(9.0);
  histogram.observe(1.5);
  EXPECT_EQ(global.find("obs_test.handle_counter").count, 0u);

  set_metrics_enabled(true);
  counter.add(2.0);
  gauge.set(4.0);
  histogram.observe(0.5);
  set_metrics_enabled(false);
  EXPECT_DOUBLE_EQ(global.value("obs_test.handle_counter"), 2.0);
  EXPECT_DOUBLE_EQ(global.value("obs_test.handle_gauge"), 4.0);
  EXPECT_EQ(global.find("obs_test.handle_histogram").count, 1u);
  global.reset();
}

}  // namespace
}  // namespace marsit::obs
