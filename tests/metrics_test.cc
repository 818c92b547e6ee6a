// MetricsRegistry: instrument identity and thread safety, log2 histogram
// bucketing, snapshot contents, and the JSON / Prometheus exports.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "net/json.h"

namespace sjos {
namespace {

TEST(MetricsTest, CounterConcurrentIncrements) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test_counter_total");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kIncrements);
}

TEST(MetricsTest, GaugeTracksSignedValue) {
  MetricsRegistry registry;
  Gauge& gauge = registry.GetGauge("test_gauge");
  gauge.Add(5);
  gauge.Sub(8);
  EXPECT_EQ(gauge.Value(), -3);
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
}

TEST(MetricsTest, InstrumentIdentityIsStable) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("same_name");
  Counter& b = registry.GetCounter("same_name");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  registry.Reset();
  // Reset zeroes values but never destroys instruments: cached references
  // stay valid.
  EXPECT_EQ(&registry.GetCounter("same_name"), &a);
  EXPECT_EQ(a.Value(), 0u);
}

TEST(MetricsTest, HistogramLog2Buckets) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test_hist");
  // Bucket 0 holds the value 0; bucket i (i >= 1) holds [2^(i-1), 2^i).
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(4);
  h.Observe(1023);
  h.Observe(1024);
  EXPECT_EQ(h.BucketCount(0), 1u);  // {0}
  EXPECT_EQ(h.BucketCount(1), 1u);  // {1}
  EXPECT_EQ(h.BucketCount(2), 2u);  // {2, 3}
  EXPECT_EQ(h.BucketCount(3), 1u);  // {4..7}
  EXPECT_EQ(h.BucketCount(10), 1u);  // {512..1023}
  EXPECT_EQ(h.BucketCount(11), 1u);  // {1024..2047}
  EXPECT_EQ(h.Count(), 7u);
  EXPECT_EQ(h.Sum(), 0u + 1 + 2 + 3 + 4 + 1023 + 1024);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            UINT64_MAX);
}

TEST(MetricsTest, HistogramConcurrentObserve) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test_hist_mt");
  constexpr int kThreads = 4;
  constexpr uint64_t kObservations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kObservations; ++i) h.Observe(i % 16);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), uint64_t{kThreads} * kObservations);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h.BucketCount(i);
  }
  EXPECT_EQ(bucket_total, h.Count());
}

TEST(MetricsTest, SnapshotAndJsonExport) {
  MetricsRegistry registry;
  registry.GetCounter("queries_total").Add(7);
  registry.GetGauge("queue_depth").Set(-2);
  registry.GetHistogram("batch_rows").Observe(100);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "queries_total");
  EXPECT_EQ(snap.counters[0].second, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -2);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].sum, 100u);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"queries_total\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_depth\":-2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"batch_rows\""), std::string::npos) << json;
}

// Labeled series are registered under names that contain quotes
// (family{k="v"}); the JSON export must escape them, or one labeled
// series makes the whole document unparseable.
TEST(MetricsTest, JsonExportOfLabeledSeriesParses) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total", {{"verb", "submit"}}).Add(3);
  registry.GetHistogram("latency_us", {{"path", "/metrics"}}).Observe(42);

  const std::string json = registry.Snapshot().ToJson();
  Result<net::JsonValue> parsed = net::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;

  const net::JsonValue* counters = parsed.value().Find("counters");
  ASSERT_NE(counters, nullptr) << json;
  const net::JsonValue* counter =
      counters->Find("requests_total{verb=\"submit\"}");
  ASSERT_NE(counter, nullptr) << json;
  EXPECT_EQ(counter->number_value(), 3.0);

  const net::JsonValue* histograms = parsed.value().Find("histograms");
  ASSERT_NE(histograms, nullptr) << json;
  const net::JsonValue* histogram =
      histograms->Find("latency_us{path=\"/metrics\"}");
  ASSERT_NE(histogram, nullptr) << json;
  ASSERT_NE(histogram->Find("count"), nullptr) << json;
  EXPECT_EQ(histogram->Find("count")->number_value(), 1.0);
}

TEST(MetricsTest, PrometheusExport) {
  MetricsRegistry registry;
  registry.GetCounter("sjos_demo_total").Add(3);
  Histogram& h = registry.GetHistogram("sjos_demo_rows");
  h.Observe(1);
  h.Observe(5);

  const std::string text = registry.Snapshot().ToPrometheus();
  EXPECT_NE(text.find("# TYPE sjos_demo_total counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("sjos_demo_total 3"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE sjos_demo_rows histogram"), std::string::npos)
      << text;
  // Buckets are cumulative and end with +Inf; count and sum follow.
  EXPECT_NE(text.find("sjos_demo_rows_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sjos_demo_rows_sum 6"), std::string::npos) << text;
  EXPECT_NE(text.find("sjos_demo_rows_count 2"), std::string::npos) << text;
}

TEST(MetricsTest, HistogramQuantileEstimation) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("sjos_demo_latency");

  // Empty histogram: every quantile is 0.
  EXPECT_EQ(registry.Snapshot().histograms[0].Quantile(0.5), 0.0);

  // 100 observations of 0..99: the log2 buckets bound the estimate, and
  // quantiles must be monotone in q.
  for (uint64_t v = 0; v < 100; ++v) h.Observe(v);
  const MetricsSnapshot::HistogramData data =
      registry.Snapshot().histograms[0];
  const double p50 = data.Quantile(0.50);
  const double p95 = data.Quantile(0.95);
  const double p99 = data.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // True p50 is ~50; the rank-50 bucket is [32, 64), so the interpolated
  // estimate must land inside it.
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 64.0);
  // True p95 is ~95, inside [64, 128) — clipped to the observed range's
  // bucket.
  EXPECT_GE(p95, 64.0);
  EXPECT_LE(p95, 128.0);
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_EQ(data.Quantile(-1.0), data.Quantile(0.0));
  EXPECT_EQ(data.Quantile(2.0), data.Quantile(1.0));

  // A single-valued histogram estimates that value's bucket regardless
  // of q.
  Histogram& point = registry.GetHistogram("sjos_demo_point");
  for (int i = 0; i < 10; ++i) point.Observe(7);
  const MetricsSnapshot snap = registry.Snapshot();
  for (const MetricsSnapshot::HistogramData& hd : snap.histograms) {
    if (hd.name != "sjos_demo_point") continue;
    // 7 lives in bucket [4, 8).
    EXPECT_GE(hd.Quantile(0.01), 4.0);
    EXPECT_LE(hd.Quantile(0.99), 8.0);
  }
}

TEST(MetricsTest, CounterValuesIsNameOrderedAndCountersOnly) {
  MetricsRegistry registry;
  registry.GetCounter("zeta_total").Add(2);
  registry.GetCounter("alpha_total").Add(1);
  registry.GetGauge("some_gauge").Set(5);
  registry.GetHistogram("some_hist").Observe(1);

  const std::vector<std::pair<std::string, uint64_t>> values =
      registry.CounterValues();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].first, "alpha_total");
  EXPECT_EQ(values[0].second, 1u);
  EXPECT_EQ(values[1].first, "zeta_total");
  EXPECT_EQ(values[1].second, 2u);
}

TEST(MetricsTest, GlobalRegistryCollectsExecutionMetrics) {
  // The process-wide registry exists and its instruments survive Reset;
  // subsystem wiring is exercised end to end by the executor tests.
  Counter& c = MetricsRegistry::Global().GetCounter("metrics_test_probe");
  c.Add(1);
  EXPECT_GE(c.Value(), 1u);
}

}  // namespace
}  // namespace sjos
