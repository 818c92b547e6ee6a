// Process-wide metrics: counters, gauges, and log2-bucketed histograms
// behind a thread-safe registry, snapshot-able and exportable as JSON and
// Prometheus text. Instruments are created once (first GetX call) and live
// for the registry's lifetime, so call sites cache the returned reference
// and update it with a single relaxed atomic operation — cheap enough for
// per-batch and per-task paths.
//
// Naming scheme (see DESIGN.md §7): `sjos_<area>_<noun>[_total|_us|_rows]`
// with `_total` for monotonic counters, histograms named after the
// observed quantity. Reset() zeroes values but never destroys instruments,
// so cached references stay valid across test cases.

#ifndef SJOS_COMMON_METRICS_H_
#define SJOS_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sjos {

/// Escapes a Prometheus label value: backslash, double quote, and newline
/// become \\, \", and \n.
std::string EscapeLabelValue(std::string_view value);

/// Renders a labeled series name, `family{k1="v1",k2="v2"}`, with the
/// values escaped. Labeled instruments are registered under this full name
/// (the registry itself is label-agnostic); the Prometheus exporter groups
/// every series of a family under one TYPE line. An empty label list
/// returns the bare family name.
std::string SeriesName(
    std::string_view family,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// Splits a registered series name into its family and the label block
/// between the braces ("" when unlabeled).
void SplitSeriesName(std::string_view series, std::string_view* family,
                     std::string_view* labels);

/// Checks `text` against the Prometheus text exposition grammar: line
/// shapes, metric/label name charsets, label-value escaping, HELP/TYPE
/// appearing at most once per family and before its samples, family
/// contiguity, no duplicate series, and histogram structure (_bucket/_sum/
/// _count only, ascending cumulative `le` buckets ending at +Inf). Returns
/// InvalidArgument naming the first offending line. Scrape breakage is
/// caught in-tree by running every export through this.
Status ValidatePrometheusText(std::string_view text);

/// Monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed value (queue depths, in-flight work).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Sub(int64_t delta) {
    value_.fetch_sub(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed histogram over uint64 observations: bucket 0 counts the
/// value 0 and bucket i (i >= 1) counts values in [2^(i-1), 2^i). 65
/// buckets cover the whole uint64 range; count and sum are tracked too.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  void Observe(uint64_t value);
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i (UINT64_MAX for the last bucket).
  static uint64_t BucketUpperBound(size_t i);
  void ResetForTest();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Point-in-time copy of every registered instrument.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    /// Non-empty buckets only, as (inclusive upper bound, count) pairs in
    /// ascending bound order.
    std::vector<std::pair<uint64_t, uint64_t>> buckets;

    /// Estimated q-quantile (q in [0, 1]) of the observed values: locates
    /// the bucket holding the target rank and interpolates linearly within
    /// the bucket's value range, so the error is bounded by the log2 bucket
    /// width. Returns 0 for an empty histogram; q outside [0, 1] clamps.
    double Quantile(double q) const;
  };

  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramData> histograms;
  /// (family, help text) pairs registered via MetricsRegistry::SetHelp.
  std::vector<std::pair<std::string, std::string>> helps;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
  /// Prometheus text exposition format (counters, gauges, and cumulative
  /// histogram buckets with `le` labels).
  std::string ToPrometheus() const;
};

/// Thread-safe instrument registry. Use Global() for process metrics;
/// separate instances exist only for registry-level tests.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Finds or creates the named instrument. The reference stays valid (and
  /// keeps its identity) for the registry's lifetime — cache it.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Labeled variants: the instrument is registered under
  /// SeriesName(family, labels), so distinct label values are distinct
  /// series of one exported family.
  Counter& GetCounter(
      std::string_view family,
      std::initializer_list<std::pair<std::string_view, std::string_view>>
          labels) {
    return GetCounter(SeriesName(family, labels));
  }
  Gauge& GetGauge(
      std::string_view family,
      std::initializer_list<std::pair<std::string_view, std::string_view>>
          labels) {
    return GetGauge(SeriesName(family, labels));
  }
  Histogram& GetHistogram(
      std::string_view family,
      std::initializer_list<std::pair<std::string_view, std::string_view>>
          labels) {
    return GetHistogram(SeriesName(family, labels));
  }

  /// Registers (or replaces) the HELP text exported for `family`. Help is
  /// per family, not per series; newlines and backslashes are escaped on
  /// export.
  void SetHelp(std::string_view family, std::string_view help);

  MetricsSnapshot Snapshot() const;

  /// Counters-only snapshot, (series name, value) in name order. Much
  /// cheaper than Snapshot(): no histogram bucket walk.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;

  /// Zeroes every instrument without destroying it.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> helps_;
};

}  // namespace sjos

#endif  // SJOS_COMMON_METRICS_H_
