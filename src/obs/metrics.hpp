// Metrics plane (DESIGN.md §observability): counters, gauges, and
// log-bucketed histograms behind one registry, snapshotted per node.
//
// Hot-path updates are single relaxed atomic operations — metric objects
// are created once (registry lookup under a mutex, cold) and then held by
// reference, so recording costs one fetch_add with no allocation and no
// lock. Histograms bucket by powers of two (bucket k covers [2^(k-1), 2^k)
// for k >= 1; bucket 0 is exactly {0}), which makes p50/p95/p99 extraction
// a cumulative walk with log-linear interpolation inside the hit bucket —
// coarse by design (buckets are exact-count, percentiles are estimates with
// bounded relative error <= 2x) and O(64) memory per histogram forever.
//
// The registry is the single naming authority for the runtime's stats: the
// finite-run and streaming paths and the multi-stream front door all fold
// into the same canonical metric names (runtime/serve.cpp and
// serve/stream_server.cpp share fold_data_plane_metrics), so dashboards
// and tests never chase per-path field drift again.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace de::obs {

class Counter {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() { add(1); }
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }
  double value() const {
    return unpack(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t pack(double v) {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double unpack(std::uint64_t b) {
    double v;
    __builtin_memcpy(&v, &b, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

inline constexpr std::size_t kHistogramBuckets = 64;

/// Percentile-ready view of one histogram at snapshot time.
struct HistogramSnapshot {
  std::array<std::int64_t, kHistogramBuckets> counts{};
  std::int64_t count = 0;  ///< total samples
  std::int64_t sum = 0;    ///< exact sum of samples

  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
  /// Estimated value at quantile p in [0, 1] (0.5 = p50). Exact for bucket
  /// 0 (zeros); elsewhere linearly interpolated within the hit bucket's
  /// [2^(k-1), 2^k) range. 0 on an empty histogram.
  double percentile(double p) const;
};

/// Log2-bucketed histogram of non-negative integer samples (negative
/// samples clamp to 0). record() is one relaxed fetch_add per of count,
/// bucket, and sum — lock-free and allocation-free.
class Histogram {
 public:
  /// Bucket index of a sample: 0 for 0, otherwise bit_width(v) (so bucket k
  /// spans [2^(k-1), 2^k)). Exposed for the boundary tests.
  static std::size_t bucket_of(std::int64_t v);
  /// Inclusive-exclusive value range [lo, hi) of bucket k.
  static std::pair<std::int64_t, std::int64_t> bucket_range(std::size_t k);

  void record(std::int64_t v);
  HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::int64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric at snapshot time. Counters fill `count`, gauges `value`,
/// histograms `hist` (plus `count`/`value` with sample count and mean, so
/// uniform consumers can print something sensible for any kind).
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::int64_t count = 0;
  double value = 0;
  HistogramSnapshot hist;
};

/// Name-ordered snapshot of one registry.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// The sample with `name`, or nullptr.
  const MetricSample* find(std::string_view name) const;
  /// Counter value by name (0 when absent — absent and never-incremented
  /// are indistinguishable on purpose).
  std::int64_t counter(std::string_view name) const;
  /// All metric names, ordered.
  std::vector<std::string> names() const;
};

/// JSON object {"name": value | {histogram fields}} for artifacts/CI.
std::string to_json(const MetricsSnapshot& snapshot);

/// Create-or-get registry. Lookup takes a mutex (do it once, keep the
/// reference — references stay valid for the registry's lifetime); updates
/// through the returned references are lock-free. A name is permanently
/// bound to the kind of its first registration (re-registering under a
/// different kind throws).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(std::string_view name, MetricKind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace de::obs
