#ifndef SPRINGDTW_OBS_METRICS_H_
#define SPRINGDTW_OBS_METRICS_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace springdtw {
namespace obs {

/// One key=value metric label. A series within a family is identified by
/// its full label list; callers should pass labels in a consistent key
/// order (the registry matches them positionally, it does not sort).
struct Label {
  std::string key;
  std::string value;
  bool operator==(const Label&) const = default;
};
using Labels = std::vector<Label>;

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// "counter" / "gauge" / "histogram".
std::string_view MetricKindName(MetricKind kind);

/// Monotonically increasing integer metric. Handles returned by the
/// registry are plain pointers with stable addresses; incrementing is a
/// single add — cheap enough for per-tick ingest paths.
class Counter {
 public:
  void Increment(int64_t n = 1) { value_ += n; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Point-in-time double metric.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution metric with fixed memory and a fixed snapshot cost, however
/// long the series has run. Three parts:
///  - util::RunningStats: exact count / sum / min / max / mean.
///  - An exact window holding the first kMaxExactSamples observations.
///    While a series fits in it, quantiles are the exact nearest-rank
///    answers (Snapshot marks them `exact`).
///  - Past the window, a log-linear bucket array, HDR-style: kSubBuckets
///    linear sub-buckets per power of two over [2^kMinExponent,
///    2^(kMaxExponent + 1)). It is allocated once, at the first overflow;
///    the window's samples are folded into it and the window is released.
///    A quantile is then the midpoint of the bucket holding the
///    nearest-rank observation, so its relative error is at most
///    kRelativeError = 1 / (2 * kSubBuckets) (0.8%) for in-range values.
///    Values below the range (zero, negatives, denormals, -inf) share one
///    bucket reported as 0; values at or above it, +inf and NaN share one
///    reported as max. (NaN ranks with +inf in the window too.)
/// Quantiles are clamped to [min, max]. Observe is O(1) and allocates only
/// twice in a series' life: the window on the first observation and the
/// buckets at the first overflow. Quantile sorts only what was observed
/// since the last call and merges it into the sorted window; past the
/// window it scans at most kNumBuckets counters (~53 KB).
class Histogram {
 public:
  static constexpr int64_t kMaxExactSamples = 1 << 12;
  static constexpr int kSubBucketBits = 6;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMinExponent = -40;
  static constexpr int kMaxExponent = 63;
  /// Underflow bucket, the in-range buckets, overflow bucket.
  static constexpr int kNumBuckets =
      (kMaxExponent - kMinExponent + 1) * kSubBuckets + 2;
  /// Bound on |Quantile - exact| / exact once past the window.
  static constexpr double kRelativeError = 0.5 / kSubBuckets;

  void Observe(double v) {
    stats_.Add(v);
    if (!buckets_.empty()) {
      ++buckets_[static_cast<size_t>(BucketIndex(v))];
    } else if (static_cast<int64_t>(window_.size()) < kMaxExactSamples) {
      if (window_.empty()) window_.reserve(kMaxExactSamples);
      // NaN ranks with +inf, as in the buckets, and keeps the sort valid.
      window_.push_back(std::isnan(v) ? kInfinity : v);
    } else {
      Overflow(v);
    }
  }

  int64_t count() const { return stats_.count(); }
  double sum() const { return stats_.sum(); }

  /// True while every observation is still held by the exact window.
  bool exact() const { return buckets_.empty(); }

  /// Nearest-rank q-quantile: exact while exact(), within the bucket
  /// resolution afterwards. Returns 0 when empty.
  double Quantile(double q) const;

  const util::RunningStats& stats() const { return stats_; }

  void Reset() { *this = Histogram(); }

  /// Bucket of `v` in [0, kNumBuckets); defined for every double.
  static int BucketIndex(double v);

 private:
  /// Allocates the buckets, folds the window into them, then adds `v`.
  void Overflow(double v);

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  util::RunningStats stats_;
  // Quantile keeps window_[0, sorted_) sorted, merging in what Observe
  // appended since. Empty once the buckets exist.
  mutable std::vector<double> window_;
  mutable size_t sorted_ = 0;
  std::vector<int64_t> buckets_;
};

/// Point-in-time copy of one histogram series, for exposition.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// True when the quantiles above are exact (sample set fully retained).
  bool exact = true;
};

/// Point-in-time copy of one series. Which value field is meaningful
/// depends on the owning family's kind.
struct SeriesSnapshot {
  Labels labels;
  int64_t counter_value = 0;
  double gauge_value = 0.0;
  HistogramSnapshot histogram;
};

struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<SeriesSnapshot> series;
};

/// Consistent point-in-time copy of a whole registry. Plain data — safe to
/// hand to a renderer or another thread while ingest continues.
struct MetricsSnapshot {
  std::vector<FamilySnapshot> families;

  /// Family by name; nullptr when absent.
  const FamilySnapshot* Find(std::string_view name) const;
};

/// Merges per-shard registry snapshots into one fleet-wide view (e.g. the
/// N worker registries of a monitor::ShardedMonitor). Families and series
/// are unioned by (name, labels), keeping first-seen order. Counters and
/// gauges sum — every engine gauge (memory bytes, stream/query counts,
/// pending candidates) is an extensive quantity, so summation is the
/// correct fleet aggregate. Histograms merge count / sum / min / max
/// exactly and recompute the mean; quantiles are count-weighted averages
/// of the shard quantiles, and `exact` is cleared whenever more than one
/// non-empty shard contributed (cross-shard quantiles cannot be recovered
/// from summaries).
MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& shards);

/// Named metric families (counter / gauge / histogram), each with any
/// number of labeled series. Designed for the engine's single-threaded
/// ingest path: Get* resolves (or creates) a series once at registration
/// time and returns a stable pointer, so the hot path touches no maps, no
/// locks, and no strings — just the instrument itself. Readers take a
/// Snapshot() copy and render that.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // Instrument pointers escape; the registry must stay put.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter series `name{labels}`, creating the family and/or
  /// series on first use. `help` is recorded on first use and ignored
  /// afterwards. Requesting an existing name with a different kind is a
  /// programming error (CHECK-fails).
  Counter* GetCounter(std::string_view name, std::string_view help,
                      Labels labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  Labels labels = {});
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          Labels labels = {});

  MetricsSnapshot Snapshot() const;

  int64_t num_families() const {
    return static_cast<int64_t>(families_.size());
  }

 private:
  struct Series {
    Labels labels;
    // Exactly one is non-null, matching the family kind. unique_ptr keeps
    // the instrument's address stable across vector growth.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<Series> series;
  };

  Family* FindOrCreateFamily(std::string_view name, std::string_view help,
                             MetricKind kind);
  Series* FindOrCreateSeries(Family* family, Labels labels);

  std::vector<Family> families_;  // In registration order.
};

}  // namespace obs
}  // namespace springdtw

#endif  // SPRINGDTW_OBS_METRICS_H_
