#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.h"

namespace springdtw {
namespace obs {

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

const FamilySnapshot* MetricsSnapshot::Find(std::string_view name) const {
  for (const FamilySnapshot& family : families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

namespace {

// A positive normal double's bits, shifted right by kMantissaShift, are its
// biased exponent followed by the top kSubBucketBits mantissa bits: a key
// that is monotone in the value and names its log-linear bucket.
constexpr int kMantissaShift = 52 - Histogram::kSubBucketBits;
constexpr uint64_t kFirstKey =
    static_cast<uint64_t>(1023 + Histogram::kMinExponent)
    << Histogram::kSubBucketBits;
constexpr uint64_t kEndKey =
    static_cast<uint64_t>(1023 + Histogram::kMaxExponent + 1)
    << Histogram::kSubBucketBits;
static_assert(Histogram::kMinExponent > -1023 &&
                  Histogram::kMaxExponent < 1023,
              "the bucket range must hold only normal doubles");
constexpr double kLowestTracked =
    std::bit_cast<double>(kFirstKey << kMantissaShift);
constexpr double kHighestTracked =
    std::bit_cast<double>(kEndKey << kMantissaShift);

double BucketMidpoint(int index) {
  const uint64_t key = kFirstKey + static_cast<uint64_t>(index - 1);
  const double lo = std::bit_cast<double>(key << kMantissaShift);
  const double hi = std::bit_cast<double>((key + 1) << kMantissaShift);
  return 0.5 * (lo + hi);
}

}  // namespace

int Histogram::BucketIndex(double v) {
  if (v >= kLowestTracked && v < kHighestTracked) {
    const uint64_t key = std::bit_cast<uint64_t>(v) >> kMantissaShift;
    return static_cast<int>(key - kFirstKey) + 1;
  }
  return v < kLowestTracked ? 0 : kNumBuckets - 1;  // NaN ranks on top.
}

void Histogram::Overflow(double v) {
  buckets_.assign(kNumBuckets, 0);
  for (const double w : window_) {
    ++buckets_[static_cast<size_t>(BucketIndex(w))];
  }
  std::vector<double>().swap(window_);
  ++buckets_[static_cast<size_t>(BucketIndex(v))];
}

double Histogram::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0.0;
  q = q > 0.0 ? std::min(q, 1.0) : 0.0;  // NaN -> 0.
  const auto rank =
      static_cast<int64_t>(q * static_cast<double>(n - 1) + 0.5);
  const double lo = stats_.min();
  const double hi = stats_.max();
  double v = hi;
  if (buckets_.empty()) {
    if (sorted_ < window_.size()) {
      const auto tail = window_.begin() + static_cast<ptrdiff_t>(sorted_);
      std::sort(tail, window_.end());
      std::inplace_merge(window_.begin(), tail, window_.end());
      sorted_ = window_.size();
    }
    v = window_[static_cast<size_t>(rank)];
  } else {
    // Every observation lies at or above min's bucket (NaN sits on top).
    int b = std::isnan(lo) ? 0 : BucketIndex(lo);
    for (int64_t seen = 0; b < kNumBuckets; ++b) {
      seen += buckets_[static_cast<size_t>(b)];
      if (seen > rank) break;
    }
    if (b == 0) {
      v = 0.0;
    } else if (b < kNumBuckets - 1) {
      v = BucketMidpoint(b);
    }
  }
  return std::clamp(v, lo, hi);
}

namespace {

void MergeHistogram(const HistogramSnapshot& in, HistogramSnapshot* out) {
  if (in.count == 0) return;
  if (out->count == 0) {
    *out = in;
    return;
  }
  const double w_out = static_cast<double>(out->count);
  const double w_in = static_cast<double>(in.count);
  const double total = w_out + w_in;
  out->min = in.min < out->min ? in.min : out->min;
  out->max = in.max > out->max ? in.max : out->max;
  out->sum += in.sum;
  out->count += in.count;
  out->mean = out->sum / total;
  // Count-weighted quantile blend: not exact, but monotone and bounded by
  // the shard extremes, which is the most a summary merge can promise. The
  // clamp keeps rounding from stepping an ulp past min or max.
  const auto blend = [&](double a, double b) {
    return std::clamp((a * w_out + b * w_in) / total, out->min, out->max);
  };
  out->p50 = blend(out->p50, in.p50);
  out->p90 = blend(out->p90, in.p90);
  out->p99 = blend(out->p99, in.p99);
  out->exact = false;
}

}  // namespace

MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& shards) {
  MetricsSnapshot merged;
  for (const MetricsSnapshot& shard : shards) {
    for (const FamilySnapshot& family : shard.families) {
      FamilySnapshot* target = nullptr;
      for (FamilySnapshot& existing : merged.families) {
        if (existing.name == family.name) {
          target = &existing;
          break;
        }
      }
      if (target == nullptr) {
        FamilySnapshot fresh;
        fresh.name = family.name;
        fresh.help = family.help;
        fresh.kind = family.kind;
        merged.families.push_back(std::move(fresh));
        target = &merged.families.back();
      } else {
        SPRINGDTW_CHECK(target->kind == family.kind)
            << "metric family '" << family.name
            << "' has conflicting kinds across shards";
      }
      for (const SeriesSnapshot& series : family.series) {
        SeriesSnapshot* slot = nullptr;
        for (SeriesSnapshot& existing : target->series) {
          if (existing.labels == series.labels) {
            slot = &existing;
            break;
          }
        }
        if (slot == nullptr) {
          SeriesSnapshot fresh;
          fresh.labels = series.labels;
          // Histogram fields merge via MergeHistogram below so `exact`
          // stays meaningful; scalar fields start at zero and accumulate.
          target->series.push_back(std::move(fresh));
          slot = &target->series.back();
        }
        switch (family.kind) {
          case MetricKind::kCounter:
            slot->counter_value += series.counter_value;
            break;
          case MetricKind::kGauge:
            slot->gauge_value += series.gauge_value;
            break;
          case MetricKind::kHistogram:
            MergeHistogram(series.histogram, &slot->histogram);
            break;
        }
      }
    }
  }
  return merged;
}

MetricsRegistry::Family* MetricsRegistry::FindOrCreateFamily(
    std::string_view name, std::string_view help, MetricKind kind) {
  for (Family& family : families_) {
    if (family.name == name) {
      SPRINGDTW_CHECK(family.kind == kind)
          << "metric family '" << family.name << "' registered as "
          << std::string(MetricKindName(family.kind)) << ", requested as "
          << std::string(MetricKindName(kind));
      return &family;
    }
  }
  Family family;
  family.name = std::string(name);
  family.help = std::string(help);
  family.kind = kind;
  families_.push_back(std::move(family));
  return &families_.back();
}

MetricsRegistry::Series* MetricsRegistry::FindOrCreateSeries(Family* family,
                                                             Labels labels) {
  for (Series& series : family->series) {
    if (series.labels == labels) return &series;
  }
  Series series;
  series.labels = std::move(labels);
  switch (family->kind) {
    case MetricKind::kCounter:
      series.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      series.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      series.histogram = std::make_unique<Histogram>();
      break;
  }
  family->series.push_back(std::move(series));
  return &family->series.back();
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help, Labels labels) {
  Family* family = FindOrCreateFamily(name, help, MetricKind::kCounter);
  return FindOrCreateSeries(family, std::move(labels))->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 Labels labels) {
  Family* family = FindOrCreateFamily(name, help, MetricKind::kGauge);
  return FindOrCreateSeries(family, std::move(labels))->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         Labels labels) {
  Family* family = FindOrCreateFamily(name, help, MetricKind::kHistogram);
  return FindOrCreateSeries(family, std::move(labels))->histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.families.reserve(families_.size());
  for (const Family& family : families_) {
    FamilySnapshot fs;
    fs.name = family.name;
    fs.help = family.help;
    fs.kind = family.kind;
    fs.series.reserve(family.series.size());
    for (const Series& series : family.series) {
      SeriesSnapshot ss;
      ss.labels = series.labels;
      switch (family.kind) {
        case MetricKind::kCounter:
          ss.counter_value = series.counter->value();
          break;
        case MetricKind::kGauge:
          ss.gauge_value = series.gauge->value();
          break;
        case MetricKind::kHistogram: {
          const Histogram& h = *series.histogram;
          ss.histogram.count = h.count();
          ss.histogram.sum = h.sum();
          ss.histogram.min = h.stats().min();
          ss.histogram.max = h.stats().max();
          ss.histogram.mean = h.stats().mean();
          ss.histogram.p50 = h.Quantile(0.5);
          ss.histogram.p90 = h.Quantile(0.9);
          ss.histogram.p99 = h.Quantile(0.99);
          ss.histogram.exact = h.exact();
          break;
        }
      }
      fs.series.push_back(std::move(ss));
    }
    snapshot.families.push_back(std::move(fs));
  }
  return snapshot;
}

}  // namespace obs
}  // namespace springdtw
