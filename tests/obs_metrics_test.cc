#include "obs/metrics.h"

#include <cfloat>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/memory.h"
#include "util/random.h"
#include "util/stats.h"

namespace springdtw {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CounterIncrementsAndSnapshots) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("requests_total", "total requests");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42);

  const MetricsSnapshot snapshot = registry.Snapshot();
  const FamilySnapshot* family = snapshot.Find("requests_total");
  ASSERT_NE(family, nullptr);
  EXPECT_EQ(family->kind, MetricKind::kCounter);
  EXPECT_EQ(family->help, "total requests");
  ASSERT_EQ(family->series.size(), 1u);
  EXPECT_EQ(family->series[0].counter_value, 42);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry registry;
  const Labels labels = {Label{"stream", "s0"}, Label{"query", "q0"}};
  Counter* a = registry.GetCounter("ticks_total", "ticks", labels);
  Counter* b = registry.GetCounter("ticks_total", "ignored later", labels);
  EXPECT_EQ(a, b);

  // Different labels -> a different series in the same family.
  Counter* c = registry.GetCounter("ticks_total", "ticks",
                                   {Label{"stream", "s1"}});
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.num_families(), 1);
  EXPECT_EQ(registry.Snapshot().Find("ticks_total")->series.size(), 2u);
}

TEST(MetricsRegistryTest, HelpIsRecordedOnFirstUseOnly) {
  MetricsRegistry registry;
  registry.GetGauge("depth", "first help");
  registry.GetGauge("depth", "second help");
  EXPECT_EQ(registry.Snapshot().Find("depth")->help, "first help");
}

TEST(MetricsRegistryTest, InstrumentPointersStableAcrossGrowth) {
  MetricsRegistry registry;
  std::vector<Counter*> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(registry.GetCounter(
        "c", "", {Label{"i", std::to_string(i)}}));
  }
  // Adding 100 series forced vector growth; earlier handles must still
  // point at live instruments.
  for (int i = 0; i < 100; ++i) handles[i]->Increment(i);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const FamilySnapshot* family = snapshot.Find("c");
  ASSERT_NE(family, nullptr);
  ASSERT_EQ(family->series.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(family->series[i].counter_value, i);
  }
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("temperature", "");
  g->Set(20.5);
  g->Add(-0.5);
  EXPECT_DOUBLE_EQ(g->value(), 20.0);
  EXPECT_DOUBLE_EQ(registry.Snapshot().Find("temperature")
                       ->series[0].gauge_value,
                   20.0);
}

TEST(MetricsRegistryTest, HistogramExactQuantilesWhileSmall) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("latency", "");
  for (int i = 1; i <= 100; ++i) h->Observe(static_cast<double>(i));
  EXPECT_TRUE(h->exact());
  EXPECT_EQ(h->count(), 100);
  EXPECT_DOUBLE_EQ(h->sum(), 5050.0);
  EXPECT_NEAR(h->Quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h->Quantile(0.99), 99.0, 1.0);

  const HistogramSnapshot snap =
      registry.Snapshot().Find("latency")->series[0].histogram;
  EXPECT_EQ(snap.count, 100);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.mean, 50.5);
  EXPECT_TRUE(snap.exact);
  EXPECT_NEAR(snap.p99, 99.0, 1.0);
}

// Quantiles taken between observations merge the newly observed samples
// into the sorted window; each answer must equal the oracle's.
TEST(HistogramTest, ExactWindowMatchesTheNearestRankOracle) {
  util::Rng rng(7);
  Histogram h;
  util::QuantileSketch oracle;
  for (int64_t i = 1; i <= Histogram::kMaxExactSamples; ++i) {
    const double v = std::exp(rng.Gaussian(0.0, 3.0));
    h.Observe(v);
    oracle.Add(v);
    if (i % 97 != 0 && i != Histogram::kMaxExactSamples) continue;
    ASSERT_TRUE(h.exact());
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(h.Quantile(q), oracle.Quantile(q)) << "n=" << i << " q=" << q;
    }
  }
}

// Past the exact window, quantiles come from the log-linear buckets. Each
// family spans many decades (ms-scale latencies, ns-scale latencies, and
// one covering both), and every quantile must stay within the documented
// relative error of the exact nearest-rank answer.
TEST(HistogramTest, BucketQuantilesStayWithinTheRelativeErrorBound) {
  struct Family {
    const char* name;
    double log_median;
    double log_sigma;
  };
  const Family families[] = {
      {"ms-scale 1e-3..1e3", 0.0, 2.3},
      {"ns-scale 1e3..1e9", std::log(1e6), 2.3},
      {"both 1e-3..1e9", std::log(1e3), 4.6},
  };
  constexpr int64_t kSamples = int64_t{1} << 21;
  util::Rng rng(2007);
  for (const Family& family : families) {
    SCOPED_TRACE(family.name);
    Histogram h;
    util::QuantileSketch oracle;
    for (int64_t i = 0; i < kSamples; ++i) {
      const double v =
          std::exp(rng.Gaussian(family.log_median, family.log_sigma));
      h.Observe(v);
      oracle.Add(v);
    }
    ASSERT_FALSE(h.exact());
    const double lo = h.stats().min();
    const double hi = h.stats().max();
    for (const double q : {0.5, 0.9, 0.99}) {
      const double want = oracle.Quantile(q);
      const double got = h.Quantile(q);
      EXPECT_LE(std::abs(got - want), want * Histogram::kRelativeError)
          << "q=" << q << " got=" << got << " want=" << want;
    }
    for (const double q : {0.0, 0.001, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double got = h.Quantile(q);
      EXPECT_GE(got, lo) << "q=" << q;
      EXPECT_LE(got, hi) << "q=" << q;
    }
  }
}

// Values a caller can feed through MetricsEmitter::Observe. None may index
// out of range or trip UB (the asan-ubsan leg runs this), inside the exact
// window or past it.
TEST(HistogramTest, HostileValuesAreSafeInsideAndPastTheWindow) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double top = std::ldexp(1.0, Histogram::kMaxExponent + 1);
  const double bottom = std::ldexp(1.0, Histogram::kMinExponent);
  const std::vector<double> hostile = {
      1.0,     0.0,     -0.0,   -1.0,
      -DBL_MAX, DBL_MAX, DBL_MIN, tiny,
      nan,     -nan,    inf,    -inf,
      1e300,   1e-300,  top,    std::nextafter(top, 0.0),
      bottom,  std::nextafter(bottom, 0.0)};
  for (const double v : hostile) {
    const int b = Histogram::BucketIndex(v);
    EXPECT_GE(b, 0) << v;
    EXPECT_LT(b, Histogram::kNumBuckets) << v;
  }
  EXPECT_EQ(Histogram::BucketIndex(nan), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(-inf), 0);

  const auto expect_ordered = [](const Histogram& h) {
    const double p50 = h.Quantile(0.5);
    const double p90 = h.Quantile(0.9);
    const double p99 = h.Quantile(0.99);
    EXPECT_LE(h.stats().min(), p50);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, h.stats().max());
  };
  Histogram h;
  for (const double v : hostile) h.Observe(v);
  ASSERT_TRUE(h.exact());
  EXPECT_EQ(h.count(), static_cast<int64_t>(hostile.size()));
  expect_ordered(h);

  while (h.exact()) {
    for (const double v : hostile) h.Observe(v);
  }
  for (int i = 0; i < 1000; ++i) {
    for (const double v : hostile) h.Observe(v);
  }
  expect_ordered(h);

  // A NaN first observation leaves min and max NaN for good; quantiles
  // must still be computed without UB.
  Histogram poisoned;
  poisoned.Observe(nan);
  for (const double v : hostile) poisoned.Observe(v);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) (void)poisoned.Quantile(q);
  while (poisoned.exact()) {
    for (const double v : hostile) poisoned.Observe(v);
  }
  for (const double q : {0.0, 0.5, 0.99, 1.0}) (void)poisoned.Quantile(q);
  EXPECT_FALSE(poisoned.exact());
}

// A series costs fixed memory however long it runs: the exact window plus
// one bucket array, nothing per observation past that, and a snapshot
// whose allocations do not grow with count().
TEST(HistogramTest, MemoryIsBoundedAndSteadyPastTheWindow) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", "");
  constexpr int64_t kObservations = int64_t{1} << 22;
  const auto observe = [h](int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      h->Observe(1.0 + static_cast<double>(i % 100000));
    }
  };
  {
    util::ScopedAllocationCheck check;
    observe(kObservations);
    ASSERT_FALSE(h->exact());
    const int64_t bound =
        Histogram::kMaxExactSamples * static_cast<int64_t>(sizeof(double)) +
        Histogram::kNumBuckets * static_cast<int64_t>(sizeof(int64_t));
    EXPECT_LE(check.Bytes(), bound);
    EXPECT_LE(check.Allocations(), 2);
  }
  {
    util::ScopedAllocationCheck check;
    observe(1000);
    EXPECT_EQ(check.Allocations(), 0);
  }
  int64_t first_snapshot_bytes = 0;
  {
    util::ScopedAllocationCheck check;
    const MetricsSnapshot snapshot = registry.Snapshot();
    first_snapshot_bytes = check.Bytes();
  }
  observe(kObservations);
  {
    util::ScopedAllocationCheck check;
    const MetricsSnapshot snapshot = registry.Snapshot();
    EXPECT_EQ(check.Bytes(), first_snapshot_bytes);
    EXPECT_EQ(snapshot.Find("lat")->series[0].histogram.count,
              2 * kObservations + 1000);
  }
}

TEST(MetricsRegistryTest, HistogramResetClears) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("latency", "");
  h->Observe(5.0);
  h->Reset();
  EXPECT_EQ(h->count(), 0);
  EXPECT_TRUE(h->exact());
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);
}

TEST(MetricsRegistryTest, SnapshotIsAPointInTimeCopy) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("n", "");
  c->Increment(7);
  const MetricsSnapshot before = registry.Snapshot();
  c->Increment(100);
  // The earlier snapshot must not see later increments.
  EXPECT_EQ(before.Find("n")->series[0].counter_value, 7);
  EXPECT_EQ(registry.Snapshot().Find("n")->series[0].counter_value, 107);
}

TEST(MetricsRegistryTest, FamiliesKeepRegistrationOrder) {
  MetricsRegistry registry;
  registry.GetCounter("zebra", "");
  registry.GetGauge("alpha", "");
  registry.GetHistogram("mid", "");
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.families.size(), 3u);
  EXPECT_EQ(snapshot.families[0].name, "zebra");
  EXPECT_EQ(snapshot.families[1].name, "alpha");
  EXPECT_EQ(snapshot.families[2].name, "mid");
}

TEST(MetricsSnapshotTest, FindReturnsNullForUnknownName) {
  MetricsRegistry registry;
  registry.GetCounter("known", "");
  EXPECT_EQ(registry.Snapshot().Find("unknown"), nullptr);
}

TEST(MergeSnapshotsTest, EmptyInputsProduceEmptyMerge) {
  EXPECT_TRUE(MergeSnapshots({}).families.empty());
  // A vector of empty snapshots is just as empty.
  std::vector<MetricsSnapshot> shards(3);
  EXPECT_TRUE(MergeSnapshots(shards).families.empty());
  // Empty shards mixed with a real one contribute nothing.
  MetricsRegistry registry;
  registry.GetCounter("n", "")->Increment(7);
  shards[1] = registry.Snapshot();
  const MetricsSnapshot merged = MergeSnapshots(shards);
  ASSERT_EQ(merged.families.size(), 1u);
  EXPECT_EQ(merged.Find("n")->series[0].counter_value, 7);
}

TEST(MergeSnapshotsTest, DisjointLabelSetsUnionWithoutCrossTalk) {
  MetricsRegistry a;
  a.GetCounter("ticks", "", {Label{"worker", "0"}})->Increment(10);
  a.GetCounter("ticks", "", {Label{"worker", "1"}})->Increment(20);
  MetricsRegistry b;
  b.GetCounter("ticks", "", {Label{"worker", "2"}})->Increment(30);
  // Same key, different value — and a series with extra label cardinality.
  b.GetCounter("ticks", "", {Label{"worker", "0"}, Label{"shard", "x"}})
      ->Increment(40);

  const MetricsSnapshot merged = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  const FamilySnapshot* family = merged.Find("ticks");
  ASSERT_NE(family, nullptr);
  ASSERT_EQ(family->series.size(), 4u) << "disjoint label sets must not fold";
  int64_t total = 0;
  for (const auto& series : family->series) total += series.counter_value;
  EXPECT_EQ(total, 100);
}

TEST(MergeSnapshotsTest, SharedSeriesSumCountersAndGauges) {
  MetricsRegistry a;
  a.GetCounter("c", "", {Label{"k", "v"}})->Increment(1);
  a.GetGauge("g", "")->Set(2.5);
  MetricsRegistry b;
  b.GetCounter("c", "", {Label{"k", "v"}})->Increment(2);
  b.GetGauge("g", "")->Set(0.5);
  const MetricsSnapshot merged = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  EXPECT_EQ(merged.Find("c")->series[0].counter_value, 3);
  EXPECT_DOUBLE_EQ(merged.Find("g")->series[0].gauge_value, 3.0);
}

TEST(MergeSnapshotsTest, HistogramMergeWithMismatchedLayouts) {
  // Shard A stays small enough to be exact; shard B overflows into the
  // buckets — the merged summary must blend them (count-weighted), keep
  // the true extremes and totals, and drop the `exact` claim.
  MetricsRegistry a;
  Histogram* ha = a.GetHistogram("lat", "");
  for (int i = 1; i <= 10; ++i) ha->Observe(static_cast<double>(i));
  MetricsRegistry b;
  Histogram* hb = b.GetHistogram("lat", "");
  const int64_t n = Histogram::kMaxExactSamples + 10;
  for (int64_t i = 0; i < n; ++i) hb->Observe(1000.0);
  const HistogramSnapshot b_snap =
      b.Snapshot().Find("lat")->series[0].histogram;
  ASSERT_FALSE(b_snap.exact) << "shard B must overflow the exact window";

  const MetricsSnapshot merged = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  const HistogramSnapshot& h = merged.Find("lat")->series[0].histogram;
  EXPECT_EQ(h.count, n + 10);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
  EXPECT_DOUBLE_EQ(h.sum, 55.0 + static_cast<double>(n) * 1000.0);
  EXPECT_FALSE(h.exact);
  // Quantile blend is approximate: bucket quantiles are only within the
  // bucket resolution, so allow slack past the true max.
  EXPECT_GE(h.p50, 1.0);
  EXPECT_LE(h.p99, 1100.0);
}

TEST(MergeSnapshotsTest, HistogramMergeKeepsQuantilesWithinExtremes) {
  // (0.1 * 1 + 0.1 * 2) / 3 rounds one ulp above 0.1: the blend must not
  // step past the merged max that springdtw_metrics_check enforces.
  MetricsRegistry a;
  a.GetHistogram("lat", "")->Observe(0.1);
  MetricsRegistry b;
  Histogram* hb = b.GetHistogram("lat", "");
  hb->Observe(0.1);
  hb->Observe(0.1);
  const MetricsSnapshot merged = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  const HistogramSnapshot& h = merged.Find("lat")->series[0].histogram;
  EXPECT_LE(h.min, h.p50);
  EXPECT_LE(h.p50, h.p90);
  EXPECT_LE(h.p90, h.p99);
  EXPECT_LE(h.p99, h.max);
}

TEST(MergeSnapshotsTest, ZeroCountHistogramShardIsANoOp) {
  MetricsRegistry a;
  a.GetHistogram("lat", "")->Observe(5.0);
  MetricsRegistry b;
  b.GetHistogram("lat", "");  // registered, never observed
  const MetricsSnapshot merged = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  const HistogramSnapshot& h = merged.Find("lat")->series[0].histogram;
  EXPECT_EQ(h.count, 1);
  EXPECT_DOUBLE_EQ(h.sum, 5.0);
  EXPECT_TRUE(h.exact) << "merging an empty shard must not poison exactness";

  // Order independence for the empty shard.
  const MetricsSnapshot reversed =
      MergeSnapshots({b.Snapshot(), a.Snapshot()});
  EXPECT_EQ(reversed.Find("lat")->series[0].histogram.count, 1);
  EXPECT_TRUE(reversed.Find("lat")->series[0].histogram.exact);
}

TEST(MetricKindTest, Names) {
  EXPECT_EQ(MetricKindName(MetricKind::kCounter), "counter");
  EXPECT_EQ(MetricKindName(MetricKind::kGauge), "gauge");
  EXPECT_EQ(MetricKindName(MetricKind::kHistogram), "histogram");
}

}  // namespace
}  // namespace obs
}  // namespace springdtw
