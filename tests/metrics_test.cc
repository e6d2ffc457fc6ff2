#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/json.h"

namespace csj::metrics {
namespace {

// Registration is process-wide and permanent (ResetAll zeroes values but
// keeps every metric registered), so tests use unique names and look their
// metrics up in the snapshot instead of asserting on registry sizes.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
};

const HistogramSnapshot* FindHist(const MetricsSnapshot& snapshot,
                                  const std::string& name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const uint64_t* FindCounter(const MetricsSnapshot& snapshot,
                            const std::string& name) {
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

TEST_F(MetricsTest, CounterBasics) {
  Counter* c = GetCounter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name resolves to the same instance.
  EXPECT_EQ(GetCounter("test.counter"), c);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
}

TEST_F(MetricsTest, GaugeBasics) {
  Gauge* g = GetGauge("test.gauge");
  g->Set(7);
  EXPECT_EQ(g->value(), 7);
  g->Add(-10);
  EXPECT_EQ(g->value(), -3);
}

TEST_F(MetricsTest, HistogramBucketsAndStats) {
  Histogram* h = GetHistogram("test.hist");
  EXPECT_EQ(h->count(), 0u);
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1000ull}) h->Record(v);
  EXPECT_EQ(h->count(), 6u);
  EXPECT_EQ(h->sum(), 1010u);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), 1000u);
  const auto buckets = h->BucketCounts();
  EXPECT_EQ(buckets[0], 1u);   // 0
  EXPECT_EQ(buckets[1], 1u);   // 1
  EXPECT_EQ(buckets[2], 2u);   // 2, 3
  EXPECT_EQ(buckets[3], 1u);   // 4
  EXPECT_EQ(buckets[10], 1u);  // 1000 in [512, 1024)
}

TEST_F(MetricsTest, QuantilesStayWithinObservedRange) {
  Histogram* h = GetHistogram("test.quantiles");
  for (uint64_t v = 1; v <= 1000; ++v) h->Record(v);
  const MetricsSnapshot snapshot = Snapshot();
  const HistogramSnapshot* hs = FindHist(snapshot, "test.quantiles");
  ASSERT_NE(hs, nullptr);
  EXPECT_DOUBLE_EQ(hs->Mean(), 500.5);
  // Log2 bucketing bounds the estimate within ~2x of the true quantile and
  // always inside [min, max].
  EXPECT_GE(hs->P50(), 250.0);
  EXPECT_LE(hs->P50(), 1000.0);
  EXPECT_GE(hs->P99(), 500.0);
  EXPECT_LE(hs->P99(), 1000.0);
  EXPECT_GE(hs->Quantile(0.0), 1.0);
  EXPECT_LE(hs->Quantile(1.0), 1000.0);
}

TEST_F(MetricsTest, QuantileOfSingleValueIsThatValue) {
  GetHistogram("test.single")->Record(777);
  const MetricsSnapshot snapshot = Snapshot();
  const HistogramSnapshot* hs = FindHist(snapshot, "test.single");
  ASSERT_NE(hs, nullptr);
  EXPECT_DOUBLE_EQ(hs->P50(), 777.0);
  EXPECT_DOUBLE_EQ(hs->P99(), 777.0);
}

TEST_F(MetricsTest, ConcurrentIncrementsDoNotLoseUpdates) {
  Counter* c = GetCounter("test.threads.counter");
  Histogram* h = GetHistogram("test.threads.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), static_cast<uint64_t>(kPerThread - 1));
}

TEST_F(MetricsTest, MacrosRecordThroughTheRegistry) {
  CSJ_METRIC_COUNT("test.macro.counter", 3);
  CSJ_METRIC_COUNT("test.macro.counter", 4);
  CSJ_METRIC_HIST("test.macro.hist", 128);
  CSJ_METRIC_GAUGE_SET("test.macro.gauge", -5);
  { CSJ_METRIC_SCOPED_TIMER("test.macro.timer_ns"); }
  EXPECT_EQ(GetCounter("test.macro.counter")->value(), 7u);
  EXPECT_EQ(GetHistogram("test.macro.hist")->count(), 1u);
  EXPECT_EQ(GetGauge("test.macro.gauge")->value(), -5);
  EXPECT_EQ(GetHistogram("test.macro.timer_ns")->count(), 1u);
}

TEST_F(MetricsTest, SnapshotIsSortedByName) {
  GetCounter("test.sorted.b")->Increment(2);
  GetCounter("test.sorted.a")->Increment(1);
  const MetricsSnapshot snapshot = Snapshot();
  EXPECT_TRUE(std::is_sorted(
      snapshot.counters.begin(), snapshot.counters.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
  const uint64_t* a = FindCounter(snapshot, "test.sorted.a");
  const uint64_t* b = FindCounter(snapshot, "test.sorted.b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 2u);
}

TEST_F(MetricsTest, ToTextMentionsEveryMetric) {
  GetCounter("test.text.counter")->Increment(11);
  GetGauge("test.text.gauge")->Set(-2);
  GetHistogram("test.text.hist")->Record(100);
  const std::string text = Snapshot().ToText();
  EXPECT_NE(text.find("test.text.counter"), std::string::npos) << text;
  EXPECT_NE(text.find("test.text.gauge"), std::string::npos) << text;
  EXPECT_NE(text.find("test.text.hist"), std::string::npos) << text;
  EXPECT_NE(text.find("11"), std::string::npos) << text;
}

TEST_F(MetricsTest, JsonEncodesEveryField) {
  GetCounter("test.rt.counter")->Increment(123456789);
  GetGauge("test.rt.gauge")->Set(-42);
  Histogram* h = GetHistogram("test.rt.hist");
  for (uint64_t v : {1ull, 2ull, 1000ull, 1ull << 40}) h->Record(v);
  GetHistogram("test.rt.empty");  // registered but never recorded

  // Through the text form, so the writer's 64-bit integers are checked too.
  auto doc = json::Parse(Snapshot().ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ((*doc)["counters"]["test.rt.counter"].AsUint(), 123456789u);
  EXPECT_EQ((*doc)["gauges"]["test.rt.gauge"].AsInt(), -42);
  json::Value& hist = (*doc)["histograms"]["test.rt.hist"];
  EXPECT_EQ(hist["count"].AsUint(), 4u);
  EXPECT_EQ(hist["sum"].AsUint(), 1003u + (1ull << 40));
  EXPECT_EQ(hist["min"].AsUint(), 1u);
  EXPECT_EQ(hist["max"].AsUint(), 1ull << 40);
  // Sparse buckets keyed by bit width: 1, 2, 1000 and 2^40 have bit widths
  // 1, 2, 10 and 41.
  json::Value& buckets = hist["buckets"];
  EXPECT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets["1"].AsUint(), 1u);
  EXPECT_EQ(buckets["2"].AsUint(), 1u);
  EXPECT_EQ(buckets["10"].AsUint(), 1u);
  EXPECT_EQ(buckets["41"].AsUint(), 1u);
  json::Value& empty = (*doc)["histograms"]["test.rt.empty"];
  EXPECT_EQ(empty["count"].AsUint(), 0u);
  EXPECT_EQ(empty["buckets"].size(), 0u);
}

TEST_F(MetricsTest, ResetAllZeroesButKeepsRegistration) {
  Counter* c = GetCounter("test.reset.counter");
  Histogram* h = GetHistogram("test.reset.hist");
  c->Increment(5);
  h->Record(5);
  ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum(), 0u);
  // Still registered: the snapshot lists them with zeroed values.
  const MetricsSnapshot snapshot = Snapshot();
  const uint64_t* cv = FindCounter(snapshot, "test.reset.counter");
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(*cv, 0u);
  const HistogramSnapshot* hs = FindHist(snapshot, "test.reset.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 0u);
  // And recording works again, including min/max re-arming.
  h->Record(3);
  EXPECT_EQ(h->min(), 3u);
  EXPECT_EQ(h->max(), 3u);
}

TEST_F(MetricsTest, DiffReportsTheWindowsOwnMinAndMax) {
  // A histogram that already holds 257 ms and 1.06 s; one 340 ms sample
  // then lands in the window.
  Histogram* h = GetHistogram("test.diff.window_ns");
  h->Record(257'000'000);
  h->Record(1'060'000'000);
  const MetricsSnapshot begin = Snapshot();
  h->Record(340'000'000);
  const MetricsSnapshot one = DiffSnapshots(begin, Snapshot());
  const HistogramSnapshot* d = FindHist(one, "test.diff.window_ns");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 1u);
  EXPECT_EQ(d->min, 340'000'000u);
  EXPECT_EQ(d->max, 340'000'000u);
  EXPECT_DOUBLE_EQ(d->P50(), 340'000'000.0);

  // A second sample, in another bucket: the window's extremes are bounded
  // by its own lowest and highest buckets, not the lifetime extremes.
  h->Record(600'000'000);
  const MetricsSnapshot two = DiffSnapshots(begin, Snapshot());
  d = FindHist(two, "test.diff.window_ns");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 2u);
  EXPECT_EQ(std::bit_width(d->min), std::bit_width(uint64_t{340'000'000}));
  EXPECT_EQ(std::bit_width(d->max), std::bit_width(uint64_t{600'000'000}));
  EXPECT_LE(d->min, 340'000'000u);
  EXPECT_GE(d->max, 600'000'000u);
  EXPECT_GE(d->P50(), static_cast<double>(d->min));
  EXPECT_LE(d->P99(), static_cast<double>(d->max));
}

}  // namespace
}  // namespace csj::metrics
