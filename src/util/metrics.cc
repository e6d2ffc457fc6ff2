#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>

#include "util/check.h"
#include "util/format.h"
#include "util/timer.h"

namespace csj::metrics {
namespace {

/// The registry owns every metric; entries are created on first Get* and
/// never removed, so handed-out pointers stay valid for the process
/// lifetime. The mutex only guards registration and snapshotting — updates
/// go straight to the atomics.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

template <typename T, typename OtherA, typename OtherB>
T* GetOrCreate(std::map<std::string, std::unique_ptr<T>>* kind,
               const OtherA& other_a, const OtherB& other_b,
               const std::string& name) {
  CSJ_CHECK(!name.empty()) << "metric name must not be empty";
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  CSJ_CHECK(other_a.find(name) == other_a.end() &&
            other_b.find(name) == other_b.end())
      << "metric '" << name << "' already registered as a different kind";
  auto [it, inserted] = kind->try_emplace(name);
  if (inserted) it->second = std::make_unique<T>(name);
  return it->second.get();
}

}  // namespace

void Histogram::Record(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[static_cast<size_t>(std::bit_width(value))].fetch_add(
      1, std::memory_order_relaxed);
  // Relaxed CAS min/max: contention is rare and staleness is harmless.
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

std::array<uint64_t, Histogram::kBuckets> Histogram::BucketCounts() const {
  std::array<uint64_t, kBuckets> out;
  for (int i = 0; i < kBuckets; ++i) {
    out[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  return out;
}

Counter* GetCounter(const std::string& name) {
  Registry& r = GetRegistry();
  return GetOrCreate(&r.counters, r.gauges, r.histograms, name);
}

Gauge* GetGauge(const std::string& name) {
  Registry& r = GetRegistry();
  return GetOrCreate(&r.gauges, r.counters, r.histograms, name);
}

Histogram* GetHistogram(const std::string& name) {
  Registry& r = GetRegistry();
  return GetOrCreate(&r.histograms, r.counters, r.gauges, name);
}

void ResetAll() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& [name, counter] : registry.counters) counter->Reset();
  for (auto& [name, gauge] : registry.gauges) gauge->Reset();
  for (auto& [name, histogram] : registry.histograms) histogram->Reset();
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile among `count` recorded values, 1-based.
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    if (static_cast<double>(seen + buckets[b]) >= rank) {
      // Interpolate within [2^(b-1), 2^b); bucket 0 holds only zeros.
      if (b == 0) return 0.0;
      const double lo = b == 1 ? 1.0 : static_cast<double>(1ull << (b - 1));
      const double hi = b >= 64 ? 1.8446744073709552e19
                                : static_cast<double>(1ull << b);
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[b]);
      const double estimate = lo + (hi - lo) * within;
      return std::clamp(estimate, static_cast<double>(min),
                        static_cast<double>(max));
    }
    seen += buckets[b];
  }
  return static_cast<double>(max);
}

MetricsSnapshot Snapshot() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(registry.counters.size());
  for (const auto& [name, counter] : registry.counters) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.gauges.reserve(registry.gauges.size());
  for (const auto& [name, gauge] : registry.gauges) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  snapshot.histograms.reserve(registry.histograms.size());
  for (const auto& [name, histogram] : registry.histograms) {
    HistogramSnapshot h;
    h.name = name;
    h.count = histogram->count();
    h.sum = histogram->sum();
    const uint64_t raw_min = histogram->min();
    h.min = raw_min == UINT64_MAX ? 0 : raw_min;
    h.max = histogram->max();
    h.buckets = histogram->BucketCounts();
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

MetricsSnapshot DiffSnapshots(const MetricsSnapshot& begin,
                              const MetricsSnapshot& end) {
  MetricsSnapshot diff;
  // Snapshots are sorted by name within each kind, so each section is a
  // linear merge keyed on name.
  auto baseline = [](const auto& sorted_pairs, const std::string& name,
                     auto missing) {
    const auto it = std::lower_bound(
        sorted_pairs.begin(), sorted_pairs.end(), name,
        [](const auto& pair, const std::string& key) {
          return pair.first < key;
        });
    return it != sorted_pairs.end() && it->first == name ? it->second
                                                         : missing;
  };
  for (const auto& [name, value] : end.counters) {
    const uint64_t before = baseline(begin.counters, name, uint64_t{0});
    // Clamp instead of wrapping: a ResetAll racing the window would
    // otherwise report a ~2^64 "delta".
    const uint64_t delta = value >= before ? value - before : 0;
    if (delta != 0) diff.counters.emplace_back(name, delta);
  }
  for (const auto& [name, value] : end.gauges) {
    // Gauges carry last-value semantics; report the end value.
    const bool known = baseline(begin.gauges, name, int64_t{0}) != 0 ||
                       value != 0;
    if (known) diff.gauges.emplace_back(name, value);
  }
  for (const auto& h : end.histograms) {
    const auto it = std::lower_bound(
        begin.histograms.begin(), begin.histograms.end(), h.name,
        [](const HistogramSnapshot& snap, const std::string& key) {
          return snap.name < key;
        });
    const HistogramSnapshot* before =
        it != begin.histograms.end() && it->name == h.name ? &*it : nullptr;
    HistogramSnapshot d;
    d.name = h.name;
    const uint64_t count_before = before != nullptr ? before->count : 0;
    const uint64_t sum_before = before != nullptr ? before->sum : 0;
    d.count = h.count >= count_before ? h.count - count_before : 0;
    d.sum = h.sum >= sum_before ? h.sum - sum_before : 0;
    if (d.count == 0) continue;
    int lowest = -1;
    int highest = -1;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const uint64_t bucket_before =
          before != nullptr ? before->buckets[static_cast<size_t>(b)] : 0;
      const uint64_t bucket_end = h.buckets[static_cast<size_t>(b)];
      d.buckets[static_cast<size_t>(b)] =
          bucket_end >= bucket_before ? bucket_end - bucket_before : 0;
      if (d.buckets[static_cast<size_t>(b)] == 0) continue;
      if (lowest < 0) lowest = b;
      highest = b;
    }
    // Min/max are the window's own. A one-sample window's sum is that
    // sample. Otherwise the window's lowest and highest non-empty buckets
    // (bucket b holds [2^(b-1), 2^b - 1]) bound them, inside the
    // process-lifetime extremes; with no bucket delta (a Record raced the
    // snapshots) only the lifetime extremes are known.
    d.min = h.min;
    d.max = h.max;
    if (d.count == 1) {
      d.min = d.sum;
      d.max = d.sum;
    } else if (lowest >= 0) {
      const uint64_t bucket_min =
          lowest == 0 ? 0 : uint64_t{1} << (lowest - 1);
      const uint64_t bucket_max =
          highest == 64 ? UINT64_MAX : (uint64_t{1} << highest) - 1;
      d.min = std::max(d.min, bucket_min);
      d.max = std::min(d.max, bucket_max);
    }
    diff.histograms.push_back(std::move(d));
  }
  return diff;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += StrFormat("counter   %-36s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : gauges) {
    out += StrFormat("gauge     %-36s %lld\n", name.c_str(),
                     static_cast<long long>(value));
  }
  for (const auto& h : histograms) {
    out += StrFormat(
        "histogram %-36s count=%llu mean=%.1f p50=%.1f p99=%.1f max=%llu\n",
        h.name.c_str(), static_cast<unsigned long long>(h.count), h.Mean(),
        h.P50(), h.P99(), static_cast<unsigned long long>(h.max));
  }
  return out;
}

json::Value MetricsSnapshot::ToJsonValue() const {
  json::Value doc = json::Object{};
  json::Value& counters_obj = doc["counters"];
  counters_obj = json::Object{};
  for (const auto& [name, value] : counters) counters_obj[name] = value;
  json::Value& gauges_obj = doc["gauges"];
  gauges_obj = json::Object{};
  for (const auto& [name, value] : gauges) gauges_obj[name] = value;
  json::Value& histograms_obj = doc["histograms"];
  histograms_obj = json::Object{};
  for (const auto& h : histograms) {
    json::Value entry = json::Object{};
    entry["count"] = h.count;
    entry["sum"] = h.sum;
    entry["min"] = h.min;
    entry["max"] = h.max;
    entry["mean"] = h.Mean();
    entry["p50"] = h.P50();
    entry["p99"] = h.P99();
    // Sparse bucket map "bit_width -> count": most of the 65 buckets are
    // empty, and derived quantiles above are recomputable from this.
    json::Value buckets = json::Object{};
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] != 0) buckets[StrFormat("%zu", b)] = h.buckets[b];
    }
    entry["buckets"] = std::move(buckets);
    histograms_obj[h.name] = std::move(entry);
  }
  return doc;
}

std::string MetricsSnapshot::ToJson(bool pretty) const {
  return json::Write(ToJsonValue(), pretty);
}

}  // namespace csj::metrics
