#ifndef CSJ_UTIL_METRICS_H_
#define CSJ_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/timer.h"

/// \file
/// Process-wide runtime metrics: counters, gauges and latency histograms.
///
/// The engine's hot paths are instrumented with named metrics that are cheap
/// enough to leave on in production: every update is a relaxed atomic
/// operation on a pre-resolved pointer — no locks, no lookups. Call sites
/// use the macros, which resolve the registry entry once per site:
///
///     CSJ_METRIC_COUNT("join.node_visits", 1);
///     CSJ_METRIC_HIST("output_file.append_ns", nanos);
///     CSJ_METRIC_GAUGE_SET("window.live_groups", n);
///     { CSJ_METRIC_SCOPED_TIMER("parallel.replay_ns"); Replay(); }
///
/// A MetricsSnapshot captures every registered metric at a point in time and
/// serializes to text (one line per metric) or JSON (see
/// docs/OBSERVABILITY.md for the schema and the metric catalog). Histograms
/// are lock-free log2-bucketed (64-bit value range, ~2x relative error on
/// quantiles), good enough for the p50/p99 latency and size distributions
/// the bench records track.
///
/// Compile-time kill switch: building with -DCSJ_NO_METRICS (CMake option
/// CSJ_METRICS=OFF) turns the macros into no-ops, mirroring the failpoint
/// pattern — instrumented code carries zero overhead and registers nothing.
/// The registry API itself stays linked so snapshot consumers (csj_tool
/// --metrics, the bench recorder) still compile and see an empty registry.
///
/// Metrics are cumulative over the process lifetime; ResetAll() zeroes every
/// registered metric (tests and bench harnesses isolate measurements with
/// it). Registration never unregisters: pointers returned by Get* stay valid
/// until process exit.

namespace csj::metrics {

/// Monotonic event counter.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  const std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// Last-value gauge (signed: occupancy deltas may go negative transiently).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  const std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Lock-free histogram over uint64 values (latencies in nanoseconds, sizes
/// in bytes, occupancies...). Values are bucketed by bit width — bucket i
/// holds values in [2^(i-1), 2^i) — so quantile estimates carry at most ~2x
/// relative error, while Record() is two relaxed adds plus two relaxed
/// min/max updates.
class Histogram {
 public:
  /// Bucket b holds values whose bit_width is b (value 0 -> bucket 0).
  static constexpr int kBuckets = 65;

  explicit Histogram(std::string name) : name_(std::move(name)) { Reset(); }

  void Record(uint64_t value);

  const std::string& name() const { return name_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

  /// Copies the bucket array (for snapshotting).
  std::array<uint64_t, kBuckets> BucketCounts() const;
  uint64_t min() const { return min_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  const std::string name_;
  std::atomic<uint64_t> count_;
  std::atomic<uint64_t> sum_;
  std::atomic<uint64_t> min_;  ///< UINT64_MAX while empty
  std::atomic<uint64_t> max_;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_;
};

/// Returns the metric registered under `name`, creating it on first use.
/// The returned pointer is valid forever. Registering the same name as two
/// different metric kinds aborts (it is a programming error).
Counter* GetCounter(const std::string& name);
Gauge* GetGauge(const std::string& name);
Histogram* GetHistogram(const std::string& name);

/// Zeroes every registered metric (the metrics stay registered).
void ResetAll();

/// Point-in-time copy of one histogram, plus derived statistics.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< 0 when empty
  uint64_t max = 0;
  std::array<uint64_t, Histogram::kBuckets> buckets{};

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// containing power-of-two bucket, clamped to the observed [min, max].
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P99() const { return Quantile(0.99); }

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Point-in-time copy of the whole registry, sorted by name within each
/// kind. Serializes to text and JSON.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// One line per metric; histograms render count/mean/p50/p99/max.
  std::string ToText() const;
  /// JSON document (schema in docs/OBSERVABILITY.md).
  json::Value ToJsonValue() const;
  std::string ToJson(bool pretty = true) const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Captures every registered metric.
MetricsSnapshot Snapshot();

/// Attribution window over the process-wide registry: the metrics activity
/// between two snapshots. The registry is shared by every concurrent query,
/// so absolute values smear neighbors together; a begin/end delta is how a
/// server reports per-query `join.*`/`sink.*` numbers (still approximate
/// under concurrency — the window sees overlapping queries' traffic — but
/// exact when the window brackets a single query, e.g. one-shot tools).
///
/// Semantics per kind:
///  * counters — end minus begin. Counters are monotonic by contract; a
///    negative delta (a Reset raced the window) is clamped to 0 rather than
///    wrapping to ~2^64. Counters registered mid-window keep their end
///    value; zero deltas are dropped, so the result lists what *happened*.
///  * gauges — last-value semantics, a delta is meaningless: the end value
///    is reported as-is (dropped when also absent from `begin` and zero).
///  * histograms — count/sum/bucket deltas (negatives clamped like
///    counters). Min/max are the window's own: exact for a one-sample
///    window (both equal its sum); otherwise the bounds of its lowest and
///    highest non-empty delta buckets, clamped to the process-lifetime
///    extremes. Empty-window histograms are dropped.
MetricsSnapshot DiffSnapshots(const MetricsSnapshot& begin,
                              const MetricsSnapshot& end);

/// RAII nanosecond timer recording into a histogram on destruction.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(Histogram* histogram) : histogram_(histogram) {}
  ~ScopedTimerNs() {
    if (histogram_ != nullptr) histogram_->Record(timer_.ElapsedNanos());
  }

  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  Histogram* histogram_;
  WallTimer timer_;
};

}  // namespace csj::metrics

#ifdef CSJ_NO_METRICS

#define CSJ_METRIC_COUNT(name, n) \
  do {                            \
  } while (false)
#define CSJ_METRIC_HIST(name, value) \
  do {                               \
  } while (false)
#define CSJ_METRIC_GAUGE_SET(name, value) \
  do {                                    \
  } while (false)
#define CSJ_METRIC_SCOPED_TIMER(name) \
  do {                                \
  } while (false)

#else

/// Adds `n` to the named counter. The registry lookup runs once per call
/// site (function-local static); the increment is one relaxed atomic add.
#define CSJ_METRIC_COUNT(name, n)                                         \
  do {                                                                    \
    static ::csj::metrics::Counter* _csj_metric_counter =                 \
        ::csj::metrics::GetCounter(name);                                 \
    _csj_metric_counter->Increment(static_cast<uint64_t>(n));             \
  } while (false)

/// Records `value` into the named histogram.
#define CSJ_METRIC_HIST(name, value)                                      \
  do {                                                                    \
    static ::csj::metrics::Histogram* _csj_metric_histogram =             \
        ::csj::metrics::GetHistogram(name);                               \
    _csj_metric_histogram->Record(static_cast<uint64_t>(value));          \
  } while (false)

/// Sets the named gauge.
#define CSJ_METRIC_GAUGE_SET(name, value)                                 \
  do {                                                                    \
    static ::csj::metrics::Gauge* _csj_metric_gauge =                     \
        ::csj::metrics::GetGauge(name);                                   \
    _csj_metric_gauge->Set(static_cast<int64_t>(value));                  \
  } while (false)

/// Times the enclosing scope into the named histogram (nanoseconds).
#define CSJ_METRIC_SCOPED_TIMER(name)                                     \
  static ::csj::metrics::Histogram* _csj_metric_timer_hist =              \
      ::csj::metrics::GetHistogram(name);                                 \
  ::csj::metrics::ScopedTimerNs _csj_metric_scoped_timer(                 \
      _csj_metric_timer_hist)

#endif  // CSJ_NO_METRICS

#endif  // CSJ_UTIL_METRICS_H_
