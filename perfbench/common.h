#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

/// \file
/// Shared pieces of the benchmark: run arguments, the metric and failure
/// ledger every workload fills, input generation, and small helpers over
/// the library's public types.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "csj.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 27;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports: metrics by name with their unit, operations
/// attempted / failed (with the first few failure messages), and a free-form
/// details document written to the report file.
class Ledger {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return metrics_.count(name) != 0; }
  double Get(const std::string& name) const { return metrics_.at(name).value; }

  /// Counts one operation; `ok == false` counts it failed with `why`.
  void Op(bool ok, const std::string& why = "") {
    ++attempted_;
    if (!ok) Fail(why);
  }
  /// Counts a failure of an operation already counted as attempted.
  void Fail(const std::string& why) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(why);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  csj::json::Value details = csj::json::Object{};

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// The three tree algorithms of Experiment 1 with their metric-name stems.
struct AlgoInfo {
  csj::QueryAlgo algo;
  const char* name;  ///< "ssj", "ncsj", "csj"
};
inline constexpr AlgoInfo kAlgos[] = {{csj::QueryAlgo::kSSJ, "ssj"},
                                      {csj::QueryAlgo::kNCSJ, "ncsj"},
                                      {csj::QueryAlgo::kCSJ, "csj"}};

/// MG County stand-in (27K road-network points, generator seed 27).
inline csj::RoadNetOptions MgOptions() {
  csj::RoadNetOptions options;
  options.num_points = 27000;
  options.seed = 27;
  options.num_cities = 8;
  return options;
}

/// Pacific-NW stand-in at 10% (150K points, generator seed 1015).
inline csj::RoadNetOptions PnwOptions() {
  csj::RoadNetOptions options;
  options.num_points = 150000;
  options.seed = 1015;
  options.num_cities = 24;
  options.subdivision_depth = 8;
  options.urban_fraction = 0.45;
  options.urban_sigma = 0.02;
  return options;
}

/// The benchmark seed that leaves the stand-ins unperturbed.
inline constexpr uint64_t kStandInSeed = 27;

/// A stand-in network perturbed by the benchmark seed. kStandInSeed gives
/// the stand-in itself; any other seed shuffles the point order (so ids,
/// packing input and output differ) and moves every point by a uniform
/// offset of at most 2^-16 per axis, a sixteenth of the smallest epsilon
/// any workload uses. The map, and so the size of every query, stays that
/// of the stand-in: a new generator seed would change query sizes by a
/// third (docs in README.md).
std::vector<csj::Point2> PerturbedStandIn(const csj::RoadNetOptions& standin,
                                          uint64_t seed);

/// Generates a workload input and writes it as the program's input file.
inline csj::Status WritePoints(const csj::RoadNetOptions& standin,
                               uint64_t seed, const std::string& path) {
  return csj::SavePoints(path, PerturbedStandIn(standin, seed));
}

/// Fast 64-bit hash of a byte string, for payload comparison.
inline uint64_t Hash64(std::string_view bytes) {
  uint64_t h = 0x9E3779B97F4A7C15ULL ^ bytes.size();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 29;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<uint8_t>(bytes[i])) * 0x100000001B3ULL;
  }
  return h;
}

/// CPUs this process may run on, ascending.
std::vector<int> AllowedCpus();

/// Restricts the calling thread, and threads it creates afterwards, to
/// `count` CPUs of `cpus` starting at position `first` (wrapping around).
/// Batch rounds rotate over the CPUs with this: on a shared host one vCPU
/// can run 30% slower than another for tens of seconds, which would
/// otherwise decide a whole single-threaded run.
void PinToCpus(const std::vector<int>& cpus, size_t first, size_t count);

/// The host-speed reference: sorting a fixed set of 65,536 doubles four
/// times, in cache, without allocating. It calls nothing in the library, so
/// only the host changes its time. Returns seconds. Main thread only.
double ReferenceSeconds();

/// What the reference takes on the 4-vCPU Xeon VM the baseline was
/// measured on, in its usual state. See "Host-speed scaling" in README.md.
inline constexpr double kReferenceNominalS = 0.022;

/// Reads a whole file; empty on failure (callers compare sizes too).
std::string ReadFile(const std::string& path);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Value of counter `name` in a metrics snapshot (0 if absent).
uint64_t CounterValue(const csj::metrics::MetricsSnapshot& snap,
                      const std::string& name);

/// Sum of histogram `name` in a metrics snapshot (0 if absent).
uint64_t HistogramSum(const csj::metrics::MetricsSnapshot& snap,
                      const std::string& name);

/// A counter delta between two snapshots.
inline double Delta(const csj::metrics::MetricsSnapshot& begin,
                    const csj::metrics::MetricsSnapshot& end,
                    const std::string& name) {
  return static_cast<double>(CounterValue(end, name)) -
         static_cast<double>(CounterValue(begin, name));
}

/// Counters of a snapshot as a flat JSON object (for the trace file).
csj::json::Value CountersJson(const csj::metrics::MetricsSnapshot& snap);

/// a / b, or 0 when b is 0.
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// One algorithm's join-layer totals over an epsilon ladder, one query per
/// epsilon. Add() takes the counters of a query's JoinStats; callers add
/// the timings they measure their own way.
struct JoinLayer {
  double node_visits = 0, candidates = 0, pruned = 0, computed = 0, hits = 0;
  double join_s = 0, sink_s = 0, sink_bytes = 0;
  double groups = 0, members = 0, early_stops = 0;
  double merge_attempts = 0, merges = 0, evictions = 0;

  void Add(const csj::JoinStats& s) {
    node_visits += static_cast<double>(s.node_accesses);
    candidates += static_cast<double>(s.kernel_candidates);
    pruned += static_cast<double>(s.kernel_pruned);
    computed += static_cast<double>(s.distance_computations);
    hits += static_cast<double>(s.kernel_hits);
    sink_bytes += static_cast<double>(s.output_bytes);
    groups += static_cast<double>(s.groups);
    members += static_cast<double>(s.group_member_total);
    early_stops += static_cast<double>(s.early_stops);
    merge_attempts += static_cast<double>(s.merge_attempts);
    merges += static_cast<double>(s.merges);
  }
};

/// Sets the index.node_visits, geom.*, core.* metrics of one algorithm.
void SetJoinLayerMetrics(const AlgoInfo& algo, const JoinLayer& layer,
                         Ledger* ledger);

/// Workload entry points. Each fills `ledger` with every end-to-end metric
/// (untraced) or every per-layer metric (traced) of the benchmark.
void RunBatchWorkload(const Args& args, Tracer* tracer, Ledger* ledger);
void RunServeMix(const Args& args, Tracer* tracer, Ledger* ledger);

/// Names of every metric, in BENCHMARK.json order; the runner fills
/// any a workload does not exercise with 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
