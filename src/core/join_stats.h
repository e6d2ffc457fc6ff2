#ifndef CSJ_CORE_JOIN_STATS_H_
#define CSJ_CORE_JOIN_STATS_H_

#include <cstdint>
#include <string>

#include "core/join_options.h"
#include "util/format.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/status.h"

/// \file
/// Per-join statistics returned by every driver.

namespace csj {

/// Everything a single join run reports. Output counters mirror the sink;
/// work counters are maintained by the driver.
struct JoinStats {
  JoinAlgorithm algorithm = JoinAlgorithm::kSSJ;
  double epsilon = 0.0;
  int window_size = 0;

  /// Outcome of the run. Non-OK when the sink entered an error state (e.g.
  /// the output disk filled up) or a parallel worker failed; the traversal
  /// was then aborted early and the output counters describe only what the
  /// sink accepted before the failure.
  Status status;

  // Output shape.
  uint64_t links = 0;               ///< individually emitted links
  uint64_t groups = 0;              ///< emitted groups
  uint64_t group_member_total = 0;  ///< sum of group sizes
  /// Exact bytes of the output in the sink's accounting format (text or
  /// CSJ2; see JoinSink::bytes()).
  uint64_t output_bytes = 0;

  // Work counters.
  uint64_t distance_computations = 0;
  /// Leaf-kernel accounting (geom/kernels.h): raw leaf pair space, pairs the
  /// plane sweep discarded on the 1-D bound alone, and in-range pairs.
  /// distance_computations == kernel_candidates - kernel_pruned + any
  /// non-leaf distance work. Zero for drivers that bypass the kernel layer.
  uint64_t kernel_candidates = 0;
  uint64_t kernel_pruned = 0;
  uint64_t kernel_hits = 0;
  uint64_t node_accesses = 0;   ///< node visits (0 if no tracker installed)
  uint64_t page_requests = 0;   ///< simulated page requests
  uint64_t page_disk_reads = 0; ///< simulated LRU misses
  uint64_t early_stops = 0;     ///< subtree groups from the stopping rule
  uint64_t merge_attempts = 0;  ///< link-into-group trials (CSJ)
  uint64_t merges = 0;          ///< successful merges (CSJ)

  // Timing.
  double elapsed_seconds = 0.0;  ///< total join wall time (includes writes)
  double write_seconds = 0.0;    ///< sink time, if measure_write_time was set

  // Planner wiring (plan/planner.h). Zero/empty for unplanned runs. The
  // predictions are stamped by AttachPlan after the run; predicted_links
  // counts total qualifying pairs (compare against ImpliedLinkUpperBound),
  // predicted_groups is zero when the resolved algorithm emits no groups.
  uint64_t predicted_links = 0;
  uint64_t predicted_groups = 0;
  /// The serialized QueryPlan (json::Write of QueryPlan::ToJsonValue), so
  /// one-shot runs, serve trailers and bench reports all echo the same
  /// explainable plan document.
  std::string plan_json;

  /// Number of links the output *implies*: each emitted group of k members
  /// stands for k*(k-1)/2 links, plus the individual links. For a lossless
  /// compact join this matches SSJ's link count minus duplicates (groups may
  /// overlap, so implied counts can exceed the distinct-link count).
  uint64_t ImpliedLinkUpperBound() const { return implied_links_; }
  void AddImpliedGroup(uint64_t k) { implied_links_ += k * (k - 1) / 2; }
  void AddImpliedLink() { ++implied_links_; }
  /// Bulk restore for checkpoint/resume (storage/checkpoint.h): a resumed
  /// run re-seeds the counter with the manifest's cumulative value.
  void AddImpliedLinks(uint64_t n) { implied_links_ += n; }
  /// Drops the links implied by records a sink accepted but then lost
  /// (JoinSink::lost_implied_links).
  void DeductImpliedLinks(uint64_t n) { implied_links_ -= n; }

  std::string ToString() const {
    std::string text = StrFormat(
        "%s eps=%g g=%d: links=%llu groups=%llu bytes=%llu dist=%llu "
        "early_stops=%llu merges=%llu/%llu time=%s write=%s",
        JoinAlgorithmName(algorithm), epsilon, window_size,
        static_cast<unsigned long long>(links),
        static_cast<unsigned long long>(groups),
        static_cast<unsigned long long>(output_bytes),
        static_cast<unsigned long long>(distance_computations),
        static_cast<unsigned long long>(early_stops),
        static_cast<unsigned long long>(merges),
        static_cast<unsigned long long>(merge_attempts),
        HumanDuration(elapsed_seconds).c_str(),
        HumanDuration(write_seconds).c_str());
    if (!status.ok()) text += " [" + status.ToString() + "]";
    return text;
  }

  /// Machine-readable form, used by the bench JSON records (BENCH_*.json)
  /// and csj_tool. Field names match the member names.
  json::Value ToJsonValue() const {
    json::Value v = json::Object{};
    v["algorithm"] = JoinAlgorithmName(algorithm);
    v["epsilon"] = epsilon;
    v["window_size"] = static_cast<int64_t>(window_size);
    v["status"] = status.ok() ? "OK" : status.ToString();
    v["links"] = links;
    v["groups"] = groups;
    v["group_member_total"] = group_member_total;
    v["output_bytes"] = output_bytes;
    v["distance_computations"] = distance_computations;
    v["kernel_candidates"] = kernel_candidates;
    v["kernel_pruned"] = kernel_pruned;
    v["kernel_hits"] = kernel_hits;
    v["node_accesses"] = node_accesses;
    v["page_requests"] = page_requests;
    v["page_disk_reads"] = page_disk_reads;
    v["early_stops"] = early_stops;
    v["merge_attempts"] = merge_attempts;
    v["merges"] = merges;
    v["elapsed_seconds"] = elapsed_seconds;
    v["write_seconds"] = write_seconds;
    v["implied_links"] = implied_links_;
    // Planned runs only, so unplanned stats documents are unchanged.
    if (predicted_links != 0 || predicted_groups != 0 || !plan_json.empty()) {
      v["predicted_links"] = predicted_links;
      v["predicted_groups"] = predicted_groups;
    }
    if (!plan_json.empty()) {
      auto plan = json::Parse(plan_json);
      v["plan"] = plan.ok() ? *plan : json::Value(plan_json);
    }
    return v;
  }

 private:
  uint64_t implied_links_ = 0;
};

/// Mirrors a run's (or a task's) work counters into the process-wide join.*
/// metrics: one bulk add per run, so the per-pair hot loops stay untouched.
/// Every driver calls it once per unit of work it reports.
inline void CountJoinWork([[maybe_unused]] const JoinStats& stats) {
  CSJ_METRIC_COUNT("join.distance_computations", stats.distance_computations);
  CSJ_METRIC_COUNT("join.early_stops", stats.early_stops);
  CSJ_METRIC_COUNT("join.merge_attempts", stats.merge_attempts);
  CSJ_METRIC_COUNT("join.merges", stats.merges);
}

}  // namespace csj

#endif  // CSJ_CORE_JOIN_STATS_H_
