#ifndef CSJ_CORE_JOIN_STATS_H_
#define CSJ_CORE_JOIN_STATS_H_

#include <cstdint>
#include <string>

#include "core/join_options.h"
#include "core/join_work.h"
#include "util/format.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/status.h"

/// \file
/// Per-join statistics returned by every driver.

namespace csj {

class JoinSink;

/// Everything a single join run reports: the run header, the outcome, the
/// output counters the sink kept and the work (core/join_work.h) the driver
/// did.
struct JoinStats : JoinWork {
  JoinStats() = default;
  /// Stamps the run header. `window_size` is kept for CSJ(g) only; the other
  /// algorithms report 0.
  JoinStats(JoinAlgorithm algorithm, double epsilon, int window_size)
      : algorithm(algorithm),
        epsilon(epsilon),
        window_size(algorithm == JoinAlgorithm::kCSJ ? window_size : 0) {}

  JoinAlgorithm algorithm = JoinAlgorithm::kSSJ;
  double epsilon = 0.0;
  int window_size = 0;

  /// Outcome of the run. Non-OK when the sink entered an error state (e.g.
  /// the output disk filled up) or a parallel worker failed; the traversal
  /// was then aborted early and the output counters describe only what the
  /// sink accepted before the failure.
  Status status;

  // Output shape, read from the sink by ReadOutputCounters.
  uint64_t links = 0;               ///< individually emitted links
  uint64_t groups = 0;              ///< emitted groups
  uint64_t group_member_total = 0;  ///< sum of group sizes
  /// Exact bytes of the output in the sink's accounting format (text or
  /// CSJ2; see JoinSink::bytes()).
  uint64_t output_bytes = 0;

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

  /// Number of links the output *implies* (JoinSink::implied_links): each
  /// group of k members stands for k*(k-1)/2 links, plus the individual
  /// links. For a lossless compact join this matches SSJ's link count minus
  /// duplicates (groups may overlap, so implied counts can exceed the
  /// distinct-link count).
  uint64_t ImpliedLinkUpperBound() const { return implied_links_; }

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
    ForEachField([&](const char* name, auto field) { v[name] = this->*field; });
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
  friend void ReadOutputCounters(const JoinSink& sink, JoinStats* stats);

  uint64_t implied_links_ = 0;
};

/// Copies a sink's output counters, implied links included, into a run's
/// stats. Every driver ends with it, and a caller that finishes the sink
/// calls it again, since a failed last append loses records.
void ReadOutputCounters(const JoinSink& sink, JoinStats* stats);

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
