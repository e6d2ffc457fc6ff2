#include "plan/planner.h"

#include <algorithm>
#include <cmath>

#include "util/format.h"
#include "util/metrics.h"

namespace csj::plan {

namespace {

/// Below this predicted SSJ-bytes / CSJ-bytes ratio, the merge window's
/// upkeep outweighs the output it saves and the planner picks SSJ.
constexpr double kMinCompression = 1.2;

/// Predicted leaf-work (candidate pairs) above which parallel checkpointed
/// execution amortizes its task-decomposition and replay overhead.
constexpr double kParallelWork = 2.0e8;

void RecordPick(QueryAlgo algo) {
  switch (algo) {
    case QueryAlgo::kSSJ:
      CSJ_METRIC_COUNT("plan.picks.ssj", 1);
      break;
    case QueryAlgo::kNCSJ:
      CSJ_METRIC_COUNT("plan.picks.ncsj", 1);
      break;
    default:
      CSJ_METRIC_COUNT("plan.picks.csj", 1);
      break;
  }
}

}  // namespace

json::Value QueryPlan::ToJsonValue() const {
  json::Value v = json::Object{};
  json::Value knobs = json::Object{};
  knobs["algo"] = QueryAlgoName(resolved.algo);
  knobs["g"] = static_cast<int64_t>(resolved.window);
  knobs["threads"] = static_cast<int64_t>(resolved.threads);
  v["knobs"] = std::move(knobs);
  v["predicted"] = estimate.ToJsonValue();
  json::Value ds = json::Array{};
  for (const auto& d : decisions) {
    json::Value entry = json::Object{};
    entry["knob"] = d.knob;
    entry["choice"] = d.choice;
    entry["rationale"] = d.rationale;
    ds.Append(std::move(entry));
  }
  v["decisions"] = std::move(ds);
  v["num_points"] = num_points;
  v["d2"] = d2;
  return v;
}

std::string QueryPlan::ToText() const {
  std::string text = StrFormat(
      "plan for eps=%g over %s points (D2~%.2f):\n", estimate.eps,
      WithThousands(num_points).c_str(), d2);
  for (const auto& d : decisions) {
    text += StrFormat("  %-12s = %-8s %s\n", d.knob.c_str(),
                      d.choice.c_str(), d.rationale.c_str());
  }
  text += StrFormat(
      "predicted: links~%s groups~%s (members~%s) avg_neighbors~%.1f%s\n",
      WithThousands(estimate.links).c_str(),
      WithThousands(estimate.groups).c_str(),
      WithThousands(estimate.group_member_total).c_str(),
      estimate.avg_neighbors,
      estimate.from_power_law ? " [power-law extrapolation]" : "");
  text += StrFormat(
      "predicted bytes: ssj~%s csj~%s (compression %.2fx)\n",
      HumanBytes(estimate.ssj_bytes).c_str(),
      HumanBytes(estimate.csj_bytes).c_str(), estimate.compression);
  return text;
}

QueryPlan PlanQuery(const QuerySpec& spec, const DatasetSketch& sketch,
                    int id_width) {
  CSJ_METRIC_COUNT("plan.queries", 1);
  QueryPlan plan;
  plan.num_points = sketch.num_points;
  plan.d2 = sketch.d2.slope;
  plan.estimate = EstimateOutput(sketch, spec.eps, id_width);
  plan.resolved = spec;
  const OutputEstimate& est = plan.estimate;

  auto decide = [&plan](const char* knob, std::string choice,
                        std::string rationale) {
    plan.decisions.push_back(
        {knob, std::move(choice), std::move(rationale)});
  };

  if (spec.algo != QueryAlgo::kAuto) {
    decide("algo", QueryAlgoName(spec.algo),
           "requested explicitly; the planner only prices the run");
    if (plan.resolved.threads == 0) plan.resolved.threads = 1;
    return plan;
  }

  // Algorithm. Compactness is an *output* optimization: the merge window
  // costs join-time upkeep and pays it back in bytes not written. A
  // count-only query writes nothing, so that trade can never pay — pick
  // N-CSJ, whose early-stop still skips fully-linked subtrees for free.
  // Otherwise: SSJ unless the predicted group structure pays for the
  // merge window.
  if (spec.output == OutputFormat::kNone) {
    plan.resolved.algo = QueryAlgo::kNCSJ;
    decide("algo", "ncsj",
           "output is not materialized (count-only) — compression cannot "
           "pay; early-stop still skips fully-linked subtrees");
  } else if (est.compression < kMinCompression) {
    plan.resolved.algo = QueryAlgo::kSSJ;
    decide("algo", "ssj",
           StrFormat("predicted compression %.2fx < %.2fx — the merge "
                     "window would not pay for itself",
                     est.compression, kMinCompression));
  } else {
    plan.resolved.algo = QueryAlgo::kCSJ;
    decide("algo", "csj",
           StrFormat("predicted compression %.2fx >= %.2fx — grouped "
                     "output is worth the window upkeep",
                     est.compression, kMinCompression));
  }
  RecordPick(plan.resolved.algo);

  // Merge window, by predicted neighborhood density.
  if (plan.resolved.algo == QueryAlgo::kCSJ) {
    if (est.avg_neighbors < 4.0) {
      plan.resolved.window = 4;
      decide("g", "4",
             StrFormat("sparse neighborhoods (avg ~%.1f neighbors) — a "
                       "small window already catches the mergeable links",
                       est.avg_neighbors));
    } else if (est.avg_neighbors <= 64.0) {
      plan.resolved.window = 10;
      decide("g", "10",
             StrFormat("moderate density (avg ~%.1f neighbors) — the "
                       "paper's sweet spot (Figure 6)",
                       est.avg_neighbors));
    } else {
      plan.resolved.window = 16;
      decide("g", "16",
             StrFormat("dense neighborhoods (avg ~%.1f neighbors) — a "
                       "deeper window catches merges before eviction",
                       est.avg_neighbors));
    }
  } else {
    decide("g", StrFormat("%d", plan.resolved.window),
           plan.resolved.algo == QueryAlgo::kNCSJ
               ? "unused: n-csj groups whole subtrees only at early stops"
               : "unused: ssj emits every link individually");
  }

  // Serial vs parallel.
  if (spec.threads > 0) {
    decide("threads", StrFormat("%d", spec.threads),
           "requested explicitly");
  } else if (est.leaf_work > kParallelWork) {
    plan.resolved.threads = 4;
    decide("threads", "4",
           StrFormat("predicted leaf work ~%.2g candidate pairs — "
                     "parallel traversal amortizes task setup",
                     est.leaf_work));
  } else {
    plan.resolved.threads = 1;
    decide("threads", "1",
           StrFormat("predicted leaf work ~%.2g candidate pairs — serial "
                     "avoids checkpoint and replay overhead",
                     est.leaf_work));
  }
  return plan;
}

JoinOptions DeriveJoinOptions(const QuerySpec& spec) {
  JoinOptions options;
  options.epsilon = spec.eps;
  options.window_size = spec.window;
  options.deadline_ms = spec.deadline_ms;
  return options;
}

EgoOptions DeriveEgoOptions(const QuerySpec& spec) {
  EgoOptions options;
  options.epsilon = spec.eps;
  options.window_size = spec.window;
  options.deadline_ms = spec.deadline_ms;
  return options;
}

void AttachPlan(const QueryPlan& plan, JoinStats* stats) {
  stats->predicted_links = plan.estimate.links;
  stats->predicted_groups =
      plan.resolved.algo == QueryAlgo::kSSJ ? 0 : plan.estimate.groups;
  stats->plan_json = json::Write(plan.ToJsonValue());
}

void RecordPlanAccuracy(const JoinStats& stats) {
  if (stats.plan_json.empty()) return;
  CSJ_METRIC_COUNT("plan.measured_runs", 1);
  const uint64_t actual = stats.ImpliedLinkUpperBound();
  const uint64_t predicted = stats.predicted_links;
  const uint64_t links_err =
      predicted > actual ? predicted - actual : actual - predicted;
  CSJ_METRIC_HIST("plan.links_error_pct",
                  links_err * 100 / std::max<uint64_t>(1, actual));
  if (stats.predicted_groups != 0 || stats.groups != 0) {
    const uint64_t groups_err = stats.predicted_groups > stats.groups
                                    ? stats.predicted_groups - stats.groups
                                    : stats.groups - stats.predicted_groups;
    CSJ_METRIC_HIST("plan.groups_error_pct",
                    groups_err * 100 / std::max<uint64_t>(1, stats.groups));
  }
}

}  // namespace csj::plan
