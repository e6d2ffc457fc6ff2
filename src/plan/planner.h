#ifndef CSJ_PLAN_PLANNER_H_
#define CSJ_PLAN_PLANNER_H_

#include <string>
#include <vector>

#include "core/ego.h"
#include "core/join_options.h"
#include "core/join_stats.h"
#include "core/query_spec.h"
#include "plan/estimator.h"
#include "util/json.h"

/// \file
/// The cost-based query planner: QuerySpec -> QueryPlan -> derived
/// execution structs.
///
/// `PlanQuery` resolves a spec against a dataset sketch. An explicit spec
/// passes through untouched (the planner only prices it); `algo=auto` makes
/// the planner choose the algorithm, merge window and worker threads — the
/// decisions that change cost — recording a rationale per decision so
/// `csj_tool plan` / the serve trailer can explain themselves. The plan runs
/// through plan/execute.h.
///
/// Policy (docs/PLANNING.md has the full derivation):
///  * SSJ when the predicted compression ratio is below 1.2x — groups that
///    do not pay for their window upkeep are pure overhead;
///  * otherwise CSJ(g), with g picked by predicted neighborhood density
///    (the paper's sweet spot g=10 in the middle band);
///  * 4 threads only when the predicted leaf work keeps them busy; threads
///    choose the number of workers, never the output.
///
/// `DeriveJoinOptions` / `DeriveEgoOptions` are the *only* spec-to-options
/// mapping in the system: a 1:1 field copy onto the option defaults (sweep
/// leaf kernel, batched, index-order child pairs), so explicitly specified
/// configurations execute byte-identically to the historical flag plumbing.

namespace csj::plan {

/// One explained planner decision.
struct PlanDecision {
  std::string knob;       ///< "algo", "g" or "threads"
  std::string choice;     ///< rendered chosen value
  std::string rationale;  ///< one sentence of why
};

/// A resolved, explainable plan.
struct QueryPlan {
  /// The input spec with every auto knob filled in. `resolved.algo` is
  /// never kAuto.
  QuerySpec resolved;

  /// Predictions at the requested eps (estimator.h).
  OutputEstimate estimate;

  /// Sketch facts worth echoing (dimension estimate, sample size).
  double d2 = 0.0;
  uint64_t num_points = 0;

  std::vector<PlanDecision> decisions;

  /// {"knobs": {algo,g,threads},
  ///  "predicted": OutputEstimate, "decisions": [...], ...}. Deterministic
  /// (sorted keys), used verbatim as JoinStats::plan_json.
  json::Value ToJsonValue() const;

  /// Human-readable explain rendering (csj_tool plan).
  std::string ToText() const;
};

/// Resolves `spec` against `sketch`. `id_width` prices the byte
/// predictions (IdWidthFor(n)). Works for any spec; only kAuto specs have
/// knobs chosen for them.
QueryPlan PlanQuery(const QuerySpec& spec, const DatasetSketch& sketch,
                    int id_width);

/// The spec -> JoinOptions field mapping (tree algorithms). Callers attach
/// exec/tracker afterwards; `deadline_ms` is copied and may be overridden
/// by serving-side clamps.
JoinOptions DeriveJoinOptions(const QuerySpec& spec);

/// The spec -> EgoOptions field mapping (ego/cego).
EgoOptions DeriveEgoOptions(const QuerySpec& spec);

/// Stamps the plan's predictions into a finished run's stats
/// (predicted_links / predicted_groups / plan_json).
void AttachPlan(const QueryPlan& plan, JoinStats* stats);

/// Records plan.* estimator-accuracy metrics for a finished planned run
/// (no-op when `stats` carries no plan). Actual link counts use
/// ImpliedLinkUpperBound so compact outputs compare on equal terms.
void RecordPlanAccuracy(const JoinStats& stats);

}  // namespace csj::plan

#endif  // CSJ_PLAN_PLANNER_H_
