#ifndef CSJ_CORE_QUERY_SPEC_H_
#define CSJ_CORE_QUERY_SPEC_H_

#include <cstdint>
#include <string>

#include "core/join_options.h"
#include "core/sink.h"
#include "util/json.h"
#include "util/status.h"

/// \file
/// QuerySpec — the single user-facing description of a similarity-join
/// query, shared by csj_tool, csj_serve and the bench harness.
///
/// A QuerySpec says *what* the caller wants (dataset, eps, algorithm —
/// possibly "auto" — output shape, resource limits), and nothing else:
/// every query runs the default leaf kernel and batch pipeline, whose
/// output is the same under any setting. The planner
/// (plan/planner.h) turns it into the *how*: a resolved spec plus derived
/// execution structs (`JoinOptions` / `EgoOptions`). Entry points no longer
/// hand-assemble option structs — they build a QuerySpec, validate it, and
/// derive. For explicitly specified configurations the derivation is a 1:1
/// field mapping, so output stays byte-identical to the pre-QuerySpec
/// plumbing.
///
/// The JSON field names below are exactly the csj_serve wire names
/// (docs/SERVING.md), so the serve protocol parses request knobs through
/// `QuerySpec::FromJson` and a one-shot tool run and a served query describe
/// themselves identically.

namespace csj {

/// The user-facing algorithm choice. Unlike `JoinAlgorithm` (which names a
/// concrete tree-join driver), this includes the EGO-sort family and the
/// planner's "auto".
enum class QueryAlgo {
  kAuto,  ///< let the planner pick (tree algorithms only)
  kSSJ,
  kNCSJ,
  kCSJ,
  kEgo,   ///< EGO-sort standard join (needs raw points, not a tree)
  kCEgo,  ///< EGO-sort compact join
};

/// Wire/flag name: "auto", "ssj", "ncsj", "csj", "ego", "cego".
const char* QueryAlgoName(QueryAlgo algo);

/// Inverse of QueryAlgoName. Returns false on unknown names.
bool ParseQueryAlgo(const std::string& name, QueryAlgo* algo);

/// True for the three tree algorithms (and false for auto/ego/cego).
inline bool IsTreeAlgo(QueryAlgo algo) {
  return algo == QueryAlgo::kSSJ || algo == QueryAlgo::kNCSJ ||
         algo == QueryAlgo::kCSJ;
}

/// True for the EGO-sort family.
inline bool IsEgoAlgo(QueryAlgo algo) {
  return algo == QueryAlgo::kEgo || algo == QueryAlgo::kCEgo;
}

/// The concrete tree-join driver for a resolved (non-auto, non-ego) algo.
inline JoinAlgorithm TreeAlgorithmFor(QueryAlgo algo) {
  switch (algo) {
    case QueryAlgo::kSSJ:
      return JoinAlgorithm::kSSJ;
    case QueryAlgo::kNCSJ:
      return JoinAlgorithm::kNCSJ;
    default:
      return JoinAlgorithm::kCSJ;
  }
}

/// One query, fully described. Defaults match the historical flag defaults
/// of csj_tool and the serve protocol.
struct QuerySpec {
  /// Dataset reference: a file path for one-shot runs, a registered dataset
  /// name for csj_serve. Empty is valid at the struct level (benches attach
  /// data directly); entry points enforce their own requirements.
  std::string dataset;
  /// Second dataset: selects a dual (spatial) join. Tree algorithms only.
  std::string dataset_b;

  QueryAlgo algo = QueryAlgo::kCSJ;

  /// Query range (the paper's epsilon). Must be > 0 to validate.
  double eps = 0.0;

  /// CSJ(g) merge-window size (the paper's g). JSON field "g".
  int window = 10;

  /// Worker threads. 0 = unspecified: the planner decides for `algo=auto`,
  /// explicit runs treat it as 1 (serial). Values > 1 select the
  /// checkpointed parallel runner in csj_tool; csj_serve ignores the field
  /// (each query runs serial on a server worker).
  int threads = 0;

  /// Wall-clock budget in milliseconds; 0 = unlimited (or the server
  /// default when served).
  uint64_t deadline_ms = 0;

  /// Memory budget in bytes; 0 = unlimited.
  uint64_t mem_budget = 0;

  /// Output shape: text, binary (CSJ2) or none (count only).
  OutputFormat output = OutputFormat::kText;

  friend bool operator==(const QuerySpec&, const QuerySpec&) = default;

  /// Structural validation (field ranges and combinations). Does not check
  /// that `dataset` resolves — that is the entry point's job.
  Status Validate() const;

  /// Serializes every field under its wire name. FromJson is an exact
  /// inverse: FromJson(ToJsonValue(s)) == s for any valid s.
  json::Value ToJsonValue() const;

  /// Strict parse: unknown fields and wrong types are errors, absent fields
  /// keep their defaults. Integer fields take only integer JSON values in
  /// their C++ type's range. Does not call Validate() — parse-then-validate,
  /// so callers can distinguish malformed requests from invalid ones.
  static Result<QuerySpec> FromJson(const json::Value& doc);
};

}  // namespace csj

#endif  // CSJ_CORE_QUERY_SPEC_H_
