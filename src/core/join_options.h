#ifndef CSJ_CORE_JOIN_OPTIONS_H_
#define CSJ_CORE_JOIN_OPTIONS_H_

#include <cstdint>

#include "geom/kernels.h"
#include "index/node_access.h"
#include "util/exec_context.h"

/// \file
/// Options shared by all join drivers.

namespace csj {

/// Which of the paper's three algorithms a driver runs.
enum class JoinAlgorithm {
  kSSJ,   ///< standard similarity join: every link output individually
  kNCSJ,  ///< naive compact join: early-stopping subtree groups only
  kCSJ,   ///< compact join: early stopping + merge into g recent groups
};

/// Short display name ("SSJ", "N-CSJ", "CSJ").
inline const char* JoinAlgorithmName(JoinAlgorithm a) {
  switch (a) {
    case JoinAlgorithm::kSSJ:
      return "SSJ";
    case JoinAlgorithm::kNCSJ:
      return "N-CSJ";
    case JoinAlgorithm::kCSJ:
      return "CSJ";
  }
  return "?";
}

/// Join parameters.
///
/// Range predicate: the paper's prose and pseudocode mix "<" and "<=" for
/// the range test; we use the *closed* predicate d(p, q) <= epsilon for both
/// the pair test and the group-diagonal test. Using the same closure on both
/// sides is what keeps Theorems 1 (completeness) and 2 (correctness) true:
/// diagonal(G) <= eps implies every pair inside G satisfies d <= eps.
struct JoinOptions {
  /// Query range (the paper's epsilon). Must be > 0.
  double epsilon = 0.1;

  /// CSJ(g): number of most recent groups considered for merging a link.
  /// The paper's sweet spot is ~10 (Figure 6).
  int window_size = 10;

  /// Ablation: disable the subtree early-stopping rule (CSJ then compacts by
  /// merging alone). N-CSJ ignores this — the early stop *is* N-CSJ.
  bool early_stop = true;

  /// Ablation: on a successful merge, move the group to the most-recent slot
  /// of the window (LRU-like) instead of keeping creation order. Box and
  /// ball groups alike; a library option only (no flag or request sets it).
  bool promote_on_merge = false;

  /// Leaf-level pair enumeration strategy (geom/kernels.h): the plane-sweep
  /// pruned loop over cached SoA tiles (core/leaf_stage.h), or the scalar
  /// baseline double loop, the reference the kernel tests compare against.
  /// Both produce byte-identical output (the sweep replays hits in the naive
  /// loop's order); they differ only in speed and in how many distances
  /// they actually compute.
  LeafKernel leaf_kernel = LeafKernel::kSweep;

  /// When true, time spent inside the sink is accumulated separately
  /// (Experiment 3's computation-vs-write split). Adds two clock reads per
  /// emission, so leave off in pure-runtime sweeps.
  bool measure_write_time = false;

  /// Wall-clock budget in milliseconds; 0 = unlimited. The run stops at the
  /// next node visit and reports DeadlineExceeded through
  /// `JoinStats::status`; a checkpointed run (core/checkpoint_join.h) stops
  /// at a task boundary instead and saves a final checkpoint for `--resume`.
  uint64_t deadline_ms = 0;

  /// Optional resource governance (util/exec_context.h): cancel flag,
  /// deadline, memory budget. Not owned; may be shared across concurrent
  /// runs (polling is thread-safe). The task loop layers `deadline_ms` on
  /// top; on a trip `JoinStats::status` carries kDeadlineExceeded /
  /// kCancelled / kResourceExhausted.
  ExecContext* exec = nullptr;

  /// Optional node/page access accounting (Experiment 3). Not owned.
  NodeAccessTracker* tracker = nullptr;
};

}  // namespace csj

#endif  // CSJ_CORE_JOIN_OPTIONS_H_
