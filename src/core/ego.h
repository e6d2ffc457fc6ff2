#ifndef CSJ_CORE_EGO_H_
#define CSJ_CORE_EGO_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/group.h"
#include "core/join_options.h"
#include "core/join_stats.h"
#include "core/leaf_stage.h"
#include "core/sink.h"
#include "geom/box.h"
#include "geom/kernels.h"
#include "util/timer.h"

/// \file
/// Epsilon-Grid-Order join (Böhm, Braunmüller, Krebs, Kriegel, SIGMOD 2001)
/// and its compact extension.
///
/// The paper's Discussion (Section VII) points out that compact joins are not
/// limited to tree indexes: "one need only modify the JoinBuffer function in
/// [the EGO join] to add the early termination-as-a-group case". This module
/// implements that claim end to end:
///
///  1. points are assigned to a grid of cell length epsilon and sorted in
///     the *epsilon grid order* (lexicographic order of cell coordinates);
///  2. a divide-and-conquer join over contiguous EGO ranges prunes range
///     pairs whose cell bounding boxes are farther than epsilon apart;
///  3. qualifying ranges are joined by nested loop — and, in the compact
///     variant, a range pair whose *point* bounding box has diagonal <=
///     epsilon short-circuits into a single group, with remaining individual
///     links merged through the same CSJ(g) group window as the tree joins.
///
/// No index is required: this is the paper's answer for data without a tree.

namespace csj {

/// Parameters of the EGO join.
struct EgoOptions {
  double epsilon = 0.1;
  /// Ranges at most this long are joined by nested loop.
  size_t leaf_size = 32;
  /// Group window for the compact variant (the paper's g).
  int window_size = 10;
  /// Enable the early termination-as-a-group case (compact variant only).
  bool early_stop = true;
  /// Leaf-range pair enumeration strategy (geom/kernels.h), same knob as
  /// JoinOptions::leaf_kernel: both modes produce identical output; kSweep
  /// joins ranges through cached tiles (core/leaf_stage.h).
  LeafKernel leaf_kernel = LeafKernel::kSweep;

  /// Wall-clock budget in milliseconds; 0 = unlimited. The recursion stops
  /// at the next range visit and JoinStats::status reports DeadlineExceeded.
  uint64_t deadline_ms = 0;

  /// Optional governance context (deadline / cancel / memory budget), same
  /// semantics as JoinOptions::exec. Not owned.
  ExecContext* exec = nullptr;
};

namespace ego_internal {

/// A point with its grid cell, sortable in epsilon grid order.
template <int D>
struct EgoEntry {
  Entry<D> entry;
  std::array<int32_t, D> cell;

  friend bool operator<(const EgoEntry& a, const EgoEntry& b) {
    return a.cell < b.cell;  // lexicographic: the epsilon grid order
  }
};

template <int D>
std::vector<EgoEntry<D>> BuildEgoOrder(const std::vector<Entry<D>>& entries,
                                       double epsilon) {
  std::vector<EgoEntry<D>> out(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    out[i].entry = entries[i];
    for (int d = 0; d < D; ++d) {
      out[i].cell[d] = static_cast<int32_t>(
          std::floor(entries[i].point[d] / epsilon));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The join state threaded through the recursion.
template <int D>
struct EgoJoinState {
  const std::vector<EgoEntry<D>>* data = nullptr;
  double eps = 0.0;
  double eps2 = 0.0;
  size_t leaf_size = 32;
  bool compact = false;
  bool early_stop = true;
  JoinSink* sink = nullptr;
  JoinStats* stats = nullptr;
  /// Writes every record: merged under CSJ(g), passed through otherwise.
  GroupWindow<BoxShape<D>>* window = nullptr;
  /// Joins the leaf ranges; its tiles are keyed by RangeKey.
  LeafStage<D>* leaf = nullptr;
  /// Governance context polled at every range visit. Never null while the
  /// recursion runs (RunEgoJoin installs a local context).
  const ExecContext* exec = nullptr;

  /// Sink dead, cancel fired, deadline expired, or budget exhausted.
  bool Aborted() const { return !sink->error().ok() || exec->ShouldStop(); }
  // Bounds memoization: the recursion revisits the same canonical ranges in
  // many pair combinations, so cache per-(lo,hi) boxes.
  std::unordered_map<uint64_t, Box<D>> cell_bounds_cache;
  std::unordered_map<uint64_t, Box<D>> point_bounds_cache;
};

inline uint64_t RangeKey(size_t lo, size_t hi) {
  return (static_cast<uint64_t>(lo) << 32) | static_cast<uint64_t>(hi);
}

/// Cell-space bounding box of a contiguous EGO range, converted to point
/// space: cell c covers [c*eps, (c+1)*eps). Memoized.
template <int D>
const Box<D>& CellBounds(EgoJoinState<D>& state, size_t lo, size_t hi) {
  auto [it, fresh] = state.cell_bounds_cache.try_emplace(RangeKey(lo, hi));
  if (fresh) {
    Box<D>& box = it->second;
    const auto& data = *state.data;
    for (size_t i = lo; i < hi; ++i) {
      for (int d = 0; d < D; ++d) {
        const double base = data[i].cell[d] * state.eps;
        box.lo[d] = std::min(box.lo[d], base);
        box.hi[d] = std::max(box.hi[d], base + state.eps);
      }
    }
  }
  return it->second;
}

/// Exact point bounding box of a range. Memoized.
template <int D>
const Box<D>& PointBounds(EgoJoinState<D>& state, size_t lo, size_t hi) {
  auto [it, fresh] = state.point_bounds_cache.try_emplace(RangeKey(lo, hi));
  if (fresh) {
    Box<D>& box = it->second;
    for (size_t i = lo; i < hi; ++i) box.Extend((*state.data)[i].entry.point);
  }
  return it->second;
}

/// Emits the whole range pair as one group (the termination-as-a-group case
/// the paper's Section VII describes for JoinBuffer).
template <int D>
void EmitEgoGroup(EgoJoinState<D>& state, size_t lo1, size_t hi1, size_t lo2,
                  size_t hi2, const Box<D>& box) {
  ++state.stats->early_stops;
  std::vector<PointId> members;
  members.reserve(hi1 - lo1 + (lo1 == lo2 ? 0 : hi2 - lo2));
  for (size_t i = lo1; i < hi1; ++i) members.push_back((*state.data)[i].entry.id);
  if (lo1 != lo2 || hi1 != hi2) {
    for (size_t i = lo2; i < hi2; ++i) {
      members.push_back((*state.data)[i].entry.id);
    }
  }
  state.window->SubtreeGroup(std::move(members), box);
}

/// Recursive EGO join of two contiguous ranges of the EGO-sorted data.
template <int D>
void EgoJoinRanges(EgoJoinState<D>& state, size_t lo1, size_t hi1, size_t lo2,
                   size_t hi2) {
  if (lo1 >= hi1 || lo2 >= hi2) return;
  if (state.Aborted()) return;
  const bool same = lo1 == lo2 && hi1 == hi2;

  if (!same) {
    // Prune: ranges whose (conservative) cell boxes are farther than eps
    // apart cannot contain join partners.
    const Box<D> bounds1 = CellBounds(state, lo1, hi1);
    const Box<D> bounds2 = CellBounds(state, lo2, hi2);
    if (MinDistance(bounds1, bounds2) > state.eps) return;
  }

  if (state.compact && state.early_stop) {
    // Early termination-as-a-group on the exact point boxes.
    const Box<D> points1 = PointBounds(state, lo1, hi1);
    const Box<D> points2 = same ? points1 : PointBounds(state, lo2, hi2);
    const Box<D> both = Box<D>::Union(points1, points2);
    if (both.SquaredDiagonal() <= state.eps2 &&
        (hi1 - lo1) + (same ? 0 : hi2 - lo2) >= 2) {
      EmitEgoGroup(state, lo1, hi1, lo2, hi2, both);
      return;
    }
  }

  if (hi1 - lo1 <= state.leaf_size && hi2 - lo2 <= state.leaf_size) {
    const auto range = [&state](size_t lo, size_t hi) {
      return std::span(state.data->data() + lo, hi - lo);
    };
    const auto proj = [](const EgoEntry<D>& e) -> const Entry<D>& {
      return e.entry;
    };
    if (same) {
      state.leaf->Self(RangeKey(lo1, hi1), [&] { return range(lo1, hi1); },
                       proj);
    } else {
      state.leaf->Pair(RangeKey(lo1, hi1), [&] { return range(lo1, hi1); },
                       RangeKey(lo2, hi2), [&] { return range(lo2, hi2); },
                       proj);
    }
    return;
  }

  if (same) {
    const size_t mid = lo1 + (hi1 - lo1) / 2;
    EgoJoinRanges(state, lo1, mid, lo1, mid);
    EgoJoinRanges(state, lo1, mid, mid, hi1);
    EgoJoinRanges(state, mid, hi1, mid, hi1);
    return;
  }
  // Split the longer range; join both halves against the other range.
  if (hi1 - lo1 >= hi2 - lo2) {
    const size_t mid = lo1 + (hi1 - lo1) / 2;
    EgoJoinRanges(state, lo1, mid, lo2, hi2);
    EgoJoinRanges(state, mid, hi1, lo2, hi2);
  } else {
    const size_t mid = lo2 + (hi2 - lo2) / 2;
    EgoJoinRanges(state, lo1, hi1, lo2, mid);
    EgoJoinRanges(state, lo1, hi1, mid, hi2);
  }
}

/// The EGO self join over `set_a` (`set_b == nullptr`) or the EGO spatial
/// join of `set_a` with `*set_b`. The spatial join concatenates the
/// EGO-ordered sets into one backing array — A occupies [0, |A|), B the
/// rest — and the recursion joins the two ranges (cross pairs only, per the
/// spatial-join semantics).
template <int D>
JoinStats RunEgoJoin(const std::vector<Entry<D>>& set_a,
                     const std::vector<Entry<D>>* set_b,
                     const EgoOptions& options, bool compact, JoinSink* sink) {
  CSJ_CHECK(options.epsilon > 0.0);
  CSJ_CHECK(sink != nullptr);
  JoinStats stats;
  stats.algorithm = compact ? JoinAlgorithm::kCSJ : JoinAlgorithm::kSSJ;
  stats.epsilon = options.epsilon;
  stats.window_size = compact ? options.window_size : 0;

  WallTimer timer;
  ExecContext run_ctx;
  run_ctx.SetParent(options.exec);
  run_ctx.SetDeadlineAfterMs(options.deadline_ms);

  // The EGO order array is the join's one big allocation: charge it before
  // building it, and fail cleanly instead of OOM-killing the process.
  ScopedCharge order_charge;
  if (MemoryBudget* budget = run_ctx.memory_budget()) {
    const size_t total = set_a.size() + (set_b ? set_b->size() : 0);
    if (!order_charge.Acquire(budget, total * sizeof(EgoEntry<D>))) {
      run_ctx.Trip(Status::ResourceExhausted(
          "memory budget exhausted building the EGO order array"));
      stats.status = run_ctx.status();
      return stats;
    }
  }
  auto ordered = BuildEgoOrder(set_a, options.epsilon);
  const size_t split = ordered.size();
  if (set_b != nullptr) {
    const auto ordered_b = BuildEgoOrder(*set_b, options.epsilon);
    ordered.insert(ordered.end(), ordered_b.begin(), ordered_b.end());
  }

  GroupWindow<BoxShape<D>> window(
      BoxShape<D>(options.epsilon), stats.algorithm,
      std::max(options.window_size, 1), /*promote_on_merge=*/false, sink,
      &stats, /*write_timer=*/nullptr, &run_ctx);
  LeafStage<D> leaf(options.leaf_kernel, options.epsilon, &window, &stats,
                    &run_ctx);
  EgoJoinState<D> state;
  state.exec = &run_ctx;
  state.data = &ordered;
  state.eps = options.epsilon;
  state.eps2 = options.epsilon * options.epsilon;
  state.leaf_size = std::max<size_t>(options.leaf_size, 2);
  state.compact = compact;
  state.early_stop = options.early_stop;
  state.sink = sink;
  state.stats = &stats;
  state.window = &window;
  state.leaf = &leaf;

  if (set_b == nullptr) {
    EgoJoinRanges(state, 0, split, 0, split);
  } else {
    EgoJoinRanges(state, 0, split, split, ordered.size());
  }
  window.Flush();

  stats.status = sink->error();
  if (stats.status.ok()) stats.status = run_ctx.status();
  stats.elapsed_seconds = timer.ElapsedSeconds();
  ReadOutputCounters(*sink, &stats);
  CountJoinWork(stats);
  return stats;
}

}  // namespace ego_internal

/// Index-free standard similarity join via the epsilon grid order.
template <int D>
JoinStats EgoSimilarityJoin(const std::vector<Entry<D>>& entries,
                            const EgoOptions& options, JoinSink* sink) {
  return ego_internal::RunEgoJoin<D>(entries, nullptr, options,
                                     /*compact=*/false, sink);
}

/// Compact EGO join: the Section-VII extension (termination-as-a-group plus
/// CSJ(g) link merging), with the same lossless guarantees as the tree CSJ.
template <int D>
JoinStats CompactEgoJoin(const std::vector<Entry<D>>& entries,
                         const EgoOptions& options, JoinSink* sink) {
  return ego_internal::RunEgoJoin<D>(entries, nullptr, options,
                                     /*compact=*/true, sink);
}

/// Index-free spatial join (cross pairs of two sets) via the epsilon grid
/// order. Id spaces must be disjoint, as with the tree spatial joins.
template <int D>
JoinStats EgoSpatialJoin(const std::vector<Entry<D>>& set_a,
                         const std::vector<Entry<D>>& set_b,
                         const EgoOptions& options, JoinSink* sink) {
  return ego_internal::RunEgoJoin(set_a, &set_b, options, /*compact=*/false,
                                  sink);
}

/// Compact index-free spatial join. Groups mix A- and B-side ids; expand
/// with ExpandSpatialJoin. Lossless for the cross-join link set.
template <int D>
JoinStats CompactEgoSpatialJoin(const std::vector<Entry<D>>& set_a,
                                const std::vector<Entry<D>>& set_b,
                                const EgoOptions& options, JoinSink* sink) {
  return ego_internal::RunEgoJoin(set_a, &set_b, options, /*compact=*/true,
                                  sink);
}

}  // namespace csj

#endif  // CSJ_CORE_EGO_H_
