#ifndef CSJ_METRIC_METRIC_JOIN_H_
#define CSJ_METRIC_METRIC_JOIN_H_

#include <algorithm>
#include <vector>

#include "core/group.h"
#include "core/join_options.h"
#include "core/join_stats.h"
#include "core/sink.h"
#include "metric/generic_mtree.h"
#include "util/exec_context.h"
#include "util/format.h"
#include "util/timer.h"

/// \file
/// Compact similarity joins in *general metric spaces* — the paper's second
/// problem ("the algorithms are equally applicable to metric space, and the
/// gains carry over", Section VII). No coordinates exist here, so groups take
/// the ball shape (core/group.h): a *fixed centre and radius eps/2*, so any
/// two members are within eps of each other by the triangle inequality, and
/// membership tests stay constant time (one distance evaluation per
/// endpoint), preserving the Section V-A cost guarantees.
///
/// Output semantics are identical to the vector-space joins: links, groups,
/// and the same lossless expansion contract, written by the same GroupWindow.
///
/// The recursion stays apart from JoinDriver (core/similarity_join.h): that
/// driver's leaf tiles and kernels need coordinates, so folding this one in
/// would make it branch on point vs metric leaves.

namespace csj {

/// Drives SSJ / N-CSJ / CSJ(g) over a GenericMTree of any item type
/// (MTree<D> included).
template <typename Item, typename Metric>
class MetricJoinDriver {
 public:
  using Tree = GenericMTree<Item, Metric>;
  using EntryT = typename Tree::EntryT;
  using Shape = BallShape<Item, Metric>;

  MetricJoinDriver(const Tree& tree, JoinAlgorithm algorithm,
                   const JoinOptions& options, JoinSink* sink)
      : tree_(tree),
        options_(options),
        eps_(options.epsilon),
        compact_(algorithm != JoinAlgorithm::kSSJ),
        sink_(sink),
        stats_(algorithm, options.epsilon, options.window_size),
        window_(Shape(tree.metric(), options.epsilon), algorithm,
                std::max(options.window_size, 1), options.promote_on_merge,
                sink, &stats_,
                options.measure_write_time ? &write_timer_ : nullptr,
                &run_ctx_) {
    CSJ_CHECK(options.epsilon > 0.0);
    CSJ_CHECK(sink != nullptr);
    run_ctx_.SetParent(options.exec);
    run_ctx_.SetDeadlineAfterMs(options.deadline_ms);
  }

  JoinStats Run() {
    WallTimer timer;
    if (tree_.Root() != kInvalidNode && tree_.size() >= 2) {
      SelfJoin(tree_.Root());
    }
    window_.Flush();
    stats_.status = sink_->error();
    if (stats_.status.ok()) stats_.status = run_ctx_.status();
    stats_.elapsed_seconds = timer.ElapsedSeconds();
    stats_.write_seconds = write_timer_.TotalSeconds();
    ReadOutputCounters(*sink_, &stats_);
    CountJoinWork(stats_);
    return stats_;
  }

 private:
  const Metric& metric() const { return tree_.metric(); }

  /// Sink dead, cancel fired, deadline expired, or budget exhausted —
  /// checked at every node visit, like the vector-space driver.
  bool Aborted() const { return !sink_->error().ok() || run_ctx_.ShouldStop(); }

  void SelfJoin(NodeId n) {
    if (Aborted()) return;
    if (compact_ && options_.early_stop && tree_.MaxDiameter(n) <= eps_) {
      EmitSubtree(n, kInvalidNode);
      return;
    }
    if (tree_.IsLeaf(n)) {
      const auto entries = tree_.Entries(n);
      for (size_t i = 0; i < entries.size(); ++i) {
        for (size_t j = i + 1; j < entries.size(); ++j) {
          ++stats_.distance_computations;
          if (metric()(EntryItem(entries[i]), EntryItem(entries[j])) <= eps_) {
            EmitLink(entries[i], entries[j]);
          }
        }
      }
      return;
    }
    const auto children = tree_.Children(n);
    for (NodeId child : children) SelfJoin(child);
    for (size_t i = 0; i < children.size(); ++i) {
      for (size_t j = i + 1; j < children.size(); ++j) {
        if (tree_.MinDistance(children[i], children[j]) <= eps_) {
          DualJoin(children[i], children[j]);
        }
      }
    }
  }

  void DualJoin(NodeId n1, NodeId n2) {
    if (Aborted()) return;
    if (compact_ && options_.early_stop &&
        tree_.MaxDiameter(n1, n2) <= eps_) {
      EmitSubtree(n1, n2);
      return;
    }
    const bool leaf1 = tree_.IsLeaf(n1);
    const bool leaf2 = tree_.IsLeaf(n2);
    if (leaf1 && leaf2) {
      for (const auto& e1 : tree_.Entries(n1)) {
        for (const auto& e2 : tree_.Entries(n2)) {
          ++stats_.distance_computations;
          if (metric()(EntryItem(e1), EntryItem(e2)) <= eps_) EmitLink(e1, e2);
        }
      }
      return;
    }
    if (leaf1) {
      for (NodeId c : tree_.Children(n2)) {
        if (tree_.MinDistance(n1, c) <= eps_) DualJoin(n1, c);
      }
      return;
    }
    if (leaf2) {
      for (NodeId c : tree_.Children(n1)) {
        if (tree_.MinDistance(c, n2) <= eps_) DualJoin(c, n2);
      }
      return;
    }
    for (NodeId c1 : tree_.Children(n1)) {
      for (NodeId c2 : tree_.Children(n2)) {
        if (tree_.MinDistance(c1, c2) <= eps_) DualJoin(c1, c2);
      }
    }
  }

  void EmitLink(const EntryT& a, const EntryT& b) {
    window_.Link(a.id, EntryItem(a), b.id, EntryItem(b));
  }

  /// Early stop: all items under n1 (and n2, if given) form one group,
  /// proven by the ball bound at creation. The members are collected in one
  /// walk and charged to the budget as in the vector-space driver.
  void EmitSubtree(NodeId n1, NodeId n2) {
    ++stats_.early_stops;
    SubtreeMembers members(&run_ctx_);
    auto collect = [&](const EntryT& e) { members.Add(e.id); };
    NodeAccessTracker* const no_tracker = nullptr;
    ForEachEntryInSubtree(tree_, n1, no_tracker, collect);
    if (n2 != kInvalidNode) {
      ForEachEntryInSubtree(tree_, n2, no_tracker, collect);
    }
    if (!members.ok()) return;
    window_.SubtreeGroup(
        members.Take(),
        window_.shape().Subtree(tree_.NodeCenter(n1), tree_.NodeRadius(n1),
                                /*one_node=*/n2 == kInvalidNode));
  }

  const Tree& tree_;
  const JoinOptions& options_;
  double eps_;
  bool compact_;
  JoinSink* sink_;
  JoinStats stats_;
  StopwatchAccumulator write_timer_;
  /// Governance context, chained under options.exec. Declared before
  /// window_, which captures a pointer to it.
  ExecContext run_ctx_;
  GroupWindow<Shape> window_;
};

/// Standard similarity self-join over a metric tree.
template <typename Item, typename Metric>
JoinStats MetricStandardJoin(const GenericMTree<Item, Metric>& tree,
                             const JoinOptions& options, JoinSink* sink) {
  MetricJoinDriver<Item, Metric> driver(tree, JoinAlgorithm::kSSJ, options,
                                        sink);
  return driver.Run();
}

/// Naive compact join (ball early stops only).
template <typename Item, typename Metric>
JoinStats MetricNaiveCompactJoin(const GenericMTree<Item, Metric>& tree,
                                 const JoinOptions& options, JoinSink* sink) {
  MetricJoinDriver<Item, Metric> driver(tree, JoinAlgorithm::kNCSJ, options,
                                        sink);
  return driver.Run();
}

/// Compact join CSJ(g) with ball-group merging.
template <typename Item, typename Metric>
JoinStats MetricCompactJoin(const GenericMTree<Item, Metric>& tree,
                            const JoinOptions& options, JoinSink* sink) {
  MetricJoinDriver<Item, Metric> driver(tree, JoinAlgorithm::kCSJ, options,
                                        sink);
  return driver.Run();
}

}  // namespace csj

#endif  // CSJ_METRIC_METRIC_JOIN_H_
