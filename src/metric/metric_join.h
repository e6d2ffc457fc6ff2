#ifndef CSJ_METRIC_METRIC_JOIN_H_
#define CSJ_METRIC_METRIC_JOIN_H_

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <vector>

#include "core/join_options.h"
#include "core/join_stats.h"
#include "core/sink.h"
#include "metric/generic_mtree.h"
#include "util/exec_context.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/timer.h"

/// \file
/// Compact similarity joins in *general metric spaces* — the paper's second
/// problem ("the algorithms are equally applicable to metric space, and the
/// gains carry over", Section VII). No coordinates exist here, so the MBR
/// group shape is replaced by a bounding ball with a *fixed center and
/// radius eps/2*: any two members are within eps of each other by the
/// triangle inequality, and membership tests stay constant time (one
/// distance evaluation), preserving the Section V-A cost guarantees.
///
/// Output semantics are identical to the vector-space joins: links, groups,
/// and the same lossless expansion contract.

namespace csj {

namespace metric_internal {

/// A metric group: members all within eps/2 of the (fixed) center item.
/// Frozen groups (from subtree early stops) are proven-correct at creation
/// and never accept merges — there is no cheap way to re-center a ball in a
/// general metric space.
template <typename Item>
struct MetricGroup {
  Item center{};
  bool mergeable = false;
  std::vector<PointId> members;
  std::unordered_set<PointId> member_set;

  void AddMember(PointId id) {
    if (member_set.insert(id).second) members.push_back(id);
  }
};

}  // namespace metric_internal

/// Drives SSJ / N-CSJ / CSJ(g) over a GenericMTree of any item type
/// (MTree<D> included).
template <typename Item, typename Metric>
class MetricJoinDriver {
 public:
  using Tree = GenericMTree<Item, Metric>;
  using EntryT = typename Tree::EntryT;
  using Group = metric_internal::MetricGroup<Item>;

  MetricJoinDriver(const Tree& tree, JoinAlgorithm algorithm,
                   const JoinOptions& options, JoinSink* sink)
      : tree_(tree),
        algorithm_(algorithm),
        options_(options),
        eps_(options.epsilon),
        half_eps_(options.epsilon / 2.0),
        sink_(sink) {
    CSJ_CHECK(options.epsilon > 0.0);
    CSJ_CHECK(sink != nullptr);
    run_ctx_.SetParent(options.exec);
    run_ctx_.SetDeadlineAfterMs(options.deadline_ms);
    stats_.algorithm = algorithm;
    stats_.epsilon = options.epsilon;
    stats_.window_size =
        algorithm == JoinAlgorithm::kCSJ ? options.window_size : 0;
  }

  JoinStats Run() {
    WallTimer timer;
    if (tree_.Root() != kInvalidNode && tree_.size() >= 2) {
      SelfJoin(tree_.Root());
    }
    Flush();
    stats_.status = sink_->error();
    if (stats_.status.ok()) stats_.status = run_ctx_.status();
    stats_.elapsed_seconds = timer.ElapsedSeconds();
    stats_.links = sink_->num_links();
    stats_.groups = sink_->num_groups();
    stats_.group_member_total = sink_->group_member_total();
    stats_.output_bytes = sink_->bytes();
    return stats_;
  }

 private:
  bool Compact() const { return algorithm_ != JoinAlgorithm::kSSJ; }
  const Metric& metric() const { return tree_.metric(); }

  /// Sink dead, cancel fired, deadline expired, or budget exhausted —
  /// checked at every node visit, like the vector-space driver.
  bool Aborted() const { return !sink_->error().ok() || run_ctx_.ShouldStop(); }

  void SelfJoin(NodeId n) {
    if (Aborted()) return;
    if (Compact() && options_.early_stop && tree_.MaxDiameter(n) <= eps_) {
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
    if (Compact() && options_.early_stop &&
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
    if (algorithm_ != JoinAlgorithm::kCSJ) {
      WriteLink(a.id, b.id);
      return;
    }
    const Item& item_a = EntryItem(a);
    const Item& item_b = EntryItem(b);
    // mergeIntoPrevGroup, metric version: a link joins a mergeable group if
    // BOTH endpoints are within eps/2 of the group's center.
    for (size_t i = window_.size(); i-- > 0;) {
      Group& group = window_[i];
      if (!group.mergeable) continue;
      ++stats_.merge_attempts;
      if (metric()(group.center, item_a) <= half_eps_ &&
          metric()(group.center, item_b) <= half_eps_) {
        group.AddMember(a.id);
        group.AddMember(b.id);
        ++stats_.merges;
        return;
      }
    }
    // New group centered on one endpoint — mergeable only if it can actually
    // host both members under the ball invariant.
    ++stats_.distance_computations;
    if (metric()(item_a, item_b) > half_eps_) {
      // The ball invariant cannot hold (b is in (eps/2, eps] of a); emit the
      // pair as a plain link instead of a dead group.
      WriteLink(a.id, b.id);
      return;
    }
    Group group;
    group.center = item_a;
    group.mergeable = true;
    group.AddMember(a.id);
    group.AddMember(b.id);
    Push(std::move(group));
  }

  void WriteLink(PointId a, PointId b) {
    sink_->Link(a, b);
    // Implied links count only what the sink accepted.
    if (sink_->error().ok()) stats_.AddImpliedLink();
  }

  /// Early stop: all items under n1 (and n2, if given) form one group,
  /// proven by the ball bound at creation; frozen thereafter. The member
  /// collection is charged to the budget before it is built, as in the
  /// vector-space driver.
  void EmitSubtree(NodeId n1, NodeId n2) {
    ++stats_.early_stops;
    size_t count = CountEntriesInSubtree(tree_, n1);
    if (n2 != kInvalidNode) count += CountEntriesInSubtree(tree_, n2);
    ScopedCharge charge;
    if (!charge.Acquire(run_ctx_.memory_budget(), count * sizeof(PointId))) {
      run_ctx_.Trip(Status::ResourceExhausted(StrFormat(
          "memory budget exhausted collecting a %zu-member subtree group",
          count)));
      return;
    }
    Group group;
    group.center = tree_.NodeCenter(n1);
    CollectMembers(n1, &group);
    if (n2 != kInvalidNode) CollectMembers(n2, &group);
    if (group.members.size() < 2) return;
    if (algorithm_ == JoinAlgorithm::kCSJ) {
      // Mergeable only if the covering ball already fits in eps/2 — then
      // future links inside it keep the mutual-eps guarantee.
      group.mergeable =
          n2 == kInvalidNode && tree_.NodeRadius(n1) <= half_eps_;
      Push(std::move(group));
    } else {
      Emit(group);
    }
  }

  void CollectMembers(NodeId n, Group* group) {
    if (tree_.IsLeaf(n)) {
      for (const auto& e : tree_.Entries(n)) group->AddMember(e.id);
      return;
    }
    for (NodeId child : tree_.Children(n)) CollectMembers(child, group);
  }

  /// Estimated heap footprint of a ball group (members + dedup set).
  static uint64_t GroupBytes(const Group& group) {
    return static_cast<uint64_t>(group.members.size()) *
               (sizeof(PointId) + 2 * sizeof(PointId)) +
           128;
  }

  void Push(Group group) {
    uint64_t charged = 0;
    if (MemoryBudget* budget = run_ctx_.memory_budget()) {
      const uint64_t bytes = GroupBytes(group);
      // Same degradation order as GroupWindow: shed oldest groups before
      // tripping kResourceExhausted.
      while (!budget->TryReserve(bytes)) {
        if (window_.empty()) {
          run_ctx_.Trip(Status::ResourceExhausted(
              "memory budget exhausted admitting a metric ball group"));
          return;
        }
        CSJ_METRIC_COUNT("resource.window_degradations", 1);
        EvictOldest();
      }
      charged = bytes;
    }
    window_.push_back(std::move(group));
    charges_.push_back(charged);
    if (window_.size() > static_cast<size_t>(std::max(options_.window_size, 1))) {
      EvictOldest();
    }
  }

  void EvictOldest() {
    Emit(window_.front());
    window_.pop_front();
    if (!charges_.empty()) {
      if (charges_.front() > 0) run_ctx_.memory_budget()->Release(charges_.front());
      charges_.pop_front();
    }
  }

  void Emit(const Group& group) {
    if (group.members.size() < 2) return;
    sink_->Group(group.members);
    if (sink_->error().ok()) stats_.AddImpliedGroup(group.members.size());
  }

  void Flush() {
    while (!window_.empty()) EvictOldest();
  }

  const Tree& tree_;
  JoinAlgorithm algorithm_;
  const JoinOptions& options_;
  double eps_;
  double half_eps_;
  JoinSink* sink_;
  ExecContext run_ctx_;
  JoinStats stats_;
  std::deque<Group> window_;
  std::deque<uint64_t> charges_;
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
