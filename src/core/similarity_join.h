#ifndef CSJ_CORE_SIMILARITY_JOIN_H_
#define CSJ_CORE_SIMILARITY_JOIN_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "core/group.h"
#include "core/join_options.h"
#include "core/join_stats.h"
#include "core/leaf_batch.h"
#include "core/sink.h"
#include "geom/kernels.h"
#include "index/spatial_index.h"
#include "util/exec_context.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/timer.h"

/// \file
/// The paper's three join algorithms over any SpatialIndex:
///
///  * StandardSimilarityJoin  (SSJ)    — recursive tree join, links only.
///  * NaiveCompactJoin        (N-CSJ)  — SSJ + the subtree early-stopping
///    rule: a node whose bounding-shape diameter is <= eps becomes one group.
///  * CompactSimilarityJoin   (CSJ(g)) — N-CSJ + merging of individual links
///    into the g most recently created groups.
///
/// All three share one traversal (Figure 3 of the paper): the single-node
/// recursion handles pairs within one subtree; the dual-node recursion
/// handles pairs that bridge two subtrees, pruned by MinDistance. The dual
/// variants (spatial joins of two different trees) run the dual-node
/// recursion over two indexes with compatible bounding shapes.

namespace csj {

namespace internal {

/// One join execution. TreeA and TreeB must share a bounding-shape type
/// (Box with Box, Ball with Ball); for self-joins they are the same tree.
template <typename TreeA, typename TreeB>
class JoinDriver {
 public:
  static constexpr int D = TreeA::kDim;
  static_assert(TreeA::kDim == TreeB::kDim, "dimension mismatch");

  JoinDriver(const TreeA& tree_a, const TreeB& tree_b, bool self_join,
             JoinAlgorithm algorithm, const JoinOptions& options,
             JoinSink* sink)
      : tree_a_(tree_a),
        tree_b_(tree_b),
        self_join_(self_join),
        algorithm_(algorithm),
        options_(options),
        eps_(options.epsilon),
        eps_squared_(options.epsilon * options.epsilon),
        sink_(sink),
        window_(std::max(options.window_size, 1), options.epsilon, sink,
                &stats_, options.measure_write_time ? &write_timer_ : nullptr,
                &run_ctx_) {
    CSJ_CHECK(options.epsilon > 0.0) << "epsilon must be positive";
    CSJ_CHECK(sink != nullptr);
    // Governance: the driver's private context layers options.deadline_ms on
    // top of whatever the caller installed in options.exec (deadline, cancel
    // flag, memory budget) — both are honored at every node visit.
    run_ctx_.SetParent(options.exec);
    run_ctx_.SetDeadlineAfterMs(options.deadline_ms);
    if (MemoryBudget* budget = run_ctx_.memory_budget()) {
      kernel_scratch_charge_.Acquire(budget, 0);
      pair_scratch_charge_.Acquire(budget, 0);
      batch_charge_.Acquire(budget, 0);
    }
    // kNaive stays undeferred so it remains the honest pre-batching
    // baseline; every other mode defers leaf work through the batch.
    batch_enabled_ = options.leaf_kernel != LeafKernel::kNaive;
    stats_.algorithm = algorithm;
    stats_.epsilon = options.epsilon;
    stats_.window_size =
        algorithm == JoinAlgorithm::kCSJ ? options.window_size : 0;
  }

  /// One unit of work of the checkpointed runner (core/checkpoint_join.h): a
  /// single-subtree self-join (second == kInvalidNode) or a qualifying
  /// subtree pair.
  struct Task {
    NodeId first = kInvalidNode;
    NodeId second = kInvalidNode;
  };

  JoinStats Run() {
    WallTimer timer;
    if (options_.tracker != nullptr) options_.tracker->Reset();

    if (self_join_) {
      if (tree_a_.Root() != kInvalidNode && tree_a_.size() >= 2) {
        SelfJoin(tree_a_.Root());
      }
    } else if (tree_a_.Root() != kInvalidNode &&
               tree_b_.Root() != kInvalidNode) {
      if (MinDist(tree_a_.Root(), tree_b_.Root()) <= eps_) {
        DualJoin(tree_a_.Root(), tree_b_.Root());
      }
    }
    return Complete(timer);
  }

  /// Runs one task of the checkpointed runner's task list as a join of its
  /// own: the CSJ(g) window starts empty and is flushed when the task ends,
  /// so the task's output depends on nothing but the task. Call at most
  /// once per driver. Self-join trees only.
  JoinStats RunTask(const Task& task) {
    CSJ_CHECK(self_join_);
    WallTimer timer;
    if (task.second == kInvalidNode) {
      SelfJoin(task.first);
    } else {
      SelfDualJoin(task.first, task.second);
    }
    return Complete(timer);
  }

 private:
  /// Drains the deferred leaf work, flushes the CSJ(g) window and finalizes
  /// the stats: the common tail of Run() and RunTask().
  JoinStats Complete(const WallTimer& timer) {
    DrainLeafBatch();
    if (algorithm_ == JoinAlgorithm::kCSJ) window_.Flush();
    FinalizeStats(timer);
    return stats_;
  }

  /// True when the run should stop producing output: the sink hit a sticky
  /// error (full disk, failed write) or the governance context tripped
  /// (deadline, cancel, memory budget). Checked at every node visit, so the
  /// traversal unwinds in O(depth) instead of grinding through the
  /// remaining pair space.
  bool Aborted() const { return !sink_->error().ok() || run_ctx_.ShouldStop(); }

  void FinalizeStats(const WallTimer& timer) {
    if (options_.leaf_kernel == LeafKernel::kSimd) {
      const KernelIsa isa = DispatchedKernelIsa();
      stats_.kernel_isa = KernelIsaName(isa);
      RecordKernelBackendMetric(isa);
    }
    stats_.status = sink_->error();
    if (stats_.status.ok()) stats_.status = run_ctx_.status();
    stats_.elapsed_seconds = timer.ElapsedSeconds();
    stats_.write_seconds = write_timer_.TotalSeconds();
    stats_.links = sink_->num_links();
    stats_.groups = sink_->num_groups();
    stats_.group_member_total = sink_->group_member_total();
    stats_.output_bytes = sink_->bytes();
    if (options_.tracker != nullptr) {
      const NodeAccessStats access = options_.tracker->stats();
      stats_.node_accesses = access.node_accesses;
      stats_.page_requests = access.pages.requests;
      stats_.page_disk_reads = access.pages.disk_reads;
    }
    // Mirror this run's work counters into the process-wide metrics (one
    // bulk add per run, so the per-pair hot loops stay untouched). The
    // checkpointed runner finalizes one driver per task.
    CSJ_METRIC_COUNT("join.runs", 1);
    CSJ_METRIC_COUNT("join.distance_computations",
                     stats_.distance_computations);
    CSJ_METRIC_COUNT("join.early_stops", stats_.early_stops);
    CSJ_METRIC_COUNT("join.merge_attempts", stats_.merge_attempts);
    CSJ_METRIC_COUNT("join.merges", stats_.merges);
    CSJ_METRIC_HIST("join.elapsed_ns",
                    static_cast<uint64_t>(stats_.elapsed_seconds * 1e9));
  }

  bool Compact() const { return algorithm_ != JoinAlgorithm::kSSJ; }

  void TouchA(NodeId n) {
    if (options_.tracker != nullptr) options_.tracker->Touch(n);
  }
  void TouchB(NodeId n) {
    // Offset the second tree's node ids so the two trees do not collide on
    // simulated pages.
    if (options_.tracker != nullptr) {
      options_.tracker->Touch(n + (self_join_ ? 0u : 0x40000000u));
    }
  }

  double MinDist(NodeId a, NodeId b) const {
    return MinDistance(tree_a_.Shape(a), tree_b_.Shape(b));
  }

  // --- Leaf kernels (geom/kernels.h) ----------------------------------------

  /// Folds one leaf-kernel invocation's bulk counters into the run's stats.
  /// The per-pair ++distance_computations of the old scalar loops became one
  /// add per leaf visit; under LeafKernel::kNaive the totals are identical.
  void AddKernelWork(const KernelCounters& kc) {
    stats_.distance_computations += kc.computed;
    stats_.kernel_candidates += kc.candidates;
    stats_.kernel_pruned += kc.pruned;
    stats_.kernel_hits += kc.hits;
  }

  /// Budget accounting for the reusable leaf-kernel scratch (SoA tiles, hit
  /// buffers). The charge is a monotone high-water mark resized only when a
  /// bigger leaf is visited; a denial trips the context and the traversal
  /// unwinds at the next node visit.
  bool ChargeLeafScratch(size_t entry_count) {
    if (entry_count <= charged_leaf_entries_) return true;
    charged_leaf_entries_ = entry_count;
    constexpr uint64_t kPerEntry =
        2 * (D * sizeof(double) + sizeof(PointId) + sizeof(uint32_t)) +
        2 * sizeof(KernelHit) + sizeof(uint32_t);
    if (kernel_scratch_charge_.Resize(entry_count * kPerEntry)) return true;
    run_ctx_.Trip(Status::ResourceExhausted(
        "memory budget exhausted growing leaf-kernel scratch"));
    return false;
  }

  // --- Batched leaf pipeline (core/leaf_batch.h) ----------------------------

  /// Batch keys: tree A leaves use the node id; tree B leaves (dual joins)
  /// set the top bit so the two id spaces never collide in one batch.
  static uint64_t LeafKeyA(NodeId n) { return static_cast<uint64_t>(n); }
  static uint64_t LeafKeyB(NodeId n) {
    return static_cast<uint64_t>(n) | (uint64_t{1} << 63);
  }

  /// High-water budget accounting for the batch's resident tiles + queue,
  /// called after every enqueue. A denial trips the context; the pending
  /// events are abandoned with the rest of the run.
  bool ChargeBatch() {
    const uint64_t bytes = leaf_batch_.BytesResident();
    if (bytes <= charged_batch_bytes_) return true;
    charged_batch_bytes_ = bytes;
    if (batch_charge_.Resize(bytes)) return true;
    run_ctx_.Trip(Status::ResourceExhausted(
        "memory budget exhausted growing the leaf batch"));
    return false;
  }

  /// Charge + capacity check after an enqueue; drains a full batch.
  void AfterEnqueue() {
    if (!ChargeBatch()) return;
    if (leaf_batch_.Full()) DrainLeafBatch();
  }

  /// Executes every deferred event in enqueue (= traversal) order, then
  /// resets the batch. Kernel work runs back to back over the resident
  /// tiles; group events re-walk their subtrees here, so their member
  /// collections interleave with links exactly as in the undeferred driver.
  void DrainLeafBatch() {
    for (const LeafEvent& e : leaf_batch_.events()) {
      if (Aborted()) break;
      switch (e.kind) {
        case LeafEvent::Kind::kSelfLeaf:
          AddKernelWork(SelfJoinTileKernel(
              kernel_scratch_, leaf_batch_.Tile(e.tile_a), eps_squared_,
              options_.leaf_kernel,
              [this](const Entry<D>& a, const Entry<D>& b) {
                EmitLink(a, b);
              }));
          break;
        case LeafEvent::Kind::kPairLeaf:
          AddKernelWork(BlockJoinTileKernel(
              kernel_scratch_, leaf_batch_.Tile(e.tile_a),
              leaf_batch_.Tile(e.tile_b), eps_squared_, options_.leaf_kernel,
              [this](const Entry<D>& a, const Entry<D>& b) {
                EmitLink(a, b);
              }));
          break;
        case LeafEvent::Kind::kGroup:
          EmitSubtreeGroup(static_cast<NodeId>(e.id_a));
          break;
        case LeafEvent::Kind::kGroupPair:
          if (self_join_) {
            EmitSubtreePairGroupSelf(static_cast<NodeId>(e.id_a),
                                     static_cast<NodeId>(e.id_b));
          } else {
            EmitSubtreePairGroupDual(static_cast<NodeId>(e.id_a),
                                     static_cast<NodeId>(e.id_b));
          }
          break;
      }
    }
    leaf_batch_.Clear();
  }

  /// Budget accounting for a subtree group's member collection buffer.
  bool ChargeMembers(ScopedCharge& charge, size_t count) {
    MemoryBudget* budget = run_ctx_.memory_budget();
    if (budget == nullptr) return true;
    if (charge.Acquire(budget, count * sizeof(PointId))) return true;
    run_ctx_.Trip(Status::ResourceExhausted(StrFormat(
        "memory budget exhausted collecting a %zu-member subtree group",
        count)));
    return false;
  }

  /// MinDistance-sorted child pair lists (Brinkhoff ordering) need a
  /// (dist, pair) buffer per recursion level; the pool reuses one buffer per
  /// depth so steady-state traversals allocate nothing. Indexed access only:
  /// growing the pool moves the inner vectors.
  using ChildPair = std::pair<double, std::pair<NodeId, NodeId>>;
  std::vector<ChildPair>& PairScratch(int depth) {
    if (static_cast<size_t>(depth) >= pair_scratch_pool_.size()) {
      pair_scratch_pool_.resize(depth + 1);
      // Nominal per-level estimate; the sort scratch is small but the issue
      // is the principle: every reusable buffer answers to the budget.
      if (!pair_scratch_charge_.Resize(pair_scratch_pool_.size() *
                                       kPairScratchLevelBytes)) {
        run_ctx_.Trip(Status::ResourceExhausted(
            "memory budget exhausted growing the child-pair sort scratch"));
      }
    }
    pair_scratch_pool_[depth].clear();
    return pair_scratch_pool_[depth];
  }

  // --- Single-node recursion (Figure 3, simJoin(n)) -------------------------

  void SelfJoin(NodeId n, int depth = 0) {
    if (Aborted()) return;
    CSJ_METRIC_COUNT("join.node_visits", 1);
    TouchA(n);
    if (Compact() && options_.early_stop &&
        tree_a_.MaxDiameter(n) <= eps_) {
      if (batch_enabled_) {
        leaf_batch_.PushGroup(LeafKeyA(n));
        AfterEnqueue();
      } else {
        EmitSubtreeGroup(n);
      }
      return;
    }
    if (tree_a_.IsLeaf(n)) {
      decltype(auto) entries = TreeEntries(tree_a_, n, &run_ctx_);
      if (!ChargeLeafScratch(entries.size())) return;
      if (batch_enabled_) {
        leaf_batch_.PushSelf(leaf_batch_.TileSlot(
            LeafKeyA(n), [&](LeafTile<D>& t) { t.Load(entries); }));
        AfterEnqueue();
        return;
      }
      AddKernelWork(SelfJoinKernel(
          kernel_scratch_, entries, eps_squared_, options_.leaf_kernel,
          [this](const Entry<D>& a, const Entry<D>& b) { EmitLink(a, b); }));
      return;
    }
    const auto children = TreeChildren(tree_a_, n, &run_ctx_);
    for (NodeId child : children) SelfJoin(child, depth + 1);

    if (options_.sort_child_pairs) {
      // Brinkhoff-style ordering: qualifying pairs by ascending MinDistance.
      auto& pairs = PairScratch(depth);
      for (size_t i = 0; i < children.size(); ++i) {
        for (size_t j = i + 1; j < children.size(); ++j) {
          const double dist = tree_a_.MinDistance(children[i], children[j]);
          if (dist <= eps_) pairs.push_back({dist, {children[i], children[j]}});
        }
      }
      std::sort(pairs.begin(), pairs.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      // Indexed, value-copied iteration: recursion below may grow the pool.
      for (size_t k = 0; k < pair_scratch_pool_[depth].size(); ++k) {
        const auto pair = pair_scratch_pool_[depth][k].second;
        SelfDualJoin(pair.first, pair.second, depth + 1);
      }
    } else {
      for (size_t i = 0; i < children.size(); ++i) {
        for (size_t j = i + 1; j < children.size(); ++j) {
          if (tree_a_.MinDistance(children[i], children[j]) <= eps_) {
            SelfDualJoin(children[i], children[j], depth + 1);
          }
        }
      }
    }
  }

  /// Dual-node recursion within the self-joined tree (simJoin(n1, n2)).
  void SelfDualJoin(NodeId n1, NodeId n2, int depth = 0) {
    if (Aborted()) return;
    CSJ_METRIC_COUNT("join.node_visits", 2);
    TouchA(n1);
    TouchA(n2);
    if (Compact() && options_.early_stop &&
        tree_a_.MaxDiameter(n1, n2) <= eps_) {
      if (batch_enabled_) {
        leaf_batch_.PushGroupPair(LeafKeyA(n1), LeafKeyA(n2));
        AfterEnqueue();
      } else {
        EmitSubtreePairGroupSelf(n1, n2);
      }
      return;
    }
    const bool leaf1 = tree_a_.IsLeaf(n1);
    const bool leaf2 = tree_a_.IsLeaf(n2);
    if (leaf1 && leaf2) {
      decltype(auto) entries1 = TreeEntries(tree_a_, n1, &run_ctx_);
      decltype(auto) entries2 = TreeEntries(tree_a_, n2, &run_ctx_);
      if (!ChargeLeafScratch(entries1.size() + entries2.size())) return;
      if (batch_enabled_) {
        const uint32_t slot1 = leaf_batch_.TileSlot(
            LeafKeyA(n1), [&](LeafTile<D>& t) { t.Load(entries1); });
        const uint32_t slot2 = leaf_batch_.TileSlot(
            LeafKeyA(n2), [&](LeafTile<D>& t) { t.Load(entries2); });
        leaf_batch_.PushPair(slot1, slot2);
        AfterEnqueue();
        return;
      }
      AddKernelWork(BlockJoinKernel(
          kernel_scratch_, entries1, entries2, eps_squared_,
          options_.leaf_kernel,
          [this](const Entry<D>& a, const Entry<D>& b) { EmitLink(a, b); }));
      return;
    }
    if (leaf1) {
      for (NodeId c2 : TreeChildren(tree_a_, n2, &run_ctx_)) {
        if (tree_a_.MinDistance(n1, c2) <= eps_) SelfDualJoin(n1, c2, depth + 1);
      }
      return;
    }
    if (leaf2) {
      for (NodeId c1 : TreeChildren(tree_a_, n1, &run_ctx_)) {
        if (tree_a_.MinDistance(c1, n2) <= eps_) SelfDualJoin(c1, n2, depth + 1);
      }
      return;
    }
    if (options_.sort_child_pairs) {
      auto& pairs = PairScratch(depth);
      for (NodeId c1 : TreeChildren(tree_a_, n1, &run_ctx_)) {
        for (NodeId c2 : TreeChildren(tree_a_, n2, &run_ctx_)) {
          const double dist = tree_a_.MinDistance(c1, c2);
          if (dist <= eps_) pairs.push_back({dist, {c1, c2}});
        }
      }
      std::sort(pairs.begin(), pairs.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (size_t k = 0; k < pair_scratch_pool_[depth].size(); ++k) {
        const auto pair = pair_scratch_pool_[depth][k].second;
        SelfDualJoin(pair.first, pair.second, depth + 1);
      }
      return;
    }
    for (NodeId c1 : TreeChildren(tree_a_, n1, &run_ctx_)) {
      for (NodeId c2 : TreeChildren(tree_a_, n2, &run_ctx_)) {
        if (tree_a_.MinDistance(c1, c2) <= eps_) SelfDualJoin(c1, c2, depth + 1);
      }
    }
  }

  // --- Dual-tree recursion (spatial join, Section IV-D) ----------------------

  void DualJoin(NodeId a, NodeId b, int depth = 0) {
    if (Aborted()) return;
    CSJ_METRIC_COUNT("join.node_visits", 2);
    TouchA(a);
    TouchB(b);
    if (Compact() && options_.early_stop &&
        UnionDiameterBound(tree_a_.Shape(a), tree_b_.Shape(b)) <= eps_) {
      if (batch_enabled_) {
        leaf_batch_.PushGroupPair(a, b);
        AfterEnqueue();
      } else {
        EmitSubtreePairGroupDual(a, b);
      }
      return;
    }
    const bool leaf_a = tree_a_.IsLeaf(a);
    const bool leaf_b = tree_b_.IsLeaf(b);
    if (leaf_a && leaf_b) {
      decltype(auto) entries_a = TreeEntries(tree_a_, a, &run_ctx_);
      decltype(auto) entries_b = TreeEntries(tree_b_, b, &run_ctx_);
      if (!ChargeLeafScratch(entries_a.size() + entries_b.size())) return;
      if (batch_enabled_) {
        const uint32_t slot_a = leaf_batch_.TileSlot(
            LeafKeyA(a), [&](LeafTile<D>& t) { t.Load(entries_a); });
        const uint32_t slot_b = leaf_batch_.TileSlot(
            LeafKeyB(b), [&](LeafTile<D>& t) { t.Load(entries_b); });
        leaf_batch_.PushPair(slot_a, slot_b);
        AfterEnqueue();
        return;
      }
      AddKernelWork(BlockJoinKernel(
          kernel_scratch_, entries_a, entries_b, eps_squared_,
          options_.leaf_kernel,
          [this](const Entry<D>& ea, const Entry<D>& eb) {
            EmitLink(ea, eb);
          }));
      return;
    }
    if (leaf_a) {
      for (NodeId cb : TreeChildren(tree_b_, b, &run_ctx_)) {
        if (MinDist(a, cb) <= eps_) DualJoin(a, cb, depth + 1);
      }
      return;
    }
    if (leaf_b) {
      for (NodeId ca : TreeChildren(tree_a_, a, &run_ctx_)) {
        if (MinDist(ca, b) <= eps_) DualJoin(ca, b, depth + 1);
      }
      return;
    }
    if (options_.sort_child_pairs) {
      // Brinkhoff ordering for the spatial join too (it used to be silently
      // ignored outside SelfJoin).
      auto& pairs = PairScratch(depth);
      for (NodeId ca : TreeChildren(tree_a_, a, &run_ctx_)) {
        for (NodeId cb : TreeChildren(tree_b_, b, &run_ctx_)) {
          const double dist = MinDist(ca, cb);
          if (dist <= eps_) pairs.push_back({dist, {ca, cb}});
        }
      }
      std::sort(pairs.begin(), pairs.end(),
                [](const auto& a_, const auto& b_) { return a_.first < b_.first; });
      for (size_t k = 0; k < pair_scratch_pool_[depth].size(); ++k) {
        const auto pair = pair_scratch_pool_[depth][k].second;
        DualJoin(pair.first, pair.second, depth + 1);
      }
      return;
    }
    for (NodeId ca : TreeChildren(tree_a_, a, &run_ctx_)) {
      for (NodeId cb : TreeChildren(tree_b_, b, &run_ctx_)) {
        if (MinDist(ca, cb) <= eps_) DualJoin(ca, cb, depth + 1);
      }
    }
  }

  // --- Emission ---------------------------------------------------------------

  void EmitLink(const Entry<D>& e1, const Entry<D>& e2) {
    if (algorithm_ == JoinAlgorithm::kCSJ) {
      if (options_.window_policy == WindowPolicy::kBestFit) {
        window_.MergeLinkBestFit(e1.id, e1.point, e2.id, e2.point,
                                 options_.promote_on_merge);
      } else {
        window_.MergeLink(e1.id, e1.point, e2.id, e2.point,
                          options_.promote_on_merge);
      }
      return;
    }
    ScopedStopwatch watch(options_.measure_write_time ? &write_timer_
                                                      : nullptr);
    sink_->Link(e1.id, e2.id);
    // Implied links count only what the sink accepted.
    if (sink_->error().ok()) stats_.AddImpliedLink();
  }

  /// Early-stopping rule on one subtree: all points below n become a group.
  void EmitSubtreeGroup(NodeId n) {
    ++stats_.early_stops;
    const size_t count = CountEntriesInSubtree(tree_a_, n, &run_ctx_);
    ScopedCharge charge;
    if (!ChargeMembers(charge, count)) return;
    std::vector<PointId> members;
    members.reserve(count);
    Box<D> box;
    ForEachEntryInSubtree(tree_a_, n, options_.tracker,
                          [&](const Entry<D>& e) {
                            members.push_back(e.id);
                            box.Extend(e.point);
                          },
                          &run_ctx_);
    EmitGroup(std::move(members), box);
  }

  /// Early-stopping rule on a pair of subtrees of the self-joined tree.
  void EmitSubtreePairGroupSelf(NodeId n1, NodeId n2) {
    ++stats_.early_stops;
    const size_t count = CountEntriesInSubtree(tree_a_, n1, &run_ctx_) +
                         CountEntriesInSubtree(tree_a_, n2, &run_ctx_);
    ScopedCharge charge;
    if (!ChargeMembers(charge, count)) return;
    std::vector<PointId> members;
    members.reserve(count);
    Box<D> box;
    auto collect = [&](const Entry<D>& e) {
      members.push_back(e.id);
      box.Extend(e.point);
    };
    ForEachEntryInSubtree(tree_a_, n1, options_.tracker, collect, &run_ctx_);
    ForEachEntryInSubtree(tree_a_, n2, options_.tracker, collect, &run_ctx_);
    EmitGroup(std::move(members), box);
  }

  /// Early-stopping rule across the two spatial-join trees.
  void EmitSubtreePairGroupDual(NodeId a, NodeId b) {
    ++stats_.early_stops;
    const size_t count = CountEntriesInSubtree(tree_a_, a, &run_ctx_) +
                         CountEntriesInSubtree(tree_b_, b, &run_ctx_);
    ScopedCharge charge;
    if (!ChargeMembers(charge, count)) return;
    std::vector<PointId> members;
    members.reserve(count);
    Box<D> box;
    auto collect = [&](const Entry<D>& e) {
      members.push_back(e.id);
      box.Extend(e.point);
    };
    ForEachEntryInSubtree(tree_a_, a, options_.tracker, collect, &run_ctx_);
    ForEachEntryInSubtree(tree_b_, b, options_.tracker, collect, &run_ctx_);
    EmitGroup(std::move(members), box);
  }

  void EmitGroup(std::vector<PointId> members, const Box<D>& box) {
    if (members.size() < 2) return;  // no links implied; nothing to report
    if (algorithm_ == JoinAlgorithm::kCSJ) {
      // Admit to the merge window so later bridging links can join it.
      window_.AddSubtreeGroup(std::move(members), box);
      return;
    }
    ScopedStopwatch watch(options_.measure_write_time ? &write_timer_
                                                      : nullptr);
    sink_->Group(members);
    if (sink_->error().ok()) stats_.AddImpliedGroup(members.size());
  }

  const TreeA& tree_a_;
  const TreeB& tree_b_;
  bool self_join_;
  JoinAlgorithm algorithm_;
  const JoinOptions& options_;
  double eps_;
  double eps_squared_;
  JoinSink* sink_;
  JoinStats stats_;
  StopwatchAccumulator write_timer_;
  /// Governance context: layers options.deadline_ms over options.exec.
  /// Declared before window_, which captures a pointer to it.
  ExecContext run_ctx_;
  GroupWindow<D> window_;
  /// Leaf-kernel scratch (SoA tiles + hit buffer), reused across leaf visits.
  LeafJoinScratch<D> kernel_scratch_;
  /// Deferred leaf/group events + per-batch tile cache (core/leaf_batch.h).
  LeafBatch<D> leaf_batch_;
  bool batch_enabled_ = false;
  /// Per-recursion-depth (dist, child pair) buffers for sort_child_pairs.
  std::vector<std::vector<ChildPair>> pair_scratch_pool_;
  /// High-water-mark budget reservations for the scratch buffers above.
  ScopedCharge kernel_scratch_charge_;
  ScopedCharge pair_scratch_charge_;
  ScopedCharge batch_charge_;
  size_t charged_leaf_entries_ = 0;
  uint64_t charged_batch_bytes_ = 0;
  static constexpr uint64_t kPairScratchLevelBytes =
      256 * sizeof(ChildPair);
};

}  // namespace internal

/// Standard similarity self-join (SSJ): every qualifying pair is emitted as
/// an individual link. The baseline of all experiments.
template <SpatialIndex Tree>
JoinStats StandardSimilarityJoin(const Tree& tree, const JoinOptions& options,
                                 JoinSink* sink) {
  internal::JoinDriver<Tree, Tree> driver(tree, tree, /*self_join=*/true,
                                          JoinAlgorithm::kSSJ, options, sink);
  return driver.Run();
}

/// Naive compact self-join (N-CSJ): subtrees whose bounding-shape diameter is
/// within epsilon are emitted as whole groups; everything else as links.
template <SpatialIndex Tree>
JoinStats NaiveCompactJoin(const Tree& tree, const JoinOptions& options,
                           JoinSink* sink) {
  internal::JoinDriver<Tree, Tree> driver(tree, tree, /*self_join=*/true,
                                          JoinAlgorithm::kNCSJ, options, sink);
  return driver.Run();
}

/// Compact self-join CSJ(g): N-CSJ plus merging of individual links into the
/// g most recent groups (options.window_size).
template <SpatialIndex Tree>
JoinStats CompactSimilarityJoin(const Tree& tree, const JoinOptions& options,
                                JoinSink* sink) {
  internal::JoinDriver<Tree, Tree> driver(tree, tree, /*self_join=*/true,
                                          JoinAlgorithm::kCSJ, options, sink);
  return driver.Run();
}

/// Standard spatial join of two trees (cross pairs only). The two trees must
/// use the same bounding-shape family and disjoint point-id spaces.
template <SpatialIndex TreeA, SpatialIndex TreeB>
JoinStats StandardSpatialJoin(const TreeA& tree_a, const TreeB& tree_b,
                              const JoinOptions& options, JoinSink* sink) {
  internal::JoinDriver<TreeA, TreeB> driver(
      tree_a, tree_b, /*self_join=*/false, JoinAlgorithm::kSSJ, options, sink);
  return driver.Run();
}

/// Naive compact spatial join.
template <SpatialIndex TreeA, SpatialIndex TreeB>
JoinStats NaiveCompactSpatialJoin(const TreeA& tree_a, const TreeB& tree_b,
                                  const JoinOptions& options, JoinSink* sink) {
  internal::JoinDriver<TreeA, TreeB> driver(tree_a, tree_b,
                                            /*self_join=*/false,
                                            JoinAlgorithm::kNCSJ, options,
                                            sink);
  return driver.Run();
}

/// Compact spatial join CSJ(g) over two trees.
template <SpatialIndex TreeA, SpatialIndex TreeB>
JoinStats CompactSpatialJoin(const TreeA& tree_a, const TreeB& tree_b,
                             const JoinOptions& options, JoinSink* sink) {
  internal::JoinDriver<TreeA, TreeB> driver(
      tree_a, tree_b, /*self_join=*/false, JoinAlgorithm::kCSJ, options, sink);
  return driver.Run();
}

/// Dispatch by runtime algorithm value (used by the benchmark harnesses).
template <SpatialIndex Tree>
JoinStats RunSelfJoin(JoinAlgorithm algorithm, const Tree& tree,
                      const JoinOptions& options, JoinSink* sink) {
  switch (algorithm) {
    case JoinAlgorithm::kSSJ:
      return StandardSimilarityJoin(tree, options, sink);
    case JoinAlgorithm::kNCSJ:
      return NaiveCompactJoin(tree, options, sink);
    case JoinAlgorithm::kCSJ:
      return CompactSimilarityJoin(tree, options, sink);
  }
  CSJ_CHECK(false) << "unknown algorithm";
  return JoinStats();
}

}  // namespace csj

#endif  // CSJ_CORE_SIMILARITY_JOIN_H_
