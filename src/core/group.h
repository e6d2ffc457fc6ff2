#ifndef CSJ_CORE_GROUP_H_
#define CSJ_CORE_GROUP_H_

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/join_stats.h"
#include "core/sink.h"
#include "geom/box.h"
#include "util/exec_context.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/timer.h"

/// \file
/// Groups and the g-most-recent-groups merge window of CSJ(g).
///
/// A group is a set of point ids plus a bounding MBR whose diagonal is kept
/// <= epsilon, which guarantees (Section V-A) that all members mutually
/// satisfy the range — membership tests, insertions and boundary updates are
/// all constant time. The window implements mergeIntoPrevGroup from the
/// paper's Figure 3: a link is merged into the first of the g most recent
/// groups whose tentatively-extended MBR still has diagonal <= epsilon;
/// otherwise it founds a new group.

namespace csj {

/// One output group under construction.
template <int D>
class Group {
 public:
  /// New group from a single link (two points).
  Group(PointId id_a, const Point<D>& a, PointId id_b, const Point<D>& b) {
    box_.Extend(a);
    box_.Extend(b);
    members_.push_back(id_a);
    if (id_b != id_a) members_.push_back(id_b);
  }

  /// New group from a whole subtree (the early-stopping rule). `box` must
  /// cover all member points and have diagonal <= epsilon.
  Group(std::vector<PointId> members, const Box<D>& box)
      : box_(box), members_(std::move(members)) {}

  /// Squared diagonal the MBR would have if extended to cover the link —
  /// the dry-run of the merge test (used by the best-fit window policy).
  double ExtensionSquaredDiagonal(const Point<D>& a, const Point<D>& b) const {
    Box<D> extended = box_;
    extended.Extend(a);
    extended.Extend(b);
    return extended.SquaredDiagonal();
  }

  /// Attempts to absorb the link (a, b): extends the MBR tentatively and
  /// commits only if the extended diagonal is still within eps (squared
  /// comparison; no sqrt). Returns true on success.
  bool TryAddLink(double eps_squared, PointId id_a, const Point<D>& a,
                  PointId id_b, const Point<D>& b) {
    Box<D> extended = box_;
    extended.Extend(a);
    extended.Extend(b);
    if (extended.SquaredDiagonal() > eps_squared) return false;
    box_ = extended;
    AddMember(id_a);
    AddMember(id_b);
    return true;
  }

  /// Unconditional absorb (caller already verified the bound via
  /// ExtensionSquaredDiagonal).
  void AddLink(PointId id_a, const Point<D>& a, PointId id_b,
               const Point<D>& b) {
    box_.Extend(a);
    box_.Extend(b);
    AddMember(id_a);
    AddMember(id_b);
  }

  const Box<D>& box() const { return box_; }
  const std::vector<PointId>& members() const { return members_; }
  size_t size() const { return members_.size(); }

 private:
  void AddMember(PointId id) {
    // The dedup set is built lazily: most groups (especially big subtree
    // groups) never receive a merged link, so they never pay for it.
    if (member_set_.empty()) {
      member_set_.insert(members_.begin(), members_.end());
    }
    if (member_set_.insert(id).second) members_.push_back(id);
  }

  Box<D> box_;
  std::vector<PointId> members_;
  std::unordered_set<PointId> member_set_;
};

/// The CSJ(g) merge window: holds the g most recently created groups; older
/// groups are emitted to the sink as they are evicted, and Flush() emits the
/// remainder at the end of the join.
template <int D>
class GroupWindow {
 public:
  /// \param capacity the paper's g (>= 1).
  /// \param epsilon query range.
  /// \param sink receives evicted/flushed groups. Not owned.
  /// \param stats implied-link accounting. Not owned.
  /// \param write_timer if non-null, sink time is accumulated there.
  /// \param exec optional governance context (util/exec_context.h). When it
  ///        carries a memory budget, each admitted group charges an estimate
  ///        of its member storage; under pressure the window degrades by
  ///        shedding its oldest groups (still-correct output, fewer merge
  ///        opportunities) before tripping `kResourceExhausted`.
  GroupWindow(int capacity, double epsilon, JoinSink* sink, JoinStats* stats,
              StopwatchAccumulator* write_timer,
              const ExecContext* exec = nullptr)
      : capacity_(static_cast<size_t>(capacity)),
        eps_squared_(epsilon * epsilon),
        sink_(sink),
        stats_(stats),
        write_timer_(write_timer),
        exec_(exec) {
    CSJ_CHECK(capacity >= 1);
  }

  ~GroupWindow() {
    // An aborted run destroys the window with groups still pending; their
    // reservations must flow back to the budget (without emitting).
    MemoryBudget* budget = Budget();
    if (budget != nullptr) {
      for (uint64_t charge : charges_) {
        if (charge > 0) budget->Release(charge);
      }
    }
  }

  GroupWindow(const GroupWindow&) = delete;
  GroupWindow& operator=(const GroupWindow&) = delete;

  /// mergeIntoPrevGroup (Figure 3): try the g most recent groups, newest
  /// first; on failure start a new group containing just this link.
  /// \param promote_on_merge move a successfully-extended group to the
  ///        most-recent slot (ablation; the default keeps creation order).
  void MergeLink(PointId id_a, const Point<D>& a, PointId id_b,
                 const Point<D>& b, bool promote_on_merge) {
    for (size_t i = window_.size(); i-- > 0;) {
      ++stats_->merge_attempts;
      if (window_[i].TryAddLink(eps_squared_, id_a, a, id_b, b)) {
        ++stats_->merges;
        if (promote_on_merge && i + 1 != window_.size()) {
          Group<D> g = std::move(window_[i]);
          window_.erase(window_.begin() + static_cast<long>(i));
          window_.push_back(std::move(g));
        }
        return;
      }
    }
    Push(Group<D>(id_a, a, id_b, b));
  }

  /// Best-fit variant of mergeIntoPrevGroup: evaluates every window group
  /// and commits to the one whose extended MBR stays *tightest* (Section
  /// V-B notes that insertion/grouping choices change output size; best-fit
  /// trades g dry-run extensions — still O(g), still constant per group —
  /// for better packing).
  void MergeLinkBestFit(PointId id_a, const Point<D>& a, PointId id_b,
                        const Point<D>& b, bool promote_on_merge) {
    size_t best = window_.size();
    double best_diag = eps_squared_;
    for (size_t i = window_.size(); i-- > 0;) {
      ++stats_->merge_attempts;
      const double diag = window_[i].ExtensionSquaredDiagonal(a, b);
      if (diag <= best_diag) {
        best_diag = diag;
        best = i;
      }
    }
    if (best == window_.size()) {
      Push(Group<D>(id_a, a, id_b, b));
      return;
    }
    ++stats_->merges;
    window_[best].AddLink(id_a, a, id_b, b);
    if (promote_on_merge && best + 1 != window_.size()) {
      Group<D> g = std::move(window_[best]);
      window_.erase(window_.begin() + static_cast<long>(best));
      window_.push_back(std::move(g));
    }
  }

  /// createNewGroup(n): admit a subtree group to the window so later links
  /// may merge into it.
  void AddSubtreeGroup(std::vector<PointId> members, const Box<D>& box) {
    if (members.size() < 2) return;  // a singleton implies no links
    Push(Group<D>(std::move(members), box));
  }

  /// Emits everything still buffered. Call exactly once, after the traversal.
  void Flush() {
    CSJ_METRIC_COUNT("window.flushed_groups", window_.size());
    while (!window_.empty()) EvictOldest();
  }

  size_t live_groups() const { return window_.size(); }

  /// Points the window at another sink; call only while it is empty (after
  /// Flush), as the task loop does between tasks.
  void set_sink(JoinSink* sink) { sink_ = sink; }

 private:
  MemoryBudget* Budget() const {
    return exec_ != nullptr ? exec_->memory_budget() : nullptr;
  }

  /// Estimated heap footprint of a group: member ids plus container
  /// overhead. Deliberately approximate (links merged later grow members_
  /// uncharged); the dominant cost — big subtree groups — is captured at
  /// admission, which is when it is decided.
  static uint64_t GroupBytes(const Group<D>& group) {
    return static_cast<uint64_t>(group.size()) * sizeof(PointId) +
           kGroupOverheadBytes;
  }

  void Push(Group<D> group) {
    uint64_t charged = 0;
    MemoryBudget* budget = Budget();
    if (budget != nullptr) {
      const uint64_t bytes = GroupBytes(group);
      // Graceful degradation: shed the oldest groups (their output is still
      // correct; only future merge opportunities are lost) until the new
      // group fits. Only when even an empty window cannot hold it does the
      // run trip kResourceExhausted.
      while (!budget->TryReserve(bytes)) {
        if (window_.empty()) {
          exec_->Trip(Status::ResourceExhausted(StrFormat(
              "memory budget exhausted admitting a %zu-member group to the "
              "CSJ(g) window (used %llu of %llu bytes)",
              group.size(), static_cast<unsigned long long>(budget->used()),
              static_cast<unsigned long long>(budget->limit()))));
          return;
        }
        CSJ_METRIC_COUNT("resource.window_degradations", 1);
        EvictOldest();
      }
      charged = bytes;
    }
    window_.push_back(std::move(group));
    charges_.push_back(charged);
    // Under budget pressure the window proactively halves its capacity —
    // fewer pending groups, more headroom for the rest of the run.
    size_t capacity = capacity_;
    if (budget != nullptr && window_.size() > 1 && budget->UnderPressure()) {
      capacity = std::max<size_t>(1, capacity_ / 2);
    }
    while (window_.size() > capacity) {
      CSJ_METRIC_COUNT("window.evictions", 1);
      if (capacity != capacity_) {
        CSJ_METRIC_COUNT("resource.window_degradations", 1);
      }
      EvictOldest();
    }
    CSJ_METRIC_HIST("window.occupancy", window_.size());
  }

  void EvictOldest() {
    Emit(window_.front());
    window_.pop_front();
    if (!charges_.empty()) {
      if (charges_.front() > 0) Budget()->Release(charges_.front());
      charges_.pop_front();
    }
  }

  void Emit(const Group<D>& group) {
    if (group.size() < 2) return;
    ScopedStopwatch watch(write_timer_);
    sink_->Group(group.members());
    if (sink_->error().ok()) stats_->AddImpliedGroup(group.size());
  }

  static constexpr uint64_t kGroupOverheadBytes = 96;

  size_t capacity_;
  double eps_squared_;
  JoinSink* sink_;
  JoinStats* stats_;
  StopwatchAccumulator* write_timer_;
  const ExecContext* exec_;
  std::deque<Group<D>> window_;
  /// Per-group budget reservation, aligned with window_ (0 = uncharged).
  std::deque<uint64_t> charges_;
};

}  // namespace csj

#endif  // CSJ_CORE_GROUP_H_
