#ifndef CSJ_CORE_GROUP_H_
#define CSJ_CORE_GROUP_H_

#include <algorithm>
#include <deque>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/join_options.h"
#include "core/join_stats.h"
#include "core/sink.h"
#include "geom/box.h"
#include "util/exec_context.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/timer.h"

/// \file
/// Groups and the g-most-recent-groups merge window of CSJ(g): the one
/// writer of every join's output.
///
/// A group is a set of point ids plus a bound that guarantees (Section V-A)
/// that all members mutually satisfy the range, so membership tests,
/// insertions and bound updates are all constant time. The bound has one of
/// two shapes:
///
///  * BoxShape: an MBR whose diagonal is kept <= epsilon (vector space; the
///    tree and EGO joins);
///  * BallShape: a fixed centre and radius epsilon/2, so any two members are
///    within epsilon by the triangle inequality (general metric spaces, where
///    no coordinates exist; the metric joins).
///
/// The window implements mergeIntoPrevGroup from the paper's Figure 3: a link
/// is merged into the first of the g most recent groups whose bound still
/// admits it; otherwise it founds a new group. Under SSJ and N-CSJ it holds
/// nothing and writes every record straight to the sink. Either way it is
/// the only code between a join driver and its sink: it times the writes,
/// counts implied links only for records the sink accepted, drops groups of
/// fewer than two members and charges pending groups to the memory budget.

namespace csj {

/// MBR groups: the bound is a box whose diagonal stays <= eps.
template <int D>
class BoxShape {
 public:
  using Item = Point<D>;
  using Bound = Box<D>;

  explicit BoxShape(double epsilon) : eps_squared_(epsilon * epsilon) {}

  /// Every box group takes merges.
  static bool Mergeable(const Bound&) { return true; }

  /// Extends the MBR to cover the link if its diagonal stays within eps
  /// (squared comparison; no sqrt); leaves it untouched otherwise.
  bool TryExtend(Bound& box, const Item& a, const Item& b, JoinStats*) const {
    Box<D> extended = box;
    extended.Extend(a);
    extended.Extend(b);
    if (extended.SquaredDiagonal() > eps_squared_) return false;
    box = extended;
    return true;
  }

  /// The bound of a group founded by the link (a, b); an MBR can host any
  /// qualifying link.
  std::optional<Bound> Found(const Item& a, const Item& b, JoinStats*) const {
    Box<D> box;
    box.Extend(a);
    box.Extend(b);
    return box;
  }

 private:
  double eps_squared_;
};

/// Ball groups: every member lies within eps/2 of a fixed centre item. A
/// subtree group is mergeable only if it comes from one node whose covering
/// radius already fits in eps/2; any other is frozen — proven at creation and
/// never merged into, since a general metric space offers no cheap way to
/// re-centre a ball.
template <typename ItemT, typename Metric>
class BallShape {
 public:
  using Item = ItemT;
  struct Bound {
    Item center{};
    bool mergeable = false;
  };

  /// `metric` must outlive the shape.
  BallShape(const Metric& metric, double epsilon)
      : metric_(metric), radius_(epsilon / 2.0) {}

  static bool Mergeable(const Bound& ball) { return ball.mergeable; }

  /// Admits the link if both endpoints lie within eps/2 of the centre.
  /// Costs one distance computation, or two when a is inside.
  bool TryExtend(const Bound& ball, const Item& a, const Item& b,
                 JoinStats* stats) const {
    ++stats->distance_computations;
    if (metric_(ball.center, a) > radius_) return false;
    ++stats->distance_computations;
    return metric_(ball.center, b) <= radius_;
  }

  /// A mergeable group centred on a, if b lies within eps/2 of a. Otherwise
  /// (b is in (eps/2, eps] of a) the ball cannot host the pair, and the link
  /// stays a plain link. Costs one distance computation.
  std::optional<Bound> Found(const Item& a, const Item& b,
                             JoinStats* stats) const {
    ++stats->distance_computations;
    if (metric_(a, b) > radius_) return std::nullopt;
    return Bound{a, true};
  }

  /// The bound of a subtree group covering node(s) centred on `center`.
  Bound Subtree(const Item& center, double node_radius, bool one_node) const {
    return Bound{center, one_node && node_radius <= radius_};
  }

 private:
  const Metric& metric_;
  double radius_;
};

/// One output group under construction: its bound and its member ids, in
/// insertion order and deduplicated.
template <typename Shape>
class Group {
 public:
  using Item = typename Shape::Item;
  using Bound = typename Shape::Bound;

  /// New group founded by the link (id_a, id_b).
  Group(PointId id_a, PointId id_b, Bound bound) : bound_(std::move(bound)) {
    members_.push_back(id_a);
    if (id_b != id_a) members_.push_back(id_b);
  }

  /// New group from a whole subtree (the early-stopping rule). `bound` must
  /// cover all member points.
  Group(std::vector<PointId> members, Bound bound)
      : bound_(std::move(bound)), members_(std::move(members)) {}

  /// Attempts to absorb the link (a, b); commits the bound and the members
  /// only if the shape admits it. Returns true on success. The distances a
  /// ball shape evaluates are counted in `stats`.
  bool TryAddLink(const Shape& shape, PointId id_a, const Item& a,
                  PointId id_b, const Item& b, JoinStats* stats) {
    if (!shape.TryExtend(bound_, a, b, stats)) return false;
    AddMember(id_a);
    AddMember(id_b);
    return true;
  }

  const Bound& bound() const { return bound_; }
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

  Bound bound_;
  std::vector<PointId> members_;
  std::unordered_set<PointId> member_set_;
};

/// The member ids of an early-stopped subtree group, collected in the one
/// walk of the subtree. The buffer's capacity is charged to the context's
/// memory budget before each growth; a denial trips the context with
/// kResourceExhausted, and every later Add is refused.
class SubtreeMembers {
 public:
  explicit SubtreeMembers(const ExecContext* ctx) : ctx_(ctx) {}

  /// Appends `id`, unless the budget has denied a growth.
  void Add(PointId id) {
    if (ids_.size() == ids_.capacity() && !Grow()) return;
    ids_.push_back(id);
  }

  /// False once the budget has denied a growth.
  bool ok() const { return !denied_; }

  /// The collected ids; the charge is held until this object is destroyed.
  std::vector<PointId> Take() { return std::move(ids_); }

 private:
  bool Grow() {
    if (denied_) return false;
    const size_t capacity = std::max<size_t>(16, 2 * ids_.capacity());
    if (!charge_.Acquire(ctx_->memory_budget(), capacity * sizeof(PointId))) {
      denied_ = true;
      ctx_->Trip(Status::ResourceExhausted(StrFormat(
          "memory budget exhausted collecting a subtree group of over %zu "
          "members",
          ids_.size())));
      return false;
    }
    ids_.reserve(capacity);
    return true;
  }

  const ExecContext* ctx_;
  ScopedCharge charge_;
  std::vector<PointId> ids_;
  bool denied_ = false;
};

/// The CSJ(g) merge window and output writer (see the file comment): holds
/// the g most recently created groups; older groups are written as they are
/// evicted, and Flush() writes the remainder at the end of the join.
template <typename Shape>
class GroupWindow {
 public:
  using Item = typename Shape::Item;
  using Bound = typename Shape::Bound;

  /// \param shape the group shape.
  /// \param algorithm kCSJ merges links into the window; kSSJ and kNCSJ
  ///        write every record through.
  /// \param capacity the paper's g (>= 1).
  /// \param promote_on_merge move a successfully extended group to the
  ///        most-recent slot (ablation; the default keeps creation order).
  /// \param sink receives the output. Not owned; may be set later.
  /// \param stats implied links and merge work. Not owned.
  /// \param write_timer if non-null, sink time is accumulated there.
  /// \param exec optional governance context (util/exec_context.h). When it
  ///        carries a memory budget, each admitted group charges an estimate
  ///        of its member storage; under pressure the window degrades by
  ///        shedding its oldest groups (still-correct output, fewer merge
  ///        opportunities) before tripping `kResourceExhausted`.
  GroupWindow(Shape shape, JoinAlgorithm algorithm, int capacity,
              bool promote_on_merge, JoinSink* sink, JoinStats* stats,
              StopwatchAccumulator* write_timer,
              const ExecContext* exec = nullptr)
      : shape_(std::move(shape)),
        merge_(algorithm == JoinAlgorithm::kCSJ),
        capacity_(static_cast<size_t>(capacity)),
        promote_on_merge_(promote_on_merge),
        sink_(sink),
        stats_(stats),
        write_timer_(write_timer),
        exec_(exec) {
    CSJ_CHECK(capacity >= 1);
  }

  GroupWindow(const GroupWindow&) = delete;
  GroupWindow& operator=(const GroupWindow&) = delete;

  /// A qualifying link: merged under CSJ, written otherwise.
  void Link(PointId id_a, const Item& a, PointId id_b, const Item& b) {
    if (merge_) {
      MergeLink(id_a, a, id_b, b);
    } else {
      WriteLink(id_a, id_b);
    }
  }

  /// createNewGroup(n): an early-stopped subtree (or subtree pair). Under
  /// CSJ it joins the window so later links may merge into it; otherwise it
  /// is written.
  void SubtreeGroup(std::vector<PointId> members, Bound bound) {
    if (members.size() < 2) return;  // a singleton implies no links
    if (!merge_) {
      WriteGroup(members);
      return;
    }
    Push(Group<Shape>(std::move(members), std::move(bound)));
  }

  /// Writes everything still buffered. Call exactly once, after the
  /// traversal.
  void Flush() {
    if (!merge_) return;
    CSJ_METRIC_COUNT("window.flushed_groups", window_.size());
    while (!window_.empty()) EvictOldest();
  }

  size_t live_groups() const { return window_.size(); }
  const Shape& shape() const { return shape_; }

  /// Points the window at another sink; call only while it is empty (after
  /// Flush), as the task loop does between tasks.
  void set_sink(JoinSink* sink) { sink_ = sink; }

 private:
  /// A pending group and its budget reservation (released with the slot).
  struct Slot {
    Group<Shape> group;
    ScopedCharge charge;
  };

  /// mergeIntoPrevGroup (Figure 3): try the g most recent mergeable groups,
  /// newest first (frozen groups are skipped without counting an attempt);
  /// on failure found a new group containing just this link, or write a
  /// plain link if the shape cannot host it.
  void MergeLink(PointId id_a, const Item& a, PointId id_b, const Item& b) {
    for (size_t i = window_.size(); i-- > 0;) {
      if (!Shape::Mergeable(window_[i].group.bound())) continue;
      ++stats_->merge_attempts;
      if (window_[i].group.TryAddLink(shape_, id_a, a, id_b, b, stats_)) {
        ++stats_->merges;
        if (promote_on_merge_ && i + 1 != window_.size()) {
          Slot slot = std::move(window_[i]);
          window_.erase(window_.begin() + static_cast<long>(i));
          window_.push_back(std::move(slot));
        }
        return;
      }
    }
    std::optional<Bound> bound = shape_.Found(a, b, stats_);
    if (!bound) {
      WriteLink(id_a, id_b);
      return;
    }
    Push(Group<Shape>(id_a, id_b, std::move(*bound)));
  }

  MemoryBudget* Budget() const {
    return exec_ != nullptr ? exec_->memory_budget() : nullptr;
  }

  void Push(Group<Shape> group) {
    MemoryBudget* budget = Budget();
    ScopedCharge charge;
    if (budget != nullptr) {
      // Estimated heap footprint: member ids plus container overhead.
      // Deliberately approximate (links merged later grow the group
      // uncharged); the dominant cost — big subtree groups — is captured at
      // admission, which is when it is decided.
      const uint64_t bytes =
          group.size() * sizeof(PointId) + kGroupOverheadBytes;
      // Graceful degradation: shed the oldest groups (their output is still
      // correct; only future merge opportunities are lost) until the new
      // group fits. Only when even an empty window cannot hold it does the
      // run trip kResourceExhausted.
      while (!charge.Acquire(budget, bytes)) {
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
    }
    window_.emplace_back(std::move(group), std::move(charge));
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
    WriteGroup(window_.front().group.members());
    window_.pop_front();
  }

  void WriteLink(PointId a, PointId b) {
    ScopedStopwatch watch(write_timer_);
    sink_->Link(a, b);
    // Implied links count only what the sink accepted.
    if (sink_->error().ok()) stats_->AddImpliedLink();
  }

  void WriteGroup(std::span<const PointId> members) {
    if (members.size() < 2) return;  // a singleton implies no links
    ScopedStopwatch watch(write_timer_);
    sink_->Group(members);
    if (sink_->error().ok()) stats_->AddImpliedGroup(members.size());
  }

  static constexpr uint64_t kGroupOverheadBytes = 96;

  Shape shape_;
  bool merge_;
  size_t capacity_;
  bool promote_on_merge_;
  JoinSink* sink_;
  JoinStats* stats_;
  StopwatchAccumulator* write_timer_;
  const ExecContext* exec_;
  std::deque<Slot> window_;
};

/// Copies a sink's output counters into a run's stats, and deducts the
/// implied links of records the sink lost. Every join driver ends with it.
inline void ReadOutputCounters(const JoinSink& sink, JoinStats* stats) {
  stats->links = sink.num_links();
  stats->groups = sink.num_groups();
  stats->group_member_total = sink.group_member_total();
  stats->output_bytes = sink.bytes();
  stats->DeductImpliedLinks(sink.lost_implied_links());
}

}  // namespace csj

#endif  // CSJ_CORE_GROUP_H_
