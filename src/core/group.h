#ifndef CSJ_CORE_GROUP_H_
#define CSJ_CORE_GROUP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/join_options.h"
#include "core/join_work.h"
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
/// drops groups of fewer than two members and charges pending groups to the
/// memory budget. The sink counts what it accepts, implied links included.
///
/// Storage: at most g slots, each a bound, a member vector and a flat member
/// table (open addressing, at most half full), allocated only as the window
/// first needs them and reused, capacity kept, after their group is written;
/// so a warm window allocates nothing per group. The live groups form a
/// ring over the slots. The table gives exact O(1) membership without a
/// node allocation per id; it is built on the group's first merge.

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
  bool TryExtend(Bound& box, const Item& a, const Item& b, JoinWork*) const {
    Box<D> extended = box;
    extended.Extend(a);
    extended.Extend(b);
    if (extended.SquaredDiagonal() > eps_squared_) return false;
    box = extended;
    return true;
  }

  /// The bound of a group founded by the link (a, b); an MBR can host any
  /// qualifying link.
  std::optional<Bound> Found(const Item& a, const Item& b, JoinWork*) const {
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
                 JoinWork* work) const {
    ++work->distance_computations;
    if (metric_(ball.center, a) > radius_) return false;
    ++work->distance_computations;
    return metric_(ball.center, b) <= radius_;
  }

  /// A mergeable group centred on a, if b lies within eps/2 of a. Otherwise
  /// (b is in (eps/2, eps] of a) the ball cannot host the pair, and the link
  /// stays a plain link. Costs one distance computation.
  std::optional<Bound> Found(const Item& a, const Item& b,
                             JoinWork* work) const {
    ++work->distance_computations;
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
  /// \param work receives the merge work. Not owned.
  /// \param write_timer if non-null, sink time is accumulated there.
  /// \param exec optional governance context (util/exec_context.h). When it
  ///        carries a memory budget, the slots' storage is charged to it,
  ///        and a denied charge trips `kResourceExhausted`: a budget stops a
  ///        run, never changes its bytes.
  GroupWindow(Shape shape, JoinAlgorithm algorithm, int capacity,
              bool promote_on_merge, JoinSink* sink, JoinWork* work,
              StopwatchAccumulator* write_timer,
              const ExecContext* exec = nullptr)
      : shape_(std::move(shape)),
        merge_(algorithm == JoinAlgorithm::kCSJ),
        capacity_(static_cast<size_t>(capacity)),
        promote_on_merge_(promote_on_merge),
        sink_(sink),
        work_(work),
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
  /// is written. The members are kept as given, duplicates included.
  void SubtreeGroup(std::vector<PointId> members, Bound bound) {
    if (members.size() < 2) return;  // a singleton implies no links
    if (!merge_) {
      WriteGroup(members);
      return;
    }
    Slot& slot = NewSlot(std::move(bound));
    storage_bytes_ -= slot.members.capacity() * sizeof(PointId);
    slot.members = std::move(members);
    storage_bytes_ += slot.members.capacity() * sizeof(PointId);
    Charge(slot);
  }

  /// Writes everything still buffered. Call exactly once, after the
  /// traversal.
  void Flush() {
    if (!merge_) return;
    CSJ_METRIC_COUNT("window.flushed_groups", live_);
    for (size_t p = head_; live_ > 0; --live_, p = Next(p)) Retire(slots_[p]);
    head_ = 0;
  }

  size_t live_groups() const { return live_; }
  const Shape& shape() const { return shape_; }

  /// Points the window at another sink; call only while it is empty (after
  /// Flush), as the task loop does between tasks.
  void set_sink(JoinSink* sink) { sink_ = sink; }

 private:
  /// The cell value of an empty member-table cell. The id equal to it is
  /// recorded by Slot::holds_empty_id instead.
  static constexpr PointId kEmptyCell = ~PointId{0};
  /// The smallest member table, in cells.
  static constexpr size_t kMinTableCells = 16;

  /// One group of the window: its bound and its member ids, in insertion
  /// order. `table` is an open-addressing (linear probing) set of the ids,
  /// a power of two in size and at most half full; it stays empty until the
  /// group takes its first merge, so a group that never takes one (most big
  /// subtree groups) never pays for it. A written slot is cleared and
  /// reused, and keeps the capacity of both vectors.
  struct Slot {
    Bound bound{};
    std::vector<PointId> members;
    std::vector<PointId> table;
    uint32_t shift = 0;  ///< 32 - log2(table.size())
    bool holds_empty_id = false;
  };

  size_t Next(size_t p) const { return p + 1 == slots_.size() ? 0 : p + 1; }
  size_t Prev(size_t p) const { return (p == 0 ? slots_.size() : p) - 1; }

  /// mergeIntoPrevGroup (Figure 3): try the g most recent mergeable groups,
  /// newest first (frozen groups are skipped without counting an attempt);
  /// on failure found a new group containing just this link, or write a
  /// plain link if the shape cannot host it. Kept out of line: inlined into
  /// Link, it slows the SSJ and N-CSJ paths that never call it. The loop
  /// keeps only the extension checks; the rest is out of line too, so the
  /// checks stay inlined in it.
  [[gnu::noinline]] void MergeLink(PointId id_a, const Item& a, PointId id_b,
                                   const Item& b) {
    // The ring runs oldest to newest from head_ and wraps only when full;
    // p starts one past the newest slot.
    size_t p = head_ + live_;
    if (p > slots_.size()) p -= slots_.size();
    for (size_t left = live_; left > 0; --left) {
      p = Prev(p);
      Slot& slot = slots_[p];
      if (!Shape::Mergeable(slot.bound)) continue;
      ++work_->merge_attempts;
      if (shape_.TryExtend(slot.bound, a, b, work_)) {
        Absorb(p, live_ - left, id_a, id_b);
        return;
      }
    }
    FoundGroup(id_a, a, id_b, b);
  }

  /// Adds a merged link's ids to the slot at `p`, which has `newer` slots
  /// after it; under promote_on_merge, rotates it to the newest position
  /// (the others keep their order).
  [[gnu::noinline]] void Absorb(size_t p, size_t newer, PointId id_a,
                                PointId id_b) {
    ++work_->merges;
    Slot& slot = slots_[p];
    if (slot.table.empty()) Index(slot, slot.members.size() + 2);
    AddMember(slot, id_a);
    AddMember(slot, id_b);
    Charge(slot);
    if (!promote_on_merge_) return;
    for (; newer > 0; --newer) {
      const size_t q = Next(p);
      std::swap(slots_[p], slots_[q]);
      p = q;
    }
  }

  /// createNewGroup for a link no window group admits.
  [[gnu::noinline]] void FoundGroup(PointId id_a, const Item& a, PointId id_b,
                                    const Item& b) {
    std::optional<Bound> bound = shape_.Found(a, b, work_);
    if (!bound) {
      WriteLink(id_a, id_b);
      return;
    }
    Slot& slot = NewSlot(std::move(*bound));
    Append(slot, id_a);
    if (id_b != id_a) Append(slot, id_b);
    Charge(slot);
  }

  /// The slot of a new newest group with bound `bound` and no members. A
  /// full window first writes its oldest group and reuses that slot.
  Slot& NewSlot(Bound bound) {
    size_t p;
    if (live_ == capacity_) {
      CSJ_METRIC_COUNT("window.evictions", 1);
      p = head_;
      Retire(slots_[p]);
      head_ = Next(head_);
    } else {
      if (live_ == slots_.size()) {
        slots_.emplace_back();
        storage_bytes_ += sizeof(Slot);
      }
      p = live_++;
    }
    CSJ_METRIC_HIST("window.occupancy", live_);
    slots_[p].bound = std::move(bound);
    return slots_[p];
  }

  /// Writes a slot's group and clears the slot for reuse. The table's cells
  /// are refilled only when the next group it holds takes a merge, and then
  /// sized to that group, so clearing costs nothing per group.
  void Retire(Slot& slot) {
    WriteGroup(slot.members);
    slot.members.clear();
    slot.table.clear();
  }

  /// Appends `id` to the members, tracking the storage it holds.
  void Append(Slot& slot, PointId id) {
    const size_t before = slot.members.capacity();
    slot.members.push_back(id);
    storage_bytes_ += (slot.members.capacity() - before) * sizeof(PointId);
  }

  /// Builds the slot's member table, sized for `expected` members, from its
  /// current members. Only the first of equal ids enters the table.
  void Index(Slot& slot, size_t expected) {
    const size_t before = slot.table.capacity();
    const size_t cells = std::max(kMinTableCells, std::bit_ceil(2 * expected));
    slot.table.assign(cells, kEmptyCell);
    storage_bytes_ += (slot.table.capacity() - before) * sizeof(PointId);
    slot.shift = 32 - static_cast<uint32_t>(std::countr_zero(cells));
    slot.holds_empty_id = false;
    for (PointId id : slot.members) Insert(slot, id);
  }

  /// Adds `id` to the slot's table; true if it was not there yet.
  static bool Insert(Slot& slot, PointId id) {
    if (id == kEmptyCell) {
      if (slot.holds_empty_id) return false;
      slot.holds_empty_id = true;
      return true;
    }
    const size_t mask = slot.table.size() - 1;
    // Fibonacci hashing: the product's top bits pick the home cell.
    size_t cell = static_cast<uint32_t>(id * 2654435769u) >> slot.shift;
    while (slot.table[cell] != kEmptyCell) {
      if (slot.table[cell] == id) return false;
      cell = (cell + 1) & mask;
    }
    slot.table[cell] = id;
    return true;
  }

  /// Appends `id` to an indexed slot unless it is a member already; keeps
  /// the table at most half full.
  void AddMember(Slot& slot, PointId id) {
    if (!Insert(slot, id)) return;
    Append(slot, id);
    if (2 * slot.members.size() > slot.table.size()) {
      Index(slot, slot.members.size());
    }
  }

  /// Raises the window's high-water charge to the storage its slots hold.
  /// A denial trips the context with kResourceExhausted; shedding groups
  /// instead would make the output depend on how full the budget is.
  void Charge(const Slot& slot) {
    if (storage_bytes_ <= charged_) return;
    charged_ = storage_bytes_;
    MemoryBudget* budget = exec_ != nullptr ? exec_->memory_budget() : nullptr;
    if (budget == nullptr) return;
    if (charge_.budget() != nullptr ? charge_.Resize(storage_bytes_)
                                    : charge_.Acquire(budget, storage_bytes_)) {
      return;
    }
    exec_->Trip(Status::ResourceExhausted(StrFormat(
        "memory budget exhausted admitting a %zu-member group to the "
        "CSJ(g) window (used %llu of %llu bytes)",
        slot.members.size(), static_cast<unsigned long long>(budget->used()),
        static_cast<unsigned long long>(budget->limit()))));
  }

  void WriteLink(PointId a, PointId b) {
    ScopedStopwatch watch(write_timer_);
    sink_->Link(a, b);
  }

  void WriteGroup(std::span<const PointId> members) {
    if (members.size() < 2) return;  // a singleton implies no links
    ScopedStopwatch watch(write_timer_);
    sink_->Group(members);
  }

  Shape shape_;
  bool merge_;
  size_t capacity_;
  bool promote_on_merge_;
  JoinSink* sink_;
  JoinWork* work_;
  StopwatchAccumulator* write_timer_;
  const ExecContext* exec_;
  /// At most g slots, allocated as the window first needs them. The live
  /// groups are a ring, oldest first from head_; it wraps only when full.
  std::vector<Slot> slots_;
  size_t head_ = 0;
  size_t live_ = 0;
  uint64_t storage_bytes_ = 0;  ///< slots, member vectors and tables
  uint64_t charged_ = 0;        ///< high-water mark of storage_bytes_
  ScopedCharge charge_;
};

}  // namespace csj

#endif  // CSJ_CORE_GROUP_H_
