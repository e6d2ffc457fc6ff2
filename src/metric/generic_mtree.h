#ifndef CSJ_METRIC_GENERIC_MTREE_H_
#define CSJ_METRIC_GENERIC_MTREE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "index/spatial_index.h"
#include "util/check.h"
#include "util/random.h"

/// \file
/// M-tree (Ciaccia, Patella, Zezula, VLDB 1997) over *arbitrary items* under
/// a user-supplied metric: a metric access method whose nodes are bounding
/// balls (routing object + covering radius).
///
/// The paper's second problem statement covers general metric spaces: the
/// join algorithms only need min/max distances between node bounding shapes
/// and the inclusion property, never coordinates. This tree makes that
/// concrete: items can be strings under edit distance, spectra under DTW,
/// anything with a metric. It is the repository's only M-tree: MTree<D> in
/// index/mtree.h is this tree over Point<D> under L2 (the third index of the
/// paper's Experiment 4), and metric/metric_join.h joins it over any item.
///
/// Distance functor requirements: `double operator()(const Item&, const
/// Item&) const`, a true metric (symmetry + triangle inequality); the tree's
/// bounds are invalid otherwise.

namespace csj {

/// An item paired with its id.
template <typename Item>
struct MetricEntry {
  PointId id = 0;
  Item item{};
};

namespace mtree_internal {

template <typename Item>
struct EntryOf {
  using type = MetricEntry<Item>;
};
template <int D>
struct EntryOf<Point<D>> {
  using type = Entry<D>;
};

}  // namespace mtree_internal

/// Leaf entry of an M-tree over Item: Entry<D> for points, so the
/// vector-space joins and leaf kernels read the leaves of MTree<D> as they
/// read any SpatialIndex; MetricEntry<Item> for every other item type.
template <typename Item>
using MTreeEntry = typename mtree_internal::EntryOf<Item>::type;

/// The item a leaf entry carries.
template <typename Item>
const Item& EntryItem(const MetricEntry<Item>& entry) {
  return entry.item;
}
template <int D>
const Point<D>& EntryItem(const Entry<D>& entry) {
  return entry.point;
}

/// How the two new routing objects are chosen when a node splits.
enum class MTreePromotion {
  kMinMaxRadius,  ///< mM_RAD: every pair; minimize the larger radius
  kSampled,       ///< pair (0,1), then `sampled_pairs` random pairs
};

/// Construction parameters.
struct MTreeOptions {
  size_t max_fanout = 32;
  size_t min_fanout = 2;  ///< M-tree splits may be unbalanced; keep >= 2
  MTreePromotion promotion = MTreePromotion::kMinMaxRadius;
  int sampled_pairs = 64;     ///< random pairs when promotion == kSampled
  uint64_t seed = 0x5eedULL;  ///< for sampled promotion
};

/// M-tree over Item under Metric.
template <typename Item, typename Metric>
class GenericMTree {
 public:
  using EntryT = MTreeEntry<Item>;

  explicit GenericMTree(Metric metric = Metric(),
                        const MTreeOptions& options = MTreeOptions())
      : metric_(std::move(metric)), options_(options), rng_(options.seed) {
    CSJ_CHECK(options.max_fanout >= 4);
    CSJ_CHECK(options.min_fanout >= 1 &&
              options.min_fanout <= options.max_fanout / 2);
  }

  // --- Join interface (SpatialIndex over points; its analog otherwise) -------

  NodeId Root() const { return root_; }
  bool IsLeaf(NodeId n) const { return node(n).is_leaf; }

  std::span<const NodeId> Children(NodeId n) const {
    CSJ_DCHECK(!node(n).is_leaf);
    return node(n).children;
  }

  std::span<const EntryT> Entries(NodeId n) const {
    CSJ_DCHECK(node(n).is_leaf);
    return node(n).entries;
  }

  /// Ball bound: any two items in the subtree are within 2r.
  double MaxDiameter(NodeId n) const { return 2.0 * node(n).radius; }

  /// Bound on pairwise distances over the union of two subtrees:
  /// max(2ra, 2rb, d(ca,cb)+ra+rb).
  double MaxDiameter(NodeId a, NodeId b) const {
    const Node& na = node(a);
    const Node& nb = node(b);
    const double across =
        metric_(na.center, nb.center) + na.radius + nb.radius;
    return std::max({2.0 * na.radius, 2.0 * nb.radius, across});
  }

  double MinDistance(NodeId a, NodeId b) const {
    const Node& na = node(a);
    const Node& nb = node(b);
    return std::max(0.0,
                    metric_(na.center, nb.center) - na.radius - nb.radius);
  }

  uint64_t size() const { return size_; }
  uint64_t NodeCount() const { return live_nodes_; }
  bool empty() const { return root_ == kInvalidNode; }
  int Height() const { return empty() ? 0 : node(root_).level + 1; }
  const Metric& metric() const { return metric_; }

  /// Routing item and covering radius of a node.
  const Item& NodeCenter(NodeId n) const { return node(n).center; }
  double NodeRadius(NodeId n) const { return node(n).radius; }

  // --- Mutation --------------------------------------------------------------

  /// Inserts one item (multiset semantics).
  void Insert(PointId id, const Item& item) {
    if (root_ == kInvalidNode) {
      root_ = AllocNode(/*is_leaf=*/true, /*level=*/0);
      Node& r = node(root_);
      r.center = item;
      r.entries.push_back(EntryT{id, item});
      ++size_;
      return;
    }
    const NodeId leaf = ChooseLeaf(item);
    node(leaf).entries.push_back(EntryT{id, item});
    ++size_;
    if (node(leaf).entries.size() > options_.max_fanout) Split(leaf);
  }

  /// Removes the entry (id, item); returns false if absent. Underfull
  /// nodes are dissolved and their content re-inserted (the Guttman
  /// CondenseTree strategy adapted to balls; covering radii are upper
  /// bounds, so removal never invalidates them).
  bool Remove(PointId id, const Item& item) {
    const NodeId leaf = FindLeaf(id, item);
    if (leaf == kInvalidNode) return false;
    Node& nd = node(leaf);
    for (size_t i = 0; i < nd.entries.size(); ++i) {
      if (nd.entries[i].id == id && EntryItem(nd.entries[i]) == item) {
        nd.entries[i] = nd.entries.back();
        nd.entries.pop_back();
        break;
      }
    }
    --size_;

    // Condense: dissolve underfull non-root nodes upward, salvaging entries.
    std::vector<EntryT> orphans;
    NodeId n = leaf;
    while (n != kInvalidNode) {
      Node& current = node(n);
      const NodeId parent = current.parent;
      if (parent != kInvalidNode && current.fanout() < options_.min_fanout) {
        Node& p = node(parent);
        for (size_t i = 0; i < p.children.size(); ++i) {
          if (p.children[i] == n) {
            p.children[i] = p.children.back();
            p.children.pop_back();
            break;
          }
        }
        CollectEntries(n, &orphans);
      }
      n = parent;
    }
    size_ -= orphans.size();
    for (const EntryT& e : orphans) Insert(e.id, EntryItem(e));

    // Shrink a single-child internal root; drop an empty root leaf.
    while (root_ != kInvalidNode && !node(root_).is_leaf &&
           node(root_).children.size() == 1) {
      const NodeId old_root = root_;
      root_ = node(old_root).children[0];
      node(root_).parent = kInvalidNode;
      --live_nodes_;
    }
    if (root_ != kInvalidNode && node(root_).is_leaf &&
        node(root_).entries.empty()) {
      root_ = kInvalidNode;
      --live_nodes_;
    }
    return true;
  }

  // --- Queries ---------------------------------------------------------------

  /// All entries within `radius` (closed) of `query`.
  std::vector<EntryT> RangeQuery(const Item& query, double radius) const {
    std::vector<EntryT> out;
    ForEachInRange(query, radius, [&](const EntryT& e) { out.push_back(e); });
    return out;
  }

  /// Number of entries within `radius` (closed) of `query`.
  uint64_t RangeCount(const Item& query, double radius) const {
    uint64_t count = 0;
    ForEachInRange(query, radius, [&](const EntryT&) { ++count; });
    return count;
  }

  /// The k entries nearest to `query`, closest first. Best-first search on
  /// ball min-distances: max(0, d(query, ball.center) - ball.radius).
  std::vector<EntryT> NearestNeighbors(const Item& query, size_t k) const {
    std::vector<EntryT> out;
    if (empty() || k == 0) return out;
    struct Candidate {
      double dist;
      bool is_entry;
      NodeId node;
      EntryT entry;
      bool operator>(const Candidate& other) const {
        return dist > other.dist;
      }
    };
    std::priority_queue<Candidate, std::vector<Candidate>,
                        std::greater<Candidate>>
        frontier;
    auto ball_distance = [&](const Node& nd) {
      return std::max(0.0, metric_(query, nd.center) - nd.radius);
    };
    frontier.push({ball_distance(node(root_)), false, root_, EntryT{}});
    while (!frontier.empty() && out.size() < k) {
      const Candidate top = frontier.top();
      frontier.pop();
      if (top.is_entry) {
        out.push_back(top.entry);
        continue;
      }
      const Node& nd = node(top.node);
      if (nd.is_leaf) {
        for (const EntryT& e : nd.entries) {
          frontier.push({metric_(query, EntryItem(e)), true, kInvalidNode, e});
        }
      } else {
        for (NodeId child : nd.children) {
          frontier.push({ball_distance(node(child)), false, child, EntryT{}});
        }
      }
    }
    return out;
  }

  // --- Validation ------------------------------------------------------------

  /// Checks covering-radius and structural invariants; aborts on violation.
  void CheckInvariants() const {
    if (empty()) {
      CSJ_CHECK_EQ(size_, 0u);
      return;
    }
    uint64_t counted = 0;
    CheckSubtree(root_, kInvalidNode, &counted);
    CSJ_CHECK_EQ(counted, size_);
  }

 private:
  struct Node {
    /// Routing ball: center is this node's routing object; radius covers
    /// every item in the subtree.
    Item center{};
    double radius = 0.0;
    NodeId parent = kInvalidNode;
    int level = 0;
    bool is_leaf = true;
    std::vector<NodeId> children;
    std::vector<EntryT> entries;

    size_t fanout() const { return is_leaf ? entries.size() : children.size(); }
  };

  Node& node(NodeId id) {
    CSJ_DCHECK(id < arena_.size());
    return arena_[id];
  }
  const Node& node(NodeId id) const {
    CSJ_DCHECK(id < arena_.size());
    return arena_[id];
  }

  NodeId AllocNode(bool is_leaf, int level) {
    const NodeId id = static_cast<NodeId>(arena_.size());
    arena_.emplace_back();
    arena_.back().is_leaf = is_leaf;
    arena_.back().level = level;
    ++live_nodes_;
    return id;
  }

  /// Applies `fn(entry)` to every entry within `radius` (closed) of `query`.
  template <typename Fn>
  void ForEachInRange(const Item& query, double radius, Fn&& fn) const {
    if (empty()) return;
    std::vector<NodeId> stack = {root_};
    while (!stack.empty()) {
      const Node& nd = node(stack.back());
      stack.pop_back();
      if (metric_(query, nd.center) > radius + nd.radius) continue;
      if (nd.is_leaf) {
        for (const EntryT& e : nd.entries) {
          if (metric_(query, EntryItem(e)) <= radius) fn(e);
        }
      } else {
        for (NodeId child : nd.children) stack.push_back(child);
      }
    }
  }

  /// Exact search for the leaf holding (id, item), pruning by the covering
  /// balls.
  NodeId FindLeaf(PointId id, const Item& item) const {
    if (empty()) return kInvalidNode;
    std::vector<NodeId> stack = {root_};
    while (!stack.empty()) {
      const NodeId nid = stack.back();
      stack.pop_back();
      const Node& nd = node(nid);
      if (metric_(nd.center, item) > nd.radius + 1e-12) continue;
      if (nd.is_leaf) {
        for (const EntryT& e : nd.entries) {
          if (e.id == id && EntryItem(e) == item) return nid;
        }
      } else {
        for (NodeId child : nd.children) stack.push_back(child);
      }
    }
    return kInvalidNode;
  }

  /// Collects all entries below n (used when dissolving underfull nodes);
  /// nodes of the dissolved subtree are uncounted from live_nodes_.
  void CollectEntries(NodeId n, std::vector<EntryT>* out) {
    const Node& nd = node(n);
    --live_nodes_;
    if (nd.is_leaf) {
      out->insert(out->end(), nd.entries.begin(), nd.entries.end());
      return;
    }
    for (NodeId child : nd.children) CollectEntries(child, out);
  }

  /// Descends to a leaf: prefer children already covering the item (closest
  /// center); otherwise the child needing least radius enlargement. Radii on
  /// the path are stretched to keep the covering invariant.
  NodeId ChooseLeaf(const Item& item) {
    NodeId n = root_;
    while (true) {
      Node& nd = node(n);
      nd.radius = std::max(nd.radius, metric_(nd.center, item));
      if (nd.is_leaf) return n;
      NodeId best = kInvalidNode;
      double best_cost = std::numeric_limits<double>::infinity();
      bool best_covers = false;
      for (NodeId child : nd.children) {
        const Node& c = node(child);
        const double dist = metric_(c.center, item);
        const bool covers = dist <= c.radius;
        const double cost = covers ? dist : dist - c.radius;
        if ((covers && !best_covers) ||
            (covers == best_covers && cost < best_cost)) {
          best = child;
          best_cost = cost;
          best_covers = covers;
        }
      }
      n = best;
    }
  }

  /// Chooses two routing objects among the n candidates `get(i)`: the pair
  /// minimizing the larger generalized-hyperplane covering radius, over
  /// every pair (mM_RAD) or over pair (0,1) plus `sampled_pairs` random
  /// pairs.
  template <typename GetItem>
  std::pair<size_t, size_t> Promote(size_t n, GetItem get) {
    CSJ_DCHECK(n >= 2);
    size_t best_a = 0, best_b = 1;
    double best = std::numeric_limits<double>::infinity();
    auto consider = [&](size_t a, size_t b) {
      double ra = 0.0, rb = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double da = metric_(get(i), get(a));
        const double db = metric_(get(i), get(b));
        if (da <= db) {
          ra = std::max(ra, da);
        } else {
          rb = std::max(rb, db);
        }
      }
      const double score = std::max(ra, rb);
      if (score < best) {
        best = score;
        best_a = a;
        best_b = b;
      }
    };
    if (options_.promotion == MTreePromotion::kMinMaxRadius) {
      for (size_t a = 0; a + 1 < n; ++a) {
        for (size_t b = a + 1; b < n; ++b) consider(a, b);
      }
      return {best_a, best_b};
    }
    consider(0, 1);
    for (int trial = 0; trial < options_.sampled_pairs; ++trial) {
      const size_t a = rng_.UniformInt(static_cast<uint64_t>(n));
      size_t b = rng_.UniformInt(static_cast<uint64_t>(n));
      while (b == a) b = rng_.UniformInt(static_cast<uint64_t>(n));
      consider(a, b);
    }
    return {best_a, best_b};
  }

  /// Generalized-hyperplane partition of `*left_slot` (a node's entries or
  /// children, keyed by `item_of`) between `*left_slot` and `*right_slot`
  /// around two promoted routing objects, which become the nodes' centers.
  /// Min-fill repair then moves the members closest to the underfull side's
  /// center.
  template <typename T, typename ItemOf>
  void Partition(ItemOf item_of, Node* left, Node* right,
                 std::vector<T>* left_slot, std::vector<T>* right_slot) {
    std::vector<T> items = std::move(*left_slot);
    left_slot->clear();
    const auto [a, b] = Promote(items.size(), [&](size_t i) -> const Item& {
      return item_of(items[i]);
    });
    left->center = item_of(items[a]);
    right->center = item_of(items[b]);
    for (const T& x : items) {
      const double da = metric_(item_of(x), left->center);
      const double db = metric_(item_of(x), right->center);
      (da <= db ? left_slot : right_slot)->push_back(x);
    }
    auto donate = [&](std::vector<T>* from, std::vector<T>* to,
                      const Item& to_center) {
      while (to->size() < options_.min_fanout) {
        size_t pick = 0;
        double best = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < from->size(); ++i) {
          const double d = metric_(item_of((*from)[i]), to_center);
          if (d < best) {
            best = d;
            pick = i;
          }
        }
        to->push_back((*from)[pick]);
        (*from)[pick] = from->back();
        from->pop_back();
      }
    };
    if (left_slot->size() < options_.min_fanout) {
      donate(right_slot, left_slot, left->center);
    }
    if (right_slot->size() < options_.min_fanout) {
      donate(left_slot, right_slot, right->center);
    }
  }

  /// Splits an overflowing node; may cascade to the root.
  void Split(NodeId n) {
    while (true) {
      const NodeId sibling = AllocNode(node(n).is_leaf, node(n).level);
      Node& left = node(n);  // the deque arena keeps references stable
      Node& right = node(sibling);

      if (left.is_leaf) {
        Partition([](const EntryT& e) -> const Item& { return EntryItem(e); },
                  &left, &right, &left.entries, &right.entries);
      } else {
        Partition([this](NodeId c) -> const Item& { return node(c).center; },
                  &left, &right, &left.children, &right.children);
        for (NodeId c : left.children) node(c).parent = n;
        for (NodeId c : right.children) node(c).parent = sibling;
      }
      left.radius = CoveringRadius(left);
      right.radius = CoveringRadius(right);

      const NodeId parent = left.parent;
      if (parent == kInvalidNode) {
        const NodeId new_root = AllocNode(/*is_leaf=*/false, left.level + 1);
        Node& r = node(new_root);
        r.children = {n, sibling};
        node(n).parent = new_root;
        node(sibling).parent = new_root;
        r.center = node(n).center;
        r.radius = CoveringRadius(r);
        root_ = new_root;
        return;
      }
      Node& p = node(parent);
      p.children.push_back(sibling);
      node(sibling).parent = parent;
      // The parent's ball still covers every item below it (the items did
      // not move), so its radius needs no update.
      if (p.children.size() <= options_.max_fanout) return;
      n = parent;
    }
  }

  /// Radius needed for `nd.center` to cover its entries or child balls.
  double CoveringRadius(const Node& nd) const {
    double r = 0.0;
    if (nd.is_leaf) {
      for (const EntryT& e : nd.entries) {
        r = std::max(r, metric_(nd.center, EntryItem(e)));
      }
      return r;
    }
    for (NodeId child : nd.children) {
      const Node& c = node(child);
      r = std::max(r, metric_(nd.center, c.center) + c.radius);
    }
    return r;
  }

  void CheckSubtree(NodeId n, NodeId expected_parent, uint64_t* counted) const {
    const Node& nd = node(n);
    CSJ_CHECK_EQ(nd.parent, expected_parent);
    CSJ_CHECK_LE(nd.fanout(), options_.max_fanout);
    if (n != root_) {
      CSJ_CHECK_GE(nd.fanout(), options_.min_fanout);
    }
    // The invariant all query/join bounds rely on: every item in the
    // subtree lies within `radius` of `center`.
    CheckCovering(n, nd.center, nd.radius);
    if (nd.is_leaf) {
      CSJ_CHECK_EQ(nd.level, 0);
      *counted += nd.entries.size();
      return;
    }
    for (NodeId child : nd.children) {
      CSJ_CHECK_EQ(node(child).level, nd.level - 1);
      CheckSubtree(child, n, counted);
    }
  }

  void CheckCovering(NodeId n, const Item& center, double radius) const {
    const Node& nd = node(n);
    if (nd.is_leaf) {
      for (const EntryT& e : nd.entries) {
        CSJ_CHECK_LE(metric_(center, EntryItem(e)), radius + 1e-9)
            << "item escapes covering radius";
      }
      return;
    }
    for (NodeId child : nd.children) CheckCovering(child, center, radius);
  }

  Metric metric_;
  MTreeOptions options_;
  Rng rng_;
  NodeId root_ = kInvalidNode;
  uint64_t size_ = 0;
  uint64_t live_nodes_ = 0;
  std::deque<Node> arena_;
};

}  // namespace csj

#endif  // CSJ_METRIC_GENERIC_MTREE_H_
