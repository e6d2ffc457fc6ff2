#ifndef CSJ_INDEX_SPATIAL_INDEX_H_
#define CSJ_INDEX_SPATIAL_INDEX_H_

#include <concepts>
#include <cstdint>
#include <span>

#include "geom/point.h"

/// \file
/// The interface every index tree must satisfy for the join algorithms.
///
/// The paper's only assumption (Section IV) is that the minimum and maximum
/// distance between any two nodes can be computed efficiently from the nodes'
/// bounding shapes, and that parents fully cover their children (the
/// "inclusion property", Section VII). The SpatialIndex concept captures
/// exactly that; SSJ / N-CSJ / CSJ(g) are written against it and never name a
/// concrete tree, which is how the paper's index-independence claim
/// (Experiment 4) shows up in code.

namespace csj {

class ExecContext;

/// Node handle used by all trees: an index into the tree's node arena.
using NodeId = uint32_t;

/// Sentinel for "no node" (empty tree, no parent, ...).
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

// clang-format off
/// Concept satisfied by RTree, RStarTree and MTree.
template <typename T>
concept SpatialIndex = requires(const T& tree, NodeId n, NodeId m) {
  typename T::PointT;
  { T::kDim } -> std::convertible_to<int>;
  /// Root node, or kInvalidNode when the tree is empty.
  { tree.Root() } -> std::same_as<NodeId>;
  { tree.IsLeaf(n) } -> std::same_as<bool>;
  /// Child node ids of an internal node.
  { tree.Children(n) } -> std::convertible_to<std::span<const NodeId>>;
  /// Data entries of a leaf node.
  { tree.Entries(n) } -> std::convertible_to<std::span<const Entry<T::kDim>>>;
  /// Upper bound on the distance between any two data points under n
  /// ("maximum diameter of the bounding shape").
  { tree.MaxDiameter(n) } -> std::same_as<double>;
  /// Upper bound on the distance between any two data points drawn from the
  /// union of the two subtrees (used by the dual-node early-stopping rule).
  { tree.MaxDiameter(n, m) } -> std::same_as<double>;
  /// Lower bound on the distance between points from the two subtrees
  /// (used for pruning).
  { tree.MinDistance(n, m) } -> std::same_as<double>;
  /// Number of stored entries.
  { tree.size() } -> std::convertible_to<uint64_t>;
  { tree.NodeCount() } -> std::convertible_to<uint64_t>;
};
// clang-format on

/// Reads the children of `n`, routing the caller's governance context to
/// trees whose reads can fail (PagedTree). In-memory trees ignore `exec`:
/// the `if constexpr` keeps the concept's context-free `Children(n)` the
/// only requirement. Disk-backed trees report a read fault by tripping
/// `exec` and returning an empty span — callers unwind at the next
/// `ShouldStop()` poll.
template <typename Tree>
decltype(auto) TreeChildren(const Tree& tree, NodeId n,
                            const ExecContext* exec) {
  if constexpr (requires { tree.Children(n, exec); }) {
    return tree.Children(n, exec);
  } else {
    return tree.Children(n);
  }
}

/// Governed counterpart of `Entries(n)`; see TreeChildren.
template <typename Tree>
decltype(auto) TreeEntries(const Tree& tree, NodeId n,
                           const ExecContext* exec) {
  if constexpr (requires { tree.Entries(n, exec); }) {
    return tree.Entries(n, exec);
  } else {
    return tree.Entries(n);
  }
}

/// Applies `fn(const Entry<D>&)` to every entry stored under `node`,
/// touching `tracker` (if any) for every visited node. Read faults on a
/// governed disk-backed tree trip `exec` and cut the walk short.
template <typename Tree, typename Fn, typename Tracker>
void ForEachEntryInSubtree(const Tree& tree, NodeId node, Tracker* tracker,
                           Fn&& fn, const ExecContext* exec = nullptr) {
  if (tracker != nullptr) tracker->Touch(node);
  if (tree.IsLeaf(node)) {
    for (const auto& entry : TreeEntries(tree, node, exec)) fn(entry);
    return;
  }
  for (NodeId child : TreeChildren(tree, node, exec)) {
    ForEachEntryInSubtree(tree, child, tracker, fn, exec);
  }
}

}  // namespace csj

#endif  // CSJ_INDEX_SPATIAL_INDEX_H_
