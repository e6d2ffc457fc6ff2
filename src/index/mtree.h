#ifndef CSJ_INDEX_MTREE_H_
#define CSJ_INDEX_MTREE_H_

#include "geom/ball.h"
#include "geom/point.h"
#include "index/spatial_index.h"
#include "metric/generic_mtree.h"

/// \file
/// M-tree (Ciaccia, Patella, Zezula, VLDB 1997) over D-dimensional points
/// under the Euclidean metric: the third index substrate of the paper's
/// Experiment 4. Unlike the R-tree family it never looks at coordinates
/// axis-wise — only at distances — so it stands in for the "general metric
/// space" case the paper claims its algorithms extend to. Min/max node
/// distances follow from the triangle inequality on the bounding balls.
///
/// Storage, splits, removal and search are metric/generic_mtree.h's; this
/// header adds only what the SpatialIndex concept and the cross-tree joins
/// need on top.

namespace csj {

/// The Euclidean metric as an M-tree distance functor.
template <int D>
struct L2Metric {
  double operator()(const Point<D>& a, const Point<D>& b) const {
    return Distance(a, b);
  }
};

/// M-tree over D-dimensional points under the Euclidean metric.
template <int D>
class MTree : public GenericMTree<Point<D>, L2Metric<D>> {
 public:
  static constexpr int kDim = D;
  /// Concurrent const reads are safe (no mutable caches).
  static constexpr bool kThreadSafeReads = true;
  using PointT = Point<D>;
  /// The node's bounding shape, for cross-tree (spatial join) bounds.
  using ShapeT = Ball<D>;

  explicit MTree(const MTreeOptions& options = MTreeOptions())
      : GenericMTree<Point<D>, L2Metric<D>>(L2Metric<D>(), options) {}

  ShapeT Shape(NodeId n) const {
    return ShapeT(this->NodeCenter(n), this->NodeRadius(n));
  }
};

using MTree2 = MTree<2>;
using MTree3 = MTree<3>;

}  // namespace csj

#endif  // CSJ_INDEX_MTREE_H_
