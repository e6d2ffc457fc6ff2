#ifndef CSJ_PLAN_ESTIMATOR_H_
#define CSJ_PLAN_ESTIMATOR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/fractal.h"
#include "geom/point.h"
#include "index/node_access.h"
#include "index/spatial_index.h"
#include "util/exec_context.h"
#include "util/format.h"
#include "util/json.h"
#include "util/status.h"

/// \file
/// Dataset sketches and output-size estimation for the query planner.
///
/// The planner's input is a cheap, query-independent *sketch* of a dataset:
/// a stride sample of its tree, in tree order, and the fractal correlation
/// dimension D2 fitted over it (analysis/fractal.h): links(eps) ~ C * eps^D2
/// on self-similar data. `SketchTree` is the one way to build it. csj_serve's
/// registry runs it once at load, csj_tool and the benches per invocation;
/// the same tree gives the same sketch, so `auto` resolves the same way in
/// every tool.
///
/// `EstimateOutput` then predicts, for a concrete (dataset, eps): the link
/// count, the group structure CSJ can exploit (count / member total /
/// covered links via an eps/sqrt(2) grid whose cells are guaranteed
/// mergeable groups), the byte cost of the SSJ and CSJ outputs, the
/// compression ratio between them, and a leaf-visit work proxy. The link
/// estimator is an exact neighbor probe over the sample (scaled by the
/// sampling fraction); when eps is below the sample's resolution (too few
/// sampled pairs to trust), it falls back to the D2 power law.
///
/// Everything here is 2-D (Point2), matching csj_tool and csj_serve; the
/// underlying analysis layer is dimension-generic.

namespace csj::plan {

/// The walk keeps every max(1, n / kSketchSampleTarget)-th point.
inline constexpr uint64_t kSketchSampleTarget = 4096;

/// Query-independent dataset sketch.
struct DatasetSketch {
  uint64_t num_points = 0;
  size_t sample_size = 0;
  double sample_fraction = 1.0;  ///< sample_size / num_points

  /// Correlation-dimension fit over the sample; valid when d2_points >= 2.
  PowerLawFit d2;
  size_t d2_points = 0;

  /// The sample, in tree order, for eps-specific probes.
  std::vector<Point2> sample;
};

/// Sketches a 2-D tree: walks every leaf in tree order, keeping every
/// max(1, n / kSketchSampleTarget)-th point, then fits D2 over the eps
/// ladder 2^-9 .. 2^-2. Reads through `exec` (a disk-backed tree's read
/// fault trips it). Returns the context's status when the walk tripped it,
/// and DataLoss when the walk visited a different number of points than
/// `tree.size()`.
template <SpatialIndex Tree>
Result<DatasetSketch> SketchTree(const Tree& tree,
                                 const ExecContext* exec = nullptr) {
  DatasetSketch sketch;
  sketch.num_points = tree.size();
  const uint64_t stride =
      std::max<uint64_t>(1, sketch.num_points / kSketchSampleTarget);
  sketch.sample.reserve(sketch.num_points / stride + 1);
  uint64_t visited = 0;
  if (tree.Root() != kInvalidNode) {
    ForEachEntryInSubtree(
        tree, tree.Root(), static_cast<NodeAccessTracker*>(nullptr),
        [&](const Entry<2>& e) {
          if (visited++ % stride == 0) sketch.sample.push_back(e.point);
        },
        exec);
  }
  if (exec != nullptr && exec->ShouldStopNow()) return exec->status();
  if (visited != sketch.num_points) {
    return Status::DataLoss(
        StrFormat("sketch walk read %llu of %llu points",
                  static_cast<unsigned long long>(visited),
                  static_cast<unsigned long long>(sketch.num_points)));
  }
  sketch.sample_size = sketch.sample.size();
  sketch.sample_fraction =
      sketch.num_points == 0 ? 1.0
                             : static_cast<double>(sketch.sample_size) /
                                   static_cast<double>(sketch.num_points);
  if (sketch.sample.empty()) return sketch;
  std::vector<double> epsilons;
  for (int e = -9; e <= -2; ++e) epsilons.push_back(std::ldexp(1.0, e));
  const std::vector<ScalingPoint> d2_samples =
      CorrelationSamples(sketch.sample, epsilons, sketch.sample.size());
  sketch.d2_points = d2_samples.size();
  sketch.d2 = FitPowerLaw(d2_samples);
  return sketch;
}

/// Predicted output shape and work for one (dataset, eps).
struct OutputEstimate {
  double eps = 0.0;

  uint64_t links = 0;  ///< total qualifying pairs (SSJ-equivalent)
  double avg_neighbors = 0.0;  ///< expected within-eps neighbors per point

  /// Predicted group structure: cells of side eps/sqrt(2) with expected
  /// occupancy >= 2 are guaranteed-mergeable groups.
  uint64_t groups = 0;
  uint64_t group_member_total = 0;
  uint64_t grouped_links = 0;   ///< links covered by the predicted groups
  uint64_t residual_links = 0;  ///< links CSJ would still emit individually

  uint64_t ssj_bytes = 0;  ///< text bytes of the plain link listing
  uint64_t csj_bytes = 0;  ///< text bytes of groups + residual links
  double compression = 1.0;  ///< ssj_bytes / csj_bytes (>= 1 when groups help)

  /// Leaf-work proxy: expected candidate pairs the leaf kernels evaluate
  /// (neighbors within ~3 eps, the MBR slop of the tree traversal).
  double leaf_work = 0.0;

  /// True when the link estimate came from a power-law extrapolation
  /// instead of the direct sample probe (eps below sample resolution).
  bool from_power_law = false;

  json::Value ToJsonValue() const;
};

/// Predicts the output at `eps`. `id_width` is the zero-padding width of the
/// text format (IdWidthFor(n)), which prices the byte predictions.
OutputEstimate EstimateOutput(const DatasetSketch& sketch, double eps,
                              int id_width);

}  // namespace csj::plan

#endif  // CSJ_PLAN_ESTIMATOR_H_
