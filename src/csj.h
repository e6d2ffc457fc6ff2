#ifndef CSJ_CSJ_H_
#define CSJ_CSJ_H_

/// \file
/// Umbrella header: the full public API of the compact-similarity-join
/// library. Include this to get everything; include the individual headers
/// to keep compile times down.
///
///   #include "csj.h"
///
///   csj::RStarTree<2> tree;
///   for (auto& [id, p] : data) tree.Insert(id, p);
///
///   csj::JoinOptions options;
///   options.epsilon = 0.05;
///   csj::CountingSink sink(csj::IdWidthFor(n));
///   csj::JoinStats stats = csj::CompactSimilarityJoin(tree, options, &sink);

#include "analysis/epsilon.h"
#include "analysis/fractal.h"
#include "core/brute.h"
#include "core/checkpoint_join.h"
#include "core/ego.h"
#include "core/expand.h"
#include "core/group.h"
#include "core/join_options.h"
#include "core/output_reader.h"
#include "core/output_stats.h"
#include "core/join_stats.h"
#include "core/query_spec.h"
#include "core/result_cursor.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/point_io.h"
#include "data/roadnet.h"
#include "geom/ball.h"
#include "geom/box.h"
#include "geom/hilbert.h"
#include "geom/point.h"
#include "index/bulk_load.h"
#include "index/mtree.h"
#include "index/node_access.h"
#include "index/paged_tree.h"
#include "index/rstar_tree.h"
#include "index/rtree.h"
#include "index/spatial_index.h"
#include "index/tree_io.h"
#include "metric/edit_distance.h"
#include "metric/generic_mtree.h"
#include "metric/metric_join.h"
#include "plan/estimator.h"
#include "plan/execute.h"
#include "plan/planner.h"
#include "storage/binary_format.h"
#include "storage/buffer_pool.h"
#include "storage/checkpoint.h"
#include "storage/output_file.h"
#include "util/exec_context.h"
#include "util/format.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/status.h"
#include "util/table.h"
#include "util/timer.h"

#endif  // CSJ_CSJ_H_
