/// \file
/// Ablations for the design choices DESIGN.md calls out:
///  * early-stop vs merge-only: isolates how much of CSJ's saving comes from
///    the subtree stopping rule vs the g-window merging (the paper's
///    Experiment 3 attributes most time savings to the stop rule);
///  * window recency policy: creation order vs promote-on-merge (LRU-like);
///  * group shape: MBR vs eps/2 ball (Section V-A);
///  * tree fanout vs compaction.

#include <cstdio>

#include "bench_common.h"
#include "data/generators.h"
#include "data/roadnet.h"
#include "index/bulk_load.h"
#include "index/mtree.h"
#include "metric/metric_join.h"

namespace csj::bench {
namespace {

void RunGroupShapeAblation(const BenchArgs& args);
void RunFanoutSweep(const BenchArgs& args);

RunResult Run(const RStarTree<2>& tree, size_t n, const JoinOptions& options,
              const BenchArgs& args) {
  RunResult best;
  for (int r = 0; r < args.runs; ++r) {
    auto sink = MakeSinkOrDie(OutputSpec::Counting(n));
    const JoinStats stats = CompactSimilarityJoin(tree, options, sink.get());
    if (r == 0 || stats.elapsed_seconds < best.seconds) {
      best.seconds = stats.elapsed_seconds;
      best.stats = stats;
    }
    best.bytes = sink->bytes();
    best.groups = sink->num_groups();
    best.links = sink->num_links();
  }
  return best;
}

void Main(const BenchArgs& args) {
  RoadNetOptions net;
  net.num_points = args.full ? 27000 : 15000;
  net.seed = 27;
  const auto entries = ToEntries(GenerateRoadNetwork(net));
  RStarTree<2> tree;
  PackStr(&tree, entries);

  Table table("Ablations — CSJ(10) on road data",
              {"eps", "variant", "time", "bytes", "links", "groups",
               "early stops", "merges"});

  for (double eps : {0.01, 0.05, 0.15}) {
    struct VariantSpec {
      const char* label;
      bool early_stop;
      bool promote;
    };
    const VariantSpec variants[] = {
        {"baseline", true, false},
        {"no early stop", false, false},
        {"promote on merge", true, true},
    };
    for (const auto& v : variants) {
      JoinOptions options;
      options.epsilon = eps;
      options.window_size = 10;
      options.early_stop = v.early_stop;
      options.promote_on_merge = v.promote;
      const RunResult r = Run(tree, entries.size(), options, args);
      table.AddRow({StrFormat("%.3g", eps), v.label,
                    HumanDuration(r.seconds), WithThousands(r.bytes),
                    WithThousands(r.links), WithThousands(r.groups),
                    WithThousands(r.stats.early_stops),
                    WithThousands(r.stats.merges)});
    }
  }
  EmitTable(table, args, "ablations");
  std::printf(
      "Expected: disabling the early stop slows CSJ down sharply at large "
      "eps and bloats link-merge traffic (the stop rule is the main saving, "
      "as the paper's Experiment 3 concludes); promote on merge is "
      "second-order.\n\n");

  RunGroupShapeAblation(args);
  RunFanoutSweep(args);
}

/// Node-size ablation: the early-stopping rule fires only when a node's
/// diameter drops below eps, so the tree's fanout (hence leaf size)
/// directly controls how much N-CSJ/CSJ can compact. This sweep quantifies
/// the leaf-diameter/eps interplay behind the Experiment 1 curves.
void RunFanoutSweep(const BenchArgs& args) {
  RoadNetOptions net;
  net.num_points = args.full ? 27000 : 15000;
  net.seed = 27;
  const auto entries = ToEntries(GenerateRoadNetwork(net));
  const double eps = 0.05;

  Table table(StrFormat("Ablation — R*-tree fanout vs compaction, eps=%.3g",
                        eps),
              {"max fanout", "avg leaf diag", "early stops", "N-CSJ bytes",
               "CSJ(10) bytes", "CSJ(10) time"});
  for (size_t fanout : {8, 16, 32, 64, 128}) {
    RStarOptions options;
    options.max_fanout = fanout;
    options.min_fanout = std::max<size_t>(2, fanout * 2 / 5);
    RStarTree<2> tree(options);
    for (const auto& e : entries) tree.Insert(e.id, e.point);

    double diag_sum = 0.0;
    uint64_t leaves = 0;
    tree.ForEachNode([&](NodeId n) {
      if (tree.IsLeaf(n)) {
        diag_sum += tree.MaxDiameter(n);
        ++leaves;
      }
    });

    JoinOptions join_options;
    join_options.epsilon = eps;
    join_options.window_size = 10;
    auto ncsj = MakeSinkOrDie(OutputSpec::Counting(entries.size()));
    NaiveCompactJoin(tree, join_options, ncsj.get());
    auto csj = MakeSinkOrDie(OutputSpec::Counting(entries.size()));
    const JoinStats stats =
        CompactSimilarityJoin(tree, join_options, csj.get());

    table.AddRow({StrFormat("%zu", fanout),
                  StrFormat("%.4f", diag_sum / static_cast<double>(leaves)),
                  WithThousands(stats.early_stops),
                  WithThousands(ncsj->bytes()), WithThousands(csj->bytes()),
                  HumanDuration(stats.elapsed_seconds)});
  }
  EmitTable(table, args, "ablation_fanout");
  std::printf(
      "Expected: smaller fanout -> tighter leaves -> the early stop fires "
      "at lower eps and N-CSJ compacts more; very small fanouts pay tree "
      "overhead. The join's output-size dependence on the index is bounded "
      "(Experiment 4) but not zero.\n");
}

/// Section V-A ablation: the paper argues for MBR groups (diagonal <= eps)
/// over bounding circles/balls because centering balls optimally is
/// expensive. Our metric join implements the cheap ball alternative (fixed
/// center, radius eps/2); running both on the *same* vector data and the
/// same M-tree quantifies how much output the conservative ball shape gives
/// up.
void RunGroupShapeAblation(const BenchArgs& args) {
  SoneiraPeeblesOptions galaxy;
  galaxy.levels = args.full ? 7 : 6;
  galaxy.eta = 5;
  galaxy.num_points = args.full ? 40000 : 15000;
  const auto points = GenerateSoneiraPeebles<2>(galaxy);
  const auto entries = ToEntries(points);

  // One M-tree serves both group shapes: the MBR join reads it as a
  // SpatialIndex, the ball join as a metric tree.
  MTreeOptions tree_options;
  tree_options.max_fanout = 32;
  tree_options.promotion = MTreePromotion::kSampled;
  MTree<2> tree(tree_options);
  for (const auto& e : entries) tree.Insert(e.id, e.point);

  Table table("Section V-A — group shape: MBR(diag<=eps) vs ball(r=eps/2) "
              "on a Soneira-Peebles galaxy catalog",
              {"eps", "MBR-group bytes", "ball-group bytes", "ball penalty",
               "MBR time", "ball time"});
  for (double eps : {0.002, 0.01, 0.04}) {
    JoinOptions options;
    options.epsilon = eps;
    options.window_size = 10;
    auto mbr_sink = MakeSinkOrDie(OutputSpec::Counting(entries.size()));
    const JoinStats mbr = CompactSimilarityJoin(tree, options, mbr_sink.get());
    auto ball_sink = MakeSinkOrDie(OutputSpec::Counting(entries.size()));
    const JoinStats ball = MetricCompactJoin(tree, options, ball_sink.get());
    const double penalty =
        mbr_sink->bytes() == 0
            ? 0.0
            : static_cast<double>(ball_sink->bytes()) /
                  static_cast<double>(mbr_sink->bytes());
    table.AddRow({StrFormat("%.3g", eps), WithThousands(mbr_sink->bytes()),
                  WithThousands(ball_sink->bytes()),
                  StrFormat("%.2fx", penalty),
                  HumanDuration(mbr.elapsed_seconds),
                  HumanDuration(ball.elapsed_seconds)});
  }
  EmitTable(table, args, "ablation_group_shape");
  std::printf(
      "Expected: ball groups stay lossless but give up output compactness "
      "versus MBR groups — the quantitative basis for the paper's Section "
      "V-A choice of hyper-rectangles in vector spaces.\n");
}

}  // namespace
}  // namespace csj::bench

int main(int argc, char** argv) {
  return csj::bench::BenchMain(argc, argv, csj::bench::Main);
}
