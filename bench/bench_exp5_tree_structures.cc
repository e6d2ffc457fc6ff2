/// \file
/// Experiment 4: different underlying tree structures. The join algorithms
/// only require cheap min/max node distances (the inclusion property), so
/// the paper runs them over R*-trees, R-trees and Metric trees and finds "no
/// significant difference in any of the performance measures". This binary
/// reproduces that comparison on MG County (reduced for the M-tree's
/// insert cost), adding the two bulk-loaded layouts as extra variants.
///
/// SSJ output does not depend on the index at all, so the binary exits 1
/// unless the SSJ bytes are equal across all six indexes. `--smoke` runs the
/// same check on a smaller network.

#include <cstdio>

#include "bench_common.h"
#include "data/roadnet.h"
#include "index/bulk_load.h"
#include "index/mtree.h"
#include "index/rtree.h"

namespace csj::bench {
namespace {

/// Set when SSJ bytes differ across indexes; surfaced as the exit code.
bool g_ssj_bytes_differ = false;

/// Adds one index's row to `table`; returns its SSJ output bytes.
template <typename Tree>
uint64_t Measure(const char* label, const Tree& tree,
                 const std::vector<Entry<2>>& entries, double eps,
                 const BenchArgs& args, Table* table) {
  JoinOptions options;
  options.epsilon = eps;
  options.window_size = 10;

  std::vector<std::string> row = {label};
  uint64_t ssj_bytes = 0;
  for (JoinAlgorithm algo :
       {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ}) {
    double best = 0.0;
    uint64_t bytes = 0;
    for (int r = 0; r < args.runs; ++r) {
      auto sink = MakeSinkOrDie(OutputSpec::Counting(entries.size()));
      const JoinStats stats = RunSelfJoin(algo, tree, options, sink.get());
      if (r == 0 || stats.elapsed_seconds < best) best = stats.elapsed_seconds;
      bytes = sink->bytes();
    }
    if (algo == JoinAlgorithm::kSSJ) ssj_bytes = bytes;
    row.push_back(HumanDuration(best));
    row.push_back(WithThousands(bytes));
  }
  table->AddRow(std::move(row));
  return ssj_bytes;
}

void Main(const BenchArgs& args) {
  RoadNetOptions net;
  net.num_points = args.full ? 27000 : args.smoke ? 3000 : 12000;
  net.seed = 27;
  net.num_cities = 8;
  const auto entries = ToEntries(GenerateRoadNetwork(net));
  const double eps = 0.05;

  std::printf("dataset: road network, %s points, eps=%.3g\n",
              WithThousands(entries.size()).c_str(), eps);

  Table table("Experiment 4 — tree-structure independence",
              {"index", "SSJ time", "SSJ bytes", "N-CSJ time", "N-CSJ bytes",
               "CSJ(10) time", "CSJ(10) bytes"});
  std::vector<uint64_t> ssj_bytes;

  {
    RTreeOptions options;
    options.split = RTreeSplit::kLinear;
    RTree<2> tree(options);
    for (const auto& e : entries) tree.Insert(e.id, e.point);
    ssj_bytes.push_back(
        Measure("R-tree (linear)", tree, entries, eps, args, &table));
  }
  {
    RTreeOptions options;
    options.split = RTreeSplit::kQuadratic;
    RTree<2> tree(options);
    for (const auto& e : entries) tree.Insert(e.id, e.point);
    ssj_bytes.push_back(
        Measure("R-tree (quadratic)", tree, entries, eps, args, &table));
  }
  {
    RStarTree<2> tree;
    for (const auto& e : entries) tree.Insert(e.id, e.point);
    ssj_bytes.push_back(Measure("R*-tree", tree, entries, eps, args, &table));
  }
  {
    MTreeOptions options;
    options.promotion = MTreePromotion::kSampled;  // insert-time speed
    MTree<2> tree(options);
    for (const auto& e : entries) tree.Insert(e.id, e.point);
    ssj_bytes.push_back(Measure("M-tree", tree, entries, eps, args, &table));
  }
  {
    RStarTree<2> tree;
    PackStr(&tree, entries);
    ssj_bytes.push_back(
        Measure("R*-tree (STR-packed)", tree, entries, eps, args, &table));
  }
  {
    RStarTree<2> tree;
    PackHilbert(&tree, entries);
    ssj_bytes.push_back(
        Measure("R*-tree (Hilbert-packed)", tree, entries, eps, args, &table));
  }

  EmitTable(table, args, "exp4_tree_structures");
  std::printf(
      "Expected: output sizes are identical for SSJ and close for the "
      "compact joins; times vary mildly with tree quality — the paper's "
      "index-independence claim.\n");
  for (const uint64_t bytes : ssj_bytes) {
    g_ssj_bytes_differ |= bytes != ssj_bytes.front();
  }
  if (g_ssj_bytes_differ) {
    std::fprintf(stderr,
                 "FAIL: SSJ output bytes differ across the %zu indexes\n",
                 ssj_bytes.size());
  } else {
    std::printf("check: SSJ bytes identical across all %zu indexes\n",
                ssj_bytes.size());
  }
}

}  // namespace
}  // namespace csj::bench

int main(int argc, char** argv) {
  const int rc = csj::bench::BenchMain(argc, argv, csj::bench::Main);
  if (rc != 0) return rc;
  return csj::bench::g_ssj_bytes_differ ? 1 : 0;
}
