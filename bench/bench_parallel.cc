/// \file
/// Engineering extension: multi-threaded CSJ(g) scaling. Not in the paper
/// (2008, single-threaded); included because a production deployment would
/// insist on it. Every row runs the task loop over the task list every
/// tree join of this (tree, eps) uses, so every row writes the same bytes
/// as the plain CompactSimilarityJoin; only the worker count changes.

#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/similarity_join.h"
#include "data/roadnet.h"
#include "index/bulk_load.h"

namespace csj::bench {
namespace {

void Main(const BenchArgs& args) {
  RoadNetOptions net;
  net.num_points = args.full ? 150000 : 60000;
  net.seed = 1015;
  const auto entries = ToEntries(GenerateRoadNetwork(net));
  RStarTree<2> tree;
  PackStr(&tree, entries);
  const double eps = 0.02;

  std::printf("dataset: road network, %s points, eps=%.3g, %u hardware "
              "threads\n",
              WithThousands(entries.size()).c_str(), eps,
              std::thread::hardware_concurrency());

  JoinOptions options;
  options.epsilon = eps;
  options.window_size = 10;

  double base_seconds = 0.0;
  Table table("Extension — parallel CSJ(10) scaling",
              {"threads", "time", "speedup", "bytes", "groups"});
  for (int threads : {1, 2, 4, 8}) {
    BenchRecorder::Get().SetContext(StrFormat("threads=%d", threads));
    auto sink = MakeSinkOrDie(OutputSpec::Counting(entries.size()));
    const JoinStats stats = internal::RunJoin(
        tree, tree, /*self_join=*/true, JoinAlgorithm::kCSJ, options,
        sink.get(), threads);
    CSJ_CHECK(stats.status.ok()) << stats.status.ToString();
    BenchRecorder::Get().RecordStats(stats);
    if (threads == 1) base_seconds = stats.elapsed_seconds;
    table.AddRow({StrFormat("%d", threads),
                  HumanDuration(stats.elapsed_seconds),
                  StrFormat("%.2fx", base_seconds / stats.elapsed_seconds),
                  WithThousands(stats.output_bytes),
                  WithThousands(stats.groups)});
  }
  EmitTable(table, args, "parallel_scaling");
  std::printf(
      "Expected: near-linear speedup while the machine has that many cores "
      "(on a single-core box every row shows only the loop's overhead); "
      "bytes and groups identical in every row (one task list).\n");
}

}  // namespace
}  // namespace csj::bench

int main(int argc, char** argv) {
  return csj::bench::BenchMain(argc, argv, csj::bench::Main);
}
