/// \file
/// Engineering extension: multi-threaded CSJ(g) scaling. Not in the paper
/// (2008, single-threaded); included because a production deployment would
/// insist on it. Every row runs CheckpointedSelfJoin over the same 32-task
/// list (threads x tasks-per-thread = 32), so every row writes the same
/// bytes; per-task windows lose only the merges that would cross a task
/// boundary, compared with the one-window sequential join.

#include <unistd.h>

#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/checkpoint_join.h"
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
  constexpr int kTasks = 32;

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
  {
    BenchRecorder::Get().SetContext("sequential");
    auto sink = MakeSinkOrDie(OutputSpec::Counting(entries.size()));
    const JoinStats stats = CompactSimilarityJoin(tree, options, sink.get());
    BenchRecorder::Get().RecordStats(stats);
    base_seconds = stats.elapsed_seconds;
    table.AddRow({"sequential", HumanDuration(stats.elapsed_seconds), "1.00x",
                  WithThousands(sink->bytes()),
                  WithThousands(sink->num_groups())});
  }
  for (int threads : {1, 2, 4, 8}) {
    CheckpointJoinOptions ckpt;
    ckpt.manifest_path = StrFormat("/tmp/csj_bench_parallel_%d.ckpt", getpid());
    ckpt.threads = threads;
    ckpt.tasks_per_thread = kTasks / threads;
    BenchRecorder::Get().SetContext(StrFormat("threads=%d", threads));
    const JoinStats stats = CheckpointedSelfJoin(
        tree, JoinAlgorithm::kCSJ, options,
        OutputSpec::Counting(entries.size()), ckpt);
    CSJ_CHECK(stats.status.ok()) << stats.status.ToString();
    BenchRecorder::Get().RecordStats(stats);
    table.AddRow({StrFormat("%d", threads),
                  HumanDuration(stats.elapsed_seconds),
                  StrFormat("%.2fx", base_seconds / stats.elapsed_seconds),
                  WithThousands(stats.output_bytes),
                  WithThousands(stats.groups)});
  }
  EmitTable(table, args, "parallel_scaling");
  std::printf(
      "Expected: near-linear speedup while the machine has that many cores "
      "(on a single-core box every row shows only the runner's overhead); "
      "bytes and groups identical in every threads row (one 32-task list), "
      "and within a fraction of a percent of sequential (per-task windows "
      "lose the merges that would cross a task boundary).\n");
}

}  // namespace
}  // namespace csj::bench

int main(int argc, char** argv) {
  return csj::bench::BenchMain(argc, argv, csj::bench::Main);
}
