/// \file
/// google-benchmark microbenchmarks for the hot kernels: box distance math,
/// the CSJ(g) merge window, tree construction and the chaos-game generator. These
/// guard the constant-time claims of Section V-A (group membership,
/// insertion and boundary updates must stay O(1)).

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "core/group.h"
#include "core/join_stats.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/bulk_load.h"
#include "index/mtree.h"
#include "index/rstar_tree.h"
#include "index/rtree.h"
#include "util/random.h"

namespace csj {
namespace {

std::vector<Box2> RandomBoxes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Box2> boxes;
  boxes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Box2 box(Point2{{rng.UniformDouble(), rng.UniformDouble()}});
    box.Extend(Point2{{rng.UniformDouble(), rng.UniformDouble()}});
    boxes.push_back(box);
  }
  return boxes;
}

void BM_BoxMinDistance(benchmark::State& state) {
  const auto boxes = RandomBoxes(1024, 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SquaredMinDistance(boxes[i & 1023], boxes[(i + 7) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_BoxMinDistance);

void BM_BoxUnionDiameter(benchmark::State& state) {
  const auto boxes = RandomBoxes(1024, 2);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        UnionDiameterBound(boxes[i & 1023], boxes[(i + 13) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_BoxUnionDiameter);

void BM_PointDistance2D(benchmark::State& state) {
  const auto points = GenerateUniform<2>(1024, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SquaredDistance(points[i & 1023], points[(i + 5) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_PointDistance2D);

/// Section V-A constant-time claim: a membership trial must not scale with
/// group size. One group of growing size in a CSJ(1) window takes merged
/// links whose ids are all members already: an extension check plus two
/// member-table lookups, no new member.
void BM_WindowMembershipTrial(benchmark::State& state) {
  const PointId group_size = static_cast<PointId>(state.range(0));
  auto sink = MakeSinkOrDie(OutputSpec::Counting(group_size));
  JoinStats stats;
  GroupWindow<BoxShape<2>> window(BoxShape<2>(0.1), JoinAlgorithm::kCSJ, 1,
                                  false, sink.get(), &stats, nullptr);
  const Point2 p{{0.0005, 0.0005}};
  window.Link(0, Point2{{0.0, 0.0}}, 1, Point2{{0.001, 0.001}});
  for (PointId id = 2; id < group_size; ++id) window.Link(0, p, id, p);
  PointId id = 0;
  for (auto _ : state) {
    window.Link(id, p, (id * 7 + 3) % group_size, p);
    if (++id == group_size) id = 0;
  }
  benchmark::DoNotOptimize(stats.merges);
}
BENCHMARK(BM_WindowMembershipTrial)
    ->Arg(4)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384);

/// A seeded clustered data set's SSJ link stream, recorded once, with the
/// points its ids name.
template <int D>
struct RecordedLinks {
  double eps = 0.0;
  std::vector<Point<D>> points;
  std::vector<std::pair<PointId, PointId>> links;
};

template <int D>
const RecordedLinks<D>& LinkStream() {
  static const RecordedLinks<D> recorded = [] {
    RecordedLinks<D> r;
    r.points = GenerateGaussianClusters<D>(20000, 16, 0.02, 27);
    RStarTree<D> tree;
    PackStr(&tree, ToEntries(r.points));
    JoinOptions options;
    r.eps = D == 2 ? 0.004 : (D == 3 ? 0.008 : 0.02);
    options.epsilon = r.eps;
    MemorySink sink(IdWidthFor(r.points.size()));
    StandardSimilarityJoin(tree, options, &sink);
    r.links = sink.links();
    return r;
  }();
  return recorded;
}

/// ns per link of the CSJ(g) merge window: the recorded SSJ stream replayed
/// through GroupWindow<BoxShape<D>> into a counting sink, flushed every
/// 16,384 links as the task loop flushes at task ends.
template <int D>
void BM_WindowLink(benchmark::State& state) {
  const RecordedLinks<D>& r = LinkStream<D>();
  const int g = static_cast<int>(state.range(0));
  auto sink = MakeSinkOrDie(OutputSpec::Counting(r.points.size()));
  JoinStats stats;
  GroupWindow<BoxShape<D>> window(BoxShape<D>(r.eps), JoinAlgorithm::kCSJ,
                                  g, false, sink.get(), &stats, nullptr);
  for (auto _ : state) {
    for (size_t i = 0; i < r.links.size(); ++i) {
      const auto [a, b] = r.links[i];
      window.Link(a, r.points[a], b, r.points[b]);
      if ((i & 16383) == 16383) window.Flush();
    }
    window.Flush();
  }
  state.counters["links"] = static_cast<double>(r.links.size());
  state.counters["attempts_per_link"] =
      static_cast<double>(stats.merge_attempts) /
      static_cast<double>(r.links.size() * state.iterations());
  state.counters["ns_per_link"] = benchmark::Counter(
      static_cast<double>(r.links.size()) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_WindowLink<2>)->Arg(1)->Arg(10)->Arg(100);
BENCHMARK(BM_WindowLink<3>)->Arg(1)->Arg(10)->Arg(100);
BENCHMARK(BM_WindowLink<5>)->Arg(1)->Arg(10)->Arg(100);

void BM_RStarInsert(benchmark::State& state) {
  const auto points = GenerateUniform<2>(
      static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    RStarTree<2> tree;
    for (size_t i = 0; i < points.size(); ++i) {
      tree.Insert(static_cast<PointId>(i), points[i]);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RStarInsert)->Arg(1000)->Arg(10000);

void BM_StrBulkLoad(benchmark::State& state) {
  const auto entries = ToEntries(
      GenerateUniform<2>(static_cast<size_t>(state.range(0)), 5));
  for (auto _ : state) {
    RStarTree<2> tree;
    auto copy = entries;
    PackStr(&tree, std::move(copy));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StrBulkLoad)->Arg(10000)->Arg(100000);

void BM_MTreeInsert(benchmark::State& state) {
  const auto points = GenerateUniform<2>(
      static_cast<size_t>(state.range(0)), 6);
  MTreeOptions options;
  options.promotion = MTreePromotion::kSampled;
  for (auto _ : state) {
    MTree<2> tree(options);
    for (size_t i = 0; i < points.size(); ++i) {
      tree.Insert(static_cast<PointId>(i), points[i]);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MTreeInsert)->Arg(1000)->Arg(10000);

void BM_ChaosGame3D(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateSierpinski3D(static_cast<size_t>(state.range(0)), 7));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaosGame3D)->Arg(100000);

void BM_SinkByteAccounting(benchmark::State& state) {
  auto sink = MakeSinkOrDie(OutputSpec::Counting(10'000'000));  // 7-digit ids
  PointId id = 0;
  for (auto _ : state) {
    sink->Link(id, id + 1);
    ++id;
  }
  benchmark::DoNotOptimize(sink->bytes());
}
BENCHMARK(BM_SinkByteAccounting);

}  // namespace
}  // namespace csj

BENCHMARK_MAIN();
