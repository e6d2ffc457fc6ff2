/// \file
/// google-benchmark microbenchmarks for the hot kernels: box distance math,
/// group-merge checks, tree construction and the chaos-game generator. These
/// guard the constant-time claims of Section V-A (group membership,
/// insertion and boundary updates must stay O(1)).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <vector>

#include "core/group.h"
#include "core/join_stats.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "geom/dispatch.h"
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

/// Section V-A constant-time claim: a group membership trial must not scale
/// with group size. Merge attempts against groups of growing size.
void BM_GroupMergeAttempt(benchmark::State& state) {
  const size_t group_size = static_cast<size_t>(state.range(0));
  const BoxShape<2> shape(0.1);
  Group<BoxShape<2>> group(0, 1, Box<2>(Point2{{0.0, 0.0}},
                                        Point2{{0.001, 0.0}}));
  for (PointId id = 2; id < group_size; ++id) {
    group.TryAddLink(shape, 0, Point2{{0.0, 0.0}}, id,
                     Point2{{0.0005, 0.0001 * (id % 100)}}, nullptr);
  }
  for (auto _ : state) {
    // A failing trial: extension check only, no commit.
    benchmark::DoNotOptimize(group.TryAddLink(
        shape, 500000, Point2{{5.0, 5.0}}, 500001, Point2{{5.001, 5.0}},
        nullptr));
  }
}
BENCHMARK(BM_GroupMergeAttempt)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

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

// --- Per-ISA kernel backends -------------------------------------------------
//
// The two dispatchable primitives behind LeafKernel::kSimd (geom/dispatch.h),
// timed per backend over the same SoA data so the scalar/avx2/avx512 rows are
// directly comparable. Arg(i) is the KernelIsa value; benchmarks for ISAs
// this host cannot run are skipped with an error label rather than silently
// timing the scalar fallback.

constexpr size_t kIsaWindow = 1024;

/// SoA coordinate arrays + a center chosen so roughly half the window hits.
struct IsaFixture {
  std::vector<double> x, y;
  std::array<const double*, 2> dims;
  std::array<double, 2> center;
  double eps2;

  IsaFixture() : x(kIsaWindow), y(kIsaWindow) {
    Rng rng(8);
    for (size_t i = 0; i < kIsaWindow; ++i) {
      x[i] = rng.UniformDouble();
      y[i] = rng.UniformDouble();
    }
    dims = {x.data(), y.data()};
    center = {0.5, 0.5};
    eps2 = 0.4 * 0.4;
  }
};

void BM_IsaWindowHits(benchmark::State& state) {
  const KernelIsa isa = static_cast<KernelIsa>(state.range(0));
  if (!KernelIsaAvailable(isa)) {
    state.SkipWithError("ISA unavailable on this host/build");
    return;
  }
  static const IsaFixture& fx = *new IsaFixture();
  const KernelBackend& be = GetKernelBackend(isa);
  std::vector<uint32_t> hits(kIsaWindow);
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.window_hits(fx.dims.data(), 2,
                                            fx.center.data(), 0, kIsaWindow,
                                            fx.eps2, hits.data()));
  }
  state.SetItemsProcessed(state.iterations() * kIsaWindow);
  state.SetLabel(KernelIsaName(isa));
}
BENCHMARK(BM_IsaWindowHits)->Arg(0)->Arg(1)->Arg(2);

void BM_IsaSweepBound(benchmark::State& state) {
  const KernelIsa isa = static_cast<KernelIsa>(state.range(0));
  if (!KernelIsaAvailable(isa)) {
    state.SkipWithError("ISA unavailable on this host/build");
    return;
  }
  static const IsaFixture& fx = *new IsaFixture();
  const KernelBackend& be = GetKernelBackend(isa);
  std::vector<double> sorted = fx.x;
  std::sort(sorted.begin(), sorted.end());
  const double eps2 = 0.05 * 0.05;  // short windows: the common join regime
  size_t i = 0;
  for (auto _ : state) {
    const size_t begin = i & (kIsaWindow - 1);
    benchmark::DoNotOptimize(be.sweep_bound(sorted.data(), begin, kIsaWindow,
                                            sorted[begin], eps2));
    ++i;
  }
  state.SetLabel(KernelIsaName(isa));
}
BENCHMARK(BM_IsaSweepBound)->Arg(0)->Arg(1)->Arg(2);

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
