#include "geom/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/ego.h"
#include "core/leaf_batch.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/generators.h"
#include "geom/dispatch.h"
#include "index/bulk_load.h"
#include "index/rstar_tree.h"
#include "util/random.h"

/// Tests of the vectorized leaf-join kernel layer. The load-bearing claims:
///
///  * every LeafKernel mode — kSimd under every ISA this host can run —
///    emits the exact pairs of the scalar baseline loop, in the exact same
///    order (CSJ's group window is order-sensitive, so multiset equality is
///    not enough);
///  * epsilon-boundary ties and duplicate coordinates survive the
///    plane-sweep pruning bit-for-bit;
///  * the bulk counters reproduce the old per-pair distance accounting under
///    kNaive and stay consistent (candidates == computed + pruned) always.

namespace csj {
namespace {

using LinkVec = std::vector<std::pair<PointId, PointId>>;

std::vector<Entry<2>> RandomEntries(size_t n, uint64_t seed,
                                    bool with_duplicates) {
  Rng rng(seed);
  std::vector<Entry<2>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(Entry<2>{
        static_cast<PointId>(i),
        Point2{{rng.UniformDouble(), rng.UniformDouble()}}});
  }
  if (with_duplicates && n >= 8) {
    // Exact duplicate points and duplicated single coordinates: the sweep
    // axis then contains runs of equal keys.
    for (size_t i = 0; i < n / 4; ++i) {
      entries[n - 1 - i].point = entries[i].point;
      entries[n / 2 + i].point[0] = entries[i].point[0];
    }
  }
  return entries;
}

/// Reference pair enumeration: the pre-kernel scalar loop.
LinkVec BruteSelfPairs(const std::vector<Entry<2>>& entries, double eps2) {
  LinkVec out;
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      if (SquaredDistance(entries[i].point, entries[j].point) <= eps2) {
        out.emplace_back(entries[i].id, entries[j].id);
      }
    }
  }
  return out;
}

LinkVec BruteBlockPairs(const std::vector<Entry<2>>& a,
                        const std::vector<Entry<2>>& b, double eps2) {
  LinkVec out;
  for (const auto& ea : a) {
    for (const auto& eb : b) {
      if (SquaredDistance(ea.point, eb.point) <= eps2) {
        out.emplace_back(ea.id, eb.id);
      }
    }
  }
  return out;
}

/// Runs `body(mode, label)` for kNaive, kSweep and kSimd, and once more for
/// kSimd under each ISA backend this host can run, forced through
/// CSJ_KERNEL_ISA. With `include_naive` false the baseline is skipped, for
/// the driver-level tests that compare against it.
template <typename Body>
void ForEachKernelMode(bool include_naive, Body&& body) {
  if (include_naive) body(LeafKernel::kNaive, "naive");
  body(LeafKernel::kSweep, "sweep");
  body(LeafKernel::kSimd, "simd");
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!KernelIsaAvailable(isa)) continue;
    dispatch_internal::ScopedKernelIsaOverride forced(KernelIsaName(isa));
    body(LeafKernel::kSimd, KernelIsaName(isa));
  }
}

TEST(KernelsTest, ParseAndNameRoundTrip) {
  // The backend a `simd` run uses is named, and forced, through
  // CSJ_KERNEL_ISA: every ISA name parses back to its ISA.
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    KernelIsa parsed;
    ASSERT_TRUE(ParseKernelIsa(KernelIsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  KernelIsa unused = KernelIsa::kScalar;
  EXPECT_FALSE(ParseKernelIsa("sse2", &unused));
  EXPECT_FALSE(ParseKernelIsa("", &unused));
  EXPECT_EQ(unused, KernelIsa::kScalar);
}

TEST(KernelsTest, TileLoadSortAndReconstruct) {
  const auto entries = RandomEntries(57, 7, /*with_duplicates=*/true);
  LeafTile<2> tile;
  tile.Load(entries);
  ASSERT_EQ(tile.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(tile.MakeEntry(i), entries[i]);
    EXPECT_EQ(tile.OriginalIndex(i), i);
  }
  const int dim = tile.WidestDim();
  tile.SortByDim(dim);
  const double* x = tile.Dim(dim);
  for (size_t i = 1; i < tile.size(); ++i) {
    EXPECT_LE(x[i - 1], x[i]);
  }
  // Sorting permutes slots but loses nothing: every original entry is still
  // reconstructible through its slot.
  for (size_t i = 0; i < tile.size(); ++i) {
    EXPECT_EQ(tile.MakeEntry(i), entries[tile.OriginalIndex(i)]);
  }
}

TEST(KernelsTest, SelfKernelMatchesScalarLoopExactly) {
  LeafJoinScratch<2> scratch;
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (size_t n : {0u, 1u, 2u, 7u, 33u, 150u}) {
      const auto entries = RandomEntries(n, seed, seed == 3);
      for (double eps : {0.01, 0.08, 0.3, 2.0}) {
        const double eps2 = eps * eps;
        const LinkVec expected = BruteSelfPairs(entries, eps2);
        ForEachKernelMode(true, [&](LeafKernel mode, const char* label) {
          LinkVec got;
          const KernelCounters kc = SelfJoinKernel(
              scratch, std::span<const Entry<2>>(entries), eps2, mode,
              [&](const Entry<2>& a, const Entry<2>& b) {
                got.emplace_back(a.id, b.id);
              });
          EXPECT_EQ(got, expected)
              << "mode=" << label << " n=" << n << " eps=" << eps;
          EXPECT_EQ(kc.hits, expected.size());
          EXPECT_EQ(kc.candidates, n < 2 ? 0 : n * (n - 1) / 2);
          EXPECT_EQ(kc.candidates, kc.computed + kc.pruned);
          if (mode == LeafKernel::kNaive) {
            EXPECT_EQ(kc.pruned, 0u);
          }
        });
      }
    }
  }
}

TEST(KernelsTest, BlockKernelMatchesScalarLoopExactly) {
  LeafJoinScratch<2> scratch;
  for (uint64_t seed : {11u, 12u}) {
    for (auto [na, nb] : {std::pair<size_t, size_t>{0, 5},
                          {5, 0},
                          {1, 1},
                          {40, 17},
                          {64, 64}}) {
      auto a = RandomEntries(na, seed, false);
      auto b = RandomEntries(nb, seed + 100, seed == 12);
      for (auto& e : b) e.id += 10000;  // disjoint id spaces
      for (double eps : {0.02, 0.15, 1.5}) {
        const double eps2 = eps * eps;
        const LinkVec expected = BruteBlockPairs(a, b, eps2);
        ForEachKernelMode(true, [&](LeafKernel mode, const char* label) {
          LinkVec got;
          const KernelCounters kc = BlockJoinKernel(
              scratch, std::span<const Entry<2>>(a),
              std::span<const Entry<2>>(b), eps2, mode,
              [&](const Entry<2>& ea, const Entry<2>& eb) {
                got.emplace_back(ea.id, eb.id);
              });
          EXPECT_EQ(got, expected)
              << "mode=" << label << " na=" << na << " nb=" << nb;
          EXPECT_EQ(kc.hits, expected.size());
          EXPECT_EQ(kc.candidates,
                    (na == 0 || nb == 0) ? 0 : uint64_t{na} * nb);
          EXPECT_EQ(kc.candidates, kc.computed + kc.pruned);
        });
      }
    }
  }
}

/// Ties exactly at epsilon: a grid spaced exactly eps apart (eps = 0.25 is
/// binary-exact) makes every axis-neighbor distance *equal* eps, both along
/// the sweep axis and across it, plus a 3-4-5 pair whose distance is exactly
/// eps off-axis. The sweep's 1-D prune must keep every one of them.
TEST(KernelsTest, TiesExactlyAtEpsilonSurviveAllModes) {
  const double eps = 0.25;
  const double eps2 = eps * eps;
  std::vector<Entry<2>> entries;
  PointId id = 0;
  for (int gx = 0; gx < 4; ++gx) {
    for (int gy = 0; gy < 4; ++gy) {
      entries.push_back(Entry<2>{id++, Point2{{gx * eps, gy * eps}}});
    }
  }
  // Exact duplicates (distance zero) on top of grid nodes.
  entries.push_back(Entry<2>{id++, Point2{{0.25, 0.25}}});
  // 3-4-5 triangle scaled to hypotenuse exactly eps: (0.15, 0.20) from
  // origin — 0.15^2 + 0.2^2 = 0.0625 = eps^2 exactly in binary? 0.15/0.2
  // are not exact doubles, so use exact dyadics: (0.0625*3, 0.0625*4)/1.25
  // is messy — instead place the pair axis-aligned at exact eps in y, which
  // exercises the non-sweep dimension whenever x has the wider spread.
  entries.push_back(Entry<2>{id++, Point2{{0.5, 0.75 + eps}}});

  const LinkVec expected = BruteSelfPairs(entries, eps2);
  ASSERT_FALSE(expected.empty());
  // Sanity: the construction really produced distance == eps ties.
  size_t exact_ties = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      if (SquaredDistance(entries[i].point, entries[j].point) == eps2) {
        ++exact_ties;
      }
    }
  }
  ASSERT_GT(exact_ties, 10u);

  LeafJoinScratch<2> scratch;
  ForEachKernelMode(true, [&](LeafKernel mode, const char* label) {
    LinkVec got;
    SelfJoinKernel(scratch, std::span<const Entry<2>>(entries), eps2, mode,
                   [&](const Entry<2>& a, const Entry<2>& b) {
                     got.emplace_back(a.id, b.id);
                   });
    EXPECT_EQ(got, expected) << "mode=" << label;
  });
}

TEST(KernelsTest, ScratchAccumulatesTotals) {
  LeafJoinScratch<2> scratch;
  const auto entries = RandomEntries(32, 5, false);
  auto ignore = [](const Entry<2>&, const Entry<2>&) {};
  const KernelCounters a = SelfJoinKernel(
      scratch, std::span<const Entry<2>>(entries), 0.01, LeafKernel::kSweep,
      ignore);
  const KernelCounters b = SelfJoinKernel(
      scratch, std::span<const Entry<2>>(entries), 0.01, LeafKernel::kSimd,
      ignore);
  EXPECT_EQ(scratch.totals.invocations, 2u);
  EXPECT_EQ(scratch.totals.candidates, a.candidates + b.candidates);
  EXPECT_EQ(scratch.totals.computed, a.computed + b.computed);
  EXPECT_EQ(scratch.totals.hits, a.hits + b.hits);
  // Sweep and simd share the same 1-D window, so they charge the same
  // number of distance evaluations.
  EXPECT_EQ(a.computed, b.computed);
}

// --- Driver-level equivalence ----------------------------------------------

RStarTree<2> SmallFanoutTree(const std::vector<Entry<2>>& entries) {
  RStarOptions options;
  options.max_fanout = 8;
  options.min_fanout = 3;
  RStarTree<2> tree(options);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  return tree;
}

/// All three leaf kernels must produce byte-identical driver output —
/// links *and* groups, in order — for every algorithm, because CSJ(g)'s
/// window is order-sensitive and the kernels replay hits canonically.
TEST(KernelsTest, SelfJoinDriversIdenticalAcrossKernels) {
  for (int workload = 0; workload < 2; ++workload) {
    const auto points = workload == 0
                            ? GenerateUniform<2>(500, 42)
                            : GenerateGaussianClusters<2>(500, 6, 0.02, 43);
    std::vector<Entry<2>> entries(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      entries[i] = Entry<2>{static_cast<PointId>(i), points[i]};
    }
    const auto tree = SmallFanoutTree(entries);
    for (double eps : {0.01, 0.05, 0.2}) {
      for (auto algo : {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ,
                        JoinAlgorithm::kCSJ}) {
        for (bool sort_pairs : {false, true}) {
          JoinOptions options;
          options.epsilon = eps;
          options.sort_child_pairs = sort_pairs;
          options.leaf_kernel = LeafKernel::kNaive;
          MemorySink baseline(IdWidthFor(entries.size()));
          const JoinStats naive_stats =
              RunSelfJoin(algo, tree, options, &baseline);

          ForEachKernelMode(false, [&](LeafKernel mode, const char* label) {
            options.leaf_kernel = mode;
            MemorySink sink(IdWidthFor(entries.size()));
            const JoinStats stats = RunSelfJoin(algo, tree, options, &sink);
            EXPECT_EQ(sink.links(), baseline.links())
                << JoinAlgorithmName(algo) << " eps=" << eps
                << " mode=" << label << " sort=" << sort_pairs;
            EXPECT_EQ(sink.groups(), baseline.groups());
            EXPECT_EQ(stats.kernel_hits, naive_stats.kernel_hits);
            EXPECT_EQ(stats.kernel_candidates, naive_stats.kernel_candidates);
            EXPECT_LE(stats.distance_computations,
                      naive_stats.distance_computations);
          });
        }
      }
    }
  }
}

/// The batched leaf-tile pipeline is a pure scheduling change: with the
/// batch filling and draining many times mid-traversal, every batched mode
/// must reproduce the undeferred kNaive output byte for byte, links *and*
/// groups, for both the tree and EGO drivers.
TEST(KernelsTest, LeafBatchIsOutputInvariant) {
  const auto points = GenerateGaussianClusters<2>(2000, 6, 0.02, 43);
  std::vector<Entry<2>> entries(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries[i] = Entry<2>{static_cast<PointId>(i), points[i]};
  }
  const auto tree = SmallFanoutTree(entries);
  // Every leaf contributes at least one event, so this many leaves fill
  // the batch at least three times before the end-of-run drain.
  ASSERT_GE(tree.Stats().num_leaves, 3 * LeafBatch<2>::kCapacity);

  for (auto algo : {JoinAlgorithm::kSSJ, JoinAlgorithm::kCSJ}) {
    JoinOptions options;
    options.epsilon = 0.02;
    options.leaf_kernel = LeafKernel::kNaive;
    MemorySink baseline(IdWidthFor(entries.size()));
    RunSelfJoin(algo, tree, options, &baseline);
    ForEachKernelMode(false, [&](LeafKernel mode, const char* label) {
      options.leaf_kernel = mode;
      MemorySink sink(IdWidthFor(entries.size()));
      RunSelfJoin(algo, tree, options, &sink);
      EXPECT_EQ(sink.links(), baseline.links())
          << JoinAlgorithmName(algo) << " mode=" << label;
      EXPECT_EQ(sink.groups(), baseline.groups());
    });
  }

  // Ranges of at most 8 of the 2000 entries: at least 250 leaf ranges.
  EgoOptions ego;
  ego.epsilon = 0.02;
  ego.leaf_size = 8;
  ego.leaf_kernel = LeafKernel::kNaive;
  MemorySink ego_baseline(IdWidthFor(entries.size()));
  CompactEgoJoin(entries, ego, &ego_baseline);
  ForEachKernelMode(false, [&](LeafKernel mode, const char* label) {
    ego.leaf_kernel = mode;
    MemorySink sink(IdWidthFor(entries.size()));
    CompactEgoJoin(entries, ego, &sink);
    EXPECT_EQ(sink.links(), ego_baseline.links()) << "mode=" << label;
    EXPECT_EQ(sink.groups(), ego_baseline.groups());
  });
}

TEST(KernelsTest, SpatialJoinDriversIdenticalAcrossKernels) {
  const auto pa = GenerateUniform<2>(400, 17);
  const auto pb = GenerateGaussianClusters<2>(300, 4, 0.05, 18);
  std::vector<Entry<2>> ea(pa.size()), eb(pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ea[i] = Entry<2>{static_cast<PointId>(i), pa[i]};
  }
  for (size_t i = 0; i < pb.size(); ++i) {
    eb[i] = Entry<2>{static_cast<PointId>(100000 + i), pb[i]};
  }
  const auto tree_a = SmallFanoutTree(ea);
  const auto tree_b = SmallFanoutTree(eb);
  for (double eps : {0.02, 0.1}) {
    for (bool sort_pairs : {false, true}) {
      JoinOptions options;
      options.epsilon = eps;
      options.sort_child_pairs = sort_pairs;
      options.leaf_kernel = LeafKernel::kNaive;
      MemorySink baseline(IdWidthFor(100000 + eb.size()));
      StandardSpatialJoin(tree_a, tree_b, options, &baseline);
      MemorySink baseline_csj(IdWidthFor(100000 + eb.size()));
      CompactSpatialJoin(tree_a, tree_b, options, &baseline_csj);

      ForEachKernelMode(false, [&](LeafKernel mode, const char* label) {
        options.leaf_kernel = mode;
        MemorySink ssj(IdWidthFor(100000 + eb.size()));
        StandardSpatialJoin(tree_a, tree_b, options, &ssj);
        EXPECT_EQ(ssj.links(), baseline.links())
            << "eps=" << eps << " mode=" << label;
        MemorySink csj(IdWidthFor(100000 + eb.size()));
        CompactSpatialJoin(tree_a, tree_b, options, &csj);
        EXPECT_EQ(csj.links(), baseline_csj.links());
        EXPECT_EQ(csj.groups(), baseline_csj.groups());
      });
    }
  }
}

TEST(KernelsTest, EgoJoinsIdenticalAcrossKernels) {
  const auto points = GenerateGaussianClusters<2>(600, 5, 0.03, 99);
  std::vector<Entry<2>> entries(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries[i] = Entry<2>{static_cast<PointId>(i), points[i]};
  }
  for (double eps : {0.02, 0.08}) {
    EgoOptions options;
    options.epsilon = eps;
    options.leaf_size = 16;
    options.leaf_kernel = LeafKernel::kNaive;
    MemorySink base_ssj(IdWidthFor(entries.size()));
    EgoSimilarityJoin(entries, options, &base_ssj);
    MemorySink base_csj(IdWidthFor(entries.size()));
    CompactEgoJoin(entries, options, &base_csj);

    ForEachKernelMode(false, [&](LeafKernel mode, const char* label) {
      options.leaf_kernel = mode;
      MemorySink ssj(IdWidthFor(entries.size()));
      EgoSimilarityJoin(entries, options, &ssj);
      EXPECT_EQ(ssj.links(), base_ssj.links())
          << "eps=" << eps << " mode=" << label;
      MemorySink csj(IdWidthFor(entries.size()));
      CompactEgoJoin(entries, options, &csj);
      EXPECT_EQ(csj.links(), base_csj.links());
      EXPECT_EQ(csj.groups(), base_csj.groups());
    });
  }
}

// --- Bulk distance accounting ----------------------------------------------

/// A single-leaf tree (fanout >= n) reduces the whole join to one kernel
/// call, so the bulk counters are exactly predictable: kNaive must charge
/// the full n*(n-1)/2 pair space — the same total the old per-pair
/// ++distance_computations produced — and the pruned modes must charge
/// exactly candidates - pruned.
TEST(KernelsTest, DistanceAccountingOnSingleLeaf) {
  const size_t n = 40;
  const auto entries = RandomEntries(n, 21, /*with_duplicates=*/true);
  RStarOptions tree_options;
  tree_options.max_fanout = 64;
  tree_options.min_fanout = 25;
  RStarTree<2> tree(tree_options);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  ASSERT_TRUE(tree.IsLeaf(tree.Root()));

  const uint64_t pair_space = n * (n - 1) / 2;
  JoinOptions options;
  options.epsilon = 0.1;

  options.leaf_kernel = LeafKernel::kNaive;
  CountingSink naive_sink(IdWidthFor(n));
  const JoinStats naive = StandardSimilarityJoin(tree, options, &naive_sink);
  EXPECT_EQ(naive.distance_computations, pair_space);
  EXPECT_EQ(naive.kernel_candidates, pair_space);
  EXPECT_EQ(naive.kernel_pruned, 0u);
  EXPECT_EQ(naive.kernel_hits, naive_sink.num_links());

  options.leaf_kernel = LeafKernel::kSweep;
  CountingSink sweep_sink(IdWidthFor(n));
  const JoinStats sweep = StandardSimilarityJoin(tree, options, &sweep_sink);
  EXPECT_EQ(sweep.kernel_candidates, pair_space);
  EXPECT_EQ(sweep.distance_computations, pair_space - sweep.kernel_pruned);
  EXPECT_LE(sweep.distance_computations, naive.distance_computations);
  EXPECT_GE(sweep.distance_computations, sweep.kernel_hits);
  EXPECT_EQ(sweep.kernel_hits, naive.kernel_hits);

  options.leaf_kernel = LeafKernel::kSimd;
  CountingSink simd_sink(IdWidthFor(n));
  const JoinStats simd = StandardSimilarityJoin(tree, options, &simd_sink);
  // Sweep and simd share the same 1-D candidate window.
  EXPECT_EQ(simd.distance_computations, sweep.distance_computations);
  EXPECT_EQ(simd.kernel_pruned, sweep.kernel_pruned);
  EXPECT_EQ(simd.kernel_hits, sweep.kernel_hits);
}

}  // namespace
}  // namespace csj
