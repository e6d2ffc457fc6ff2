#include "geom/dispatch.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/ego.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/generators.h"
#include "geom/kernels.h"
#include "index/rstar_tree.h"
#include "util/random.h"

/// Tests of the runtime ISA dispatch layer (geom/dispatch.h). The
/// load-bearing claims:
///
///  * LeafKernel::kSimd resolves to the widest backend that is both
///    compiled in and supported by the host CPU (AVX-512 > AVX2 > scalar);
///  * the CSJ_KERNEL_ISA env override forces any *available* backend, and
///    unknown or unavailable names fall back to best-available rather than
///    mis-executing or disabling the join;
///  * every backend is decision-identical: forcing each ISA in turn on
///    tie-heavy randomized data yields byte-identical CSJ(g) output —
///    links and groups, in order — including distances exactly at epsilon
///    and exact-duplicate points;
///  * an unforced kSimd join reports the ISA it dispatched to (scalar when
///    no vector backend is compiled in), and asking GetKernelBackend for an
///    unavailable backend degrades to scalar instead of crashing.
///
/// Tests for ISAs the host cannot run skip cleanly (GTEST_SKIP), so the
/// suite passes on any machine and under -DCSJ_SIMD=OFF.

namespace csj {
namespace {

using dispatch_internal::ScopedKernelIsaOverride;

KernelIsa BestAvailableIsa() {
  if (KernelIsaAvailable(KernelIsa::kAvx512)) return KernelIsa::kAvx512;
  if (KernelIsaAvailable(KernelIsa::kAvx2)) return KernelIsa::kAvx2;
  return KernelIsa::kScalar;
}

/// Randomized points laced with the cases where a rounding difference
/// between backends would first show: exact duplicates (distance 0), runs
/// of equal sweep keys, and grid points whose neighbor distances are
/// *exactly* epsilon (0.25 is binary-exact, so fl((x-y)^2) == eps^2 with
/// no rounding slack).
std::vector<Entry<2>> TieHeavyEntries(size_t n, uint64_t seed, double eps) {
  Rng rng(seed);
  std::vector<Entry<2>> entries;
  entries.reserve(n + 36);
  PointId id = 0;
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(Entry<2>{
        id++, Point2{{rng.UniformDouble(), rng.UniformDouble()}}});
  }
  for (size_t i = 0; i < n / 4; ++i) {
    entries.push_back(Entry<2>{id++, entries[i].point});  // exact duplicate
    Point2 p = entries[i].point;
    p[1] = rng.UniformDouble();  // duplicated sweep-axis coordinate
    entries.push_back(Entry<2>{id++, p});
  }
  for (int gx = 0; gx < 6; ++gx) {
    for (int gy = 0; gy < 6; ++gy) {
      entries.push_back(Entry<2>{id++, Point2{{gx * eps, gy * eps}}});
    }
  }
  return entries;
}

RStarTree<2> SmallFanoutTree(const std::vector<Entry<2>>& entries) {
  RStarOptions options;
  options.max_fanout = 8;
  options.min_fanout = 3;
  RStarTree<2> tree(options);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  return tree;
}

TEST(KernelsDispatchTest, DispatchPrefersWidestAvailableIsa) {
  dispatch_internal::ResetDispatchForTesting();
  unsetenv("CSJ_KERNEL_ISA");
  EXPECT_EQ(DispatchedKernelIsa(), BestAvailableIsa());
  // The decision is cached: repeated queries agree.
  EXPECT_EQ(DispatchedKernelIsa(), BestAvailableIsa());
  dispatch_internal::ResetDispatchForTesting();
}

TEST(KernelsDispatchTest, EnvOverrideForcesEachAvailableIsa) {
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!KernelIsaAvailable(isa)) continue;
    ScopedKernelIsaOverride env(KernelIsaName(isa));
    EXPECT_EQ(DispatchedKernelIsa(), isa) << KernelIsaName(isa);
    EXPECT_EQ(GetKernelBackend(DispatchedKernelIsa()).isa, isa);
  }
}

TEST(KernelsDispatchTest, BogusEnvOverrideFallsBackToBestAvailable) {
  ScopedKernelIsaOverride env("sse42-typo");
  EXPECT_EQ(DispatchedKernelIsa(), BestAvailableIsa());
}

TEST(KernelsDispatchTest, UnavailableEnvOverrideFallsBackToBestAvailable) {
  // Naming an unavailable backend must not disable the join; when all
  // three are available there is nothing to check here.
  bool any_unavailable = false;
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (KernelIsaAvailable(isa)) continue;
    any_unavailable = true;
    ScopedKernelIsaOverride env(KernelIsaName(isa));
    EXPECT_EQ(DispatchedKernelIsa(), BestAvailableIsa());
  }
  if (!any_unavailable) {
    GTEST_SKIP() << "every backend is available on this host";
  }
}

/// Asking for a named backend the host (or build) lacks yields the scalar
/// table, never null function pointers.
TEST(KernelsDispatchTest, ExplicitModesDegradeToScalarWhenUnavailable) {
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    const KernelBackend& be = GetKernelBackend(isa);
    EXPECT_EQ(be.isa,
              KernelIsaAvailable(isa) ? isa : KernelIsa::kScalar);
    ASSERT_NE(be.window_hits, nullptr);
    ASSERT_NE(be.sweep_bound, nullptr);
  }
}

/// An unforced kSimd run — the tree driver and the EGO driver — records
/// the dispatch decision in JoinStats::kernel_isa. With no vector backend
/// compiled in (-DCSJ_SIMD=OFF) or supported, that is "scalar".
TEST(KernelsDispatchTest, UnforcedSimdJoinReportsDispatchedIsa) {
  unsetenv("CSJ_KERNEL_ISA");
  dispatch_internal::ResetDispatchForTesting();
  const double eps = 0.25;
  const auto entries = TieHeavyEntries(200, 5, eps);
  const auto tree = SmallFanoutTree(entries);
  const std::string dispatched = KernelIsaName(DispatchedKernelIsa());

  JoinOptions options;
  options.epsilon = eps;
  options.leaf_kernel = LeafKernel::kSimd;
  CountingSink sink(IdWidthFor(entries.size()));
  const JoinStats stats =
      RunSelfJoin(JoinAlgorithm::kCSJ, tree, options, &sink);
  EXPECT_EQ(stats.kernel_isa, dispatched);

  EgoOptions ego;
  ego.epsilon = eps;
  ego.leaf_kernel = LeafKernel::kSimd;
  CountingSink ego_sink(IdWidthFor(entries.size()));
  EXPECT_EQ(CompactEgoJoin(entries, ego, &ego_sink).kernel_isa, dispatched);

  if (!KernelIsaAvailable(KernelIsa::kAvx2) &&
      !KernelIsaAvailable(KernelIsa::kAvx512)) {
    EXPECT_EQ(stats.kernel_isa, "scalar");
  }
  dispatch_internal::ResetDispatchForTesting();
}

/// Forces `isa` through the env override and checks the full CSJ(g)
/// pipeline — tree driver and EGO driver — produces byte-identical links
/// and groups to the kNaive scalar baseline on tie-heavy data.
void ExpectForcedIsaMatchesBaseline(KernelIsa isa) {
  if (!KernelIsaAvailable(isa)) {
    GTEST_SKIP() << KernelIsaName(isa)
                 << " backend not compiled in or not supported by this CPU";
  }
  const double eps = 0.25;  // binary-exact: grid ties land exactly at eps
  const auto entries = TieHeavyEntries(300, 7 + static_cast<uint64_t>(isa),
                                       eps);
  const auto tree = SmallFanoutTree(entries);

  JoinOptions options;
  options.epsilon = eps;
  options.leaf_kernel = LeafKernel::kNaive;
  MemorySink baseline(IdWidthFor(entries.size()));
  RunSelfJoin(JoinAlgorithm::kCSJ, tree, options, &baseline);

  EgoOptions ego;
  ego.epsilon = eps;
  ego.leaf_size = 16;
  ego.leaf_kernel = LeafKernel::kNaive;
  MemorySink ego_baseline(IdWidthFor(entries.size()));
  CompactEgoJoin(entries, ego, &ego_baseline);

  ScopedKernelIsaOverride env(KernelIsaName(isa));
  ASSERT_EQ(DispatchedKernelIsa(), isa);

  options.leaf_kernel = LeafKernel::kSimd;
  MemorySink sink(IdWidthFor(entries.size()));
  const JoinStats stats = RunSelfJoin(JoinAlgorithm::kCSJ, tree, options,
                                      &sink);
  EXPECT_EQ(sink.links(), baseline.links()) << KernelIsaName(isa);
  EXPECT_EQ(sink.groups(), baseline.groups());
  EXPECT_EQ(stats.kernel_isa, KernelIsaName(isa));

  ego.leaf_kernel = LeafKernel::kSimd;
  MemorySink ego_sink(IdWidthFor(entries.size()));
  const JoinStats ego_stats = CompactEgoJoin(entries, ego, &ego_sink);
  EXPECT_EQ(ego_sink.links(), ego_baseline.links()) << KernelIsaName(isa);
  EXPECT_EQ(ego_sink.groups(), ego_baseline.groups());
  EXPECT_EQ(ego_stats.kernel_isa, KernelIsaName(isa));
}

TEST(KernelsDispatchTest, CsjOutputIdenticalUnderForcedScalar) {
  ExpectForcedIsaMatchesBaseline(KernelIsa::kScalar);
}

TEST(KernelsDispatchTest, CsjOutputIdenticalUnderForcedAvx2) {
  ExpectForcedIsaMatchesBaseline(KernelIsa::kAvx2);
}

TEST(KernelsDispatchTest, CsjOutputIdenticalUnderForcedAvx512) {
  ExpectForcedIsaMatchesBaseline(KernelIsa::kAvx512);
}

}  // namespace
}  // namespace csj
