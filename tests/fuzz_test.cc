#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/brute.h"
#include "core/ego.h"
#include "core/expand.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/generators.h"
#include "index/mtree.h"
#include "index/rstar_tree.h"
#include "index/rtree.h"
#include "util/random.h"

/// \file
/// Randomized (fuzz-style) suites: every trial draws a workload, tree
/// configuration, and join parameters from a seeded RNG, then checks the
/// full lossless property against brute force, plus structural invariants
/// under random insert/remove interleavings. Seeds are the test parameters,
/// so failures reproduce deterministically.

namespace csj {
namespace {

std::vector<Entry<2>> RandomWorkload(Rng& rng) {
  const size_t n = 50 + rng.UniformInt(uint64_t{400});
  std::vector<Point2> points;
  switch (rng.UniformInt(uint64_t{4})) {
    case 0:
      points = GenerateUniform<2>(n, rng.Next());
      break;
    case 1:
      points = GenerateGaussianClusters<2>(
          n, 1 + static_cast<int>(rng.UniformInt(uint64_t{8})),
          rng.UniformDouble(0.002, 0.1), rng.Next());
      break;
    case 2:
      points = GenerateSierpinski2D(n, rng.Next());
      break;
    default: {
      // Degenerate-ish: points on a line with jitter (stresses splits).
      points.resize(n);
      for (auto& p : points) {
        const double t = rng.UniformDouble();
        p = Point2{{t, 0.5 + rng.Gaussian(0.0, 1e-4)}};
      }
      break;
    }
  }
  // Occasionally inject duplicates.
  if (rng.Bernoulli(0.3) && n > 10) {
    for (int d = 0; d < 5; ++d) {
      points[rng.UniformInt(points.size())] =
          points[rng.UniformInt(points.size())];
    }
  }
  std::vector<Entry<2>> entries(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries[i] = Entry<2>{static_cast<PointId>(i), points[i]};
  }
  return entries;
}

class JoinFuzzTest : public testing::TestWithParam<int> {};

TEST_P(JoinFuzzTest, RandomConfigurationsAreLossless) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 12; ++trial) {
    const auto entries = RandomWorkload(rng);
    const double eps = rng.UniformDouble(0.001, 0.5);
    const auto reference = BruteForceSelfJoin(entries, eps);

    JoinOptions options;
    options.epsilon = eps;
    options.window_size = 1 + static_cast<int>(rng.UniformInt(uint64_t{40}));
    options.early_stop = !rng.Bernoulli(0.2);
    options.promote_on_merge = rng.Bernoulli(0.3);

    const int tree_kind = static_cast<int>(rng.UniformInt(uint64_t{3}));
    const size_t fanout = 4 + rng.UniformInt(uint64_t{28});
    auto check = [&](const auto& tree, const char* kind) {
      for (auto algo : {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ,
                        JoinAlgorithm::kCSJ}) {
        MemorySink sink(IdWidthFor(entries.size()));
        RunSelfJoin(algo, tree, options, &sink);
        const auto report = CompareLinkSets(ExpandSelfJoin(sink), reference);
        ASSERT_TRUE(report.lossless())
            << kind << " " << JoinAlgorithmName(algo) << " trial=" << trial
            << " eps=" << eps << " g=" << options.window_size
            << " fanout=" << fanout << ": " << report.ToString();
      }
    };
    if (tree_kind == 0) {
      RTreeOptions topt;
      topt.max_fanout = fanout;
      topt.min_fanout = std::max<size_t>(2, fanout * 2 / 5);
      topt.split = rng.Bernoulli(0.5) ? RTreeSplit::kLinear
                                      : RTreeSplit::kQuadratic;
      RTree<2> tree(topt);
      for (const auto& e : entries) tree.Insert(e.id, e.point);
      tree.CheckInvariants();
      check(tree, "rtree");
    } else if (tree_kind == 1) {
      RStarOptions topt;
      topt.max_fanout = fanout;
      topt.min_fanout = std::max<size_t>(2, fanout * 2 / 5);
      topt.forced_reinsert = !rng.Bernoulli(0.2);
      RStarTree<2> tree(topt);
      for (const auto& e : entries) tree.Insert(e.id, e.point);
      tree.CheckInvariants();
      check(tree, "rstar");
    } else {
      MTreeOptions topt;
      topt.max_fanout = fanout;
      topt.min_fanout = 2;
      topt.promotion = rng.Bernoulli(0.5) ? MTreePromotion::kMinMaxRadius
                                          : MTreePromotion::kSampled;
      MTree<2> tree(topt);
      for (const auto& e : entries) tree.Insert(e.id, e.point);
      tree.CheckInvariants();
      check(tree, "mtree");
    }

    // EGO cross-check on a quarter of the trials.
    if (trial % 4 == 0) {
      EgoOptions ego;
      ego.epsilon = eps;
      ego.leaf_size = 2 + rng.UniformInt(uint64_t{60});
      MemorySink sink(IdWidthFor(entries.size()));
      CompactEgoJoin(entries, ego, &sink);
      const auto report = CompareLinkSets(ExpandSelfJoin(sink), reference);
      ASSERT_TRUE(report.lossless()) << "ego trial=" << trial << " eps=" << eps
                                     << ": " << report.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinFuzzTest, testing::Range(0, 8));

class TreeFuzzTest : public testing::TestWithParam<int> {};

TEST_P(TreeFuzzTest, RandomInsertRemoveInterleavings) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  RTreeOptions rt_options;
  rt_options.max_fanout = 4 + rng.UniformInt(uint64_t{12});
  rt_options.min_fanout = 2;
  RTree<2> rtree(rt_options);
  RStarOptions rs_options;
  rs_options.max_fanout = rt_options.max_fanout;
  rs_options.min_fanout = 2;
  RStarTree<2> rstar(rs_options);

  // Reference multiset of live entries.
  std::map<std::pair<PointId, std::pair<double, double>>, int> reference;
  std::vector<Entry<2>> live;
  PointId next_id = 0;

  for (int op = 0; op < 1200; ++op) {
    const bool insert = live.empty() || rng.Bernoulli(0.6);
    if (insert) {
      Entry<2> e{next_id++,
                 Point2{{rng.UniformDouble(), rng.UniformDouble()}}};
      if (rng.Bernoulli(0.1) && !live.empty()) {
        e.point = live[rng.UniformInt(live.size())].point;  // duplicate point
      }
      rtree.Insert(e.id, e.point);
      rstar.Insert(e.id, e.point);
      live.push_back(e);
    } else {
      const size_t pick = rng.UniformInt(live.size());
      const Entry<2> e = live[pick];
      ASSERT_TRUE(rtree.Remove(e.id, e.point)) << "op " << op;
      ASSERT_TRUE(rstar.Remove(e.id, e.point)) << "op " << op;
      live[pick] = live.back();
      live.pop_back();
    }
    if (op % 149 == 0) {
      rtree.CheckInvariants();
      rstar.CheckInvariants();
    }
  }
  rtree.CheckInvariants();
  rstar.CheckInvariants();
  EXPECT_EQ(rtree.size(), live.size());
  EXPECT_EQ(rstar.size(), live.size());
  for (const auto& e : live) {
    EXPECT_TRUE(rtree.Contains(e.id, e.point));
    EXPECT_TRUE(rstar.Contains(e.id, e.point));
  }

  // The surviving content joins correctly.
  JoinOptions options;
  options.epsilon = 0.08;
  MemorySink sink(IdWidthFor(next_id));
  CompactSimilarityJoin(rstar, options, &sink);
  EXPECT_TRUE(CompareLinkSets(ExpandSelfJoin(sink),
                              BruteForceSelfJoin(live, options.epsilon))
                  .lossless());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeFuzzTest, testing::Range(0, 6));

}  // namespace
}  // namespace csj
