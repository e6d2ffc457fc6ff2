#include <gtest/gtest.h>

#include "core/brute.h"
#include "core/expand.h"
#include "core/join_stats.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/mtree.h"
#include "index/rstar_tree.h"

namespace csj {
namespace {

TEST(JoinStatsTest, AlgorithmNames) {
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kSSJ), "SSJ");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kNCSJ), "N-CSJ");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kCSJ), "CSJ");
}

TEST(JoinStatsTest, ToStringContainsKeyFields) {
  JoinStats stats;
  stats.algorithm = JoinAlgorithm::kCSJ;
  stats.epsilon = 0.25;
  stats.window_size = 10;
  stats.links = 3;
  stats.groups = 7;
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("CSJ"), std::string::npos);
  EXPECT_NE(text.find("eps=0.25"), std::string::npos);
  EXPECT_NE(text.find("g=10"), std::string::npos);
  EXPECT_NE(text.find("links=3"), std::string::npos);
  EXPECT_NE(text.find("groups=7"), std::string::npos);
}

TEST(JoinStatsTest, DistanceComputationsBounded) {
  // Distance computations must never exceed the brute-force n(n-1)/2 and
  // should be far below it on pruned workloads.
  const auto entries = ToEntries(GenerateGaussianClusters<2>(800, 6, 0.02, 5));
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  JoinOptions options;
  options.epsilon = 0.01;
  CountingSink sink(3);
  const JoinStats stats = StandardSimilarityJoin(tree, options, &sink);
  const uint64_t brute = 800ull * 799ull / 2ull;
  EXPECT_LT(stats.distance_computations, brute / 2);
  EXPECT_GT(stats.distance_computations, 0u);
}

/// Ball-shaped dual-tree spatial join: both trees are M-trees, so the
/// cross-tree bounds go through the Ball/Ball UnionDiameterBound path that
/// no other suite exercises.
TEST(MTreeSpatialJoinTest, BallBallDualJoinLossless) {
  const auto set_a = ToEntries(GenerateGaussianClusters<2>(400, 4, 0.03, 21));
  auto raw_b = GenerateGaussianClusters<2>(400, 4, 0.03, 22);
  std::vector<Entry<2>> set_b;
  for (size_t i = 0; i < raw_b.size(); ++i) {
    set_b.push_back(Entry<2>{static_cast<PointId>(10000 + i), raw_b[i]});
  }
  MTree<2> tree_a, tree_b;
  for (const auto& e : set_a) tree_a.Insert(e.id, e.point);
  for (const auto& e : set_b) tree_b.Insert(e.id, e.point);

  for (double eps : {0.02, 0.08}) {
    JoinOptions options;
    options.epsilon = eps;
    const auto reference = BruteForceSpatialJoin(set_a, set_b, eps);
    auto is_a = [](PointId id) { return id < 10000; };

    MemorySink ssj(5);
    StandardSpatialJoin(tree_a, tree_b, options, &ssj);
    EXPECT_EQ(ExpandSpatialJoin(ssj, is_a), reference) << "eps=" << eps;

    MemorySink csj(5);
    const JoinStats stats = CompactSpatialJoin(tree_a, tree_b, options, &csj);
    EXPECT_TRUE(
        CompareLinkSets(ExpandSpatialJoin(csj, is_a), reference).lossless())
        << "eps=" << eps;
    EXPECT_LE(csj.bytes(), ssj.bytes()) << "eps=" << eps;
    (void)stats;
  }
}

TEST(MTreeSpatialJoinTest, DualEarlyStopFiresOnCoincidentDenseRegions) {
  // Both trees dense in the same tiny region: the Ball/Ball union-diameter
  // bound must trigger dual early stops.
  MTree<2> tree_a, tree_b;
  std::vector<Entry<2>> set_a, set_b;
  Rng rng(33);
  for (PointId i = 0; i < 200; ++i) {
    const Point2 pa{{0.5 + rng.Gaussian(0.0, 0.001),
                     0.5 + rng.Gaussian(0.0, 0.001)}};
    const Point2 pb{{0.5 + rng.Gaussian(0.0, 0.001),
                     0.5 + rng.Gaussian(0.0, 0.001)}};
    set_a.push_back({i, pa});
    set_b.push_back({10000 + i, pb});
    tree_a.Insert(i, pa);
    tree_b.Insert(10000 + i, pb);
  }
  JoinOptions options;
  options.epsilon = 0.05;
  MemorySink sink(5);
  const JoinStats stats = CompactSpatialJoin(tree_a, tree_b, options, &sink);
  EXPECT_GT(stats.early_stops, 0u);
  EXPECT_TRUE(CompareLinkSets(
                  ExpandSpatialJoin(sink,
                                    [](PointId id) { return id < 10000; }),
                  BruteForceSpatialJoin(set_a, set_b, options.epsilon))
                  .lossless());
}

}  // namespace
}  // namespace csj
