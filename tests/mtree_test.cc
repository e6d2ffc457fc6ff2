#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/generators.h"
#include "index/mtree.h"
#include "index/node_access.h"
#include "metric/edit_distance.h"
#include "metric/generic_mtree.h"
#include "metric/metric_join.h"
#include "util/random.h"

namespace csj {
namespace {

template <int D>
std::set<PointId> ToIds(const std::vector<Entry<D>>& entries) {
  std::set<PointId> out;
  for (const auto& e : entries) out.insert(e.id);
  return out;
}

TEST(MTreeTest, EmptyAndSingle) {
  MTree<2> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Root(), kInvalidNode);
  tree.CheckInvariants();
  tree.Insert(9, Point2{{0.4, 0.4}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Height(), 1);
  tree.CheckInvariants();
  auto hits = tree.RangeQuery(Point2{{0.4, 0.4}}, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 9u);
}

class MTreePromotionTest : public testing::TestWithParam<MTreePromotion> {};

TEST_P(MTreePromotionTest, InvariantsAfterManyInserts) {
  MTreeOptions options;
  options.max_fanout = 10;
  options.min_fanout = 2;
  options.promotion = GetParam();
  MTree<2> tree(options);
  const auto points = GenerateUniform<2>(2000, 13);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), points[i]);
    if (i % 317 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), 2000u);
  EXPECT_GT(tree.Height(), 1);
}

TEST_P(MTreePromotionTest, RangeQueryMatchesBruteForce) {
  MTreeOptions options;
  options.promotion = GetParam();
  MTree<2> tree(options);
  const auto points = GenerateGaussianClusters<2>(1500, 6, 0.05, 23);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), points[i]);
  }
  Rng rng(29);
  for (int q = 0; q < 40; ++q) {
    const Point2 center{{rng.UniformDouble(), rng.UniformDouble()}};
    const double radius = rng.UniformDouble(0.0, 0.2);
    std::set<PointId> expected;
    for (size_t i = 0; i < points.size(); ++i) {
      if (Distance(center, points[i]) <= radius) {
        expected.insert(static_cast<PointId>(i));
      }
    }
    EXPECT_EQ(ToIds(tree.RangeQuery(center, radius)), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Promotions, MTreePromotionTest,
                         testing::Values(MTreePromotion::kMinMaxRadius,
                                         MTreePromotion::kSampled),
                         [](const auto& info) {
                           return info.param == MTreePromotion::kMinMaxRadius
                                      ? "MinMaxRadius"
                                      : "Sampled";
                         });

TEST(MTreeTest, MaxDiameterBoundsSubtreePairs) {
  MTree<2> tree;
  const auto points = GenerateUniform<2>(600, 37);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), points[i]);
  }
  // Check for root and one level down.
  auto check_node = [&](NodeId n) {
    const double diameter = tree.MaxDiameter(n);
    std::vector<Entry<2>> members;
    ForEachEntryInSubtree(tree, n, static_cast<NodeAccessTracker*>(nullptr),
                          [&](const Entry<2>& e) { members.push_back(e); });
    for (size_t i = 0; i < members.size(); i += 3) {
      for (size_t j = i + 1; j < members.size(); j += 5) {
        EXPECT_LE(Distance(members[i].point, members[j].point),
                  diameter + 1e-9);
      }
    }
  };
  check_node(tree.Root());
  if (!tree.IsLeaf(tree.Root())) {
    for (NodeId child : tree.Children(tree.Root())) check_node(child);
  }
}

TEST(MTreeTest, MinDistanceLowerBoundsCrossPairs) {
  MTree<2> tree;
  const auto points = GenerateGaussianClusters<2>(800, 4, 0.03, 41);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), points[i]);
  }
  if (tree.IsLeaf(tree.Root())) GTEST_SKIP() << "tree too small";
  const auto children = tree.Children(tree.Root());
  for (size_t i = 0; i < children.size(); ++i) {
    for (size_t j = i + 1; j < children.size(); ++j) {
      const double lower = tree.MinDistance(children[i], children[j]);
      std::vector<Entry<2>> a, b;
      ForEachEntryInSubtree(tree, children[i],
                            static_cast<NodeAccessTracker*>(nullptr),
                            [&](const Entry<2>& e) { a.push_back(e); });
      ForEachEntryInSubtree(tree, children[j],
                            static_cast<NodeAccessTracker*>(nullptr),
                            [&](const Entry<2>& e) { b.push_back(e); });
      for (size_t x = 0; x < a.size(); x += 7) {
        for (size_t y = 0; y < b.size(); y += 9) {
          EXPECT_GE(Distance(a[x].point, b[y].point), lower - 1e-9);
        }
      }
    }
  }
}

TEST(MTreeTest, DuplicatePointsSupported) {
  MTreeOptions options;
  options.max_fanout = 6;
  MTree<2> tree(options);
  for (PointId id = 0; id < 50; ++id) tree.Insert(id, Point2{{0.7, 0.1}});
  tree.CheckInvariants();
  EXPECT_EQ(tree.RangeQuery(Point2{{0.7, 0.1}}, 0.0).size(), 50u);
}

TEST(MTreeTest, HighDimensionalInsertion) {
  MTree<5> tree;
  const auto points = GenerateUniform<5>(800, 53);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), points[i]);
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), 800u);
}


TEST(MTreeTest, RemoveMaintainsInvariantsAndContent) {
  MTreeOptions options;
  options.max_fanout = 8;
  options.min_fanout = 2;
  MTree<2> tree(options);
  auto points = GenerateUniform<2>(600, 71);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), points[i]);
  }
  Rng rng(72);
  std::vector<size_t> order(points.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);

  const size_t removals = points.size() / 2;
  for (size_t k = 0; k < removals; ++k) {
    const size_t i = order[k];
    ASSERT_TRUE(tree.Remove(static_cast<PointId>(i), points[i])) << k;
    if (k % 101 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), points.size() - removals);
  // Removed entries gone, survivors present (exact range query radius 0).
  for (size_t k = 0; k < points.size(); ++k) {
    const size_t i = order[k];
    const auto hits = tree.RangeQuery(points[i], 0.0);
    bool found = false;
    for (const auto& e : hits) found |= e.id == static_cast<PointId>(i);
    EXPECT_EQ(found, k >= removals) << "k=" << k;
  }
  // Removing a missing entry fails cleanly.
  EXPECT_FALSE(tree.Remove(static_cast<PointId>(order[0]), points[order[0]]));
}

TEST(MTreeTest, RemoveEverythingEmptiesTree) {
  MTreeOptions options;
  options.max_fanout = 6;
  MTree<2> tree(options);
  const auto points = GenerateUniform<2>(120, 73);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), points[i]);
  }
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree.Remove(static_cast<PointId>(i), points[i]));
  }
  EXPECT_TRUE(tree.empty());
  tree.CheckInvariants();
  // Reusable after emptying.
  tree.Insert(999, Point2{{0.5, 0.5}});
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), 1u);
}

TEST(MTreeTest, JoinAfterRemovalsIsCorrect) {
  MTree<2> tree;
  const auto points = GenerateGaussianClusters<2>(500, 4, 0.03, 75);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), points[i]);
  }
  std::vector<Entry<2>> survivors;
  for (size_t i = 0; i < points.size(); ++i) {
    if (i % 4 == 0) {
      ASSERT_TRUE(tree.Remove(static_cast<PointId>(i), points[i]));
    } else {
      survivors.push_back(Entry<2>{static_cast<PointId>(i), points[i]});
    }
  }
  tree.CheckInvariants();
  // Range counts against the surviving set at several radii.
  Rng rng(76);
  for (int q = 0; q < 20; ++q) {
    const Point2 center{{rng.UniformDouble(), rng.UniformDouble()}};
    const double radius = rng.UniformDouble(0.0, 0.15);
    uint64_t expected = 0;
    for (const auto& e : survivors) {
      expected += Distance(center, e.point) <= radius;
    }
    EXPECT_EQ(tree.RangeCount(center, radius), expected);
  }
}

TEST(MTreeTest, ShapeExposesBall) {
  MTree<2> tree;
  tree.Insert(0, Point2{{0.0, 0.0}});
  tree.Insert(1, Point2{{1.0, 0.0}});
  const Ball<2> ball = tree.Shape(tree.Root());
  EXPECT_TRUE(ball.Contains(Point2{{0.0, 0.0}}));
  EXPECT_TRUE(ball.Contains(Point2{{1.0, 0.0}}));
}

/// Links, groups and bytes one join wrote.
struct JoinOutput {
  uint64_t links, groups, bytes;
  friend bool operator==(const JoinOutput&, const JoinOutput&) = default;
};

JoinOutput OutputOf(const CountingSink& sink) {
  return {sink.num_links(), sink.num_groups(), sink.bytes()};
}

TEST(MTreeTest, TreeShapesAndJoinOutputArePinned) {
  // Pinned shapes and join output of a default MTree<2> (mM_RAD, fanout
  // 32) and a sampled string tree (fanout 16, 48 pairs): any change to how
  // an M-tree is stored, split or searched moves them.
  const auto points = GenerateGaussianClusters<2>(4000, 8, 0.03, 17);
  MTree<2> tree;
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), points[i]);
  }
  EXPECT_EQ(tree.Height(), 3);
  EXPECT_EQ(tree.NodeCount(), 207u);
  JoinOptions options;
  options.epsilon = 0.02;
  options.window_size = 10;
  const JoinOutput point_expected[] = {
      {113518, 0, 1135180}, {112764, 6, 1128125}, {0, 23488, 594210}};
  int i = 0;
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ}) {
    CountingSink sink(IdWidthFor(tree.size()));
    RunSelfJoin(algorithm, tree, options, &sink);
    EXPECT_EQ(OutputOf(sink), point_expected[i++])
        << JoinAlgorithmName(algorithm);
  }

  Rng rng(11);
  std::vector<std::string> words(800);
  for (auto& w : words) {
    const size_t len = 3 + rng.UniformInt(uint64_t{8});
    for (size_t k = 0; k < len; ++k) {
      w.push_back(static_cast<char>('a' + rng.UniformInt(uint64_t{6})));
    }
  }
  MTreeOptions string_options;
  string_options.max_fanout = 16;
  string_options.promotion = MTreePromotion::kSampled;
  string_options.sampled_pairs = 48;
  GenericMTree<std::string, EditDistanceMetric> strings(EditDistanceMetric(),
                                                        string_options);
  for (size_t k = 0; k < words.size(); ++k) {
    strings.Insert(static_cast<PointId>(k), words[k]);
  }
  EXPECT_EQ(strings.Height(), 3);
  EXPECT_EQ(strings.NodeCount(), 115u);
  options.epsilon = 2.0;
  CountingSink ssj(3), ncsj(3), csj(3);
  MetricStandardJoin(strings, options, &ssj);
  MetricNaiveCompactJoin(strings, options, &ncsj);
  MetricCompactJoin(strings, options, &csj);
  EXPECT_EQ(OutputOf(ssj), (JoinOutput{5143, 0, 41144}));
  EXPECT_EQ(OutputOf(ncsj), (JoinOutput{5141, 2, 41144}));
  EXPECT_EQ(OutputOf(csj), (JoinOutput{4185, 233, 37188}));
}

}  // namespace
}  // namespace csj
