#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/group.h"
#include "core/join_stats.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/rstar_tree.h"
#include "util/metrics.h"
#include "util/random.h"

namespace csj {
namespace {

using BoxGroup = Group<BoxShape<2>>;
using LinkList = std::vector<std::pair<PointId, PointId>>;

Box<2> LinkBox(const Point2& a, const Point2& b) {
  Box<2> box;
  box.Extend(a);
  box.Extend(b);
  return box;
}

TEST(GroupTest, FromLinkHasBothMembers) {
  const Point2 a{{0.0, 0.0}}, b{{0.01, 0.0}};
  BoxGroup group(1, 2, *BoxShape<2>(0.1).Found(a, b, nullptr));
  EXPECT_EQ(group.size(), 2u);
  EXPECT_EQ(group.bound(), LinkBox(a, b));
  EXPECT_LE(group.bound().Diagonal(), 0.011);
}

TEST(GroupTest, TryAddLinkCommitsWhenWithinEps) {
  BoxGroup group(1, 2, LinkBox(Point2{{0.0, 0.0}}, Point2{{0.02, 0.0}}));
  const BoxShape<2> shape(0.1);
  EXPECT_TRUE(group.TryAddLink(shape, 2, Point2{{0.02, 0.0}}, 3,
                               Point2{{0.04, 0.0}}, nullptr));
  EXPECT_EQ(group.size(), 3u);  // id 2 deduplicated
  EXPECT_EQ(group.members(), (std::vector<PointId>{1, 2, 3}));
}

TEST(GroupTest, TryAddLinkRollsBackOnFailure) {
  BoxGroup group(1, 2, LinkBox(Point2{{0.0, 0.0}}, Point2{{0.02, 0.0}}));
  const Box<2> before = group.bound();
  // Extending to (0.2, 0) would blow the diagonal past eps.
  EXPECT_FALSE(group.TryAddLink(BoxShape<2>(0.05), 2, Point2{{0.02, 0.0}}, 9,
                                Point2{{0.2, 0.0}}, nullptr));
  EXPECT_EQ(group.size(), 2u);
  EXPECT_EQ(group.bound(), before);  // MBR extension undone
}

TEST(GroupTest, FromSubtreeKeepsBox) {
  Box<2> box(Point2{{0.0, 0.0}}, Point2{{0.03, 0.04}});
  BoxGroup group({5, 6, 7}, box);
  EXPECT_EQ(group.size(), 3u);
  EXPECT_EQ(group.bound(), box);
}

TEST(GroupTest, DedupAcrossManyMerges) {
  BoxGroup group(0, 1, LinkBox(Point2{{0.0, 0.0}}, Point2{{0.001, 0.0}}));
  const BoxShape<2> shape(0.1);
  for (int round = 0; round < 5; ++round) {
    for (PointId id = 0; id < 8; ++id) {
      group.TryAddLink(shape, 0, Point2{{0.0, 0.0}}, id,
                       Point2{{0.001 * id, 0.0}}, nullptr);
    }
  }
  EXPECT_EQ(group.size(), 8u);
}

/// A window over 2-D boxes writing to a MemorySink.
struct BoxWindow {
  explicit BoxWindow(int capacity, bool promote = false,
                     JoinAlgorithm algorithm = JoinAlgorithm::kCSJ,
                     double epsilon = 0.1)
      : window(BoxShape<2>(epsilon), algorithm, capacity, promote, &sink,
               &stats, /*write_timer=*/nullptr) {}

  MemorySink sink{4};
  JoinStats stats;
  GroupWindow<BoxShape<2>> window;
};

class GroupWindowTest : public testing::Test {
 protected:
  GroupWindowTest()
      : box_(3), sink_(box_.sink), stats_(box_.stats), window_(box_.window) {}

  BoxWindow box_;
  MemorySink& sink_;
  JoinStats& stats_;
  GroupWindow<BoxShape<2>>& window_;
};

TEST_F(GroupWindowTest, EvictsOldestBeyondCapacity) {
  // Four far-apart links -> four groups; capacity 3 evicts the first.
  for (int i = 0; i < 4; ++i) {
    const double x = i * 10.0;
    window_.Link(static_cast<PointId>(2 * i), Point2{{x, 0.0}},
                 static_cast<PointId>(2 * i + 1), Point2{{x + 0.01, 0.0}});
  }
  EXPECT_EQ(window_.live_groups(), 3u);
  ASSERT_EQ(sink_.groups().size(), 1u);
  EXPECT_EQ(sink_.groups()[0], (std::vector<PointId>{0, 1}));
  window_.Flush();
  EXPECT_EQ(sink_.groups().size(), 4u);
  EXPECT_EQ(window_.live_groups(), 0u);
}

#ifndef CSJ_NO_METRICS
TEST(GroupWindowMetricsTest, OccupancyNeverExceedsCapacity) {
  // window.occupancy samples the window after eviction: a CSJ(3) run never
  // holds more than 3 groups.
  RStarTree<2> tree;
  for (const auto& e : ToEntries(GenerateGaussianClusters<2>(2000, 4, 0.02, 5))) {
    tree.Insert(e.id, e.point);
  }
  JoinOptions options;
  options.epsilon = 0.02;
  options.window_size = 3;
  metrics::ResetAll();
  CountingSink sink(4);
  ASSERT_TRUE(CompactSimilarityJoin(tree, options, &sink).status.ok());
  bool sampled = false;
  for (const auto& h : metrics::Snapshot().histograms) {
    if (h.name != "window.occupancy") continue;
    sampled = h.count > 0;
    EXPECT_LE(h.max, 3u);
  }
  EXPECT_TRUE(sampled);
}
#endif  // CSJ_NO_METRICS

TEST_F(GroupWindowTest, MergesIntoRecentGroup) {
  window_.Link(0, Point2{{0.0, 0.0}}, 1, Point2{{0.01, 0.0}});
  window_.Link(1, Point2{{0.01, 0.0}}, 2, Point2{{0.02, 0.0}});
  EXPECT_EQ(window_.live_groups(), 1u);  // second link merged, not new group
  EXPECT_EQ(stats_.merges, 1u);
  window_.Flush();
  ASSERT_EQ(sink_.groups().size(), 1u);
  EXPECT_EQ(sink_.groups()[0], (std::vector<PointId>{0, 1, 2}));
}

TEST_F(GroupWindowTest, ChecksMostRecentFirst) {
  // Group A spans [0, 0.05]; the next link at [0.12, 0.17] cannot extend A
  // (diagonal 0.17 > 0.1) so it founds group B. The probe link at
  // [0.09, 0.10] fits BOTH (A -> diagonal 0.10, B -> diagonal 0.08);
  // most-recent-first must pick B.
  window_.Link(0, Point2{{0.0, 0.0}}, 1, Point2{{0.05, 0.0}});
  window_.Link(2, Point2{{0.12, 0.0}}, 3, Point2{{0.17, 0.0}});
  EXPECT_EQ(window_.live_groups(), 2u);
  window_.Link(4, Point2{{0.09, 0.0}}, 5, Point2{{0.10, 0.0}});
  EXPECT_EQ(stats_.merges, 1u);
  window_.Flush();
  ASSERT_EQ(sink_.groups().size(), 2u);
  // Creation order: A first, then B (which received the merge).
  EXPECT_EQ(sink_.groups()[0], (std::vector<PointId>{0, 1}));
  EXPECT_EQ(sink_.groups()[1], (std::vector<PointId>{2, 3, 4, 5}));
}

TEST_F(GroupWindowTest, SubtreeGroupsJoinTheWindow) {
  Box<2> box(Point2{{0.0, 0.0}}, Point2{{0.02, 0.02}});
  window_.SubtreeGroup({10, 11, 12}, box);
  // A nearby link should merge into the subtree group.
  window_.Link(13, Point2{{0.03, 0.0}}, 14, Point2{{0.03, 0.02}});
  EXPECT_EQ(stats_.merges, 1u);
  window_.Flush();
  ASSERT_EQ(sink_.groups().size(), 1u);
  EXPECT_EQ(sink_.groups()[0].size(), 5u);
}

TEST_F(GroupWindowTest, SingletonSubtreeGroupIgnored) {
  Box<2> box(Point2{{0.0, 0.0}});
  window_.SubtreeGroup({42}, box);
  EXPECT_EQ(window_.live_groups(), 0u);
  window_.Flush();
  EXPECT_EQ(sink_.groups().size(), 0u);
}

TEST_F(GroupWindowTest, PromoteOnMergeReordersEviction) {
  // Three groups A, B, C fill the window. A merge into A with promotion
  // moves A to the most-recent slot, so the next new group evicts B.
  BoxWindow w(3, /*promote=*/true);
  w.window.Link(0, Point2{{0.0, 0.0}}, 1, Point2{{0.001, 0.0}});
  w.window.Link(2, Point2{{10.0, 0.0}}, 3, Point2{{10.001, 0.0}});
  w.window.Link(4, Point2{{20.0, 0.0}}, 5, Point2{{20.001, 0.0}});
  // Merge into A (promotes A to most recent).
  w.window.Link(0, Point2{{0.0, 0.0}}, 6, Point2{{0.002, 0.0}});
  EXPECT_EQ(w.stats.merges, 1u);
  // New far group evicts the oldest, which is now B (ids 2, 3).
  w.window.Link(7, Point2{{30.0, 0.0}}, 8, Point2{{30.001, 0.0}});
  ASSERT_EQ(w.sink.groups().size(), 1u);
  EXPECT_EQ(w.sink.groups()[0], (std::vector<PointId>{2, 3}));
}

TEST_F(GroupWindowTest, ImpliedLinkAccounting) {
  Box<2> box(Point2{{0.0, 0.0}}, Point2{{0.02, 0.02}});
  window_.SubtreeGroup({1, 2, 3, 4}, box);  // implies C(4,2)=6 links
  window_.Link(10, Point2{{5.0, 0.0}}, 11, Point2{{5.001, 0.0}});
  window_.Flush();
  EXPECT_EQ(stats_.ImpliedLinkUpperBound(), 6u + 1u);
}

TEST(GroupWindowPassThroughTest, SsjAndNcsjWriteEveryRecord) {
  // Outside CSJ the window holds nothing: links and subtree groups reach the
  // sink as they arrive, singletons are dropped, nothing is merged.
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ}) {
    BoxWindow w(3, /*promote=*/false, algorithm);
    w.window.Link(0, Point2{{0.0, 0.0}}, 1, Point2{{0.01, 0.0}});
    w.window.Link(1, Point2{{0.01, 0.0}}, 2, Point2{{0.02, 0.0}});
    w.window.SubtreeGroup({3, 4, 5}, Box<2>(Point2{{0.5, 0.5}}));
    w.window.SubtreeGroup({6}, Box<2>(Point2{{0.9, 0.9}}));
    EXPECT_EQ(w.window.live_groups(), 0u);
    w.window.Flush();
    EXPECT_EQ(w.sink.links(), (LinkList{{0, 1}, {1, 2}}));
    ASSERT_EQ(w.sink.groups().size(), 1u);
    EXPECT_EQ(w.sink.groups()[0], (std::vector<PointId>{3, 4, 5}));
    EXPECT_EQ(w.stats.merge_attempts, 0u);
    EXPECT_EQ(w.stats.ImpliedLinkUpperBound(), 2u + 3u);
  }
}

/// Scalars under |a - b|, as a metric for ball-shaped groups.
struct AbsMetric {
  double operator()(double a, double b) const { return std::abs(a - b); }
};

/// A ball window (eps = 1, so radius 0.5) over scalars.
struct BallWindow {
  explicit BallWindow(int capacity, bool promote = false)
      : window(BallShape<double, AbsMetric>(metric, 1.0), JoinAlgorithm::kCSJ,
               capacity, promote, &sink, &stats, /*write_timer=*/nullptr) {}

  AbsMetric metric;
  MemorySink sink{4};
  JoinStats stats;
  GroupWindow<BallShape<double, AbsMetric>> window;
};

TEST(BallWindowTest, LinksMergeWithinHalfEpsOfTheCentre) {
  BallWindow w(3);
  w.window.Link(0, 0.0, 1, 0.4);  // founds a ball centred on 0.0
  w.window.Link(1, 0.4, 2, -0.5);  // both within 0.5 of the centre
  EXPECT_EQ(w.stats.merges, 1u);
  w.window.Link(1, 0.4, 3, 0.8);  // 0.8 is outside: a new ball on 0.4
  EXPECT_EQ(w.window.live_groups(), 2u);
  w.window.Flush();
  ASSERT_EQ(w.sink.groups().size(), 2u);
  EXPECT_EQ(w.sink.groups()[0], (std::vector<PointId>{0, 1, 2}));
  EXPECT_EQ(w.sink.groups()[1], (std::vector<PointId>{1, 3}));
  // Each founding costs one distance, each merge trial one or two: the
  // merge tests 0.4 and -0.5 (2), the failed trial 0.4 and 0.8 (2), and
  // the two foundings 1 each.
  EXPECT_EQ(w.stats.distance_computations, 6u);
  EXPECT_EQ(w.stats.merge_attempts, 2u);
}

TEST(BallWindowTest, LinkWiderThanHalfEpsStaysAPlainLink) {
  BallWindow w(3);
  w.window.Link(0, 0.0, 1, 0.9);  // no ball of radius 0.5 centred on 0.0
  EXPECT_EQ(w.window.live_groups(), 0u);
  EXPECT_EQ(w.sink.links(), (LinkList{{0, 1}}));
  EXPECT_EQ(w.stats.distance_computations, 1u);
  EXPECT_EQ(w.stats.ImpliedLinkUpperBound(), 1u);
}

TEST(BallWindowTest, FrozenSubtreeGroupsTakeNoMergeAttempts) {
  BallWindow w(3);
  const BallShape<double, AbsMetric>& shape = w.window.shape();
  // A pair of nodes, and a node wider than eps/2: both frozen.
  w.window.SubtreeGroup({0, 1}, shape.Subtree(0.0, 0.1, /*one_node=*/false));
  w.window.SubtreeGroup({2, 3}, shape.Subtree(0.0, 0.6, /*one_node=*/true));
  w.window.Link(4, 0.0, 5, 0.1);
  EXPECT_EQ(w.stats.merge_attempts, 0u);
  EXPECT_EQ(w.window.live_groups(), 3u);
  // One node within eps/2 takes merges.
  w.window.SubtreeGroup({6, 7}, shape.Subtree(0.0, 0.5, /*one_node=*/true));
  w.window.Link(8, 0.2, 9, 0.3);
  EXPECT_EQ(w.stats.merge_attempts, 1u);
  EXPECT_EQ(w.stats.merges, 1u);
  w.window.Flush();
  EXPECT_EQ(w.sink.groups().back(), (std::vector<PointId>{6, 7, 8, 9}));
}

TEST(BallWindowTest, PromoteOnMergeReordersEviction) {
  BallWindow w(3, /*promote=*/true);
  w.window.Link(0, 0.0, 1, 0.1);
  w.window.Link(2, 10.0, 3, 10.1);
  w.window.Link(4, 20.0, 5, 20.1);
  w.window.Link(0, 0.0, 6, 0.2);  // merges into the oldest and promotes it
  EXPECT_EQ(w.stats.merges, 1u);
  w.window.Link(7, 30.0, 8, 30.1);
  ASSERT_EQ(w.sink.groups().size(), 1u);
  EXPECT_EQ(w.sink.groups()[0], (std::vector<PointId>{2, 3}));
}

TEST(GroupInvariantTest, WindowGroupsAlwaysWithinEps) {
  // Stochastic invariant check: after any sequence of merges, every live or
  // emitted group has MBR diagonal <= eps (the Theorem 2 machinery), with
  // and without promotion.
  const double eps = 0.05;
  for (const bool promote : {false, true}) {
    Rng rng(2718);
    BoxWindow w(7, promote, JoinAlgorithm::kCSJ, eps);
    std::vector<Point2> points;
    for (int i = 0; i < 4000; ++i) {
      Point2 a{{rng.UniformDouble(), rng.UniformDouble()}};
      // Partner within eps most of the time, occasionally farther (those
      // links would not be produced by a real join; keep them in range).
      Point2 b{{a[0] + rng.UniformDouble(-eps / 2, eps / 2),
                a[1] + rng.UniformDouble(-eps / 2, eps / 2)}};
      const PointId ia = static_cast<PointId>(points.size());
      points.push_back(a);
      const PointId ib = static_cast<PointId>(points.size());
      points.push_back(b);
      w.window.Link(ia, a, ib, b);
    }
    w.window.Flush();
    for (const auto& group : w.sink.groups()) {
      Box<2> box;
      for (PointId id : group) box.Extend(points[id]);
      ASSERT_LE(box.Diagonal(), eps + 1e-12);
    }
  }
}

TEST(GroupWindowDeathTest, ZeroCapacityDies) {
  MemorySink sink(1);
  JoinStats stats;
  EXPECT_DEATH(GroupWindow<BoxShape<2>>(BoxShape<2>(0.1), JoinAlgorithm::kCSJ,
                                        0, false, &sink, &stats, nullptr),
               "capacity");
}

}  // namespace
}  // namespace csj
