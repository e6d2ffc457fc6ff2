#include <gtest/gtest.h>

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

TEST(GroupTest, FromLinkHasBothMembers) {
  Group<2> group(1, Point2{{0.0, 0.0}}, 2, Point2{{0.01, 0.0}});
  EXPECT_EQ(group.size(), 2u);
  EXPECT_LE(group.box().Diagonal(), 0.011);
}

TEST(GroupTest, TryAddLinkCommitsWhenWithinEps) {
  Group<2> group(1, Point2{{0.0, 0.0}}, 2, Point2{{0.02, 0.0}});
  const double eps = 0.1;
  EXPECT_TRUE(group.TryAddLink(eps * eps, 2, Point2{{0.02, 0.0}}, 3,
                               Point2{{0.04, 0.0}}));
  EXPECT_EQ(group.size(), 3u);  // id 2 deduplicated
  EXPECT_EQ(group.members(), (std::vector<PointId>{1, 2, 3}));
}

TEST(GroupTest, TryAddLinkRollsBackOnFailure) {
  Group<2> group(1, Point2{{0.0, 0.0}}, 2, Point2{{0.02, 0.0}});
  const Box<2> before = group.box();
  const double eps = 0.05;
  // Extending to (0.2, 0) would blow the diagonal past eps.
  EXPECT_FALSE(group.TryAddLink(eps * eps, 2, Point2{{0.02, 0.0}}, 9,
                                Point2{{0.2, 0.0}}));
  EXPECT_EQ(group.size(), 2u);
  EXPECT_EQ(group.box(), before);  // MBR extension undone
}

TEST(GroupTest, FromSubtreeKeepsBox) {
  Box<2> box(Point2{{0.0, 0.0}}, Point2{{0.03, 0.04}});
  Group<2> group({5, 6, 7}, box);
  EXPECT_EQ(group.size(), 3u);
  EXPECT_EQ(group.box(), box);
}

TEST(GroupTest, DedupAcrossManyMerges) {
  Group<2> group(0, Point2{{0.0, 0.0}}, 1, Point2{{0.001, 0.0}});
  const double eps2 = 0.1 * 0.1;
  for (int round = 0; round < 5; ++round) {
    for (PointId id = 0; id < 8; ++id) {
      group.TryAddLink(eps2, 0, Point2{{0.0, 0.0}}, id,
                       Point2{{0.001 * id, 0.0}});
    }
  }
  EXPECT_EQ(group.size(), 8u);
}

class GroupWindowTest : public testing::Test {
 protected:
  GroupWindowTest() : sink_(2), window_(3, /*epsilon=*/0.1, &sink_, &stats_,
                                        /*write_timer=*/nullptr) {}

  MemorySink sink_;
  JoinStats stats_;
  GroupWindow<2> window_;
};

TEST_F(GroupWindowTest, EvictsOldestBeyondCapacity) {
  // Four far-apart links -> four groups; capacity 3 evicts the first.
  for (int i = 0; i < 4; ++i) {
    const double x = i * 10.0;
    window_.MergeLink(static_cast<PointId>(2 * i), Point2{{x, 0.0}},
                      static_cast<PointId>(2 * i + 1), Point2{{x + 0.01, 0.0}},
                      /*promote_on_merge=*/false);
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
  window_.MergeLink(0, Point2{{0.0, 0.0}}, 1, Point2{{0.01, 0.0}}, false);
  window_.MergeLink(1, Point2{{0.01, 0.0}}, 2, Point2{{0.02, 0.0}}, false);
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
  window_.MergeLink(0, Point2{{0.0, 0.0}}, 1, Point2{{0.05, 0.0}}, false);
  window_.MergeLink(2, Point2{{0.12, 0.0}}, 3, Point2{{0.17, 0.0}}, false);
  EXPECT_EQ(window_.live_groups(), 2u);
  window_.MergeLink(4, Point2{{0.09, 0.0}}, 5, Point2{{0.10, 0.0}}, false);
  EXPECT_EQ(stats_.merges, 1u);
  window_.Flush();
  ASSERT_EQ(sink_.groups().size(), 2u);
  // Creation order: A first, then B (which received the merge).
  EXPECT_EQ(sink_.groups()[0], (std::vector<PointId>{0, 1}));
  EXPECT_EQ(sink_.groups()[1], (std::vector<PointId>{2, 3, 4, 5}));
}

TEST_F(GroupWindowTest, SubtreeGroupsJoinTheWindow) {
  Box<2> box(Point2{{0.0, 0.0}}, Point2{{0.02, 0.02}});
  window_.AddSubtreeGroup({10, 11, 12}, box);
  // A nearby link should merge into the subtree group.
  window_.MergeLink(13, Point2{{0.03, 0.0}}, 14, Point2{{0.03, 0.02}}, false);
  EXPECT_EQ(stats_.merges, 1u);
  window_.Flush();
  ASSERT_EQ(sink_.groups().size(), 1u);
  EXPECT_EQ(sink_.groups()[0].size(), 5u);
}

TEST_F(GroupWindowTest, SingletonSubtreeGroupIgnored) {
  Box<2> box(Point2{{0.0, 0.0}});
  window_.AddSubtreeGroup({42}, box);
  EXPECT_EQ(window_.live_groups(), 0u);
  window_.Flush();
  EXPECT_EQ(sink_.groups().size(), 0u);
}

TEST_F(GroupWindowTest, PromoteOnMergeReordersEviction) {
  // Three groups A, B, C fill the window. A merge into A with promotion
  // moves A to the most-recent slot, so the next new group evicts B.
  window_.MergeLink(0, Point2{{0.0, 0.0}}, 1, Point2{{0.001, 0.0}}, true);
  window_.MergeLink(2, Point2{{10.0, 0.0}}, 3, Point2{{10.001, 0.0}}, true);
  window_.MergeLink(4, Point2{{20.0, 0.0}}, 5, Point2{{20.001, 0.0}}, true);
  // Merge into A (promotes A to most recent).
  window_.MergeLink(0, Point2{{0.0, 0.0}}, 6, Point2{{0.002, 0.0}}, true);
  EXPECT_EQ(stats_.merges, 1u);
  // New far group evicts the oldest, which is now B (ids 2, 3).
  window_.MergeLink(7, Point2{{30.0, 0.0}}, 8, Point2{{30.001, 0.0}}, true);
  ASSERT_EQ(sink_.groups().size(), 1u);
  EXPECT_EQ(sink_.groups()[0], (std::vector<PointId>{2, 3}));
}

TEST_F(GroupWindowTest, ImpliedLinkAccounting) {
  Box<2> box(Point2{{0.0, 0.0}}, Point2{{0.02, 0.02}});
  window_.AddSubtreeGroup({1, 2, 3, 4}, box);  // implies C(4,2)=6 links
  window_.MergeLink(10, Point2{{5.0, 0.0}}, 11, Point2{{5.001, 0.0}}, false);
  window_.Flush();
  EXPECT_EQ(stats_.ImpliedLinkUpperBound(), 6u + 1u);
}


TEST_F(GroupWindowTest, BestFitPicksTightestGroup) {
  // Group A spans [0, 0.05], group B spans [0.12, 0.17] (eps = 0.1). The
  // probe link [0.09, 0.10] fits both; first-fit picks the most recent (B),
  // best-fit must pick B too here (diag 0.08 < 0.10)... so distinguish with
  // a link at [0.05, 0.06]: extending A gives diag 0.06, extending B gives
  // diag 0.12 (> eps, not viable). Then a link at [0.085, 0.095]: A ->
  // 0.095, B -> 0.085; best-fit picks B while first-fit ALSO reaches B
  // first. Use a case where recency and tightness disagree: create B then
  // A', so the most recent is A'.
  window_.MergeLink(0, Point2{{0.12, 0.0}}, 1, Point2{{0.17, 0.0}}, false);
  window_.MergeLink(2, Point2{{0.0, 0.0}}, 3, Point2{{0.05, 0.0}}, false);
  // Probe [0.09, 0.10]: extending the most recent (A' = [0, 0.05]) gives
  // diagonal 0.10 (viable); extending B gives 0.08 (tighter).
  window_.MergeLinkBestFit(4, Point2{{0.09, 0.0}}, 5, Point2{{0.10, 0.0}},
                           false);
  EXPECT_EQ(stats_.merges, 1u);
  window_.Flush();
  ASSERT_EQ(sink_.groups().size(), 2u);
  // B (created first) received the link under best-fit.
  EXPECT_EQ(sink_.groups()[0], (std::vector<PointId>{0, 1, 4, 5}));
  EXPECT_EQ(sink_.groups()[1], (std::vector<PointId>{2, 3}));
}

TEST_F(GroupWindowTest, BestFitFallsBackToNewGroup) {
  window_.MergeLink(0, Point2{{0.0, 0.0}}, 1, Point2{{0.01, 0.0}}, false);
  // A far link fits nothing: best-fit must open a new group.
  window_.MergeLinkBestFit(2, Point2{{5.0, 0.0}}, 3, Point2{{5.01, 0.0}},
                           false);
  EXPECT_EQ(stats_.merges, 0u);
  EXPECT_EQ(window_.live_groups(), 2u);
}

TEST(GroupInvariantTest, WindowGroupsAlwaysWithinEps) {
  // Stochastic invariant check: after any sequence of merges, every live or
  // emitted group has MBR diagonal <= eps (the Theorem 2 machinery).
  Rng rng(2718);
  const double eps = 0.05;
  MemorySink sink(4);
  JoinStats stats;
  GroupWindow<2> window(7, eps, &sink, &stats, nullptr);
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
    window.MergeLink(ia, a, ib, b, rng.Bernoulli(0.5));
  }
  window.Flush();
  for (const auto& group : sink.groups()) {
    Box<2> box;
    for (PointId id : group) box.Extend(points[id]);
    ASSERT_LE(box.Diagonal(), eps + 1e-12);
  }
}

TEST(GroupWindowDeathTest, ZeroCapacityDies) {
  MemorySink sink(1);
  JoinStats stats;
  EXPECT_DEATH(GroupWindow<2>(0, 0.1, &sink, &stats, nullptr), "capacity");
}

}  // namespace
}  // namespace csj
