#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/group.h"
#include "core/join_stats.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/rstar_tree.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/random.h"

namespace csj {
namespace {

using LinkList = std::vector<std::pair<PointId, PointId>>;
using IdList = std::vector<PointId>;

Box<2> LinkBox(const Point2& a, const Point2& b) {
  Box<2> box;
  box.Extend(a);
  box.Extend(b);
  return box;
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

// A group's members stay in insertion order and deduplicated, and a failed
// extension commits nothing; seen through the window that holds the group.

TEST(GroupTest, FromLinkHasBothMembers) {
  const Point2 a{{0.0, 0.0}}, b{{0.01, 0.0}};
  EXPECT_EQ(*BoxShape<2>(0.1).Found(a, b, nullptr), LinkBox(a, b));
  BoxWindow w(3);
  w.window.Link(1, a, 2, b);
  EXPECT_EQ(w.window.live_groups(), 1u);
  w.window.Flush();
  EXPECT_EQ(w.sink.groups(), (std::vector<IdList>{{1, 2}}));
}

TEST(GroupTest, TryAddLinkCommitsWhenWithinEps) {
  BoxWindow w(3);
  w.window.Link(1, Point2{{0.0, 0.0}}, 2, Point2{{0.02, 0.0}});
  w.window.Link(2, Point2{{0.02, 0.0}}, 3, Point2{{0.04, 0.0}});
  EXPECT_EQ(w.stats.merges, 1u);
  w.window.Flush();
  // id 2 deduplicated
  EXPECT_EQ(w.sink.groups(), (std::vector<IdList>{{1, 2, 3}}));
}

TEST(GroupTest, TryAddLinkRollsBackOnFailure) {
  BoxWindow w(3, /*promote=*/false, JoinAlgorithm::kCSJ, /*epsilon=*/0.05);
  w.window.Link(1, Point2{{0.0, 0.0}}, 2, Point2{{0.02, 0.0}});
  // Extending to (0.2, 0) would blow the diagonal past eps: a new group.
  w.window.Link(2, Point2{{0.02, 0.0}}, 9, Point2{{0.2, 0.0}});
  EXPECT_EQ(w.stats.merges, 0u);
  EXPECT_EQ(w.window.live_groups(), 2u);
  // Fits the first group only if its box was left at [0, 0.02].
  w.window.Link(1, Point2{{0.0, 0.0}}, 4, Point2{{0.03, 0.0}});
  EXPECT_EQ(w.stats.merges, 1u);
  EXPECT_EQ(w.stats.merge_attempts, 3u);
  w.window.Flush();
  EXPECT_EQ(w.sink.groups(), (std::vector<IdList>{{1, 2, 4}, {2, 9}}));
}

TEST(GroupTest, FromSubtreeKeepsBox) {
  BoxWindow w(3, /*promote=*/false, JoinAlgorithm::kCSJ, /*epsilon=*/0.05);
  w.window.SubtreeGroup({5, 6, 7},
                        Box<2>(Point2{{0.0, 0.0}}, Point2{{0.03, 0.03}}));
  EXPECT_EQ(w.window.live_groups(), 1u);
  // Inside the box: merges. Past it, the diagonal exceeds eps.
  w.window.Link(5, Point2{{0.0, 0.0}}, 8, Point2{{0.03, 0.03}});
  w.window.Link(5, Point2{{0.0, 0.0}}, 9, Point2{{0.03, 0.045}});
  EXPECT_EQ(w.stats.merges, 1u);
  w.window.Flush();
  EXPECT_EQ(w.sink.groups(), (std::vector<IdList>{{5, 6, 7, 8}, {5, 9}}));
}

TEST(GroupTest, DedupAcrossManyMerges) {
  BoxWindow w(3);
  w.window.Link(0, Point2{{0.0, 0.0}}, 1, Point2{{0.001, 0.0}});
  for (int round = 0; round < 5; ++round) {
    for (PointId id = 0; id < 8; ++id) {
      w.window.Link(0, Point2{{0.0, 0.0}}, id, Point2{{0.001 * id, 0.0}});
    }
  }
  EXPECT_EQ(w.stats.merges, 40u);
  w.window.Flush();
  EXPECT_EQ(w.sink.groups(),
            (std::vector<IdList>{{0, 1, 2, 3, 4, 5, 6, 7}}));
}

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
  EXPECT_EQ(sink_.implied_links(), 6u + 1u);
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
    EXPECT_EQ(w.sink.implied_links(), 2u + 3u);
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
  EXPECT_EQ(w.sink.implied_links(), 1u);
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

/// The window as it was first written, as a reference model: a deque of
/// groups, each a member vector plus a std::set built on its first merge.
template <typename Shape>
class ReferenceWindow {
 public:
  using Item = typename Shape::Item;
  using Bound = typename Shape::Bound;

  ReferenceWindow(Shape shape, size_t capacity, bool promote, JoinSink* sink,
                  JoinStats* stats)
      : shape_(std::move(shape)),
        capacity_(capacity),
        promote_(promote),
        sink_(sink),
        stats_(stats) {}

  void Link(PointId id_a, const Item& a, PointId id_b, const Item& b) {
    for (size_t i = groups_.size(); i-- > 0;) {
      if (!Shape::Mergeable(groups_[i].bound)) continue;
      ++stats_->merge_attempts;
      if (!shape_.TryExtend(groups_[i].bound, a, b, stats_)) continue;
      ++stats_->merges;
      Add(groups_[i], id_a);
      Add(groups_[i], id_b);
      if (promote_) {
        RefGroup group = std::move(groups_[i]);
        groups_.erase(groups_.begin() + static_cast<long>(i));
        groups_.push_back(std::move(group));
      }
      return;
    }
    std::optional<Bound> bound = shape_.Found(a, b, stats_);
    if (!bound) {
      sink_->Link(id_a, id_b);
      return;
    }
    RefGroup group{*bound, {id_a}, {}};
    if (id_b != id_a) group.members.push_back(id_b);
    Push(std::move(group));
  }

  void SubtreeGroup(std::vector<PointId> members, Bound bound) {
    if (members.size() >= 2) Push(RefGroup{bound, std::move(members), {}});
  }

  void Flush() {
    while (!groups_.empty()) Evict();
  }

 private:
  struct RefGroup {
    Bound bound;
    std::vector<PointId> members;
    std::set<PointId> set;
  };

  static void Add(RefGroup& group, PointId id) {
    if (group.set.empty()) {
      group.set.insert(group.members.begin(), group.members.end());
    }
    if (group.set.insert(id).second) group.members.push_back(id);
  }

  void Push(RefGroup group) {
    groups_.push_back(std::move(group));
    if (groups_.size() > capacity_) Evict();
  }

  void Evict() {
    const std::vector<PointId>& members = groups_.front().members;
    // A self-link founds a singleton, which is not written.
    if (members.size() >= 2) sink_->Group(members);
    groups_.pop_front();
  }

  Shape shape_;
  size_t capacity_;
  bool promote_;
  JoinSink* sink_;
  JoinStats* stats_;
  std::deque<RefGroup> groups_;
};

/// Planar points under L2, as a metric for ball-shaped groups.
struct PlaneMetric {
  double operator()(const Point2& a, const Point2& b) const {
    return std::sqrt(SquaredDistance(a, b));
  }
};

/// One input of a window: a link (two ids) or a subtree group.
struct WindowOp {
  bool subtree = false;
  std::vector<PointId> ids;
};

/// A seeded stream of window inputs over `points` (id -> point, every id
/// inside a few clusters of radius about eps). It opens with a point that
/// joins two live groups and then merges into the older one, and mixes
/// repeated links, self-links, small subtree groups (some with a repeated
/// id, as a dual join of two id spaces gives) and one 10,000-member
/// subtree group that then takes merges. Ids 0 and 0xFFFFFFFF are in play.
std::vector<WindowOp> MakeWindowStream(std::map<PointId, Point2>* points,
                                       double eps, uint64_t seed) {
  Rng rng(seed);
  points->clear();
  std::vector<WindowOp> ops;
  // p joins A = {p, q}, then B = {p, s}, then merges into A with t.
  const PointId p = 0, q = 0xFFFFFFFF, s = 7, t = 8;
  (*points)[p] = Point2{{0.0, 0.0}};
  (*points)[q] = Point2{{-0.5 * eps, 0.0}};
  (*points)[s] = Point2{{0.8 * eps, 0.0}};
  (*points)[t] = Point2{{-0.45 * eps, 0.1 * eps}};
  ops.push_back({false, {p, q}});
  ops.push_back({false, {p, s}});
  ops.push_back({false, {p, t}});

  std::vector<std::vector<PointId>> clusters(6);
  PointId next = 100;
  for (size_t c = 0; c < clusters.size(); ++c) {
    const Point2 centre{{10.0 * eps * static_cast<double>(c), 0.0}};
    for (int i = 0; i < 40; ++i) {
      // Ids 0, 0xFFFFFFFF and 0xFFFFFFFE share the first cluster.
      constexpr PointId kEdgeIds[] = {0, 0xFFFFFFFF, 0xFFFFFFFE};
      const PointId id = c == 0 && i < 3 ? kEdgeIds[i] : next++;
      if (!points->contains(id)) {
        (*points)[id] = Point2{{centre[0] + rng.UniformDouble(-0.4, 0.4) * eps,
                                rng.UniformDouble(-0.4, 0.4) * eps}};
      }
      clusters[c].push_back(id);
    }
  }
  // The big subtree group: 10,000 ids packed well inside eps.
  std::vector<PointId> big;
  for (PointId i = 0; i < 10000; ++i) {
    const PointId id = 1000000 + i;
    (*points)[id] = Point2{{-20.0 * eps + 1e-6 * eps * i, 0.0}};
    big.push_back(id);
  }

  const auto pick = [&](const std::vector<PointId>& ids) {
    return ids[rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1)];
  };
  for (int i = 0; i < 4000; ++i) {
    if (i == 2000) ops.push_back({true, big});
    if (i > 2000 && i < 2300) {
      ops.push_back({false, {pick(big), pick(big)}});
      continue;
    }
    const double roll = rng.UniformDouble();
    const std::vector<PointId>& cluster = clusters[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(clusters.size()) - 1))];
    if (roll < 0.05) {
      const WindowOp last = ops.back();
      ops.push_back(last);  // a repeated input
    } else if (roll < 0.10) {
      const PointId id = pick(cluster);
      ops.push_back({false, {id, id}});  // a self-link
    } else if (roll < 0.15) {
      WindowOp group{true, {}};
      const int64_t n = rng.UniformInt(1, 12);
      for (int64_t k = 0; k < n; ++k) group.ids.push_back(pick(cluster));
      ops.push_back(std::move(group));
    } else {
      ops.push_back({false, {pick(cluster), pick(cluster)}});
    }
  }
  return ops;
}

/// Feeds `ops` to the window and to the reference model, and checks that
/// they write the same records at the same points of the stream, with the
/// same merge work and implied links.
template <typename Shape, typename BoundOf>
void ExpectWindowMatchesReference(const Shape& shape, int g, bool promote,
                                  const std::map<PointId, Point2>& points,
                                  const std::vector<WindowOp>& ops,
                                  BoundOf bound_of) {
  SCOPED_TRACE(StrFormat("g=%d promote=%d", g, promote ? 1 : 0));
  MemorySink sink(10), ref_sink(10);
  JoinStats stats, ref_stats;
  GroupWindow<Shape> window(shape, JoinAlgorithm::kCSJ, g, promote, &sink,
                            &stats, /*write_timer=*/nullptr);
  ReferenceWindow<Shape> ref(shape, static_cast<size_t>(g), promote,
                             &ref_sink, &ref_stats);
  for (size_t i = 0; i < ops.size(); ++i) {
    const WindowOp& op = ops[i];
    if (op.subtree) {
      window.SubtreeGroup(op.ids, bound_of(op.ids));
      ref.SubtreeGroup(op.ids, bound_of(op.ids));
    } else {
      const Point2& a = points.at(op.ids[0]);
      const Point2& b = points.at(op.ids[1]);
      window.Link(op.ids[0], a, op.ids[1], b);
      ref.Link(op.ids[0], a, op.ids[1], b);
    }
    ASSERT_EQ(sink.groups().size(), ref_sink.groups().size()) << "op " << i;
    ASSERT_EQ(sink.links().size(), ref_sink.links().size()) << "op " << i;
  }
  window.Flush();
  ref.Flush();
  EXPECT_EQ(sink.links(), ref_sink.links());
  EXPECT_EQ(sink.groups(), ref_sink.groups());
  EXPECT_EQ(stats.merges, ref_stats.merges);
  EXPECT_EQ(stats.merge_attempts, ref_stats.merge_attempts);
  EXPECT_EQ(stats.distance_computations, ref_stats.distance_computations);
  EXPECT_EQ(sink.implied_links(), ref_sink.implied_links());
  EXPECT_GT(stats.merges, 0u);
}

TEST(GroupWindowReferenceTest, BoxWindowMatchesTheReferenceModel) {
  const double eps = 0.1;
  for (const uint64_t seed : {1u, 2u, 3u}) {
    std::map<PointId, Point2> points;
    const std::vector<WindowOp> ops = MakeWindowStream(&points, eps, seed);
    const auto bound_of = [&](const std::vector<PointId>& ids) {
      Box<2> box;
      for (PointId id : ids) box.Extend(points.at(id));
      return box;
    };
    for (const int g : {1, 2, 10, 100}) {
      for (const bool promote : {false, true}) {
        ExpectWindowMatchesReference(BoxShape<2>(eps), g, promote, points,
                                     ops, bound_of);
      }
    }
  }
}

TEST(GroupWindowReferenceTest, BallWindowMatchesTheReferenceModel) {
  const double eps = 0.1;
  const PlaneMetric metric;
  const BallShape<Point2, PlaneMetric> shape(metric, eps);
  for (const uint64_t seed : {4u, 5u, 6u}) {
    std::map<PointId, Point2> points;
    const std::vector<WindowOp> ops = MakeWindowStream(&points, eps, seed);
    // Centred on the first member; one node unless the group is small and
    // odd-sized, which freezes it.
    const auto bound_of = [&](const std::vector<PointId>& ids) {
      const Point2& centre = points.at(ids[0]);
      double radius = 0.0;
      for (PointId id : ids) {
        radius = std::max(radius, metric(centre, points.at(id)));
      }
      return shape.Subtree(centre, radius,
                           /*one_node=*/ids.size() > 6 || ids.size() % 2 == 0);
    };
    for (const int g : {1, 2, 10, 100}) {
      for (const bool promote : {false, true}) {
        ExpectWindowMatchesReference(shape, g, promote, points, ops,
                                     bound_of);
      }
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
