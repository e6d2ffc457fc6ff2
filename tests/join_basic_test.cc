#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/brute.h"
#include "core/expand.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "index/rstar_tree.h"

namespace csj {
namespace {

/// Builds an R*-tree with a small fanout so tiny examples still split.
RStarTree<2> SmallTree(const std::vector<Entry<2>>& entries) {
  RStarOptions options;
  options.max_fanout = 4;
  options.min_fanout = 2;
  RStarTree<2> tree(options);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  return tree;
}

RStarTree<1> LineTree(const std::vector<double>& coords) {
  RStarOptions options;
  options.max_fanout = 4;
  options.min_fanout = 2;
  RStarTree<1> tree(options);
  for (size_t i = 0; i < coords.size(); ++i) {
    tree.Insert(static_cast<PointId>(i + 1), Point<1>{{coords[i]}});
  }
  return tree;
}

std::vector<Entry<1>> LineEntries(const std::vector<double>& coords) {
  std::vector<Entry<1>> entries;
  for (size_t i = 0; i < coords.size(); ++i) {
    entries.push_back(Entry<1>{static_cast<PointId>(i + 1),
                               Point<1>{{coords[i]}}});
  }
  return entries;
}

// --- Figure 2: integers 1..5 on the line, eps = 3 ---------------------------

TEST(JoinBasicTest, Figure2LineExampleSSJ) {
  // A standard similarity join returns 9 links: all pairs except (1,5).
  const auto entries = LineEntries({1, 2, 3, 4, 5});
  auto tree = LineTree({1, 2, 3, 4, 5});
  JoinOptions options;
  options.epsilon = 3.0;
  MemorySink sink(1);
  const JoinStats stats = StandardSimilarityJoin(tree, options, &sink);
  EXPECT_EQ(stats.links, 9u);
  EXPECT_EQ(stats.groups, 0u);
  EXPECT_EQ(ExpandSelfJoin(sink), BruteForceSelfJoin(entries, 3.0));
}

TEST(JoinBasicTest, Figure2LineExampleCompactIsLossless) {
  const auto entries = LineEntries({1, 2, 3, 4, 5});
  auto tree = LineTree({1, 2, 3, 4, 5});
  JoinOptions options;
  options.epsilon = 3.0;
  for (auto algo : {JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ}) {
    MemorySink sink(1);
    RunSelfJoin(algo, tree, options, &sink);
    const auto report =
        CompareLinkSets(ExpandSelfJoin(sink), BruteForceSelfJoin(entries, 3.0));
    EXPECT_TRUE(report.lossless()) << JoinAlgorithmName(algo) << ": "
                                   << report.ToString();
  }
}

TEST(JoinBasicTest, Figure2CompactOutputSmallerThanSSJ) {
  auto tree = LineTree({1, 2, 3, 4, 5});
  JoinOptions options;
  options.epsilon = 3.0;
  CountingSink ssj_sink(1);
  StandardSimilarityJoin(tree, options, &ssj_sink);
  CountingSink csj_sink(1);
  CompactSimilarityJoin(tree, options, &csj_sink);
  // The paper reports ~50% savings for this example (9 links -> 3 groups);
  // exact grouping depends on tree shape, but compact must not be larger.
  EXPECT_LE(csj_sink.bytes(), ssj_sink.bytes());
}

// --- Section V-B: 10 points on the line, eps = 7 -----------------------------

TEST(JoinBasicTest, SectionVBOrderingExampleIsLossless) {
  std::vector<double> coords;
  for (int i = 1; i <= 10; ++i) coords.push_back(i);
  const auto entries = LineEntries(coords);
  auto tree = LineTree(coords);
  JoinOptions options;
  options.epsilon = 7.0;
  for (int g : {1, 3, 10}) {
    options.window_size = g;
    MemorySink sink(2);
    CompactSimilarityJoin(tree, options, &sink);
    const auto report =
        CompareLinkSets(ExpandSelfJoin(sink), BruteForceSelfJoin(entries, 7.0));
    EXPECT_TRUE(report.lossless()) << "g=" << g << ": " << report.ToString();
  }
}

// --- Figure 1: 7 points, clusters and a bridge --------------------------------

std::vector<Entry<2>> Figure1Points() {
  // Four points in a tight cluster, point 5 near point 4, and an isolated
  // pair {6, 7} — the structure of the paper's Figure 1.
  return {
      {1, Point2{{0.10, 0.10}}}, {2, Point2{{0.14, 0.10}}},
      {3, Point2{{0.10, 0.14}}}, {4, Point2{{0.13, 0.13}}},
      {5, Point2{{0.18, 0.16}}}, {6, Point2{{0.60, 0.60}}},
      {7, Point2{{0.63, 0.62}}},
  };
}

TEST(JoinBasicTest, Figure1AllAlgorithmsLossless) {
  const auto entries = Figure1Points();
  auto tree = SmallTree(entries);
  JoinOptions options;
  options.epsilon = 0.07;
  const auto reference = BruteForceSelfJoin(entries, options.epsilon);
  ASSERT_GT(reference.size(), 0u);
  for (auto algo :
       {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ}) {
    MemorySink sink(1);
    RunSelfJoin(algo, tree, options, &sink);
    const auto report = CompareLinkSets(ExpandSelfJoin(sink), reference);
    EXPECT_TRUE(report.lossless()) << JoinAlgorithmName(algo) << ": "
                                   << report.ToString();
  }
}

TEST(JoinBasicTest, GroupsOnlyContainMutuallyCloseMembers) {
  // Theorem 2 (correctness) spot check: every pair inside every emitted
  // group satisfies the range.
  const auto entries = Figure1Points();
  auto tree = SmallTree(entries);
  JoinOptions options;
  options.epsilon = 0.07;
  MemorySink sink(1);
  CompactSimilarityJoin(tree, options, &sink);
  for (const auto& group : sink.groups()) {
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        const auto& p1 = entries[group[i] - 1].point;
        const auto& p2 = entries[group[j] - 1].point;
        EXPECT_LE(Distance(p1, p2), options.epsilon + 1e-12);
      }
    }
  }
}

// --- Edge cases -----------------------------------------------------------------

TEST(JoinBasicTest, EmptyTreeProducesNothing) {
  RStarTree<2> tree;
  JoinOptions options;
  options.epsilon = 0.5;
  MemorySink sink(1);
  const JoinStats stats = CompactSimilarityJoin(tree, options, &sink);
  EXPECT_EQ(stats.links, 0u);
  EXPECT_EQ(stats.groups, 0u);
  EXPECT_EQ(stats.output_bytes, 0u);
}

TEST(JoinBasicTest, SinglePointProducesNothing) {
  RStarTree<2> tree;
  tree.Insert(0, Point2{{0.5, 0.5}});
  JoinOptions options;
  options.epsilon = 0.5;
  MemorySink sink(1);
  const JoinStats stats = NaiveCompactJoin(tree, options, &sink);
  EXPECT_EQ(stats.links + stats.groups, 0u);
}

TEST(JoinBasicTest, TwoFarPointsProduceNothing) {
  RStarTree<2> tree;
  tree.Insert(0, Point2{{0.0, 0.0}});
  tree.Insert(1, Point2{{1.0, 1.0}});
  JoinOptions options;
  options.epsilon = 0.1;
  MemorySink sink(1);
  for (auto algo :
       {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ}) {
    const JoinStats stats = RunSelfJoin(algo, tree, options, &sink);
    EXPECT_EQ(stats.links + stats.groups, 0u) << JoinAlgorithmName(algo);
  }
}

TEST(JoinBasicTest, TwoClosePointsProduceOneUnit) {
  RStarTree<2> tree;
  tree.Insert(0, Point2{{0.50, 0.50}});
  tree.Insert(1, Point2{{0.52, 0.50}});
  JoinOptions options;
  options.epsilon = 0.1;
  {
    MemorySink sink(1);
    StandardSimilarityJoin(tree, options, &sink);
    EXPECT_EQ(sink.num_links(), 1u);
  }
  {
    MemorySink sink(1);
    CompactSimilarityJoin(tree, options, &sink);
    // One group of two (the whole root qualifies under the early stop).
    EXPECT_EQ(sink.num_links(), 0u);
    ASSERT_EQ(sink.num_groups(), 1u);
    EXPECT_EQ(sink.groups()[0].size(), 2u);
  }
}

TEST(JoinBasicTest, ExactlyEpsilonApartIsIncluded) {
  // The predicate is closed: d == eps is a link.
  RStarTree<2> tree;
  tree.Insert(0, Point2{{0.0, 0.0}});
  tree.Insert(1, Point2{{0.1, 0.0}});
  JoinOptions options;
  options.epsilon = 0.1;
  MemorySink sink(1);
  StandardSimilarityJoin(tree, options, &sink);
  EXPECT_EQ(sink.num_links(), 1u);
}

TEST(JoinBasicTest, DuplicatePointsAreLinked) {
  RStarTree<2> tree;
  tree.Insert(0, Point2{{0.3, 0.3}});
  tree.Insert(1, Point2{{0.3, 0.3}});
  tree.Insert(2, Point2{{0.3, 0.3}});
  JoinOptions options;
  options.epsilon = 0.01;
  MemorySink sink(1);
  CompactSimilarityJoin(tree, options, &sink);
  const auto links = ExpandSelfJoin(sink);
  EXPECT_EQ(links.size(), 3u);  // all three pairs
}

// --- Stats and accounting ------------------------------------------------------

TEST(JoinBasicTest, StatsReflectOutput) {
  const auto entries = Figure1Points();
  auto tree = SmallTree(entries);
  JoinOptions options;
  options.epsilon = 0.07;
  CountingSink sink(1);
  const JoinStats stats = CompactSimilarityJoin(tree, options, &sink);
  EXPECT_EQ(stats.links, sink.num_links());
  EXPECT_EQ(stats.groups, sink.num_groups());
  EXPECT_EQ(stats.output_bytes, sink.bytes());
  EXPECT_EQ(stats.algorithm, JoinAlgorithm::kCSJ);
  EXPECT_DOUBLE_EQ(stats.epsilon, 0.07);
  EXPECT_GT(stats.elapsed_seconds, 0.0);
  EXPECT_GT(stats.ImpliedLinkUpperBound(), 0u);
}

TEST(JoinBasicTest, TrackerCountsNodeAccesses) {
  const auto entries = Figure1Points();
  auto tree = SmallTree(entries);
  NodeAccessTracker tracker(/*nodes_per_page=*/2, /*cache_pages=*/4);
  JoinOptions options;
  options.epsilon = 0.07;
  options.tracker = &tracker;
  CountingSink sink(1);
  const JoinStats stats = NaiveCompactJoin(tree, options, &sink);
  EXPECT_GT(stats.node_accesses, 0u);
  EXPECT_GT(stats.page_requests, 0u);
  EXPECT_GE(stats.page_requests, stats.page_disk_reads);
}

TEST(JoinBasicTest, WriteTimeMeasurementTogglable) {
  const auto entries = Figure1Points();
  auto tree = SmallTree(entries);
  JoinOptions options;
  options.epsilon = 0.07;
  options.measure_write_time = true;
  CountingSink sink(1);
  const JoinStats stats = CompactSimilarityJoin(tree, options, &sink);
  EXPECT_GE(stats.write_seconds, 0.0);
  EXPECT_LE(stats.write_seconds, stats.elapsed_seconds + 1e-3);
}

TEST(JoinBasicTest, InvalidEpsilonDies) {
  RStarTree<2> tree;
  JoinOptions options;
  options.epsilon = 0.0;
  CountingSink sink(1);
  EXPECT_DEATH(StandardSimilarityJoin(tree, options, &sink), "epsilon");
}

// --- Window behaviour -------------------------------------------------------------

TEST(JoinBasicTest, LargerWindowNeverProducesMoreBytesOnLineData) {
  // On the Section V-B line example, bigger windows can only help (or tie).
  std::vector<double> coords;
  for (int i = 1; i <= 40; ++i) coords.push_back(i);
  auto tree = LineTree(coords);
  JoinOptions options;
  options.epsilon = 7.0;
  uint64_t previous = ~uint64_t{0};
  for (int g : {1, 2, 5, 10, 20}) {
    options.window_size = g;
    CountingSink sink(2);
    CompactSimilarityJoin(tree, options, &sink);
    EXPECT_LE(sink.bytes(), previous) << "g=" << g;
    previous = sink.bytes();
  }
}

TEST(JoinBasicTest, PromoteOnMergeStillLossless) {
  const auto entries = Figure1Points();
  auto tree = SmallTree(entries);
  JoinOptions options;
  options.epsilon = 0.07;
  options.promote_on_merge = true;
  MemorySink sink(1);
  CompactSimilarityJoin(tree, options, &sink);
  EXPECT_TRUE(CompareLinkSets(ExpandSelfJoin(sink),
                              BruteForceSelfJoin(entries, options.epsilon))
                  .lossless());
}

TEST(JoinBasicTest, EarlyStopDisabledStillLossless) {
  const auto entries = Figure1Points();
  auto tree = SmallTree(entries);
  JoinOptions options;
  options.epsilon = 0.07;
  options.early_stop = false;
  MemorySink sink(1);
  const JoinStats stats = CompactSimilarityJoin(tree, options, &sink);
  EXPECT_EQ(stats.early_stops, 0u);
  EXPECT_TRUE(CompareLinkSets(ExpandSelfJoin(sink),
                              BruteForceSelfJoin(entries, options.epsilon))
                  .lossless());
}

}  // namespace
}  // namespace csj
