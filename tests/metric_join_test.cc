#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "core/brute.h"
#include "core/expand.h"
#include "core/sink.h"
#include "index/mtree.h"
#include "metric/edit_distance.h"
#include "metric/generic_mtree.h"
#include "metric/metric_join.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace csj {
namespace {

// --- Edit distance ---------------------------------------------------------------

TEST(EditDistanceTest, BasicCases) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("", "xy"), 2);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2);
  EXPECT_EQ(EditDistance("same", "same"), 0);
}

TEST(EditDistanceTest, MetricAxiomsOnRandomStrings) {
  Rng rng(3);
  auto random_string = [&] {
    std::string s;
    const size_t len = rng.UniformInt(uint64_t{12});
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.UniformInt(uint64_t{4})));
    }
    return s;
  };
  for (int trial = 0; trial < 300; ++trial) {
    const std::string a = random_string();
    const std::string b = random_string();
    const std::string c = random_string();
    const int ab = EditDistance(a, b);
    EXPECT_EQ(ab, EditDistance(b, a));
    EXPECT_EQ(EditDistance(a, a), 0);
    EXPECT_LE(ab, EditDistance(a, c) + EditDistance(c, b));
    EXPECT_GE(ab, std::abs(static_cast<int>(a.size()) -
                           static_cast<int>(b.size())));
  }
}

TEST(EditDistanceTest, CappedAgreesBelowCapAndSaturatesAbove) {
  Rng rng(7);
  auto random_string = [&] {
    std::string s;
    const size_t len = 1 + rng.UniformInt(uint64_t{15});
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.UniformInt(uint64_t{3})));
    }
    return s;
  };
  for (int trial = 0; trial < 500; ++trial) {
    const std::string a = random_string();
    const std::string b = random_string();
    const int exact = EditDistance(a, b);
    for (int cap : {0, 1, 2, 3, 5, 20}) {
      const int capped = EditDistanceCapped(a, b, cap);
      if (exact <= cap) {
        EXPECT_EQ(capped, exact) << a << " vs " << b << " cap " << cap;
      } else {
        EXPECT_EQ(capped, cap + 1) << a << " vs " << b << " cap " << cap;
      }
    }
  }
}

// --- Generic M-tree -----------------------------------------------------------------

std::vector<std::string> RandomWords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> words(n);
  for (auto& w : words) {
    const size_t len = 3 + rng.UniformInt(uint64_t{8});
    for (size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + rng.UniformInt(uint64_t{6})));
    }
  }
  return words;
}

TEST(GenericMTreeTest, InvariantsAndRangeQueries) {
  const auto words = RandomWords(600, 11);
  GenericMTree<std::string, EditDistanceMetric> tree;
  for (size_t i = 0; i < words.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), words[i]);
    if (i % 151 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), words.size());

  EditDistanceMetric metric;
  Rng rng(13);
  for (int q = 0; q < 20; ++q) {
    const std::string& query = words[rng.UniformInt(words.size())];
    const double radius = static_cast<double>(rng.UniformInt(uint64_t{4}));
    std::set<PointId> expected;
    for (size_t i = 0; i < words.size(); ++i) {
      if (metric(query, words[i]) <= radius) {
        expected.insert(static_cast<PointId>(i));
      }
    }
    std::set<PointId> got;
    for (const auto& e : tree.RangeQuery(query, radius)) got.insert(e.id);
    EXPECT_EQ(got, expected) << "query=" << query << " r=" << radius;
  }
}

// --- Metric joins -----------------------------------------------------------------

std::vector<Link> BruteStringJoin(const std::vector<std::string>& words,
                                  double eps) {
  EditDistanceMetric metric;
  std::vector<Link> links;
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t j = i + 1; j < words.size(); ++j) {
      if (metric(words[i], words[j]) <= eps) {
        links.push_back(MakeLink(static_cast<PointId>(i),
                                 static_cast<PointId>(j)));
      }
    }
  }
  std::sort(links.begin(), links.end());
  return links;
}

TEST(MetricJoinTest, StandardMatchesBruteForce) {
  const auto words = RandomWords(400, 17);
  GenericMTree<std::string, EditDistanceMetric> tree;
  for (size_t i = 0; i < words.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), words[i]);
  }
  for (double eps : {1.0, 2.0, 4.0}) {
    JoinOptions options;
    options.epsilon = eps;
    MemorySink sink(3);
    const JoinStats stats = MetricStandardJoin(tree, options, &sink);
    const auto reference = BruteStringJoin(words, eps);
    EXPECT_EQ(stats.links, reference.size()) << "eps=" << eps;
    EXPECT_EQ(ExpandSelfJoin(sink), reference);
  }
}

TEST(MetricJoinTest, CompactJoinsAreLossless) {
  const auto words = RandomWords(400, 19);
  GenericMTree<std::string, EditDistanceMetric> tree;
  for (size_t i = 0; i < words.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), words[i]);
  }
  for (double eps : {1.0, 2.0, 4.0, 8.0}) {
    const auto reference = BruteStringJoin(words, eps);
    for (int variant = 0; variant < 2; ++variant) {
      JoinOptions options;
      options.epsilon = eps;
      MemorySink sink(3);
      if (variant == 0) {
        MetricNaiveCompactJoin(tree, options, &sink);
      } else {
        MetricCompactJoin(tree, options, &sink);
      }
      const auto report = CompareLinkSets(ExpandSelfJoin(sink), reference);
      EXPECT_TRUE(report.lossless())
          << (variant == 0 ? "N-CSJ" : "CSJ") << " eps=" << eps << ": "
          << report.ToString();
    }
  }
}

TEST(MetricJoinTest, GroupsRespectTheorem2) {
  // Every pair in every emitted group is within eps (the ball guarantee).
  const auto words = RandomWords(300, 23);
  GenericMTree<std::string, EditDistanceMetric> tree;
  for (size_t i = 0; i < words.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), words[i]);
  }
  const double eps = 6.0;
  JoinOptions options;
  options.epsilon = eps;
  MemorySink sink(3);
  MetricCompactJoin(tree, options, &sink);
  EditDistanceMetric metric;
  ASSERT_GT(sink.num_groups(), 0u);
  for (const auto& group : sink.groups()) {
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        ASSERT_LE(metric(words[group[i]], words[group[j]]), eps);
      }
    }
  }
}

TEST(MetricJoinTest, CompactNeverLargerThanStandard) {
  // Lots of duplicate-ish words to force an output explosion.
  auto words = RandomWords(150, 29);
  Rng rng(31);
  std::vector<std::string> data;
  for (int copy = 0; copy < 4; ++copy) {
    for (const auto& w : words) {
      std::string v = w;
      if (!v.empty() && rng.Bernoulli(0.5)) {
        v[rng.UniformInt(v.size())] =
            static_cast<char>('a' + rng.UniformInt(uint64_t{6}));
      }
      data.push_back(v);
    }
  }
  GenericMTree<std::string, EditDistanceMetric> tree;
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<PointId>(i), data[i]);
  }
  for (double eps : {2.0, 4.0}) {
    JoinOptions options;
    options.epsilon = eps;
    CountingSink standard(3);
    MetricStandardJoin(tree, options, &standard);
    CountingSink compact(3);
    MetricCompactJoin(tree, options, &compact);
    EXPECT_LE(compact.bytes(), standard.bytes()) << "eps=" << eps;
  }
}

TEST(MetricJoinTest, EuclideanItemsWorkToo) {
  // The metric layer is item-agnostic: plain 2-D points under L2 behave
  // like the vector-space joins.
  Rng rng(37);
  std::vector<Entry<2>> entries;
  MTree<2> tree;
  for (PointId i = 0; i < 300; ++i) {
    const Point2 p{{rng.UniformDouble(), rng.UniformDouble()}};
    entries.push_back({i, p});
    tree.Insert(i, p);
  }
  JoinOptions options;
  options.epsilon = 0.08;
  MemorySink sink(3);
  MetricCompactJoin(tree, options, &sink);
  EXPECT_TRUE(CompareLinkSets(ExpandSelfJoin(sink),
                              BruteForceSelfJoin(entries, options.epsilon))
                  .lossless());
}

#ifndef CSJ_NO_FAILPOINTS

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Links implied by the complete records of a text result; a record cut
/// short by a failed write (no trailing newline) implies nothing.
uint64_t ImpliedFromText(const std::string& text) {
  uint64_t implied = 0;
  uint64_t ids = 0;
  bool in_id = false;
  for (const char c : text) {
    if (c != ' ' && c != '\n') {
      in_id = true;
      continue;
    }
    if (in_id) ++ids;
    in_id = false;
    if (c == '\n') {
      implied += ids * (ids - 1) / 2;
      ids = 0;
    }
  }
  return implied;
}

TEST(MetricJoinTest, ImpliedCountMatchesAcceptedWritesOnSinkDeath) {
  // A sink that dies mid-join drops every later record; the implied-link
  // count must describe only the complete records the file holds.
  Rng rng(43);
  MTree<2> tree;
  for (PointId i = 0; i < 2000; ++i) {
    tree.Insert(i, Point2{{rng.UniformDouble(), rng.UniformDouble()}});
  }
  JoinOptions options;
  options.epsilon = 0.05;
  const std::string path = testing::TempDir() + "/metric_dying.txt";
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ}) {
    for (const uint64_t nth : {1ull, 2ull, 100ull, 1000ull}) {
      SCOPED_TRACE(testing::Message() << JoinAlgorithmName(algorithm)
                                      << " nth=" << nth);
      JoinStats stats;
      {
        failpoint::ScopedFailpoint fp("output_file.append",
                                      failpoint::Spec::EveryNth(nth));
        // Checkpointable: the partial file survives the failure.
        OutputSpec spec = OutputSpec::File(path, tree.size());
        spec.checkpointable = true;
        auto sink = MakeSink(spec);
        ASSERT_TRUE(sink.ok()) << sink.status().ToString();
        MetricJoinDriver<Point2, L2Metric<2>> driver(tree, algorithm, options,
                                                     sink->get());
        stats = driver.Run();
      }
      EXPECT_EQ(stats.status.code(), StatusCode::kIoError)
          << stats.status.ToString();
      EXPECT_EQ(stats.ImpliedLinkUpperBound(),
                ImpliedFromText(ReadWholeFile(path)));
      std::remove(path.c_str());
    }
  }
}

#endif  // CSJ_NO_FAILPOINTS

}  // namespace
}  // namespace csj
