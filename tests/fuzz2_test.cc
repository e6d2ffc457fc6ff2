#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/brute.h"
#include "core/expand.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/bulk_load.h"
#include "index/paged_tree.h"
#include "index/rstar_tree.h"
#include "metric/edit_distance.h"
#include "metric/generic_mtree.h"
#include "metric/metric_join.h"
#include "storage/checkpoint.h"
#include "util/random.h"

/// \file
/// Second fuzz round: the metric join over random string corpora and the
/// paged (disk-resident) read path under random block/cache geometries.

namespace csj {
namespace {

class MetricFuzzTest : public testing::TestWithParam<int> {};

TEST_P(MetricFuzzTest, RandomStringCorporaAreLossless) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 5);
  for (int trial = 0; trial < 6; ++trial) {
    // Random corpus: alphabet size and word length control the density.
    const int alphabet = 2 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    const size_t base_len = 3 + rng.UniformInt(uint64_t{10});
    const size_t n = 80 + rng.UniformInt(uint64_t{220});
    std::vector<std::string> words(n);
    for (auto& w : words) {
      const size_t len = base_len + rng.UniformInt(uint64_t{4});
      for (size_t i = 0; i < len; ++i) {
        w.push_back(static_cast<char>(
            'a' + rng.UniformInt(static_cast<uint64_t>(alphabet))));
      }
    }

    MTreeOptions tree_options;
    tree_options.max_fanout = 4 + rng.UniformInt(uint64_t{20});
    tree_options.min_fanout = 2;
    tree_options.promotion = MTreePromotion::kSampled;
    tree_options.sampled_pairs = 48;
    GenericMTree<std::string, EditDistanceMetric> tree(EditDistanceMetric(),
                                                       tree_options);
    for (size_t i = 0; i < words.size(); ++i) {
      tree.Insert(static_cast<PointId>(i), words[i]);
    }
    tree.CheckInvariants();

    const double eps =
        1.0 + static_cast<double>(rng.UniformInt(uint64_t{5}));
    // Brute reference.
    EditDistanceMetric metric;
    std::vector<Link> reference;
    for (size_t i = 0; i < words.size(); ++i) {
      for (size_t j = i + 1; j < words.size(); ++j) {
        if (metric(words[i], words[j]) <= eps) {
          reference.push_back(MakeLink(static_cast<PointId>(i),
                                       static_cast<PointId>(j)));
        }
      }
    }
    std::sort(reference.begin(), reference.end());

    JoinOptions options;
    options.epsilon = eps;
    options.window_size = 1 + static_cast<int>(rng.UniformInt(uint64_t{20}));
    options.early_stop = !rng.Bernoulli(0.2);

    {
      MemorySink sink(IdWidthFor(n));
      MetricStandardJoin(tree, options, &sink);
      ASSERT_EQ(ExpandSelfJoin(sink), reference)
          << "SSJ trial=" << trial << " eps=" << eps;
    }
    {
      MemorySink sink(IdWidthFor(n));
      MetricNaiveCompactJoin(tree, options, &sink);
      const auto report = CompareLinkSets(ExpandSelfJoin(sink), reference);
      ASSERT_TRUE(report.lossless())
          << "N-CSJ trial=" << trial << " eps=" << eps << ": "
          << report.ToString();
    }
    {
      MemorySink sink(IdWidthFor(n));
      MetricCompactJoin(tree, options, &sink);
      const auto report = CompareLinkSets(ExpandSelfJoin(sink), reference);
      ASSERT_TRUE(report.lossless())
          << "CSJ trial=" << trial << " eps=" << eps << ": "
          << report.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricFuzzTest, testing::Range(0, 5));

class PagedFuzzTest : public testing::TestWithParam<int> {};

TEST_P(PagedFuzzTest, RandomGeometriesJoinLosslessly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 271828 + 3);
  for (int trial = 0; trial < 4; ++trial) {
    const size_t n = 300 + rng.UniformInt(uint64_t{1200});
    std::vector<Point2> points =
        rng.Bernoulli(0.5)
            ? GenerateUniform<2>(n, rng.Next())
            : GenerateGaussianClusters<2>(
                  n, 1 + static_cast<int>(rng.UniformInt(uint64_t{6})),
                  rng.UniformDouble(0.005, 0.08), rng.Next());
    std::vector<Entry<2>> entries = ToEntries(points);

    RStarOptions tree_options;
    tree_options.max_fanout = 8 + rng.UniformInt(uint64_t{56});
    tree_options.min_fanout =
        std::max<size_t>(2, tree_options.max_fanout * 2 / 5);
    RStarTree<2> tree(tree_options);
    if (rng.Bernoulli(0.5)) {
      PackStr(&tree, entries);
    } else {
      for (const auto& e : entries) tree.Insert(e.id, e.point);
    }

    PagedTreeOptions paged_options;
    paged_options.block_size = 1u << (8 + rng.UniformInt(uint64_t{6}));
    paged_options.cache_blocks = 1 + rng.UniformInt(uint64_t{64});
    const std::string path =
        testing::TempDir() +
        StrFormat("/paged_fuzz_%d_%d.csjp", GetParam(), trial);
    ASSERT_TRUE(WritePagedTree(tree, path, paged_options).ok());
    auto paged = PagedTree<2>::Open(path, paged_options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();

    const double eps = rng.UniformDouble(0.005, 0.2);
    const auto reference = BruteForceSelfJoin(entries, eps);
    JoinOptions options;
    options.epsilon = eps;
    options.window_size = 1 + static_cast<int>(rng.UniformInt(uint64_t{30}));
    for (auto algo :
         {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ}) {
      MemorySink sink(IdWidthFor(entries.size()));
      RunSelfJoin(algo, *paged, options, &sink);
      const auto report = CompareLinkSets(ExpandSelfJoin(sink), reference);
      ASSERT_TRUE(report.lossless())
          << JoinAlgorithmName(algo) << " trial=" << trial << " eps=" << eps
          << " block=" << paged_options.block_size
          << " cache=" << paged_options.cache_blocks << ": "
          << report.ToString();
    }
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagedFuzzTest, testing::Range(0, 4));

class ManifestFuzzTest : public testing::TestWithParam<int> {};

// Random bytes thrown at the checkpoint-manifest parser: every input must
// come back as a clean Status — no crash, and (thanks to the CRC) no
// accidental acceptance that would let --resume continue from garbage.
// tests/checkpoint_test.cc has the structured corruption matrix; this is the
// unstructured complement.
TEST_P(ManifestFuzzTest, RandomBytesYieldCleanStatusNeverAManifest) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 101);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes(rng.UniformInt(uint64_t{300}), '\0');
    for (auto& c : bytes) {
      c = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    // Some trials get a real header prefix so the payload decoder (not just
    // the magic check) sees fuzzed input.
    if (rng.Bernoulli(0.3)) {
      bytes = std::string(checkpoint::kMagic, 4) + bytes;
    }
    checkpoint::Manifest manifest;
    if (checkpoint::Parse(bytes, &manifest).ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManifestFuzzTest, testing::Range(0, 4));

}  // namespace
}  // namespace csj
