#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/brute.h"
#include "core/checkpoint_join.h"
#include "core/expand.h"
#include "core/result_cursor.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/generators.h"
#include "index/bulk_load.h"
#include "index/paged_tree.h"
#include "index/rstar_tree.h"
#include "util/exec_context.h"
#include "util/failpoint.h"

namespace csj {
namespace {

template <int D>
std::vector<Entry<D>> RandomEntries(size_t n, uint64_t seed) {
  auto points = GenerateUniform<D>(n, seed);
  std::vector<Entry<D>> entries(n);
  for (size_t i = 0; i < n; ++i) {
    entries[i] = Entry<D>{static_cast<PointId>(i), points[i]};
  }
  return entries;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::string content;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

static_assert(SpatialIndex<PagedTree<2>>,
              "PagedTree must satisfy the join concept");

NodeId FindFirstLeaf(const PagedTree<2>& tree) {
  NodeId n = tree.Root();
  while (!tree.IsLeaf(n)) n = tree.Children(n)[0];
  return n;
}


TEST(PagedTreeTest, RoundTripContent) {
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(3000, 7);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_roundtrip.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());

  auto paged = PagedTree<2>::Open(path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ(paged->size(), tree.size());
  EXPECT_EQ(paged->NodeCount(), tree.NodeCount());

  // Every entry of the in-memory tree is reachable in the paged tree.
  std::set<PointId> found;
  ForEachEntryInSubtree(*paged, paged->Root(),
                        static_cast<NodeAccessTracker*>(nullptr),
                        [&](const Entry<2>& e) { found.insert(e.id); });
  EXPECT_EQ(found.size(), entries.size());
}

TEST(PagedTreeTest, StructureMirrorsSource) {
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(2000, 9);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_structure.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  auto paged = PagedTree<2>::Open(path);
  ASSERT_TRUE(paged.ok());

  // Compare recursively: MBRs, leaf flags, fanouts.
  std::function<void(NodeId, NodeId)> compare = [&](NodeId mem, NodeId disk) {
    EXPECT_EQ(tree.IsLeaf(mem), paged->IsLeaf(disk));
    EXPECT_EQ(tree.NodeBox(mem), paged->Shape(disk));
    if (tree.IsLeaf(mem)) {
      EXPECT_EQ(tree.Entries(mem).size(), paged->Entries(disk).size());
      return;
    }
    const auto mem_children = tree.Children(mem);
    const auto disk_children = paged->Children(disk);
    ASSERT_EQ(mem_children.size(), disk_children.size());
    // Writer visits children in reverse push order; match by MBR equality.
    for (size_t i = 0; i < mem_children.size(); ++i) {
      bool matched = false;
      for (size_t j = 0; j < disk_children.size(); ++j) {
        if (tree.NodeBox(mem_children[i]) == paged->Shape(disk_children[j])) {
          compare(mem_children[i], disk_children[j]);
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << "child MBR not found on disk";
    }
  };
  compare(tree.Root(), paged->Root());
}

TEST(PagedTreeTest, JoinsOffDiskMatchInMemory) {
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(4000, 11);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_join.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  auto paged = PagedTree<2>::Open(path);
  ASSERT_TRUE(paged.ok());

  for (double eps : {0.01, 0.05}) {
    JoinOptions options;
    options.epsilon = eps;
    const auto reference = BruteForceSelfJoin(entries, eps);
    for (auto algo :
         {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ}) {
      MemorySink sink(IdWidthFor(entries.size()));
      RunSelfJoin(algo, *paged, options, &sink);
      const auto report = CompareLinkSets(ExpandSelfJoin(sink), reference);
      EXPECT_TRUE(report.lossless())
          << JoinAlgorithmName(algo) << " eps=" << eps << ": "
          << report.ToString();
    }
  }
}

TEST(PagedTreeTest, TinyCacheStillCorrectJustSlower) {
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(2500, 13);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_tiny_cache.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());

  PagedTreeOptions small_cache;
  small_cache.cache_blocks = 2;
  auto paged_small = PagedTree<2>::Open(path, small_cache);
  ASSERT_TRUE(paged_small.ok());
  PagedTreeOptions big_cache;
  big_cache.cache_blocks = 100000;
  auto paged_big = PagedTree<2>::Open(path, big_cache);
  ASSERT_TRUE(paged_big.ok());

  JoinOptions options;
  options.epsilon = 0.04;
  MemorySink small_sink(IdWidthFor(entries.size()));
  CompactSimilarityJoin(*paged_small, options, &small_sink);
  MemorySink big_sink(IdWidthFor(entries.size()));
  CompactSimilarityJoin(*paged_big, options, &big_sink);

  EXPECT_EQ(small_sink.links(), big_sink.links());
  EXPECT_EQ(small_sink.groups(), big_sink.groups());
  // The tiny cache misses more — real disk-access behaviour.
  EXPECT_GT(paged_small->io_stats().disk_reads,
            paged_big->io_stats().disk_reads);
  EXPECT_GT(paged_big->io_stats().block_cache_hits, 0u);
}

TEST(PagedTreeTest, IoStatsCountAndReset) {
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(500, 17);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_stats.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  auto paged = PagedTree<2>::Open(path);
  ASSERT_TRUE(paged.ok());
  EXPECT_EQ(paged->io_stats().block_requests, 0u);
  (void)paged->Entries(FindFirstLeaf(*paged));
  EXPECT_GT(paged->io_stats().block_requests, 0u);
  EXPECT_GT(paged->io_stats().node_decodes, 0u);
  paged->ResetIoStats();
  EXPECT_EQ(paged->io_stats().block_requests, 0u);
}

TEST(PagedTreeTest, EarlyStoppedGroupReadsEachNodeOnce) {
  // Every point lies in a 0.01 x 0.01 square, so at eps 0.05 the root stops
  // early and N-CSJ collects the whole tree as one group: one walk, so each
  // node is decoded once and the blocks are requested as often as one plain
  // walk requests them.
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(3000, 23);
  for (const auto& e : entries) {
    tree.Insert(e.id, Point<2>{{0.01 * e.point[0], 0.01 * e.point[1]}});
  }
  const std::string path = TempPath("paged_early_stop.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  auto paged = PagedTree<2>::Open(path);
  ASSERT_TRUE(paged.ok());
  ASSERT_FALSE(paged->IsLeaf(paged->Root()));

  size_t walked = 0;
  ForEachEntryInSubtree(*paged, paged->Root(),
                        static_cast<NodeAccessTracker*>(nullptr),
                        [&](const Entry<2>&) { ++walked; });
  ASSERT_EQ(walked, entries.size());
  const PagedIoStats walk = paged->io_stats();
  EXPECT_EQ(walk.node_decodes, paged->NodeCount());
  paged->ResetIoStats();

  JoinOptions options;
  options.epsilon = 0.05;
  MemorySink sink(IdWidthFor(entries.size()));
  const JoinStats stats = NaiveCompactJoin(*paged, options, &sink);
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_EQ(stats.early_stops, 1u);
  ASSERT_EQ(sink.groups().size(), 1u);
  EXPECT_EQ(sink.groups()[0].size(), entries.size());
  const PagedIoStats join = paged->io_stats();
  EXPECT_EQ(join.node_decodes, paged->NodeCount()) << join.ToString();
  EXPECT_EQ(join.block_requests, walk.block_requests) << join.ToString();
}

TEST(PagedTreeTest, LargeLeafPayloadSpanningBlocks) {
  // A node payload bigger than one block must still read correctly.
  RStarOptions big_fanout;
  big_fanout.max_fanout = 512;  // leaf payload ~ 512 * 20 bytes > 4096
  big_fanout.min_fanout = 128;
  RStarTree<2> tree(big_fanout);
  const auto entries = RandomEntries<2>(400, 19);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_bigleaf.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  auto paged = PagedTree<2>::Open(path);
  ASSERT_TRUE(paged.ok());
  std::set<PointId> found;
  ForEachEntryInSubtree(*paged, paged->Root(),
                        static_cast<NodeAccessTracker*>(nullptr),
                        [&](const Entry<2>& e) { found.insert(e.id); });
  EXPECT_EQ(found.size(), entries.size());
}

TEST(PagedTreeTest, OpenRejectsGarbage) {
  const std::string path = TempPath("paged_garbage.csjp");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("junk", f);
  std::fclose(f);
  auto paged = PagedTree<2>::Open(path);
  EXPECT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), StatusCode::kInvalidArgument);
}

TEST(PagedTreeTest, OpenMissingFile) {
  auto paged = PagedTree<2>::Open("/no/such/file.csjp");
  EXPECT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), StatusCode::kNotFound);
}

TEST(PagedTreeTest, DimensionMismatchRejected) {
  RStarTree<3> tree;
  const auto entries = RandomEntries<3>(100, 23);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_dim.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  auto paged = PagedTree<2>::Open(path);
  EXPECT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), StatusCode::kInvalidArgument);
}

TEST(PagedTreeTest, ConcurrentReadersShareOneTree) {
  // N threads traverse one shared PagedTree under heavy eviction pressure
  // (a 3-block cache). Every thread must see the complete entry set, and
  // the pool counters must balance afterwards. Run under TSan in CI.
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(4000, 31);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_concurrent.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  PagedTreeOptions tiny;
  tiny.cache_blocks = 3;
  auto paged = PagedTree<2>::Open(path, tiny);
  ASSERT_TRUE(paged.ok());

  constexpr int kThreads = 8;
  std::atomic<int> complete{0};
  {
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&] {
        std::set<PointId> found;
        ForEachEntryInSubtree(*paged, paged->Root(),
                              static_cast<NodeAccessTracker*>(nullptr),
                              [&](const Entry<2>& e) { found.insert(e.id); });
        if (found.size() == entries.size()) complete.fetch_add(1);
      });
    }
    for (auto& thread : readers) thread.join();
  }
  EXPECT_EQ(complete.load(), kThreads);
  const auto io = paged->io_stats();
  EXPECT_EQ(io.block_requests, io.block_cache_hits + io.disk_reads);
}

TEST(PagedTreeTest, ParallelJoinOverPagedTreeIsLossless) {
  // PagedTree is safe for concurrent reads, so the task loop may use
  // several threads over a disk tree; its output matches brute force and the
  // serial run's bytes.
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(3000, 37);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_parallel_join.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  PagedTreeOptions small;
  small.cache_blocks = 8;  // force concurrent miss/evict traffic
  auto paged = PagedTree<2>::Open(path, small);
  ASSERT_TRUE(paged.ok());

  JoinOptions options;
  options.epsilon = 0.04;
  options.window_size = 10;
  std::string serial_bytes;
  for (const int threads : {1, 4}) {
    const OutputSpec spec = OutputSpec::File(
        TempPath("paged_parallel_join.txt"), entries.size());
    CheckpointJoinOptions ckpt;
    ckpt.manifest_path = spec.path + ".ckpt";
    ckpt.threads = threads;
    const JoinStats stats = CheckpointedSelfJoin(*paged, JoinAlgorithm::kCSJ,
                                                 options, spec, ckpt);
    ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
    auto cursor = OpenResultCursor(spec.path);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    auto expansion = ExpandSelfJoin(cursor->get());
    ASSERT_TRUE(expansion.ok()) << expansion.status().ToString();
    const auto report = CompareLinkSets(
        *expansion, BruteForceSelfJoin(entries, options.epsilon));
    EXPECT_TRUE(report.lossless()) << "threads=" << threads << ": "
                                   << report.ToString();
    const std::string bytes = ReadFile(spec.path);
    if (threads == 1) serial_bytes = bytes;
    EXPECT_EQ(bytes, serial_bytes) << "threads=" << threads;
    std::remove(spec.path.c_str());
  }
}

#ifndef CSJ_NO_FAILPOINTS
TEST(PagedTreeTest, GovernedReadFaultTripsContextInsteadOfAborting) {
  // With an ExecContext installed, an injected mid-read I/O fault becomes a
  // clean sticky status on the context (and an empty node view) instead of
  // the historical CSJ_CHECK crash.
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(2000, 41);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_fault.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  PagedTreeOptions tiny;
  tiny.cache_blocks = 2;  // evictions force re-reads that can fault
  auto paged = PagedTree<2>::Open(path, tiny);
  ASSERT_TRUE(paged.ok());

  // The context flows per-operation from options.exec through the driver's
  // governed reads — the tree itself holds no context state.
  ExecContext exec;
  failpoint::ScopedFailpoint fp("paged_tree.read",
                                failpoint::Spec::EveryNth(5));
  JoinOptions options;
  options.epsilon = 0.04;
  options.exec = &exec;
  MemorySink sink(IdWidthFor(entries.size()));
  const JoinStats stats = CompactSimilarityJoin(*paged, options, &sink);
  EXPECT_EQ(stats.status.code(), StatusCode::kIoError);
  EXPECT_NE(stats.status.message().find("injected read fault"),
            std::string::npos);
}

TEST(PagedTreeTest, ConcurrentReadersSurviveInjectedFaults) {
  // Faulty reads under concurrency: each governed reader stops cleanly with
  // the injected IoError; nothing crashes and the counters still balance.
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(3000, 43);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_concurrent_fault.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  PagedTreeOptions tiny;
  tiny.cache_blocks = 2;
  auto paged = PagedTree<2>::Open(path, tiny);
  ASSERT_TRUE(paged.ok());

  // Each reader passes its own context per-operation: a fault in one
  // reader's I/O trips only that reader's context, never a neighbor's.
  failpoint::ScopedFailpoint fp("paged_tree.read",
                                failpoint::Spec::EveryNth(17));
  std::vector<ExecContext> contexts(4);
  {
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        ForEachEntryInSubtree(*paged, paged->Root(),
                              static_cast<NodeAccessTracker*>(nullptr),
                              [&](const Entry<2>&) {}, &contexts[t]);
      });
    }
    for (auto& thread : readers) thread.join();
  }
  bool any_tripped = false;
  for (const ExecContext& exec : contexts) {
    if (!exec.ShouldStop()) continue;
    any_tripped = true;
    EXPECT_EQ(exec.status().code(), StatusCode::kIoError);
  }
  EXPECT_TRUE(any_tripped);
  const auto io = paged->io_stats();
  EXPECT_EQ(io.block_requests, io.block_cache_hits + io.disk_reads);
}
#endif  // CSJ_NO_FAILPOINTS

TEST(PagedTreeTest, BudgetedCacheStaysWithinLimit) {
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(3000, 47);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_budget.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());

  MemoryBudget budget(64 * 1024);  // ~15 4K blocks with overhead
  {
    PagedTreeOptions options;
    options.cache_blocks = 100000;  // budget, not capacity, is the constraint
    options.budget = &budget;
    auto paged = PagedTree<2>::Open(path, options);
    ASSERT_TRUE(paged.ok());
    std::set<PointId> found;
    ForEachEntryInSubtree(*paged, paged->Root(),
                          static_cast<NodeAccessTracker*>(nullptr),
                          [&](const Entry<2>& e) { found.insert(e.id); });
    EXPECT_EQ(found.size(), entries.size());
    EXPECT_LE(budget.peak(), budget.limit());
  }
  // Destroying the tree (and its pool) releases every charge.
  EXPECT_EQ(budget.used(), 0u);
}

TEST(PagedTreeTest, PackedTreeWorksToo) {
  RStarTree<3> tree;
  PackStr(&tree, RandomEntries<3>(5000, 29));
  const std::string path = TempPath("paged_packed.csjp");
  ASSERT_TRUE(WritePagedTree(tree, path).ok());
  auto paged = PagedTree<3>::Open(path);
  ASSERT_TRUE(paged.ok());
  EXPECT_EQ(paged->size(), 5000u);
  std::set<PointId> found;
  ForEachEntryInSubtree(*paged, paged->Root(),
                        static_cast<NodeAccessTracker*>(nullptr),
                        [&](const Entry<3>& e) { found.insert(e.id); });
  EXPECT_EQ(found.size(), 5000u);
}

}  // namespace
}  // namespace csj
