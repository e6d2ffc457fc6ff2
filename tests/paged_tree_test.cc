#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <utility>
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
#include "index/tree_io.h"
#include "storage/binary_format.h"
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
  const std::string path = TempPath("paged_roundtrip.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());

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
  const std::string path = TempPath("paged_structure.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  auto paged = PagedTree<2>::Open(path);
  ASSERT_TRUE(paged.ok());

  // Compare recursively: MBRs, leaf flags, entries, and children in order
  // (the file keeps each node's child order).
  std::function<void(NodeId, NodeId)> compare = [&](NodeId mem, NodeId disk) {
    EXPECT_EQ(tree.IsLeaf(mem), paged->IsLeaf(disk));
    EXPECT_EQ(tree.NodeBox(mem), paged->Shape(disk));
    if (tree.IsLeaf(mem)) {
      const auto mem_entries = tree.Entries(mem);
      EXPECT_EQ(std::vector<Entry<2>>(mem_entries.begin(), mem_entries.end()),
                paged->Entries(disk));
      return;
    }
    const auto mem_children = tree.Children(mem);
    const auto disk_children = paged->Children(disk);
    ASSERT_EQ(mem_children.size(), disk_children.size());
    for (size_t i = 0; i < mem_children.size(); ++i) {
      compare(mem_children[i], disk_children[i]);
    }
  };
  compare(tree.Root(), paged->Root());
}

TEST(PagedTreeTest, JoinsOffDiskMatchInMemory) {
  // A join off the saved file, through a 2-block cache, writes the in-memory
  // tree's bytes — the property that makes a served join byte-identical to
  // `csj_tool join --index` over the same file.
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(4000, 11);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_join.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  PagedTreeOptions tiny;
  tiny.cache_blocks = 2;
  auto paged = PagedTree<2>::Open(path, tiny);
  ASSERT_TRUE(paged.ok());

  const auto text_of = [&](const auto& index, JoinAlgorithm algo,
                           const JoinOptions& options) {
    const OutputSpec spec =
        OutputSpec::File(TempPath("paged_join_out.txt"), entries.size());
    auto sink = MakeSink(spec);
    EXPECT_TRUE(sink.ok());
    EXPECT_TRUE(RunSelfJoin(algo, index, options, sink->get()).status.ok());
    EXPECT_TRUE((*sink)->Finish().ok());
    const std::string bytes = ReadFile(spec.path);
    std::remove(spec.path.c_str());
    return bytes;
  };
  for (double eps : {0.01, 0.05}) {
    JoinOptions options;
    options.epsilon = eps;
    const auto reference = BruteForceSelfJoin(entries, eps);
    for (auto algo :
         {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ}) {
      SCOPED_TRACE(StrFormat("%s eps=%g", JoinAlgorithmName(algo), eps));
      const std::string in_memory = text_of(tree, algo, options);
      EXPECT_FALSE(in_memory.empty());
      EXPECT_EQ(text_of(*paged, algo, options), in_memory);
      MemorySink sink(IdWidthFor(entries.size()));
      RunSelfJoin(algo, *paged, options, &sink);
      const auto report = CompareLinkSets(ExpandSelfJoin(sink), reference);
      EXPECT_TRUE(report.lossless()) << report.ToString();
    }
  }
}

TEST(PagedTreeTest, TinyCacheStillCorrectJustSlower) {
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(2500, 13);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_tiny_cache.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());

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
  const std::string path = TempPath("paged_stats.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
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
  const std::string path = TempPath("paged_early_stop.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
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
  const std::string path = TempPath("paged_bigleaf.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  auto paged = PagedTree<2>::Open(path);
  ASSERT_TRUE(paged.ok());
  std::set<PointId> found;
  ForEachEntryInSubtree(*paged, paged->Root(),
                        static_cast<NodeAccessTracker*>(nullptr),
                        [&](const Entry<2>& e) { found.insert(e.id); });
  EXPECT_EQ(found.size(), entries.size());
}

TEST(PagedTreeTest, OpenRejectsGarbage) {
  const std::string path = TempPath("paged_garbage.csjt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a tree file", f);
  std::fclose(f);
  auto paged = PagedTree<2>::Open(path);
  EXPECT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), StatusCode::kInvalidArgument);
}

TEST(PagedTreeTest, OpenMissingFile) {
  auto paged = PagedTree<2>::Open("/no/such/file.csjt");
  EXPECT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), StatusCode::kNotFound);
}

TEST(PagedTreeTest, DimensionMismatchRejected) {
  RStarTree<3> tree;
  const auto entries = RandomEntries<3>(100, 23);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_dim.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  auto paged = PagedTree<2>::Open(path);
  EXPECT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), StatusCode::kInvalidArgument);
}

TEST(PagedTreeTest, ChecksummedStructureFailureIsDataLoss) {
  // A CSJTREE2 file whose checksum matches but whose root index is out of
  // range: LoadTree keeps its historical InvalidArgument, while Open, which
  // serves the file in place, reports the damage as DataLoss.
  RStarTree<2> tree;
  for (const auto& e : RandomEntries<2>(300, 27)) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_bad_root.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  std::string bytes = ReadFile(path);
  // magic 8 | crc 4 | dim, max_fanout, min_fanout 4 each | entries 8 |
  // node_count 4 | root_index 4.
  constexpr size_t kNodeCountAt = 8 + 4 + 12 + 8;
  std::memcpy(bytes.data() + kNodeCountAt + 4, bytes.data() + kNodeCountAt, 4);
  const uint32_t crc = binfmt::Crc32(bytes.data() + 12, bytes.size() - 12);
  std::memcpy(bytes.data() + 8, &crc, sizeof(crc));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);

  RStarTree<2> loaded;
  EXPECT_EQ(LoadTree(&loaded, path).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PagedTree<2>::Open(path).status().code(), StatusCode::kDataLoss);
}

TEST(PagedTreeTest, OpenRejectsTooSmallReadUnit) {
  RStarTree<2> tree;
  for (const auto& e : RandomEntries<2>(100, 25)) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_small_unit.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  PagedTreeOptions options;
  options.block_size = 255;
  EXPECT_EQ(PagedTree<2>::Open(path, options).status().code(),
            StatusCode::kInvalidArgument);
  options.block_size = 256;
  EXPECT_TRUE(PagedTree<2>::Open(path, options).ok());
}

/// Overwrites 4 bytes of `path` in place (same inode).
void OverwriteU32(const std::string& path, uint64_t offset, uint32_t value) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(PagedTreeTest, InPlaceRewriteFailsTheQueryNotTheProcess) {
  // An index rewritten in place under an open tree (`cp new.csjt
  // served.csjt`) can hand the decoder a count that disagrees with the span
  // Open recorded, or a child index past the node count. A governed join
  // stops with kDataLoss; the process lives on.
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(2000, 53);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_in_place.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());

  // The payload offsets of the root (first in pre-order; an internal node,
  // so every join reads its children) and of the first leaf (every
  // self-join reads every leaf).
  uint64_t root_payload = 0, leaf_payload = 0;
  uint32_t leaf_count = 0;
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(WalkTreeFile<2>(
                    fd, [](const TreeFileInfo&) { return Status::OK(); },
                    [&](const TreeFileNode<2>& node) {
                      if (node.index == 0) root_payload = node.payload_offset;
                      if (node.is_leaf && leaf_payload == 0) {
                        leaf_payload = node.payload_offset;
                        leaf_count = static_cast<uint32_t>(node.entries.size());
                      }
                      return Status::OK();
                    })
                    .ok());
    ::close(fd);
  }
  ASSERT_FALSE(tree.IsLeaf(tree.Root()));
  ASSERT_GT(leaf_payload, 0u);

  const std::pair<uint64_t, uint32_t> rewrites[] = {
      {leaf_payload, leaf_count + 1},        // a count beyond the payload
      {root_payload + 4, 0xFFFFFFF0u},       // the root's first child index
  };
  for (const auto& [offset, value] : rewrites) {
    SCOPED_TRACE(StrFormat("offset %llu",
                           static_cast<unsigned long long>(offset)));
    ASSERT_TRUE(SaveTree(tree, path).ok());
    PagedTreeOptions tiny;
    tiny.cache_blocks = 2;
    auto paged = PagedTree<2>::Open(path, tiny);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    OverwriteU32(path, offset, value);

    ExecContext exec;
    JoinOptions options;
    options.epsilon = 0.04;
    options.exec = &exec;
    MemorySink sink(IdWidthFor(entries.size()));
    const JoinStats stats = CompactSimilarityJoin(*paged, options, &sink);
    EXPECT_EQ(stats.status.code(), StatusCode::kDataLoss)
        << stats.status.ToString();
  }
  std::remove(path.c_str());
}

TEST(PagedTreeTest, ConcurrentReadersShareOneTree) {
  // N threads traverse one shared PagedTree under heavy eviction pressure
  // (a 3-block cache). Every thread must see the complete entry set, and
  // the pool counters must balance afterwards. Run under TSan in CI.
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(4000, 31);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string path = TempPath("paged_concurrent.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
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
  const std::string path = TempPath("paged_parallel_join.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
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
  const std::string path = TempPath("paged_fault.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
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
  const std::string path = TempPath("paged_concurrent_fault.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
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
  const std::string path = TempPath("paged_budget.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());

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
  const std::string path = TempPath("paged_packed.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
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
