#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/checkpoint_join.h"
#include "core/result_cursor.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/point_io.h"
#include "index/paged_tree.h"
#include "index/rstar_tree.h"
#include "index/tree_io.h"
#include "util/failpoint.h"
#include "util/format.h"
#include "util/random.h"

/// \file
/// End-to-end fault injection: drives failpoints through OutputFile,
/// FileSink (text and CSJ2), LoadPoints, the sequential joins and the multi-threaded task
/// runner, asserting that every injected fault is reported as a Status, that
/// no partial output file survives a plain run (a checkpointed run keeps its
/// resume point instead), and that the process never crashes.

namespace csj {
namespace {

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

/// The temp file FileSink/OutputFile write behind an atomic destination.
std::string TempPathFor(const std::string& path) {
  return StrFormat("%s.tmp.%d", path.c_str(), getpid());
}

void ExpectNoOutputArtifacts(const std::string& path) {
  EXPECT_FALSE(FileExists(path)) << "partial output survived: " << path;
  EXPECT_FALSE(FileExists(TempPathFor(path)))
      << "temp file survived: " << TempPathFor(path);
}

class FaultInjectionTest : public testing::Test {
 protected:
  /// Block payload for sinks whose write faults must land mid-join: the
  /// default 64 KiB block would hold the whole result of the small joins
  /// below until Finish().
  static constexpr size_t kSmallBlock = 256;

  void TearDown() override { failpoint::DisableAll(); }

  /// A clustered workload dense enough that every join writes output.
  RStarTree<2> BuildTree(size_t n = 2000) {
    entries_ = ToEntries(GenerateGaussianClusters<2>(n, 5, 0.02, 17));
    RStarTree<2> tree;
    for (const auto& e : entries_) tree.Insert(e.id, e.point);
    return tree;
  }

  JoinOptions DenseOptions() const {
    JoinOptions options;
    options.epsilon = 0.05;
    return options;
  }

  std::vector<Entry<2>> entries_;
};

// --- Sequential joins --------------------------------------------------------

TEST_F(FaultInjectionTest, SequentialJoinReportsWriteFaultAndLeavesNoFile) {
  const auto tree = BuildTree();
  const std::string path = testing::TempDir() + "/csj_fault_seq.txt";
  // Let a handful of writes land, then fail: the fault hits mid-join.
  failpoint::ScopedFailpoint fp("output_file.append",
                                failpoint::Spec::EveryNth(5));
  FileSink sink(IdWidthFor(entries_.size()), path, OutputFormat::kText,
                kSmallBlock);
  ASSERT_TRUE(sink.open_status().ok());
  const JoinStats stats = CompactSimilarityJoin(tree, DenseOptions(), &sink);
  EXPECT_FALSE(stats.status.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kIoError);
  EXPECT_FALSE(sink.Finish().ok());
  ExpectNoOutputArtifacts(path);
}

TEST_F(FaultInjectionTest, AllThreeAlgorithmsSurviveWriteFaults) {
  const auto tree = BuildTree();
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ}) {
    failpoint::Enable("output_file.append", failpoint::Spec::EveryNth(3));
    const std::string path = testing::TempDir() + "/csj_fault_algo.txt";
    FileSink sink(IdWidthFor(entries_.size()), path, OutputFormat::kText,
                  kSmallBlock);
    const JoinStats stats = RunSelfJoin(algorithm, tree, DenseOptions(), &sink);
    EXPECT_FALSE(stats.status.ok()) << JoinAlgorithmName(algorithm);
    EXPECT_FALSE(sink.Finish().ok()) << JoinAlgorithmName(algorithm);
    ExpectNoOutputArtifacts(path);
    failpoint::DisableAll();
  }
}

TEST_F(FaultInjectionTest, SequentialJoinAbortsTraversalEarlyOnDeadSink) {
  const auto tree = BuildTree();
  const std::string path = testing::TempDir() + "/csj_fault_abort.txt";

  // Reference run: how much work does a healthy join do? SSJ writes every
  // link straight to the sink, so the fault below hits immediately.
  FileSink healthy(IdWidthFor(entries_.size()), path);
  const JoinStats full =
      StandardSimilarityJoin(tree, DenseOptions(), &healthy);
  ASSERT_TRUE(healthy.Finish().ok());
  std::remove(path.c_str());

  // Faulty run: the very first write fails, so the traversal should abort
  // long before doing the full join's distance work.
  failpoint::ScopedFailpoint fp("output_file.append", failpoint::Spec::Once());
  FileSink sink(IdWidthFor(entries_.size()), path, OutputFormat::kText,
                kSmallBlock);
  const JoinStats aborted =
      StandardSimilarityJoin(tree, DenseOptions(), &sink);
  EXPECT_FALSE(aborted.status.ok());
  EXPECT_FALSE(sink.Finish().ok());
  ExpectNoOutputArtifacts(path);
  EXPECT_LT(aborted.distance_computations, full.distance_computations / 2)
      << "dead sink did not abort the traversal early";
}

TEST_F(FaultInjectionTest, OpenFaultMakesJoinANoOp) {
  const auto tree = BuildTree(500);
  const std::string path = testing::TempDir() + "/csj_fault_open.txt";
  failpoint::ScopedFailpoint fp("output_file.open", failpoint::Spec::Always());
  FileSink sink(IdWidthFor(entries_.size()), path);
  EXPECT_FALSE(sink.open_status().ok());
  const JoinStats stats = CompactSimilarityJoin(tree, DenseOptions(), &sink);
  EXPECT_FALSE(stats.status.ok());
  EXPECT_EQ(sink.num_links(), 0u);
  EXPECT_EQ(sink.num_groups(), 0u);
  EXPECT_EQ(sink.bytes(), 0u);
  EXPECT_FALSE(sink.Finish().ok());
  ExpectNoOutputArtifacts(path);
}

TEST_F(FaultInjectionTest, FlushFaultAtFinishIsReportedAndCleansUp) {
  const auto tree = BuildTree(500);
  const std::string path = testing::TempDir() + "/csj_fault_flush.txt";
  failpoint::ScopedFailpoint fp("output_file.flush", failpoint::Spec::Always());
  FileSink sink(IdWidthFor(entries_.size()), path);
  const JoinStats stats = CompactSimilarityJoin(tree, DenseOptions(), &sink);
  EXPECT_TRUE(stats.status.ok());  // writes buffered fine; flush fails later
  EXPECT_FALSE(sink.Finish().ok());
  EXPECT_FALSE(sink.error().ok());
  ExpectNoOutputArtifacts(path);
}

TEST_F(FaultInjectionTest, RenameFaultKeepsPreviousFileIntact) {
  const auto tree = BuildTree(500);
  const std::string path = testing::TempDir() + "/csj_fault_rename.txt";
  // A previous successful result is on disk.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("previous result\n", f);
    std::fclose(f);
  }
  failpoint::ScopedFailpoint fp("output_file.rename",
                                failpoint::Spec::Always());
  FileSink sink(IdWidthFor(entries_.size()), path);
  CompactSimilarityJoin(tree, DenseOptions(), &sink);
  EXPECT_FALSE(sink.Finish().ok());
  // The failed commit must not have clobbered the previous result.
  EXPECT_EQ(ReadWholeFile(path), "previous result\n");
  EXPECT_FALSE(FileExists(TempPathFor(path)));
  std::remove(path.c_str());
}

// --- Multi-threaded task runner ---------------------------------------------

/// A 4-thread CheckpointedSelfJoin of `tree` writing text to `path`, with
/// its manifest at `path`.ckpt.
JoinStats RunParallel(const RStarTree<2>& tree, const JoinOptions& options,
                      const std::string& path, bool resume = false) {
  CheckpointJoinOptions ckpt;
  ckpt.manifest_path = path + ".ckpt";
  ckpt.threads = 4;
  ckpt.resume = resume;
  return CheckpointedSelfJoin(tree, JoinAlgorithm::kCSJ, options,
                              OutputSpec::File(path, tree.size()), ckpt);
}

/// A failed run keeps the manifest of its last checkpoint; resuming without
/// the fault finishes the join with the bytes of a run that never failed.
void ExpectResumeMatchesHealthyRun(const RStarTree<2>& tree,
                                   const JoinOptions& options,
                                   const std::string& path) {
  ASSERT_TRUE(FileExists(path + ".ckpt")) << "no resume point survived";
  const JoinStats resumed = RunParallel(tree, options, path, /*resume=*/true);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_FALSE(FileExists(path + ".ckpt"));
  const std::string healthy = path + ".healthy";
  ASSERT_TRUE(RunParallel(tree, options, healthy).status.ok());
  EXPECT_EQ(ReadWholeFile(path), ReadWholeFile(healthy));
  std::remove(path.c_str());
  std::remove(healthy.c_str());
}

TEST_F(FaultInjectionTest, ParallelJoinReportsWriteFaultAndKeepsResumePoint) {
  const auto tree = BuildTree();
  const std::string path = testing::TempDir() + "/csj_fault_par.txt";
  {
    // The first append commits the initial manifest; later ones are 64 KiB
    // output blocks and periodic manifests, and the fifth fails mid-run.
    failpoint::ScopedFailpoint fp("output_file.append",
                                  failpoint::Spec::EveryNth(5));
    const JoinStats stats = RunParallel(tree, DenseOptions(), path);
    EXPECT_EQ(stats.status.code(), StatusCode::kIoError)
        << stats.status.ToString();
  }
  ExpectResumeMatchesHealthyRun(tree, DenseOptions(), path);
}

TEST_F(FaultInjectionTest, ParallelWorkerExceptionIsCapturedNotFatal) {
  const auto tree = BuildTree();
  const std::string path = testing::TempDir() + "/csj_fault_worker.txt";
  {
    failpoint::ScopedFailpoint fp("checkpoint_join.worker",
                                  failpoint::Spec::Once());
    const JoinStats stats = RunParallel(tree, DenseOptions(), path);
    EXPECT_FALSE(stats.status.ok());
    EXPECT_EQ(stats.status.code(), StatusCode::kInternal);
    EXPECT_NE(stats.status.message().find("injected worker fault"),
              std::string::npos);
  }
  // The incomplete result is not handed back as complete: the run stays
  // resumable from its last checkpoint.
  ExpectResumeMatchesHealthyRun(tree, DenseOptions(), path);
}

TEST_F(FaultInjectionTest, ParallelJoinWithDeadSinkSkipsTheWork) {
  const auto tree = BuildTree(500);
  const std::string path = testing::TempDir() + "/csj_fault_par_dead.txt";
  failpoint::ScopedFailpoint fp("output_file.open", failpoint::Spec::Always());
  const JoinStats stats = RunParallel(tree, DenseOptions(), path);
  EXPECT_FALSE(stats.status.ok());
  EXPECT_EQ(stats.distance_computations, 0u);
  ExpectNoOutputArtifacts(path);
  EXPECT_FALSE(FileExists(path + ".ckpt"));
}

// --- Binary sink ---------------------------------------------------------------

TEST_F(FaultInjectionTest, BinarySinkReportsWriteFaultAndLeavesNoFile) {
  const auto tree = BuildTree();
  const std::string path = testing::TempDir() + "/csj_fault_bin.bin";
  // The sink appends one block at a time on the join thread; let the header
  // and a couple of blocks land, then fail mid-stream. Small blocks
  // guarantee the dense join produces enough of them to hit the fault while
  // it is still emitting.
  failpoint::ScopedFailpoint fp("output_file.append",
                                failpoint::Spec::EveryNth(4));
  FileSink sink(IdWidthFor(entries_.size()), path, OutputFormat::kBinary,
                kSmallBlock);
  const JoinStats stats = CompactSimilarityJoin(tree, DenseOptions(), &sink);
  EXPECT_FALSE(stats.status.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kIoError);
  EXPECT_FALSE(sink.Finish().ok());
  EXPECT_FALSE(sink.error().ok());
  ExpectNoOutputArtifacts(path);
}

TEST_F(FaultInjectionTest, BinarySinkFaultAtFinishStillCleansUp) {
  const auto tree = BuildTree(500);
  const std::string path = testing::TempDir() + "/csj_fault_bin_fin.bin";
  // With the default 64 KiB blocks this small result stays in the open
  // block, so the first failing append is the one Finish() triggers.
  failpoint::ScopedFailpoint fp("output_file.flush", failpoint::Spec::Always());
  FileSink sink(IdWidthFor(entries_.size()), path, OutputFormat::kBinary);
  const JoinStats stats = CompactSimilarityJoin(tree, DenseOptions(), &sink);
  EXPECT_TRUE(stats.status.ok());  // blocks buffered fine; flush fails later
  EXPECT_FALSE(sink.Finish().ok());
  ExpectNoOutputArtifacts(path);
}

TEST_F(FaultInjectionTest, BinarySinkOpenFaultMakesJoinANoOp) {
  const auto tree = BuildTree(500);
  const std::string path = testing::TempDir() + "/csj_fault_bin_open.bin";
  failpoint::ScopedFailpoint fp("output_file.open", failpoint::Spec::Always());
  auto sink =
      MakeSink(OutputSpec::File(path, entries_.size(), OutputFormat::kBinary));
  EXPECT_FALSE(sink.ok());
  ExpectNoOutputArtifacts(path);
}

TEST_F(FaultInjectionTest, BinarySinkDisarmedFailpointsRoundTrip) {
  const auto tree = BuildTree(500);
  const std::string path = testing::TempDir() + "/csj_nofault_bin.bin";
  // Arm-then-disarm must leave the binary pipeline fully functional.
  failpoint::Enable("output_file.append", failpoint::Spec::Always());
  failpoint::DisableAll();

  auto sink = MakeSink(
      OutputSpec::File(path, entries_.size(), OutputFormat::kBinary));
  ASSERT_TRUE(sink.ok());
  const JoinStats stats =
      CompactSimilarityJoin(tree, DenseOptions(), sink->get());
  EXPECT_TRUE(stats.status.ok());
  ASSERT_TRUE((*sink)->Finish().ok());

  auto cursor = OpenResultCursor(path);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  while ((*cursor)->Next()) {
  }
  EXPECT_TRUE((*cursor)->status().ok()) << (*cursor)->status().ToString();
  EXPECT_EQ((*cursor)->links_read() + (*cursor)->groups_read(),
            (*sink)->num_links() + (*sink)->num_groups());
  std::remove(path.c_str());
}

/// Links implied by the records `path` holds whole: complete text lines, or
/// the records of the CSJ2 blocks that pass their checksum.
uint64_t ImpliedHeld(const std::string& path, OutputFormat format) {
  uint64_t implied = 0;
  if (format == OutputFormat::kText) {
    uint64_t ids = 1;
    for (const char c : ReadWholeFile(path)) {
      if (c == ' ') ++ids;
      if (c == '\n') {
        implied += ids * (ids - 1) / 2;
        ids = 1;
      }
    }
    return implied;
  }
  auto cursor = OpenResultCursor(path, OutputFormat::kBinary);
  if (!cursor.ok()) return 0;
  while ((*cursor)->Next()) {
    const uint64_t k = (*cursor)->record().ids.size();
    implied += k * (k - 1) / 2;
  }
  return implied;
}

TEST_F(FaultInjectionTest, SinkDeathDeductsTheRecordsItLost) {
  // A failed block append loses the block's records, except whole text
  // lines that landed. The links they imply, reported lost, bring the count
  // of accepted records down to what the file holds. A resumed sink's first
  // block also carries records of the interrupted session.
  const std::string path = testing::TempDir() + "/csj_fault_lost";
  for (const OutputFormat format :
       {OutputFormat::kText, OutputFormat::kBinary}) {
    for (const bool resumed : {false, true}) {
      SCOPED_TRACE(testing::Message() << OutputFormatName(format)
                                      << (resumed ? " resumed" : " fresh"));
      OutputSpec spec = OutputSpec::File(path, 100000, format);
      spec.checkpointable = true;
      Rng rng(3);
      uint64_t accepted = 0;  // links implied by the records accepted
      auto emit = [&](JoinSink* sink) {
        std::vector<PointId> ids(2 + rng.UniformInt(uint64_t{6}));
        for (auto& id : ids) id = static_cast<PointId>(rng.UniformInt(99999));
        sink->Group(ids);
        if (sink->error().ok()) accepted += ids.size() * (ids.size() - 1) / 2;
      };
      checkpoint::SinkState state;
      if (resumed) {
        FileSink first(spec, nullptr, kSmallBlock);
        for (int i = 0; i < 30; ++i) emit(&first);
        ASSERT_TRUE(first.Checkpoint(&state).ok());
        ASSERT_FALSE(state.partial_payload.empty());
      }
      uint64_t lost = 0;
      {
        // Fresh: the file header (CSJ2) and two blocks land, then a block
        // fails. Resumed: the first block, the reloaded one, fails.
        failpoint::ScopedFailpoint fp(
            "output_file.append", resumed ? failpoint::Spec::Once()
                                          : failpoint::Spec::EveryNth(3));
        FileSink sink(spec, resumed ? &state : nullptr, kSmallBlock);
        for (int i = 0; i < 1000 && sink.error().ok(); ++i) emit(&sink);
        ASSERT_EQ(sink.error().code(), StatusCode::kIoError);
        lost = sink.lost_implied_links();
      }
      EXPECT_GT(lost, 0u);
      EXPECT_EQ(accepted - lost, ImpliedHeld(path, format));
      std::remove(path.c_str());
    }
  }
}

// --- LoadPoints --------------------------------------------------------------

TEST_F(FaultInjectionTest, LoadPointsSurfacesInjectedReadFault) {
  const std::string path = testing::TempDir() + "/csj_fault_points.txt";
  const auto points = GenerateUniform<2>(50, 3);
  ASSERT_TRUE(SavePoints(path, points).ok());
  {
    failpoint::ScopedFailpoint fp("point_io.read", failpoint::Spec::Always());
    auto result = LoadPoints<2>(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
  // With the failpoint gone the same file loads fine.
  auto result = LoadPoints<2>(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, points);
  std::remove(path.c_str());
}

// --- Index and point files ---------------------------------------------------

TEST_F(FaultInjectionTest, SaveTreeFaultKeepsPreviousIndex) {
  const auto tree = BuildTree(500);
  const std::string path = testing::TempDir() + "/csj_fault_index.csjt";
  ASSERT_TRUE(SaveTree(tree, path).ok());
  const std::string previous = ReadWholeFile(path);
  {
    const auto other = BuildTree(2000);
    failpoint::ScopedFailpoint fp("output_file.append",
                                  failpoint::Spec::Always());
    EXPECT_EQ(SaveTree(other, path).code(), StatusCode::kIoError);
  }
  EXPECT_EQ(ReadWholeFile(path), previous);
  EXPECT_FALSE(FileExists(TempPathFor(path)));
  RStarTree<2> loaded;
  ASSERT_TRUE(LoadTree(&loaded, path).ok());
  EXPECT_EQ(loaded.size(), tree.size());
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, PagedImageAndPointFaultsKeepPreviousFiles) {
  const auto tree = BuildTree(500);
  const auto points = GenerateUniform<2>(300, 5);
  const std::string paged_path = testing::TempDir() + "/csj_fault_paged.csjp";
  const std::string points_path = testing::TempDir() + "/csj_fault_pts.txt";
  ASSERT_TRUE(WritePagedTree(tree, paged_path).ok());
  ASSERT_TRUE(SavePoints(points_path, points).ok());
  const std::string previous_paged = ReadWholeFile(paged_path);
  {
    const auto other = BuildTree(2000);
    failpoint::ScopedFailpoint fp("output_file.append",
                                  failpoint::Spec::Always());
    EXPECT_EQ(WritePagedTree(other, paged_path).code(), StatusCode::kIoError);
    EXPECT_EQ(SavePoints(points_path, GenerateUniform<2>(400, 6)).code(),
              StatusCode::kIoError);
  }
  EXPECT_EQ(ReadWholeFile(paged_path), previous_paged);
  EXPECT_FALSE(FileExists(TempPathFor(paged_path)));
  EXPECT_FALSE(FileExists(TempPathFor(points_path)));
  auto paged = PagedTree<2>::Open(paged_path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ(paged->size(), tree.size());
  auto loaded = LoadPoints<2>(points_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, points);
  std::remove(paged_path.c_str());
  std::remove(points_path.c_str());
}

// --- No-fault baseline -------------------------------------------------------

TEST_F(FaultInjectionTest, DisabledFailpointsLeaveOutputByteIdentical) {
  const auto tree = BuildTree(1000);
  const std::string path_a = testing::TempDir() + "/csj_nofault_a.txt";
  const std::string path_b = testing::TempDir() + "/csj_nofault_b.txt";

  FileSink sink_a(IdWidthFor(entries_.size()), path_a);
  const JoinStats stats_a = CompactSimilarityJoin(tree, DenseOptions(), &sink_a);
  ASSERT_TRUE(sink_a.Finish().ok());
  EXPECT_TRUE(stats_a.status.ok());

  // Arm-then-disarm must leave no residue on later runs.
  failpoint::Enable("output_file.append", failpoint::Spec::Always());
  failpoint::DisableAll();

  FileSink sink_b(IdWidthFor(entries_.size()), path_b);
  const JoinStats stats_b = CompactSimilarityJoin(tree, DenseOptions(), &sink_b);
  ASSERT_TRUE(sink_b.Finish().ok());
  EXPECT_TRUE(stats_b.status.ok());

  const std::string content_a = ReadWholeFile(path_a);
  EXPECT_EQ(content_a, ReadWholeFile(path_b));
  EXPECT_GT(content_a.size(), 0u);
  EXPECT_EQ(content_a.size(), sink_a.bytes());
  EXPECT_EQ(stats_a.output_bytes, stats_b.output_bytes);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace csj
