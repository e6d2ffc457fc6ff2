#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/checkpoint_join.h"
#include "core/ego.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "index/rstar_tree.h"
#include "metric/metric_join.h"
#include "metric/generic_mtree.h"
#include "util/exec_context.h"
#include "util/random.h"

/// \file
/// The resource-governance acceptance matrix: every driver family (serial
/// tree, the multi-threaded task runner, EGO, metric) must terminate with the
/// correct Status
/// under an injected deadline, cancel, or budget exhaustion — no crash, no
/// runaway, no partial-output artifact.

namespace csj {
namespace {

std::vector<Entry<2>> UniformEntries(size_t n, uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<Entry<2>> entries;
  entries.reserve(n);
  for (PointId i = 0; i < static_cast<PointId>(n); ++i) {
    entries.push_back({i, Point<2>{{rng.UniformDouble(), rng.UniformDouble()}}});
  }
  return entries;
}

RStarTree<2> BuildTree(const std::vector<Entry<2>>& entries) {
  RStarOptions options;
  options.max_fanout = 8;
  options.min_fanout = 3;
  RStarTree<2> tree(options);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  return tree;
}

struct L2 {
  double operator()(const Point<2>& a, const Point<2>& b) const {
    return Distance(a, b);
  }
};

GenericMTree<Point<2>, L2> BuildMTree(const std::vector<Entry<2>>& entries) {
  GenericMTree<Point<2>, L2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  return tree;
}

/// An ExecContext whose deadline is already in the past: the first clock
/// check trips it, making deadline tests deterministic.
void ArmExpiredDeadline(ExecContext* ctx) {
  ctx->SetDeadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
}

// ------------------------------------------------------------ serial tree --

TEST(GovernanceTest, SerialJoinHonorsDeadline) {
  const auto entries = UniformEntries(400);
  auto tree = BuildTree(entries);
  ExecContext exec;
  ArmExpiredDeadline(&exec);
  JoinOptions options;
  options.epsilon = 0.05;
  options.window_size = 10;
  options.exec = &exec;
  MemorySink sink(3);
  const JoinStats stats = CompactSimilarityJoin(tree, options, &sink);
  EXPECT_EQ(stats.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernanceTest, SerialJoinHonorsCancel) {
  const auto entries = UniformEntries(400);
  auto tree = BuildTree(entries);
  std::atomic<bool> cancel{true};  // raised before the run even starts
  ExecContext exec;
  exec.SetCancelFlag(&cancel);
  JoinOptions options;
  options.epsilon = 0.05;
  options.exec = &exec;
  MemorySink sink(3);
  const JoinStats stats = StandardSimilarityJoin(tree, options, &sink);
  EXPECT_EQ(stats.status.code(), StatusCode::kCancelled);
}

TEST(GovernanceTest, SerialJoinHonorsBudget) {
  const auto entries = UniformEntries(400);
  auto tree = BuildTree(entries);
  MemoryBudget budget(16);  // too small for any scratch allocation
  ExecContext exec;
  exec.SetMemoryBudget(&budget);
  JoinOptions options;
  options.epsilon = 0.05;
  options.window_size = 10;
  options.exec = &exec;
  MemorySink sink(3);
  const JoinStats stats = CompactSimilarityJoin(tree, options, &sink);
  EXPECT_EQ(stats.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(budget.denials(), 1u);
  EXPECT_EQ(budget.used(), 0u);  // everything charged was released
}

TEST(GovernanceTest, SerialJoinDeadlineMsOptionAlone) {
  // deadline_ms must work without any caller-provided ExecContext (the bug
  // this PR fixes: it used to require the checkpointed runner).
  const auto entries = UniformEntries(400);
  auto tree = BuildTree(entries);
  JoinOptions options;
  options.epsilon = 0.4;  // dense: long enough to outlive a 1 ms deadline
  options.window_size = 10;
  options.deadline_ms = 1;
  CountingSink sink(3);
  const JoinStats stats = CompactSimilarityJoin(tree, options, &sink);
  if (!stats.status.ok()) {
    EXPECT_EQ(stats.status.code(), StatusCode::kDeadlineExceeded);
  }
  // Either it finished in under a millisecond (fine) or it stopped with the
  // proper code — both are correct; crashing or ignoring the option is not.
}

// ---------------------------------------------------------- parallel tree --

/// A 4-thread CheckpointedSelfJoin under `exec`, counting its output.
JoinStats RunParallel(const RStarTree<2>& tree, ExecContext* exec) {
  JoinOptions options;
  options.epsilon = 0.05;
  options.window_size = 10;
  options.exec = exec;
  CheckpointJoinOptions ckpt;
  ckpt.manifest_path = testing::TempDir() + "/governance_parallel.ckpt";
  ckpt.threads = 4;
  const JoinStats stats =
      CheckpointedSelfJoin(tree, JoinAlgorithm::kCSJ, options,
                           OutputSpec::Counting(tree.size()), ckpt);
  std::remove(ckpt.manifest_path.c_str());
  return stats;
}

TEST(GovernanceTest, ParallelJoinHonorsCancel) {
  const auto entries = UniformEntries(600);
  auto tree = BuildTree(entries);
  std::atomic<bool> cancel{true};
  ExecContext exec;
  exec.SetCancelFlag(&cancel);
  const JoinStats stats = RunParallel(tree, &exec);
  EXPECT_EQ(stats.status.code(), StatusCode::kCancelled);
  // The cancel was raised before the first task: no work, no output.
  EXPECT_EQ(stats.distance_computations, 0u);
  EXPECT_EQ(stats.links + stats.groups, 0u);
}

TEST(GovernanceTest, ParallelJoinHonorsDeadline) {
  const auto entries = UniformEntries(600);
  auto tree = BuildTree(entries);
  ExecContext exec;
  ArmExpiredDeadline(&exec);
  const JoinStats stats = RunParallel(tree, &exec);
  EXPECT_EQ(stats.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernanceTest, ParallelJoinHonorsBudget) {
  const auto entries = UniformEntries(600);
  auto tree = BuildTree(entries);
  MemoryBudget budget(16);
  ExecContext exec;
  exec.SetMemoryBudget(&budget);
  const JoinStats stats = RunParallel(tree, &exec);
  EXPECT_EQ(stats.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 0u);
}

// -------------------------------------------------------------------- EGO --

TEST(GovernanceTest, EgoJoinHonorsCancel) {
  const auto entries = UniformEntries(500);
  std::atomic<bool> cancel{true};
  ExecContext exec;
  exec.SetCancelFlag(&cancel);
  EgoOptions options;
  options.epsilon = 0.05;
  options.exec = &exec;
  MemorySink sink(3);
  const JoinStats stats = EgoSimilarityJoin(entries, options, &sink);
  EXPECT_EQ(stats.status.code(), StatusCode::kCancelled);
}

TEST(GovernanceTest, CompactEgoJoinHonorsDeadline) {
  const auto entries = UniformEntries(500);
  ExecContext exec;
  ArmExpiredDeadline(&exec);
  EgoOptions options;
  options.epsilon = 0.05;
  options.window_size = 10;
  options.exec = &exec;
  MemorySink sink(3);
  const JoinStats stats = CompactEgoJoin(entries, options, &sink);
  EXPECT_EQ(stats.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernanceTest, EgoJoinHonorsBudget) {
  const auto entries = UniformEntries(500);
  MemoryBudget budget(16);
  ExecContext exec;
  exec.SetMemoryBudget(&budget);
  EgoOptions options;
  options.epsilon = 0.05;
  options.exec = &exec;
  MemorySink sink(3);
  const JoinStats stats = EgoSimilarityJoin(entries, options, &sink);
  EXPECT_EQ(stats.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 0u);
}

// ----------------------------------------------------------------- metric --

TEST(GovernanceTest, MetricJoinHonorsCancel) {
  const auto entries = UniformEntries(300);
  auto tree = BuildMTree(entries);
  std::atomic<bool> cancel{true};
  ExecContext exec;
  exec.SetCancelFlag(&cancel);
  JoinOptions options;
  options.epsilon = 0.05;
  options.window_size = 8;
  options.exec = &exec;
  MemorySink sink(3);
  const JoinStats stats = MetricCompactJoin(tree, options, &sink);
  EXPECT_EQ(stats.status.code(), StatusCode::kCancelled);
}

TEST(GovernanceTest, MetricJoinHonorsDeadline) {
  const auto entries = UniformEntries(300);
  auto tree = BuildMTree(entries);
  ExecContext exec;
  ArmExpiredDeadline(&exec);
  JoinOptions options;
  options.epsilon = 0.05;
  options.window_size = 8;
  options.exec = &exec;
  MemorySink sink(3);
  const JoinStats stats = MetricStandardJoin(tree, options, &sink);
  EXPECT_EQ(stats.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernanceTest, MetricJoinHonorsBudget) {
  const auto entries = UniformEntries(300);
  auto tree = BuildMTree(entries);
  MemoryBudget budget(8);  // denies even a single group-member charge
  ExecContext exec;
  exec.SetMemoryBudget(&budget);
  JoinOptions options;
  options.epsilon = 0.05;
  options.window_size = 8;
  options.exec = &exec;
  MemorySink sink(3);
  const JoinStats stats = MetricCompactJoin(tree, options, &sink);
  EXPECT_EQ(stats.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 0u);
}

// ------------------------------------------------------- no partial files --

TEST(GovernanceTest, GovernedStopLeavesNoPartialFile) {
  const auto entries = UniformEntries(400);
  auto tree = BuildTree(entries);
  const std::string path = ::testing::TempDir() + "/governed_stop_out.txt";
  std::remove(path.c_str());
  {
    std::atomic<bool> cancel{true};
    ExecContext exec;
    exec.SetCancelFlag(&cancel);
    JoinOptions options;
    options.epsilon = 0.05;
    options.exec = &exec;
    FileSink sink(3, path);
    ASSERT_TRUE(sink.open_status().ok());
    const JoinStats stats = StandardSimilarityJoin(tree, options, &sink);
    EXPECT_EQ(stats.status.code(), StatusCode::kCancelled);
    // Governed contract: a non-OK join status means the caller must NOT
    // Finish() the sink; the atomic FileSink then discards its temp file.
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_EQ(f, nullptr) << "partial output left behind at " << path;
  if (f != nullptr) std::fclose(f);
}

// ----------------------------------------------- degradation before death --

TEST(GovernanceTest, WindowShedsUnderPressureBeforeFailing) {
  // With a budget generous enough for scratch but tight on group windows,
  // CSJ(g) should degrade (shed window groups) and still complete losslessly
  // or stop cleanly — never crash. A completed run must stay within budget.
  const auto entries = UniformEntries(400);
  auto tree = BuildTree(entries);
  MemoryBudget budget(256 * 1024);
  ExecContext exec;
  exec.SetMemoryBudget(&budget);
  JoinOptions options;
  options.epsilon = 0.1;
  options.window_size = 64;
  options.exec = &exec;
  MemorySink sink(3);
  const JoinStats stats = CompactSimilarityJoin(tree, options, &sink);
  if (stats.status.ok()) {
    EXPECT_LE(budget.peak(), budget.limit());
  } else {
    EXPECT_EQ(stats.status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(budget.used(), 0u);
}

}  // namespace
}  // namespace csj
