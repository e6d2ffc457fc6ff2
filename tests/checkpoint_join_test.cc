#include "core/checkpoint_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/brute.h"
#include "core/expand.h"
#include "core/result_cursor.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/bulk_load.h"
#include "index/mtree.h"
#include "index/node_access.h"
#include "index/rstar_tree.h"
#include "storage/checkpoint.h"
#include "util/failpoint.h"
#include "util/metrics.h"

/// \file
/// The task runner (CheckpointedSelfJoin): output that depends only on the
/// task list — byte-identical across thread counts for every algorithm and
/// format — byte-identical resume after interruption, also at another
/// thread count, graceful cancellation, deadline expiry, resume validation
/// against configuration drift, exact cumulative JoinStats across resumes,
/// and the runner's metrics. The interruptions here are real — a deadline
/// stops the run at an arbitrary task boundary and the test resumes until
/// completion, so every assertion is independent of *where* the run was
/// cut. ParallelJoinTest covers multi-threaded runs: losslessness, degenerate
/// inputs, window options, and sink deaths mid-run.

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
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

uint64_t CounterValue(const std::string& name) {
  for (const auto& [counter, value] : metrics::Snapshot().counters) {
    if (counter == name) return value;
  }
  return 0;
}

uint64_t HistogramSum(const std::string& name) {
  for (const auto& histogram : metrics::Snapshot().histograms) {
    if (histogram.name == name) return histogram.sum;
  }
  return 0;
}

/// Expects the work/output counters (everything except timing) to match.
void ExpectSameCounters(const JoinStats& a, const JoinStats& b) {
  EXPECT_EQ(a.links, b.links);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.group_member_total, b.group_member_total);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.distance_computations, b.distance_computations);
  EXPECT_EQ(a.kernel_candidates, b.kernel_candidates);
  EXPECT_EQ(a.kernel_pruned, b.kernel_pruned);
  EXPECT_EQ(a.kernel_hits, b.kernel_hits);
  EXPECT_EQ(a.early_stops, b.early_stops);
  EXPECT_EQ(a.merge_attempts, b.merge_attempts);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.ImpliedLinkUpperBound(), b.ImpliedLinkUpperBound());
}

class CheckpointJoinTest : public testing::Test {
 protected:
  void SetUp() override {
    entries_ = ToEntries(GenerateGaussianClusters<2>(6000, 6, 0.02, 23));
    PackStr(&tree_, entries_);
  }

  void TearDown() override {
    for (const auto& path : cleanup_) std::remove(path.c_str());
  }

  JoinOptions Options() const {
    JoinOptions options;
    options.epsilon = 0.02;
    options.window_size = 10;
    return options;
  }

  OutputSpec Spec(OutputFormat format, const std::string& name) {
    OutputSpec spec;
    spec.format = format;
    spec.path = testing::TempDir() + "/" + name;
    spec.id_width = IdWidthFor(entries_.size());
    cleanup_.push_back(spec.path);
    return spec;
  }

  CheckpointJoinOptions Ckpt(const std::string& name, int threads = 1,
                             int tasks_per_thread = 8) {
    CheckpointJoinOptions ckpt;
    ckpt.manifest_path = testing::TempDir() + "/" + name;
    ckpt.checkpoint_interval = 7;
    ckpt.threads = threads;
    ckpt.tasks_per_thread = tasks_per_thread;
    cleanup_.push_back(ckpt.manifest_path);
    return ckpt;
  }

  /// One uninterrupted checkpointed run.
  JoinStats RunFull(JoinAlgorithm algorithm, const OutputSpec& spec,
                    const CheckpointJoinOptions& ckpt) {
    JoinStats stats =
        CheckpointedSelfJoin(tree_, algorithm, Options(), spec, ckpt);
    EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
    EXPECT_FALSE(FileExists(ckpt.manifest_path))
        << "manifest survived a completed run";
    return stats;
  }

  /// Runs under a short deadline, resuming after every expiration until the
  /// join completes. Returns the final (cumulative) stats and requires at
  /// least one real interruption, so the equivalence assertions downstream
  /// genuinely cover the resume path. Resumes run with `resume_shape`'s
  /// threads and tasks_per_thread when it is given.
  JoinStats RunCrashLoop(JoinAlgorithm algorithm, const OutputSpec& spec,
                         CheckpointJoinOptions ckpt, uint64_t deadline_ms,
                         int* interruptions_out = nullptr,
                         const CheckpointJoinOptions* resume_shape = nullptr) {
    JoinOptions options = Options();
    options.deadline_ms = deadline_ms;
    int interruptions = 0;
    ckpt.resume = false;
    for (int attempt = 0; attempt < 500; ++attempt) {
      const JoinStats stats =
          CheckpointedSelfJoin(tree_, algorithm, options, spec, ckpt);
      if (stats.status.ok()) {
        EXPECT_FALSE(FileExists(ckpt.manifest_path));
        if (interruptions_out != nullptr) *interruptions_out = interruptions;
        return stats;
      }
      EXPECT_EQ(stats.status.code(), StatusCode::kDeadlineExceeded)
          << stats.status.ToString();
      EXPECT_TRUE(FileExists(ckpt.manifest_path))
          << "interrupted run left no manifest";
      ++interruptions;
      ckpt.resume = true;
      if (resume_shape != nullptr) {
        ckpt.threads = resume_shape->threads;
        ckpt.tasks_per_thread = resume_shape->tasks_per_thread;
      }
      // Let later sessions run longer so the loop always converges even on
      // a slow (e.g. sanitizer) build.
      if (attempt >= 50) options.deadline_ms = deadline_ms * 10;
    }
    ADD_FAILURE() << "crash loop did not converge";
    return JoinStats{};
  }

  std::vector<Entry<2>> entries_;
  RStarTree<2> tree_;
  std::vector<std::string> cleanup_;
};

TEST_F(CheckpointJoinTest, UninterruptedRunIsDeterministicAndLossless) {
  const auto spec_a = Spec(OutputFormat::kText, "ckj_det_a.txt");
  const auto spec_b = Spec(OutputFormat::kText, "ckj_det_b.txt");
  const JoinStats a = RunFull(JoinAlgorithm::kCSJ, spec_a, Ckpt("ckj_det_a.ckpt"));
  const JoinStats b = RunFull(JoinAlgorithm::kCSJ, spec_b, Ckpt("ckj_det_b.ckpt"));
  ExpectSameCounters(a, b);
  const std::string bytes = ReadWholeFile(spec_a.path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, ReadWholeFile(spec_b.path));

  // The task-decomposed traversal must still be a lossless compact join.
  auto cursor = OpenResultCursor(spec_a.path);
  ASSERT_TRUE(cursor.ok());
  auto expansion = ExpandSelfJoin(cursor->get());
  ASSERT_TRUE(expansion.ok());
  const auto report = CompareLinkSets(
      *expansion, BruteForceSelfJoin(entries_, Options().epsilon));
  EXPECT_TRUE(report.lossless()) << report.ToString();
}

TEST_F(CheckpointJoinTest, TextResumeIsByteIdentical) {
  const auto full_spec = Spec(OutputFormat::kText, "ckj_text_full.txt");
  const JoinStats full =
      RunFull(JoinAlgorithm::kCSJ, full_spec, Ckpt("ckj_text_full.ckpt"));

  const auto spec = Spec(OutputFormat::kText, "ckj_text_crash.txt");
  int interruptions = 0;
  const JoinStats resumed = RunCrashLoop(JoinAlgorithm::kCSJ, spec,
                                         Ckpt("ckj_text_crash.ckpt"),
                                         /*deadline_ms=*/15, &interruptions);
  EXPECT_GT(interruptions, 0) << "deadline never fired; nothing was tested";
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, BinaryResumeIsByteIdentical) {
  const auto full_spec = Spec(OutputFormat::kBinary, "ckj_bin_full.bin");
  const JoinStats full =
      RunFull(JoinAlgorithm::kCSJ, full_spec, Ckpt("ckj_bin_full.ckpt"));

  const auto spec = Spec(OutputFormat::kBinary, "ckj_bin_crash.bin");
  int interruptions = 0;
  const JoinStats resumed = RunCrashLoop(JoinAlgorithm::kCSJ, spec,
                                         Ckpt("ckj_bin_crash.ckpt"),
                                         /*deadline_ms=*/15, &interruptions);
  EXPECT_GT(interruptions, 0);
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, SsjResumeIsByteIdentical) {
  // SSJ has no merge window: the link stream alone must be byte-identical.
  const auto full_spec = Spec(OutputFormat::kText, "ckj_ssj_full.txt");
  const JoinStats full =
      RunFull(JoinAlgorithm::kSSJ, full_spec, Ckpt("ckj_ssj_full.ckpt"));
  const auto spec = Spec(OutputFormat::kText, "ckj_ssj_crash.txt");
  const JoinStats resumed = RunCrashLoop(JoinAlgorithm::kSSJ, spec,
                                         Ckpt("ckj_ssj_crash.ckpt"),
                                         /*deadline_ms=*/15);
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, ParallelResumeIsByteIdentical) {
  const auto full_spec = Spec(OutputFormat::kBinary, "ckj_par_full.bin");
  const JoinStats full = RunFull(JoinAlgorithm::kCSJ, full_spec,
                                 Ckpt("ckj_par_full.ckpt", /*threads=*/2));
  const auto spec = Spec(OutputFormat::kBinary, "ckj_par_crash.bin");
  int interruptions = 0;
  const JoinStats resumed = RunCrashLoop(
      JoinAlgorithm::kCSJ, spec, Ckpt("ckj_par_crash.ckpt", /*threads=*/2),
      /*deadline_ms=*/15, &interruptions);
  EXPECT_GT(interruptions, 0);
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, CountingSinkResumesToExactByteCount) {
  // kNone never materializes output, but its byte accounting (in the binary
  // model, including the open-block fill) must survive a resume exactly.
  auto spec = Spec(OutputFormat::kNone, "unused");
  spec.path.clear();
  spec.count_model = OutputFormat::kBinary;
  const JoinStats full =
      RunFull(JoinAlgorithm::kCSJ, spec, Ckpt("ckj_none_full.ckpt"));
  const JoinStats resumed = RunCrashLoop(JoinAlgorithm::kCSJ, spec,
                                         Ckpt("ckj_none_crash.ckpt"),
                                         /*deadline_ms=*/15);
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, PresetCancelStopsBeforeAnyWork) {
  std::atomic<bool> cancel{true};
  const auto spec = Spec(OutputFormat::kText, "ckj_cancel.txt");
  auto ckpt = Ckpt("ckj_cancel.ckpt");
  ckpt.cancel = &cancel;
  const JoinStats stats =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  ASSERT_EQ(stats.status.code(), StatusCode::kCancelled)
      << stats.status.ToString();
  EXPECT_EQ(stats.distance_computations, 0u);
  ASSERT_TRUE(FileExists(ckpt.manifest_path));

  // Clearing the flag and resuming completes the whole join, byte-identical
  // to a run that was never cancelled.
  cancel.store(false);
  ckpt.resume = true;
  const JoinStats resumed =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();

  const auto full_spec = Spec(OutputFormat::kText, "ckj_cancel_full.txt");
  const JoinStats full =
      RunFull(JoinAlgorithm::kCSJ, full_spec, Ckpt("ckj_cancel_full.ckpt"));
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, ResumeValidatesConfigurationAndManifest) {
  // Save a genuine mid-run manifest by cancelling immediately.
  std::atomic<bool> cancel{true};
  const auto spec = Spec(OutputFormat::kText, "ckj_validate.txt");
  auto ckpt = Ckpt("ckj_validate.ckpt");
  ckpt.cancel = &cancel;
  ASSERT_EQ(CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec,
                                 ckpt)
                .status.code(),
            StatusCode::kCancelled);
  cancel.store(false);
  ckpt.resume = true;

  {
    // Different epsilon: the fingerprint must reject the resume.
    JoinOptions options = Options();
    options.epsilon = 0.021;
    const JoinStats stats =
        CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, options, spec, ckpt);
    EXPECT_EQ(stats.status.code(), StatusCode::kFailedPrecondition)
        << stats.status.ToString();
  }
  {
    // Different algorithm.
    const JoinStats stats = CheckpointedSelfJoin(tree_, JoinAlgorithm::kSSJ,
                                                 Options(), spec, ckpt);
    EXPECT_EQ(stats.status.code(), StatusCode::kFailedPrecondition);
  }
  {
    // Different task granularity (changes the task list). A different
    // thread count alone is fine: see ResumeAtAnotherThreadCount below.
    auto coarse = ckpt;
    coarse.tasks_per_thread = 4096;
    ASSERT_NE(internal::BuildTaskList(tree_, Options().epsilon, 8).size(),
              internal::BuildTaskList(tree_, Options().epsilon, 4096).size());
    const JoinStats stats = CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ,
                                                 Options(), spec, coarse);
    EXPECT_EQ(stats.status.code(), StatusCode::kFailedPrecondition);
  }
  {
    // Truncated manifest: a clean parse error, never a silent restart.
    const std::string bytes = ReadWholeFile(ckpt.manifest_path);
    std::FILE* f = std::fopen(ckpt.manifest_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(bytes.data(), 1, bytes.size() / 2, f);
    std::fclose(f);
    const JoinStats stats = CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ,
                                                 Options(), spec, ckpt);
    EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument)
        << stats.status.ToString();
  }
}

TEST_F(CheckpointJoinTest, ResumeWithoutManifestIsNotFound) {
  const auto spec = Spec(OutputFormat::kText, "ckj_missing.txt");
  auto ckpt = Ckpt("ckj_missing.ckpt");
  ckpt.resume = true;
  const JoinStats stats =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  EXPECT_EQ(stats.status.code(), StatusCode::kNotFound)
      << stats.status.ToString();
}

TEST_F(CheckpointJoinTest, EmptyManifestPathIsRejected) {
  const auto spec = Spec(OutputFormat::kText, "ckj_nopath.txt");
  CheckpointJoinOptions ckpt;
  const JoinStats stats =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
}

#ifndef CSJ_NO_FAILPOINTS

TEST_F(CheckpointJoinTest, SinkCrashKeepsManifestAndResumesByteIdentical) {
  // A hard I/O fault mid-run (any crash site in the output path) poisons the
  // sink and aborts the run — but the manifest of the last successful
  // checkpoint must survive, and a resume after the fault clears must finish
  // with byte-identical output.
  const auto full_spec = Spec(OutputFormat::kBinary, "ckj_fault_full.bin");
  RunFull(JoinAlgorithm::kCSJ, full_spec, Ckpt("ckj_fault_full.ckpt"));

  const auto spec = Spec(OutputFormat::kBinary, "ckj_fault_crash.bin");
  auto ckpt = Ckpt("ckj_fault_crash.ckpt");
  {
    // Let the initial checkpoint land, then fail a later append hard.
    failpoint::ScopedFailpoint fp("output_file.append",
                                  failpoint::Spec::EveryNth(40));
    const JoinStats stats = CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ,
                                                 Options(), spec, ckpt);
    ASSERT_FALSE(stats.status.ok());
    ASSERT_TRUE(FileExists(ckpt.manifest_path))
        << "crash discarded the last good checkpoint";
  }
  ckpt.resume = true;
  const JoinStats resumed =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
}

TEST_F(CheckpointJoinTest, ProbabilisticTransientFaultsAreAbsorbedByRetry) {
  // A flaky device (prob: failpoint, deterministic seed) injects transient
  // short writes throughout the run; the backoff policy must absorb every
  // one of them — the join completes OK and the output is byte-identical to
  // a run on a healthy device.
  const auto healthy_spec = Spec(OutputFormat::kBinary, "ckj_retry_ref.bin");
  RunFull(JoinAlgorithm::kCSJ, healthy_spec, Ckpt("ckj_retry_ref.ckpt"));

  const uint64_t errors_before = CounterValue("retry.transient_errors");
  const uint64_t attempts_before = CounterValue("retry.attempts");
  const auto spec = Spec(OutputFormat::kBinary, "ckj_retry_flaky.bin");
  {
    failpoint::ScopedFailpoint fp(
        "output_file.append_transient",
        failpoint::Spec::Probability(0.2, /*seed=*/7));
    RunFull(JoinAlgorithm::kCSJ, spec, Ckpt("ckj_retry_flaky.ckpt"));
  }
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(healthy_spec.path));
#ifndef CSJ_NO_METRICS
  EXPECT_GT(CounterValue("retry.transient_errors"), errors_before)
      << "the prob: failpoint never fired; nothing was tested";
  EXPECT_GT(CounterValue("retry.attempts"), attempts_before);
#else
  (void)errors_before;
  (void)attempts_before;
#endif
}

#endif  // CSJ_NO_FAILPOINTS

TEST_F(CheckpointJoinTest, MetricsAccumulateAcrossResume) {
  const uint64_t saves_before = CounterValue("checkpoint.saves");
  const uint64_t resumes_before = CounterValue("checkpoint.resumes");
  const auto spec = Spec(OutputFormat::kText, "ckj_metrics.txt");
  int interruptions = 0;
  RunCrashLoop(JoinAlgorithm::kCSJ, spec, Ckpt("ckj_metrics.ckpt"),
               /*deadline_ms=*/15, &interruptions);
  ASSERT_GT(interruptions, 0);
#ifndef CSJ_NO_METRICS
  EXPECT_GT(CounterValue("checkpoint.saves"), saves_before);
  EXPECT_EQ(CounterValue("checkpoint.resumes"),
            resumes_before + static_cast<uint64_t>(interruptions));
#else
  (void)saves_before;
  (void)resumes_before;
#endif
}

// --- One loop for every thread count -------------------------------------

constexpr JoinAlgorithm kAlgorithms[] = {
    JoinAlgorithm::kSSJ, JoinAlgorithm::kNCSJ, JoinAlgorithm::kCSJ};
constexpr OutputFormat kFormats[] = {OutputFormat::kText, OutputFormat::kBinary,
                                     OutputFormat::kNone};

std::string ShapeName(JoinAlgorithm algorithm, OutputFormat format) {
  return std::string(JoinAlgorithmName(algorithm)) + "_" +
         OutputFormatName(format);
}

TEST_F(CheckpointJoinTest, OutputIsIdenticalAcrossThreadCounts) {
  // (threads, tasks_per_thread) with one product build one task list, so the
  // output is the same bytes whatever the thread count.
  const std::pair<int, int> shapes[] = {{1, 32}, {2, 16}, {4, 8}, {8, 4}};
  for (const JoinAlgorithm algorithm : kAlgorithms) {
    for (const OutputFormat format : kFormats) {
      const std::string name = "ckj_shape_" + ShapeName(algorithm, format);
      SCOPED_TRACE(name);
      JoinStats reference;
      std::string reference_bytes;
      for (const auto& [threads, per_thread] : shapes) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        const auto spec =
            Spec(format, name + "_" + std::to_string(threads) + ".out");
        const JoinStats stats =
            RunFull(algorithm, spec,
                    Ckpt(name + ".ckpt", threads, per_thread));
        const std::string bytes =
            format == OutputFormat::kNone ? "" : ReadWholeFile(spec.path);
        if (threads == 1) {
          reference = stats;
          reference_bytes = bytes;
          ASSERT_GT(stats.links + stats.groups, 0u);
          continue;
        }
        EXPECT_EQ(bytes, reference_bytes);
        ExpectSameCounters(stats, reference);
      }
    }
  }
}

TEST_F(CheckpointJoinTest, ResumeAtAnotherThreadCountIsByteIdentical) {
  // Interrupted at 4 threads x 4 tasks, resumed at 2 x 8, compared with an
  // uninterrupted serial run of the same 16-task list.
  for (const JoinAlgorithm algorithm : kAlgorithms) {
    for (const OutputFormat format : kFormats) {
      const std::string name = "ckj_rethread_" + ShapeName(algorithm, format);
      SCOPED_TRACE(name);
      const auto full_spec = Spec(format, name + "_full.out");
      const JoinStats full =
          RunFull(algorithm, full_spec, Ckpt(name + "_full.ckpt", 1, 16));
      const auto spec = Spec(format, name + "_crash.out");
      CheckpointJoinOptions resume_shape;
      resume_shape.threads = 2;
      resume_shape.tasks_per_thread = 8;
      int interruptions = 0;
      const JoinStats resumed =
          RunCrashLoop(algorithm, spec, Ckpt(name + "_crash.ckpt", 4, 4),
                       /*deadline_ms=*/5, &interruptions, &resume_shape);
      EXPECT_GT(interruptions, 0) << "deadline never fired; nothing tested";
      if (format != OutputFormat::kNone) {
        EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
      }
      ExpectSameCounters(resumed, full);
    }
  }
}

TEST_F(CheckpointJoinTest, VersionOneManifestIsRejected) {
  std::atomic<bool> cancel{true};
  const auto spec = Spec(OutputFormat::kText, "ckj_v1.txt");
  auto ckpt = Ckpt("ckj_v1.ckpt");
  ckpt.cancel = &cancel;
  ASSERT_EQ(CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec,
                                 ckpt)
                .status.code(),
            StatusCode::kCancelled);
  // Rewrite the header's version field (bytes 4..7, little-endian) to 1.
  std::string bytes = ReadWholeFile(ckpt.manifest_path);
  ASSERT_GT(bytes.size(), checkpoint::kHeaderBytes);
  bytes.replace(4, 4, std::string("\x01\x00\x00\x00", 4));
  std::FILE* f = std::fopen(ckpt.manifest_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);

  cancel.store(false);
  ckpt.resume = true;
  const JoinStats stats =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status.message().find("version 1"), std::string::npos)
      << stats.status.ToString();
}

TEST_F(CheckpointJoinTest, WriteSecondsCoverTheSinkAtTwoThreads) {
  JoinOptions options = Options();
  options.measure_write_time = true;
  const auto spec = Spec(OutputFormat::kText, "ckj_write_time.txt");
  const uint64_t replay_ns = HistogramSum("parallel.replay_ns");
  // Many small tasks and no periodic checkpoint keep the frontier rarely
  // free, so much of the output reaches the sink by replay.
  auto ckpt = Ckpt("ckj_write_time.ckpt", /*threads=*/2,
                   /*tasks_per_thread=*/64);
  ckpt.checkpoint_interval = 0;
  const JoinStats stats =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kSSJ, options, spec, ckpt);
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_GT(stats.write_seconds, 0.0);
  EXPECT_LE(stats.write_seconds, stats.elapsed_seconds);
#ifndef CSJ_NO_METRICS
  // Replays into the sink are part of the sink time.
  const uint64_t replayed_ns = HistogramSum("parallel.replay_ns") - replay_ns;
  EXPECT_GT(replayed_ns, 0u);
  EXPECT_GE(stats.write_seconds, static_cast<double>(replayed_ns) * 1e-9);
#else
  (void)replay_ns;
#endif
}

#ifndef CSJ_NO_METRICS

TEST_F(CheckpointJoinTest, SinkCountersCountEachRecordOnce) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const uint64_t links = CounterValue("sink.links");
    const uint64_t groups = CounterValue("sink.groups");
    const uint64_t bytes = CounterValue("sink.bytes");
    const auto spec = Spec(OutputFormat::kText, "ckj_sink_metrics.txt");
    const JoinStats stats =
        RunFull(JoinAlgorithm::kCSJ, spec, Ckpt("ckj_sink_metrics.ckpt", threads));
    EXPECT_EQ(CounterValue("sink.links") - links, stats.links);
    EXPECT_EQ(CounterValue("sink.groups") - groups, stats.groups);
    EXPECT_EQ(CounterValue("sink.bytes") - bytes, stats.output_bytes);
  }
}

TEST_F(CheckpointJoinTest, ParallelMetricsDescribeTheTaskList) {
  const uint64_t joins = CounterValue("parallel.joins");
  const uint64_t workers = CounterValue("parallel.workers");
  const uint64_t tasks = CounterValue("parallel.tasks_total");
  const auto spec = Spec(OutputFormat::kNone, "unused");
  RunFull(JoinAlgorithm::kCSJ, spec, Ckpt("ckj_par_metrics.ckpt", 4, 8));
  EXPECT_EQ(CounterValue("parallel.joins") - joins, 1u);
  EXPECT_EQ(CounterValue("parallel.workers") - workers, 4u);
  EXPECT_EQ(CounterValue("parallel.tasks_total") - tasks,
            internal::BuildTaskList(tree_, Options().epsilon, 32).size());
}

#endif  // CSJ_NO_METRICS

// --- Multi-threaded runs ---------------------------------------------------

std::vector<Entry<2>> Workload(size_t n, uint64_t seed) {
  return ToEntries(GenerateGaussianClusters<2>(n, 6, 0.03, seed));
}

RStarTree<2> InsertAll(const std::vector<Entry<2>>& entries) {
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  return tree;
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

/// One CheckpointedSelfJoin run writing text.
struct TextRun {
  JoinStats stats;
  std::string bytes;        ///< the output file ("" when none was left)
  std::vector<Link> links;  ///< its expansion, for completed runs
  bool manifest_left = false;
};

TextRun RunText(const SpatialIndex auto& tree, const JoinOptions& options,
                int threads, const std::string& name,
                JoinAlgorithm algorithm = JoinAlgorithm::kCSJ,
                uint64_t checkpoint_interval = 32, int tasks_per_thread = 16) {
  const OutputSpec spec =
      OutputSpec::File(testing::TempDir() + "/" + name, tree.size());
  CheckpointJoinOptions ckpt;
  ckpt.manifest_path = spec.path + ".ckpt";
  ckpt.threads = threads;
  ckpt.tasks_per_thread = tasks_per_thread;
  ckpt.checkpoint_interval = checkpoint_interval;
  TextRun run;
  run.stats = CheckpointedSelfJoin(tree, algorithm, options, spec, ckpt);
  if (FileExists(spec.path)) run.bytes = ReadWholeFile(spec.path);
  if (run.stats.status.ok()) {
    auto cursor = OpenResultCursor(spec.path);
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    if (cursor.ok()) {
      auto expansion = ExpandSelfJoin(cursor->get());
      EXPECT_TRUE(expansion.ok()) << expansion.status().ToString();
      if (expansion.ok()) run.links = std::move(expansion).value();
    }
  }
  run.manifest_left = FileExists(ckpt.manifest_path);
  std::remove(spec.path.c_str());
  std::remove(ckpt.manifest_path.c_str());
  return run;
}

TEST(ParallelJoinTest, LosslessAcrossThreadCounts) {
  const auto entries = Workload(3000, 7);
  const RStarTree<2> tree = InsertAll(entries);
  for (double eps : {0.01, 0.06}) {
    const auto reference = BruteForceSelfJoin(entries, eps);
    JoinOptions options;
    options.epsilon = eps;
    for (int threads : {1, 2, 4, 8}) {
      const TextRun run = RunText(tree, options, threads, "pj_lossless.txt");
      ASSERT_TRUE(run.stats.status.ok()) << run.stats.status.ToString();
      const auto report = CompareLinkSets(run.links, reference);
      ASSERT_TRUE(report.lossless())
          << "threads=" << threads << " eps=" << eps << ": "
          << report.ToString();
      EXPECT_EQ(run.stats.output_bytes, run.bytes.size());
      EXPECT_EQ(run.stats.links + run.stats.groups,
                static_cast<uint64_t>(
                    std::count(run.bytes.begin(), run.bytes.end(), '\n')));
      EXPECT_EQ(run.stats.ImpliedLinkUpperBound(), ImpliedFromText(run.bytes));
    }
  }
}

TEST(ParallelJoinTest, MTreeOutputIsIdenticalAcrossThreadCounts) {
  // MTree<D> declares kThreadSafeReads, so the runner reads one M-tree from
  // several threads; one 16-task list gives the same bytes at any count.
  const auto entries = Workload(3000, 37);
  MTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  JoinOptions options;
  options.epsilon = 0.03;
  const auto reference = BruteForceSelfJoin(entries, options.epsilon);
  const TextRun serial =
      RunText(tree, options, 1, "pj_mtree_1.txt", JoinAlgorithm::kCSJ, 32,
              /*tasks_per_thread=*/16);
  const TextRun parallel =
      RunText(tree, options, 4, "pj_mtree_4.txt", JoinAlgorithm::kCSJ, 32,
              /*tasks_per_thread=*/4);
  ASSERT_TRUE(serial.stats.status.ok()) << serial.stats.status.ToString();
  ASSERT_TRUE(parallel.stats.status.ok()) << parallel.stats.status.ToString();
  ASSERT_GT(serial.stats.groups, 0u);
  EXPECT_EQ(parallel.bytes, serial.bytes);
  ExpectSameCounters(parallel.stats, serial.stats);
  const auto report = CompareLinkSets(serial.links, reference);
  EXPECT_TRUE(report.lossless()) << report.ToString();
}

TEST(ParallelJoinTest, OutputAsCompactAsSequentialWithinSlack) {
  // Per-task windows lose the merges that would cross a task boundary, but
  // the output should stay in the sequential join's compactness ballpark.
  const auto entries = Workload(5000, 11);
  const RStarTree<2> tree = InsertAll(entries);
  JoinOptions options;
  options.epsilon = 0.04;

  CountingSink sequential(IdWidthFor(entries.size()));
  CompactSimilarityJoin(tree, options, &sequential);
  CheckpointJoinOptions ckpt;
  ckpt.manifest_path = testing::TempDir() + "/pj_compact.ckpt";
  ckpt.threads = 4;
  const JoinStats parallel =
      CheckpointedSelfJoin(tree, JoinAlgorithm::kCSJ, options,
                           OutputSpec::Counting(entries.size()), ckpt);
  ASSERT_TRUE(parallel.status.ok()) << parallel.status.ToString();
  EXPECT_LT(parallel.output_bytes,
            static_cast<uint64_t>(1.5 * static_cast<double>(sequential.bytes())));
}

TEST(ParallelJoinTest, SmallAndDegenerateInputs) {
  JoinOptions options;
  options.epsilon = 0.1;
  {
    RStarTree<2> tree;  // empty
    const TextRun run = RunText(tree, options, 4, "pj_empty.txt");
    ASSERT_TRUE(run.stats.status.ok()) << run.stats.status.ToString();
    EXPECT_EQ(run.stats.links + run.stats.groups, 0u);
  }
  {
    RStarTree<2> tree;
    tree.Insert(0, Point2{{0.5, 0.5}});
    const TextRun run = RunText(tree, options, 4, "pj_single.txt");
    ASSERT_TRUE(run.stats.status.ok()) << run.stats.status.ToString();
    EXPECT_EQ(run.stats.links + run.stats.groups, 0u);
  }
  {
    RStarTree<2> tree;
    tree.Insert(0, Point2{{0.5, 0.5}});
    tree.Insert(1, Point2{{0.52, 0.5}});
    const TextRun run = RunText(tree, options, 4, "pj_pair.txt");
    ASSERT_TRUE(run.stats.status.ok()) << run.stats.status.ToString();
    EXPECT_EQ(run.links, (std::vector<Link>{{0, 1}}));
  }
}

TEST(ParallelJoinTest, MoreThreadsThanTasks) {
  // A tiny tree cannot be split into many tasks; extra workers idle safely.
  const auto entries = Workload(50, 13);
  const RStarTree<2> tree = InsertAll(entries);
  JoinOptions options;
  options.epsilon = 0.05;
  const TextRun run = RunText(tree, options, 16, "pj_idle.txt");
  ASSERT_TRUE(run.stats.status.ok()) << run.stats.status.ToString();
  EXPECT_TRUE(CompareLinkSets(run.links,
                              BruteForceSelfJoin(entries, options.epsilon))
                  .lossless());
}

TEST(ParallelJoinTest, PackedTreeWorks) {
  const auto entries = Workload(8000, 17);
  RStarTree<2> tree;
  PackStr(&tree, entries);
  JoinOptions options;
  options.epsilon = 0.02;
  const TextRun run = RunText(tree, options, 4, "pj_packed.txt");
  ASSERT_TRUE(run.stats.status.ok()) << run.stats.status.ToString();
  EXPECT_TRUE(CompareLinkSets(run.links,
                              BruteForceSelfJoin(entries, options.epsilon))
                  .lossless());
}

TEST(ParallelJoinTest, WindowOptionsRespected) {
  const auto entries = Workload(2000, 19);
  const RStarTree<2> tree = InsertAll(entries);
  JoinOptions options;
  options.epsilon = 0.05;
  options.window_policy = WindowPolicy::kBestFit;
  options.promote_on_merge = true;
  options.window_size = 3;
  const TextRun run = RunText(tree, options, 4, "pj_window.txt");
  ASSERT_TRUE(run.stats.status.ok()) << run.stats.status.ToString();
  EXPECT_TRUE(CompareLinkSets(run.links,
                              BruteForceSelfJoin(entries, options.epsilon))
                  .lossless());
  EXPECT_GT(run.stats.merge_attempts, 0u);
}

TEST(ParallelJoinTest, TrackerRejectedWithStatusNotACrash) {
  // Trackers are single-threaded: more than one thread is an InvalidArgument
  // status, before any output exists.
  const auto entries = Workload(500, 31);
  const RStarTree<2> tree = InsertAll(entries);
  NodeAccessTracker tracker(/*nodes_per_page=*/4, /*cache_pages=*/64);
  JoinOptions options;
  options.epsilon = 0.05;
  options.tracker = &tracker;
  const TextRun run = RunText(tree, options, 4, "pj_tracker.txt");
  ASSERT_FALSE(run.stats.status.ok());
  EXPECT_EQ(run.stats.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(run.bytes.empty());
  EXPECT_FALSE(run.manifest_left);
  EXPECT_EQ(run.stats.links + run.stats.groups, 0u);

  // One thread runs on the calling thread, so the tracker works.
  const TextRun serial = RunText(tree, options, 1, "pj_tracker1.txt");
  ASSERT_TRUE(serial.stats.status.ok()) << serial.stats.status.ToString();
  EXPECT_GT(serial.stats.node_accesses, 0u);
}

TEST(ParallelJoinTest, ImpliedLinkCountConsistentInBothModes) {
  // In either mode the reported implied-link upper bound equals the count
  // recomputed from the emitted output, and it bounds the number of
  // distinct links the output expands to. (Strict equality between the
  // modes does NOT hold: the sequential join's one window merges across
  // task boundaries, and overlapping groups imply different totals.)
  const auto entries = Workload(2500, 37);
  const RStarTree<2> tree = InsertAll(entries);
  JoinOptions options;
  options.epsilon = 0.05;

  MemorySink sequential(IdWidthFor(entries.size()));
  const JoinStats seq_stats = CompactSimilarityJoin(tree, options, &sequential);
  ASSERT_TRUE(seq_stats.status.ok());
  uint64_t retained = sequential.links().size();
  for (const auto& group : sequential.groups()) {
    retained += uint64_t{group.size()} * (group.size() - 1) / 2;
  }
  EXPECT_EQ(seq_stats.ImpliedLinkUpperBound(), retained);
  EXPECT_GE(seq_stats.ImpliedLinkUpperBound(),
            ExpandSelfJoin(sequential).size());

  const TextRun parallel = RunText(tree, options, 4, "pj_implied.txt");
  ASSERT_TRUE(parallel.stats.status.ok());
  EXPECT_EQ(parallel.stats.ImpliedLinkUpperBound(),
            ImpliedFromText(parallel.bytes));
  EXPECT_GE(parallel.stats.ImpliedLinkUpperBound(), parallel.links.size());

  // Both expansions are the same exact result set.
  EXPECT_EQ(ExpandSelfJoin(sequential).size(), parallel.links.size());
}

#ifndef CSJ_NO_FAILPOINTS

TEST(ParallelJoinTest, ImpliedCountMatchesAcceptedWritesOnSinkDeath) {
  // A sink that dies mid-run — in a task writing straight to it or in a
  // replay — must leave the implied-link count equal to what the output
  // durably holds: complete records only, not the write that failed.
  const auto entries = Workload(3000, 29);
  const RStarTree<2> tree = InsertAll(entries);
  JoinOptions options;
  options.epsilon = 0.05;
  // The first append is the initial manifest's; later ones are records
  // (and the periodic manifests).
  for (const uint64_t nth : {2ull, 8ull, 100ull, 5000ull}) {
    failpoint::ScopedFailpoint fp("output_file.append",
                                  failpoint::Spec::EveryNth(nth));
    const TextRun run = RunText(tree, options, 4, "pj_dying.txt");
    EXPECT_EQ(run.stats.status.code(), StatusCode::kIoError)
        << "nth=" << nth << ": " << run.stats.status.ToString();
    EXPECT_EQ(run.stats.ImpliedLinkUpperBound(), ImpliedFromText(run.bytes))
        << "nth=" << nth;
    EXPECT_TRUE(run.manifest_left) << "nth=" << nth;
  }
}

TEST(ParallelJoinTest, WorkCountersSurviveSinkDeathAtFinish) {
  // Every task ran and committed before the sink failed to close, so the
  // work counters must describe the full join, as in a healthy run.
  const auto entries = Workload(4000, 23);
  const RStarTree<2> tree = InsertAll(entries);
  JoinOptions options;
  options.epsilon = 0.04;
  const TextRun healthy = RunText(tree, options, 4, "pj_healthy.txt");
  ASSERT_TRUE(healthy.stats.status.ok());

  // Without periodic checkpoints the second close is the output's own: the
  // first commits the initial manifest.
  failpoint::ScopedFailpoint fp("output_file.close",
                                failpoint::Spec::EveryNth(2));
  const TextRun dying = RunText(tree, options, 4, "pj_close_fault.txt",
                                JoinAlgorithm::kCSJ, /*checkpoint_interval=*/0);
  EXPECT_FALSE(dying.stats.status.ok());
  EXPECT_TRUE(dying.manifest_left);
  EXPECT_EQ(dying.stats.distance_computations,
            healthy.stats.distance_computations);
  EXPECT_EQ(dying.stats.early_stops, healthy.stats.early_stops);
  EXPECT_EQ(dying.stats.merge_attempts, healthy.stats.merge_attempts);
  EXPECT_EQ(dying.stats.merges, healthy.stats.merges);
  EXPECT_EQ(dying.stats.ImpliedLinkUpperBound(),
            healthy.stats.ImpliedLinkUpperBound());
}

#endif  // CSJ_NO_FAILPOINTS

}  // namespace
}  // namespace csj
