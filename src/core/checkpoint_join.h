#ifndef CSJ_CORE_CHECKPOINT_JOIN_H_
#define CSJ_CORE_CHECKPOINT_JOIN_H_

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/similarity_join.h"
#include "storage/checkpoint.h"
#include "util/exec_context.h"
#include "util/metrics.h"

/// \file
/// The manifest layer: crash-safe checkpoints and resume around the task loop
/// (core/similarity_join.h), at any thread count.
///
/// A checkpoint (storage/checkpoint.h) is the committed task prefix plus the
/// sink position — a record boundary for text, a sealed-block boundary plus
/// the open block's payload for CSJ2 — with cumulative JoinStats and curated
/// metric counters. One is written every `checkpoint_interval` committed
/// tasks: the loop stops handing out tasks at the boundary until the tasks
/// in flight have committed, so the manifest covers exactly the prefix.
/// `--resume` truncates the output back to the committed boundary and
/// continues, at any thread count; the task list depends only on (tree, eps),
/// and the finished output is byte-identical to an uninterrupted run.
///
/// Governance: a deadline (`options.deadline_ms`), the `ckpt.cancel` flag or
/// a cancel in `options.exec` stops the loop at a task boundary: the tasks in
/// flight finish and commit, and a final checkpoint is written at the new
/// frontier.
///
/// Outcome statuses: OK (complete; manifest deleted), kCancelled /
/// kDeadlineExceeded (final checkpoint saved), kResourceExhausted (a budget
/// charge was denied mid-task; the previous checkpoint remains the resume
/// point), kInternal (a worker threw; likewise), or the sink's error (the
/// manifest of the last successful checkpoint is kept for resume).

namespace csj {

/// Checkpointed-execution knobs, on top of JoinOptions (whose deadline_ms
/// and exec context the loop polls between tasks).
struct CheckpointJoinOptions {
  /// Where the manifest lives. Saved via atomic temp+rename commit; deleted
  /// when the join completes. Required.
  std::string manifest_path;
  /// Committed tasks between checkpoints. 0 disables periodic checkpoints —
  /// only the initial one and cancellation/deadline write one.
  uint64_t checkpoint_interval = 32;
  /// Worker threads; <= 1 runs the loop on the calling thread. The output
  /// does not depend on it, and a resume may use any value.
  int threads = 1;
  /// Ignored: the task list depends only on (tree, eps). Kept for source
  /// compatibility until the benchmark harness stops setting it.
  int tasks_per_thread = 16;
  /// Continue from manifest_path instead of starting over. Fails cleanly if
  /// the manifest is missing, corrupt, or from a different configuration.
  bool resume = false;
  /// External cancel flag (e.g. flipped by a SIGINT handler). Polled at
  /// task boundaries; when set, a final checkpoint is written and the run
  /// returns kCancelled. Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;
};

namespace internal {

/// Counter prefixes a checkpoint carries across resumes: the process-wide
/// metrics a join run contributes to. After a resume the registry reports
/// the same cumulative values an uninterrupted run would.
inline bool IsCheckpointedMetric(const std::string& name) {
  for (const char* prefix :
       {"join.", "sink.", "kernel.", "window.", "parallel."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Fingerprint of every knob that shapes the output stream. A manifest from
/// a different configuration must not be resumed — the bytes would diverge.
/// The task list is checked through its hash instead, and the thread count
/// does not shape the output.
template <typename Tree>
uint64_t ConfigFingerprint(const Tree& tree, JoinAlgorithm algorithm,
                           const JoinOptions& options, const OutputSpec& spec) {
  using checkpoint::HashCombine;
  uint64_t h = 0xC5A11E5C;  // arbitrary non-zero seed
  h = HashCombine(h, static_cast<uint64_t>(algorithm));
  uint64_t eps_bits;
  static_assert(sizeof(eps_bits) == sizeof(options.epsilon));
  std::memcpy(&eps_bits, &options.epsilon, sizeof(eps_bits));
  h = HashCombine(h, eps_bits);
  h = HashCombine(h, static_cast<uint64_t>(options.window_size));
  h = HashCombine(h, (options.early_stop ? 1u : 0u) |
                         (options.promote_on_merge ? 2u : 0u));
  // leaf_kernel is deliberately *excluded*: all kernels emit hits in the
  // same order (geom/kernels.h), so the output stream is kernel-invariant
  // and a resume may use a different kernel than the original run.
  h = HashCombine(h, static_cast<uint64_t>(spec.format));
  h = HashCombine(h, static_cast<uint64_t>(spec.id_width));
  h = HashCombine(h, static_cast<uint64_t>(spec.count_model));
  h = HashCombine(h, tree.size());
  h = HashCombine(h, static_cast<uint64_t>(Tree::kDim));
  return h;
}

inline uint64_t TaskListHash(const std::vector<JoinTask>& tasks) {
  uint64_t h = tasks.size();
  for (const JoinTask& t : tasks) {
    h = checkpoint::HashCombine(h, t.first);
    h = checkpoint::HashCombine(h, t.second);
  }
  return h;
}

/// Composes the cumulative StatsState for a manifest: the resumed-from base
/// plus everything this session has committed so far.
inline checkpoint::StatsState ComposeStats(const checkpoint::StatsState& base,
                                           const JoinStats& fresh,
                                           double fresh_elapsed) {
  checkpoint::StatsState s = base;
  s.distance_computations += fresh.distance_computations;
  s.kernel_candidates += fresh.kernel_candidates;
  s.kernel_pruned += fresh.kernel_pruned;
  s.kernel_hits += fresh.kernel_hits;
  s.node_accesses += fresh.node_accesses;
  s.page_requests += fresh.page_requests;
  s.page_disk_reads += fresh.page_disk_reads;
  s.early_stops += fresh.early_stops;
  s.merge_attempts += fresh.merge_attempts;
  s.merges += fresh.merges;
  s.implied_links += fresh.ImpliedLinkUpperBound();
  s.elapsed_seconds += fresh_elapsed;
  s.write_seconds += fresh.write_seconds;
  return s;
}

/// Folds a manifest's StatsState base into a finalized JoinStats (whose
/// output counters already come from the restored sink and are cumulative).
inline void ApplyStatsBase(JoinStats* stats, const checkpoint::StatsState& b) {
  stats->distance_computations += b.distance_computations;
  stats->kernel_candidates += b.kernel_candidates;
  stats->kernel_pruned += b.kernel_pruned;
  stats->kernel_hits += b.kernel_hits;
  stats->node_accesses += b.node_accesses;
  stats->page_requests += b.page_requests;
  stats->page_disk_reads += b.page_disk_reads;
  stats->early_stops += b.early_stops;
  stats->merge_attempts += b.merge_attempts;
  stats->merges += b.merges;
  stats->AddImpliedLinks(b.implied_links);
  stats->elapsed_seconds += b.elapsed_seconds;
  stats->write_seconds += b.write_seconds;
}

/// Snapshot of the checkpoint-carried counters at session start; lets a
/// checkpoint record `base + (now - session_start)` for each counter.
struct MetricBaseline {
  std::map<std::string, uint64_t> session_start;
  std::vector<std::pair<std::string, uint64_t>> manifest_base;

  void Capture() {
    for (const auto& [name, value] : metrics::Snapshot().counters) {
      if (IsCheckpointedMetric(name)) session_start[name] = value;
    }
  }

  /// Cumulative checkpoint-carried counters right now, including those the
  /// interrupted run touched but this session has not yet.
  std::vector<std::pair<std::string, uint64_t>> Compose() const {
    std::map<std::string, uint64_t> out(manifest_base.begin(),
                                        manifest_base.end());
    for (const auto& [name, value] : metrics::Snapshot().counters) {
      if (!IsCheckpointedMetric(name)) continue;
      const auto start = session_start.find(name);
      out[name] +=
          value - (start == session_start.end() ? 0 : start->second);
    }
    return {out.begin(), out.end()};
  }
};

}  // namespace internal

/// Checkpointed self-join with resume, at any thread count. Creates the sink
/// from `spec` itself: fresh runs force spec.checkpointable for materializing
/// formats; resumed runs rebuild the sink mid-stream from the manifest. See
/// the file comment for semantics.
template <SpatialIndex Tree>
JoinStats CheckpointedSelfJoin(const Tree& tree, JoinAlgorithm algorithm,
                               const JoinOptions& options, OutputSpec spec,
                               const CheckpointJoinOptions& ckpt) {
  auto rejected = [&](Status status) {
    JoinStats out;
    out.algorithm = algorithm;
    out.epsilon = options.epsilon;
    out.window_size =
        algorithm == JoinAlgorithm::kCSJ ? options.window_size : 0;
    out.status = std::move(status);
    return out;
  };
  if (ckpt.manifest_path.empty()) {
    return rejected(
        Status::InvalidArgument("CheckpointJoinOptions.manifest_path is empty"));
  }
  if (Status s = internal::CheckThreads<Tree, Tree>(ckpt.threads, options);
      !s.ok()) {
    return rejected(std::move(s));
  }
  if (spec.format != OutputFormat::kNone) spec.checkpointable = true;

  const auto tasks = internal::BuildTaskList(
      tree, options.epsilon, internal::kTaskTarget, options.exec);
  const uint64_t fingerprint =
      internal::ConfigFingerprint(tree, algorithm, options, spec);
  const uint64_t task_hash = internal::TaskListHash(tasks);

  // --- Establish the starting state: fresh, or restored from the manifest.
  checkpoint::Manifest base;  // stays default for fresh runs
  std::unique_ptr<JoinSink> sink;
  if (ckpt.resume) {
    auto loaded = checkpoint::Load(ckpt.manifest_path);
    if (!loaded.ok()) return rejected(loaded.status());
    base = std::move(loaded).value();
    if (base.config_fingerprint != fingerprint) {
      return rejected(Status::FailedPrecondition(
          "cannot resume: the checkpoint was written under a different "
          "configuration (algorithm/epsilon/window/output)"));
    }
    if (base.total_tasks != tasks.size() || base.task_list_hash != task_hash) {
      return rejected(Status::FailedPrecondition(
          "cannot resume: the rebuilt task list does not match the "
          "checkpoint (a different tree)"));
    }
    auto resumed = ResumeSink(spec, base.sink);
    if (!resumed.ok()) return rejected(resumed.status());
    sink = std::move(resumed).value();
    // Re-seed the process-wide metrics so a resumed run's registry reports
    // the same cumulative join.*/sink.*/... counts an uninterrupted run
    // would. (The restored sink starts from zero — its constructor path
    // does not replay sink.links/sink.bytes — so the manifest's counters
    // are added wholesale.)
    for (const auto& [name, value] : base.metric_counters) {
      if (value > 0) metrics::GetCounter(name)->Increment(value);
    }
    CSJ_METRIC_COUNT("checkpoint.resumes", 1);
  } else {
    auto made = MakeSink(spec);
    if (!made.ok()) return rejected(made.status());
    sink = std::move(made).value();
  }

  internal::MetricBaseline metric_baseline;
  metric_baseline.manifest_base = base.metric_counters;
  // Captured *after* the resume merge above, so Compose() yields exactly
  // base + this-session's-work for every counter.
  metric_baseline.Capture();

  WallTimer timer;
  internal::TaskLoopHook hook;
  hook.manifest_path = ckpt.manifest_path;
  hook.first_task = ckpt.resume ? base.next_task : 0;
  hook.resumed = ckpt.resume;
  hook.checkpoint_interval = ckpt.checkpoint_interval;
  hook.save = [&](uint64_t frontier, const JoinStats& session) -> Status {
    checkpoint::SinkState sink_state;
    CSJ_RETURN_IF_ERROR(sink->Checkpoint(&sink_state));
    checkpoint::Manifest m;
    m.config_fingerprint = fingerprint;
    m.dims = static_cast<uint32_t>(Tree::kDim);
    m.total_tasks = tasks.size();
    m.task_list_hash = task_hash;
    m.next_task = frontier;
    m.stats = internal::ComposeStats(base.stats, session,
                                     timer.ElapsedSeconds());
    m.sink = sink_state;
    m.metric_counters = metric_baseline.Compose();
    return checkpoint::Save(ckpt.manifest_path, m);
  };

  ExecContext cancel_ctx;
  cancel_ctx.SetParent(options.exec);
  cancel_ctx.SetCancelFlag(ckpt.cancel);
  JoinOptions loop_options = options;
  loop_options.exec = &cancel_ctx;
  JoinStats stats = internal::RunTaskLoop(tree, tree, /*self_join=*/true,
                                          tasks, algorithm, loop_options,
                                          sink.get(), ckpt.threads, &hook);
  internal::ApplyStatsBase(&stats, base.stats);
  if (stats.status.ok()) {
    stats.status = sink->Finish();
    if (stats.status.ok()) std::remove(ckpt.manifest_path.c_str());
    // A healthy sink had lost nothing before Finish; its last append may.
    stats.DeductImpliedLinks(sink->lost_implied_links());
  }
  return stats;
}

}  // namespace csj

#endif  // CSJ_CORE_CHECKPOINT_JOIN_H_
