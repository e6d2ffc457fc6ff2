#ifndef CSJ_CORE_CHECKPOINT_JOIN_H_
#define CSJ_CORE_CHECKPOINT_JOIN_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/similarity_join.h"
#include "storage/checkpoint.h"
#include "util/exec_context.h"
#include "util/failpoint.h"
#include "util/metrics.h"

/// \file
/// The task runner: one loop for every thread count, with crash-safe
/// checkpoints, resume, deadlines and graceful cancellation.
///
/// A self-join is decomposed into a deterministic task list (BuildTaskList:
/// independent single-subtree and subtree-pair units that exactly cover the
/// pair space). Every task is a join of its own — its CSJ(g) window starts
/// empty and is flushed when the task ends — so a task's output depends on
/// nothing but the task. The run's output is the task outputs concatenated
/// in task order: a pure function of the task list, the algorithm, the
/// options and the format, never of the thread count or the schedule.
///
/// `threads` workers pull task indices from one shared counter; with
/// threads = 1 the loop runs on the calling thread. The *frontier* is the
/// first task whose output is not yet in the sink. A task that is at the
/// frontier when it starts writes straight into the sink, so a serial run
/// buffers nothing. Any other task records into a private TaskBuffer that is
/// replayed into the sink when the frontier reaches it. No worker starts a
/// task more than kLookaheadPerThread * threads past the frontier, which
/// bounds the buffered output; buffered bytes are charged to the run's
/// MemoryBudget.
///
/// A checkpoint (storage/checkpoint.h) is the committed task prefix plus the
/// sink position — a record boundary for text, a sealed-block boundary plus
/// the open block's payload for CSJ2 — with cumulative JoinStats and curated
/// metric counters. One is written every `checkpoint_interval` committed
/// tasks: the loop stops handing out tasks at the boundary until the tasks
/// in flight have committed, so the manifest covers exactly the prefix.
/// `--resume` truncates the output back to the committed boundary and
/// continues, at any thread count whose task list matches; the finished
/// output is byte-identical to an uninterrupted run.
///
/// Governance: the runner owns an ExecContext chaining `options.exec` with
/// `options.deadline_ms` and the `ckpt.cancel` flag, polled before every task
/// is handed out. The drivers see only the memory budget (and a trip once
/// the run has failed): a deadline or cancel never cuts a task short.
/// Workers stop pulling, the tasks in flight finish and commit, and a final
/// checkpoint is written at the new frontier.
///
/// Outcome statuses: OK (complete; manifest deleted), kCancelled /
/// kDeadlineExceeded (final checkpoint saved), kResourceExhausted (a budget
/// charge was denied mid-task; the previous checkpoint remains the resume
/// point), kInternal (a worker threw; likewise), or the sink's error (the
/// manifest of the last successful checkpoint is kept for resume).

namespace csj {

/// Checkpointed-execution knobs, on top of JoinOptions (whose deadline_ms
/// and exec context the runner polls between tasks).
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
  /// Task granularity: the task list targets
  /// max(threads, 1) * tasks_per_thread entries. The output depends on that
  /// product; a resume must rebuild the same task list.
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

/// No worker starts a task more than this many tasks per thread past the
/// frontier; bounds the buffered output.
inline constexpr uint64_t kLookaheadPerThread = 4;

/// Expands the root into at least `target` independent tasks. A task whose
/// subtree already satisfies the early-stop bound is never split further
/// (splitting it would only lose grouping opportunities).
template <SpatialIndex Tree>
std::vector<typename JoinDriver<Tree, Tree>::Task> BuildTaskList(
    const Tree& tree, double eps, size_t target,
    const ExecContext* exec = nullptr) {
  using Task = typename JoinDriver<Tree, Tree>::Task;
  std::vector<Task> tasks;
  if (tree.Root() == kInvalidNode || tree.size() < 2) return tasks;
  tasks.push_back(Task{tree.Root(), kInvalidNode});

  // Breadth-style expansion: repeatedly split splittable tasks until the
  // target count is reached or nothing can be split.
  size_t scan = 0;
  while (tasks.size() < target && scan < tasks.size()) {
    const Task task = tasks[scan];
    const bool self = task.second == kInvalidNode;
    const bool splittable =
        self
            ? !tree.IsLeaf(task.first) && tree.MaxDiameter(task.first) > eps
            : !tree.IsLeaf(task.first) && !tree.IsLeaf(task.second) &&
                  tree.MaxDiameter(task.first, task.second) > eps;
    if (!splittable) {
      ++scan;
      continue;
    }
    // Replace the task by its children tasks.
    tasks[scan] = tasks.back();
    tasks.pop_back();
    if (self) {
      const auto children = TreeChildren(tree, task.first, exec);
      for (size_t i = 0; i < children.size(); ++i) {
        tasks.push_back(Task{children[i], kInvalidNode});
        for (size_t j = i + 1; j < children.size(); ++j) {
          if (tree.MinDistance(children[i], children[j]) <= eps) {
            tasks.push_back(Task{children[i], children[j]});
          }
        }
      }
    } else {
      const auto c1 = TreeChildren(tree, task.first, exec);
      const auto c2 = TreeChildren(tree, task.second, exec);
      for (NodeId a : c1) {
        for (NodeId b : c2) {
          if (tree.MinDistance(a, b) <= eps) tasks.push_back(Task{a, b});
        }
      }
    }
    // Do not advance `scan`: the swapped-in task may itself be splittable.
  }
  return tasks;
}

/// A task's output held back until the frontier reaches the task: links and
/// groups in emission order, charged to the run's memory budget. Its records
/// stay out of the process-wide sink.* counters; the sink they are replayed
/// into counts them.
class TaskBuffer final : public JoinSink {
 public:
  TaskBuffer(int id_width, MemoryBudget* budget) : JoinSink(id_width) {
    DisableRecordMetrics();
    charge_.Acquire(budget, 0);
  }

  /// Re-emits every record into `sink`, in order, until the sink errs.
  /// Returns the number of links the accepted records imply.
  uint64_t ReplayInto(JoinSink* sink) const {
    uint64_t implied = 0;
    size_t at = 0;
    for (const uint32_t size : sizes_) {
      if (!sink->error().ok()) break;
      if (size == kLink) {
        sink->Link(ids_[at], ids_[at + 1]);
        at += 2;
        if (sink->error().ok()) ++implied;
      } else {
        sink->Group(std::span<const PointId>(ids_.data() + at, size));
        at += size;
        if (sink->error().ok()) implied += uint64_t{size} * (size - 1) / 2;
      }
    }
    return implied;
  }

 protected:
  void DoLink(PointId a, PointId b) override {
    sizes_.push_back(kLink);
    ids_.push_back(a);
    ids_.push_back(b);
    Charge();
  }
  void DoGroup(std::span<const PointId> members) override {
    sizes_.push_back(static_cast<uint32_t>(members.size()));
    ids_.insert(ids_.end(), members.begin(), members.end());
    Charge();
  }

 private:
  static constexpr uint32_t kLink = 0;  // a group has at least two members

  /// Keeps the reservation at the buffers' capacity. A denial becomes the
  /// buffer's sticky error, which unwinds the task's driver.
  void Charge() {
    const uint64_t bytes = ids_.capacity() * sizeof(PointId) +
                           sizes_.capacity() * sizeof(uint32_t);
    if (bytes <= charged_) return;
    charged_ = bytes;
    if (!charge_.Resize(bytes)) {
      SetError(Status::ResourceExhausted(StrFormat(
          "memory budget exhausted buffering %llu bytes of task output",
          static_cast<unsigned long long>(bytes))));
    }
  }

  std::vector<PointId> ids_;
  /// Per record: kLink, or the group's member count.
  std::vector<uint32_t> sizes_;
  ScopedCharge charge_;
  uint64_t charged_ = 0;
};

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
/// The task granularity is checked through the task-list hash instead, and
/// the thread count does not shape the output.
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
                         (options.sort_child_pairs ? 2u : 0u) |
                         (options.promote_on_merge ? 4u : 0u));
  h = HashCombine(h, static_cast<uint64_t>(options.window_policy));
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

template <typename Task>
uint64_t TaskListHash(const std::vector<Task>& tasks) {
  uint64_t h = tasks.size();
  for (const Task& t : tasks) {
    h = checkpoint::HashCombine(h, t.first);
    h = checkpoint::HashCombine(h, t.second);
  }
  return h;
}

/// Adds one task's work counters to a run's.
inline void AddWork(JoinStats* total, const JoinStats& task) {
  total->distance_computations += task.distance_computations;
  total->kernel_candidates += task.kernel_candidates;
  total->kernel_pruned += task.kernel_pruned;
  total->kernel_hits += task.kernel_hits;
  total->early_stops += task.early_stops;
  total->merge_attempts += task.merge_attempts;
  total->merges += task.merges;
  if (total->kernel_isa.empty()) total->kernel_isa = task.kernel_isa;
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
  std::vector<std::pair<std::string, uint64_t>> session_start;
  std::vector<std::pair<std::string, uint64_t>> manifest_base;

  void Capture() {
    session_start.clear();
    for (const auto& [name, value] : metrics::Snapshot().counters) {
      if (IsCheckpointedMetric(name)) session_start.emplace_back(name, value);
    }
  }

  uint64_t StartValue(const std::string& name) const {
    for (const auto& [n, v] : session_start) {
      if (n == name) return v;
    }
    return 0;
  }

  uint64_t BaseValue(const std::string& name) const {
    for (const auto& [n, v] : manifest_base) {
      if (n == name) return v;
    }
    return 0;
  }

  /// Cumulative checkpoint-carried counters right now.
  std::vector<std::pair<std::string, uint64_t>> Compose() const {
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const auto& [name, value] : metrics::Snapshot().counters) {
      if (!IsCheckpointedMetric(name)) continue;
      out.emplace_back(name, BaseValue(name) + value - StartValue(name));
    }
    // A counter the interrupted run touched but this session has not yet.
    for (const auto& [name, value] : manifest_base) {
      bool seen = false;
      for (const auto& [n, v] : out) seen = seen || n == name;
      if (!seen) out.emplace_back(name, value);
    }
    return out;
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
  using Driver = internal::JoinDriver<Tree, Tree>;

  // This session's work counters (every task it ran), the implied links and
  // write time of the output it committed.
  JoinStats session;
  session.algorithm = algorithm;
  session.epsilon = options.epsilon;
  session.window_size =
      algorithm == JoinAlgorithm::kCSJ ? options.window_size : 0;
  auto rejected = [&session](Status status) {
    JoinStats out = session;
    out.status = std::move(status);
    return out;
  };
  if (ckpt.manifest_path.empty()) {
    return rejected(
        Status::InvalidArgument("CheckpointJoinOptions.manifest_path is empty"));
  }
  const int threads = std::max(ckpt.threads, 1);
  if (threads > 1 && options.tracker != nullptr) {
    return rejected(Status::InvalidArgument(
        "node-access tracking is not supported with more than one thread"));
  }
  if (threads > 1 && !Tree::kThreadSafeReads) {
    return rejected(Status::InvalidArgument(
        "this tree type is not safe for concurrent reads; run with "
        "threads = 1"));
  }
  if (spec.format != OutputFormat::kNone) spec.checkpointable = true;

  const auto tasks = internal::BuildTaskList(
      tree, options.epsilon,
      static_cast<size_t>(threads) *
          static_cast<size_t>(std::max(ckpt.tasks_per_thread, 1)),
      options.exec);
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
          "checkpoint (different tree, or threads x tasks-per-thread)"));
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
  if (!ckpt.resume) {
    // Once per join: a resume continues the same join.
    CSJ_METRIC_COUNT("parallel.joins", 1);
    CSJ_METRIC_COUNT("parallel.tasks_total", tasks.size());
  }
  CSJ_METRIC_COUNT("parallel.workers", static_cast<uint64_t>(threads));

  WallTimer timer;
  if (options.tracker != nullptr) options.tracker->Reset();

  // The runner's governance context: deadline + cancel + whatever the caller
  // installed in options.exec. Polled only between tasks.
  ExecContext run_ctx;
  run_ctx.SetParent(options.exec);
  run_ctx.SetDeadlineAfterMs(options.deadline_ms);
  run_ctx.SetCancelFlag(ckpt.cancel);
  // What the drivers see: the memory budget, plus a trip once the run has
  // failed. A driver must run each task to completion (see the file
  // comment), so its options strip the deadline.
  ExecContext task_ctx;
  task_ctx.SetMemoryBudget(run_ctx.memory_budget());
  JoinOptions task_options = options;
  task_options.deadline_ms = 0;
  task_options.exec = &task_ctx;

  // The session's stats with the access tracker's totals (threads = 1).
  auto session_stats = [&]() {
    JoinStats s = session;
    if (options.tracker != nullptr) {
      const NodeAccessStats access = options.tracker->stats();
      s.node_accesses = access.node_accesses;
      s.page_requests = access.pages.requests;
      s.page_disk_reads = access.pages.disk_reads;
    }
    return s;
  };

  auto save_checkpoint = [&](uint64_t frontier) -> Status {
    checkpoint::SinkState sink_state;
    CSJ_RETURN_IF_ERROR(sink->Checkpoint(&sink_state));
    checkpoint::Manifest m;
    m.config_fingerprint = fingerprint;
    m.dims = static_cast<uint32_t>(Tree::kDim);
    m.total_tasks = tasks.size();
    m.task_list_hash = task_hash;
    m.next_task = frontier;
    m.stats = internal::ComposeStats(base.stats, session_stats(),
                                     timer.ElapsedSeconds());
    m.sink = sink_state;
    m.metric_counters = metric_baseline.Compose();
    return checkpoint::Save(ckpt.manifest_path, m);
  };

  // The final stats: base + this session, output counters from the sink.
  auto result = [&](Status status) {
    JoinStats out = session_stats();
    internal::ApplyStatsBase(&out, base.stats);
    out.links = sink->num_links();
    out.groups = sink->num_groups();
    out.group_member_total = sink->group_member_total();
    out.output_bytes = sink->bytes();
    out.elapsed_seconds += timer.ElapsedSeconds();
    out.status = std::move(status);
    return out;
  };

  // An initial checkpoint: a run killed before the first periodic checkpoint
  // still resumes instead of silently starting over.
  Status failure;  // stops the loop; no further checkpoint is written
  if (!ckpt.resume && !tasks.empty()) failure = save_checkpoint(0);

  // --- The loop. From here to the thread join, `session`, `failure` and the
  // state below are guarded by mu.
  const uint64_t total = tasks.size();
  const uint64_t lookahead =
      internal::kLookaheadPerThread * static_cast<uint64_t>(threads);
  auto boundary_after = [&](uint64_t from) {
    return ckpt.checkpoint_interval == 0
               ? total
               : std::min(total, from + ckpt.checkpoint_interval);
  };
  std::mutex mu;
  std::condition_variable cv;
  uint64_t next = ckpt.resume ? base.next_task : 0;  // next task to hand out
  uint64_t frontier = next;  // first task whose output is not in the sink
  uint64_t stop_at = boundary_after(frontier);  // hand out only below this
  Status interruption;  // deadline or cancel: stop pulling, keep committing
  std::vector<std::unique_ptr<internal::TaskBuffer>> buffers(total);
  std::vector<char> done(total, 0);

  auto record_failure = [&](Status status) {
    if (failure.ok()) {
      failure = std::move(status);
      // Unwinds the other tasks' drivers at their next node visit.
      task_ctx.Trip(failure);
    }
    cv.notify_all();
  };

  // Commits finished tasks at the frontier, in task order. The caller just
  // finished the frontier task, so it is the only thread that may write the
  // sink until the frontier moves past the last task it commits; buffered
  // output is therefore replayed with the lock released.
  auto commit_ready = [&](std::unique_lock<std::mutex>& lock) {
    while (failure.ok() && frontier < next && done[frontier]) {
      if (auto buffer = std::move(buffers[frontier])) {
        lock.unlock();
        WallTimer replay_timer;
        uint64_t implied;
        {
          CSJ_METRIC_SCOPED_TIMER("parallel.replay_ns");
          implied = buffer->ReplayInto(sink.get());
        }
        const double replay_seconds = replay_timer.ElapsedSeconds();
        buffer.reset();
        lock.lock();
        session.AddImpliedLinks(implied);
        if (options.measure_write_time) session.write_seconds += replay_seconds;
        if (!sink->error().ok()) {
          record_failure(sink->error());
          return;
        }
      }
      ++frontier;
    }
    cv.notify_all();
  };

  auto work = [&](int worker) {
    try {
      if (CSJ_FAILPOINT("checkpoint_join.worker")) {
        throw std::runtime_error("injected worker fault");
      }
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        if (!failure.ok()) return;
        if (next < stop_at) {
          if (next >= frontier + lookahead) {
            cv.wait(lock, [&] {
              return !failure.ok() || next >= stop_at ||
                     next < frontier + lookahead;
            });
            continue;
          }
          // ShouldStopNow: boundary polls are rare, so read the clock every
          // time instead of relying on the hot-loop stride amortization.
          if (run_ctx.ShouldStopNow()) {
            interruption = run_ctx.status();
            if (interruption.code() == StatusCode::kDeadlineExceeded) {
              CSJ_METRIC_COUNT("checkpoint.deadline_expirations", 1);
            }
            stop_at = next;
            cv.notify_all();
            continue;
          }
          const uint64_t index = next++;
          const bool direct = index == frontier;
          lock.unlock();
          std::unique_ptr<internal::TaskBuffer> buffer;
          if (!direct) {
            buffer = std::make_unique<internal::TaskBuffer>(
                sink->id_width(), task_ctx.memory_budget());
          }
          Driver driver(tree, tree, /*self_join=*/true, algorithm,
                        task_options, direct ? sink.get() : buffer.get());
          const JoinStats stats = driver.RunTask(tasks[index]);
          lock.lock();
          internal::AddWork(&session, stats);
          if (direct) {  // its output is in the sink, even on failure
            session.AddImpliedLinks(stats.ImpliedLinkUpperBound());
            session.write_seconds += stats.write_seconds;
          }
          if (!stats.status.ok()) {
            record_failure(stats.status);
            return;
          }
          buffers[index] = std::move(buffer);
          done[index] = 1;
          if (index == frontier) commit_ready(lock);
          continue;
        }
        // Nothing to hand out: wait until the tasks in flight commit.
        if (frontier < next) {
          cv.wait(lock, [&] { return !failure.ok() || frontier == next; });
          continue;
        }
        if (stop_at == total || !interruption.ok()) return;
        // A checkpoint boundary, with no task in flight.
        if (Status save = save_checkpoint(frontier); !save.ok()) {
          record_failure(std::move(save));
          return;
        }
        stop_at = boundary_after(frontier);
        cv.notify_all();
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      record_failure(Status::Internal(StrFormat(
          "checkpointed join worker %d failed: %s", worker, e.what())));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      record_failure(Status::Internal(StrFormat(
          "checkpointed join worker %d failed with a non-standard exception",
          worker)));
    }
  };

  {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads - 1));
    try {
      for (int t = 1; t < threads; ++t) pool.emplace_back(work, t);
    } catch (const std::system_error& e) {
      std::lock_guard<std::mutex> lock(mu);
      record_failure(Status::Internal(
          StrFormat("cannot start a checkpointed join worker: %s", e.what())));
    }
    work(0);
    for (auto& thread : pool) thread.join();
  }

  if (!failure.ok()) {
    // Sink error, budget denial, failed checkpoint or a throwing worker: the
    // last successful checkpoint stays the resume point.
    CSJ_METRIC_COUNT("parallel.failed_joins", 1);
    return result(failure);
  }
  if (!interruption.ok()) {
    const Status save = save_checkpoint(frontier);
    if (!save.ok()) {
      return result(Status::IoError(StrFormat(
          "interrupted at task %llu/%zu and the final checkpoint failed: %s",
          static_cast<unsigned long long>(frontier), tasks.size(),
          save.ToString().c_str())));
    }
    return result(Status(
        interruption.code(),
        StrFormat("stopped at task %llu/%zu (%s); checkpoint saved to %s — "
                  "rerun with --resume to continue",
                  static_cast<unsigned long long>(frontier), tasks.size(),
                  interruption.message().c_str(),
                  ckpt.manifest_path.c_str())));
  }
  Status status = sink->Finish();
  if (status.ok()) std::remove(ckpt.manifest_path.c_str());
  return result(std::move(status));
}

}  // namespace csj

#endif  // CSJ_CORE_CHECKPOINT_JOIN_H_
