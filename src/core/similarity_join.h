#ifndef CSJ_CORE_SIMILARITY_JOIN_H_
#define CSJ_CORE_SIMILARITY_JOIN_H_

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/group.h"
#include "core/join_options.h"
#include "core/join_stats.h"
#include "core/leaf_stage.h"
#include "core/sink.h"
#include "geom/kernels.h"
#include "index/spatial_index.h"
#include "util/exec_context.h"
#include "util/failpoint.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/timer.h"

/// \file
/// The paper's three join algorithms over any SpatialIndex:
///
///  * StandardSimilarityJoin  (SSJ)    — recursive tree join, links only.
///  * NaiveCompactJoin        (N-CSJ)  — SSJ + the subtree early-stopping
///    rule: a node whose bounding-shape diameter is <= eps becomes one group.
///  * CompactSimilarityJoin   (CSJ(g)) — N-CSJ + merging of individual links
///    into the g most recently created groups.
///
/// All three share one traversal (Figure 3 of the paper): the single-node
/// recursion handles pairs within one subtree; the dual-node recursion
/// handles pairs that bridge two subtrees, pruned by MinDistance. The dual
/// variants (spatial joins of two different trees) run the dual-node
/// recursion over two indexes with compatible bounding shapes.
///
/// Every tree join runs one executor, the task loop (RunTaskLoop). The join
/// is split into a task list that depends only on (tree(s), eps)
/// (BuildTaskList: independent subtree and subtree-pair units that exactly
/// cover the pair space). Every task is a join of its own — its CSJ(g)
/// window starts empty and is flushed when the task ends — and the output
/// is the task outputs concatenated in task order: a pure function of the
/// data, the algorithm, the options and the format, never of the thread
/// count or the schedule.
///
/// `threads` workers pull task indices from one shared counter; with one
/// thread the loop runs on the calling thread. The *frontier* is the first
/// task whose output is not yet in the sink. A task that is at the frontier
/// when it starts writes straight into the sink, so a serial run buffers
/// nothing. Any other task records into a private TaskBuffer that is
/// replayed into the sink when the frontier reaches it. No worker starts a
/// task more than kLookaheadPerThread * threads past the frontier, which
/// bounds the buffered output; buffered bytes are charged to the run's
/// MemoryBudget. The manifest layer (core/checkpoint_join.h) adds
/// checkpoints and resume around the same loop.

namespace csj {

namespace internal {

/// One unit of work of the task loop: a single-subtree self-join (second ==
/// kInvalidNode) or a qualifying subtree pair — of one tree for self-joins,
/// first in tree A and second in tree B for dual joins.
struct JoinTask {
  NodeId first = kInvalidNode;
  NodeId second = kInvalidNode;
};

/// The traversal of one worker of the task loop. TreeA and TreeB must share a
/// bounding-shape type (Box with Box, Ball with Ball); for self-joins they are
/// the same tree.
template <typename TreeA, typename TreeB>
class JoinDriver {
 public:
  static constexpr int D = TreeA::kDim;
  static_assert(TreeA::kDim == TreeB::kDim, "dimension mismatch");

  JoinDriver(const TreeA& tree_a, const TreeB& tree_b, bool self_join,
             JoinAlgorithm algorithm, const JoinOptions& options)
      : tree_a_(tree_a),
        tree_b_(tree_b),
        self_join_(self_join),
        algorithm_(algorithm),
        options_(options),
        eps_(options.epsilon),
        window_(BoxShape<D>(options.epsilon), algorithm,
                std::max(options.window_size, 1), options.promote_on_merge,
                /*sink=*/nullptr, &stats_,
                options.measure_write_time ? &write_timer_ : nullptr,
                &run_ctx_),
        leaf_stage_(options.leaf_kernel, options.epsilon, &window_, &stats_,
                    &run_ctx_) {
    CSJ_CHECK(options.epsilon > 0.0) << "epsilon must be positive";
    // Governance: options.exec is the task loop's context, polled at every
    // node visit.
    run_ctx_.SetParent(options.exec);
  }

  /// Runs one task as a join of its own, writing to `sink`: the stats start
  /// from zero, and the CSJ(g) window starts empty and is flushed when the
  /// task ends, so the task's output depends on nothing but the task. One
  /// driver runs every task of a worker, so the leaf stage's tiles carry
  /// over from task to task. Returns the task's work counters, implied
  /// links, write time and status.
  JoinStats RunTask(const JoinTask& task, JoinSink* sink) {
    CSJ_CHECK(sink != nullptr);
    sink_ = sink;
    window_.set_sink(sink);
    stats_ = JoinStats();
    write_timer_.Reset();
    if (task.second == kInvalidNode) {
      SelfJoin(task.first);
    } else {
      DualJoin(task.first, task.second);
    }
    window_.Flush();
    stats_.status = sink_->error();
    if (stats_.status.ok()) stats_.status = run_ctx_.status();
    stats_.write_seconds = write_timer_.TotalSeconds();
    CountJoinWork(stats_);
    return stats_;
  }

 private:
  /// True when the run should stop producing output: the sink hit a sticky
  /// error (full disk, failed write) or the governance context tripped
  /// (deadline, cancel, memory budget). Checked at every node visit, so the
  /// traversal unwinds in O(depth) instead of grinding through the
  /// remaining pair space.
  bool Aborted() const { return !sink_->error().ok() || run_ctx_.ShouldStop(); }

  bool Compact() const { return algorithm_ != JoinAlgorithm::kSSJ; }

  void TouchA(NodeId n) {
    if (options_.tracker != nullptr) options_.tracker->Touch(n);
  }
  void TouchB(NodeId n) {
    // Offset the second tree's node ids so the two trees do not collide on
    // simulated pages.
    if (options_.tracker != nullptr) {
      options_.tracker->Touch(n + (self_join_ ? 0u : 0x40000000u));
    }
  }

  double MinDist(NodeId a, NodeId b) const {
    return MinDistance(tree_a_.Shape(a), tree_b_.Shape(b));
  }

  /// Leaf-stage cache keys: tree A leaves use the node id; tree B leaves of
  /// a dual join set the top bit so the two id spaces never collide. A
  /// self-join keys both sides by node id, so each leaf has one tile.
  static uint64_t LeafKeyA(NodeId n) { return static_cast<uint64_t>(n); }
  uint64_t LeafKeyB(NodeId n) const {
    return self_join_ ? LeafKeyA(n)
                      : static_cast<uint64_t>(n) | (uint64_t{1} << 63);
  }

  // --- Single-node recursion (Figure 3, simJoin(n)) -------------------------

  void SelfJoin(NodeId n) {
    if (Aborted()) return;
    CSJ_METRIC_COUNT("join.node_visits", 1);
    TouchA(n);
    if (Compact() && options_.early_stop &&
        tree_a_.MaxDiameter(n) <= eps_) {
      EmitSubtreeGroup(tree_a_, n, tree_a_, kInvalidNode);
      return;
    }
    if (tree_a_.IsLeaf(n)) {
      leaf_stage_.Self(LeafKeyA(n),
                       [&] { return TreeEntries(tree_a_, n, &run_ctx_); });
      return;
    }
    const auto children = TreeChildren(tree_a_, n, &run_ctx_);
    for (NodeId child : children) SelfJoin(child);
    for (size_t i = 0; i < children.size(); ++i) {
      for (size_t j = i + 1; j < children.size(); ++j) {
        if (tree_a_.MinDistance(children[i], children[j]) <= eps_) {
          DualJoin(children[i], children[j]);
        }
      }
    }
  }

  // --- Dual-node recursion (Figure 3, simJoin(n1, n2)) ----------------------

  /// Pairs bridging node a of tree A and node b of tree B: two subtrees of
  /// the self-joined tree, or a spatial join's two trees (Section IV-D). For
  /// every tree type, Shape-based bounds do the same floating-point work as
  /// the tree's own MinDistance / MaxDiameter.
  void DualJoin(NodeId a, NodeId b) {
    if (Aborted()) return;
    CSJ_METRIC_COUNT("join.node_visits", 2);
    TouchA(a);
    TouchB(b);
    if (Compact() && options_.early_stop &&
        UnionDiameterBound(tree_a_.Shape(a), tree_b_.Shape(b)) <= eps_) {
      EmitSubtreeGroup(tree_a_, a, tree_b_, b);
      return;
    }
    const bool leaf_a = tree_a_.IsLeaf(a);
    const bool leaf_b = tree_b_.IsLeaf(b);
    if (leaf_a && leaf_b) {
      leaf_stage_.Pair(
          LeafKeyA(a), [&] { return TreeEntries(tree_a_, a, &run_ctx_); },
          LeafKeyB(b), [&] { return TreeEntries(tree_b_, b, &run_ctx_); });
      return;
    }
    if (leaf_a) {
      for (NodeId cb : TreeChildren(tree_b_, b, &run_ctx_)) {
        if (MinDist(a, cb) <= eps_) DualJoin(a, cb);
      }
      return;
    }
    if (leaf_b) {
      for (NodeId ca : TreeChildren(tree_a_, a, &run_ctx_)) {
        if (MinDist(ca, b) <= eps_) DualJoin(ca, b);
      }
      return;
    }
    for (NodeId ca : TreeChildren(tree_a_, a, &run_ctx_)) {
      for (NodeId cb : TreeChildren(tree_b_, b, &run_ctx_)) {
        if (MinDist(ca, cb) <= eps_) DualJoin(ca, cb);
      }
    }
  }

  // --- Emission ---------------------------------------------------------------

  /// Early-stopping rule: every point below n1 (in tree t1) and below n2
  /// (in tree t2, unless kInvalidNode) becomes one group, collected in one
  /// walk of each subtree.
  template <typename T1, typename T2>
  void EmitSubtreeGroup(const T1& t1, NodeId n1, const T2& t2, NodeId n2) {
    ++stats_.early_stops;
    SubtreeMembers members(&run_ctx_);
    Box<D> box;
    auto collect = [&](const Entry<D>& e) {
      members.Add(e.id);
      box.Extend(e.point);
    };
    ForEachEntryInSubtree(t1, n1, options_.tracker, collect, &run_ctx_);
    if (n2 != kInvalidNode) {
      ForEachEntryInSubtree(t2, n2, options_.tracker, collect, &run_ctx_);
    }
    if (members.ok()) window_.SubtreeGroup(members.Take(), box);
  }

  const TreeA& tree_a_;
  const TreeB& tree_b_;
  bool self_join_;
  JoinAlgorithm algorithm_;
  const JoinOptions& options_;
  double eps_;
  JoinSink* sink_ = nullptr;  ///< the current task's sink
  JoinStats stats_;
  StopwatchAccumulator write_timer_;
  /// Governance context, chained under options.exec. Declared before
  /// window_ and leaf_stage_, which capture pointers to it.
  ExecContext run_ctx_;
  GroupWindow<BoxShape<D>> window_;
  LeafStage<D> leaf_stage_;
};

/// The task-list size every tree join targets. On the MG road network it
/// yields 223-2,106 tasks over eps 2^-12..2^-1; targets 32, 64 and 128 build
/// the same list there.
inline constexpr size_t kTaskTarget = 64;

/// No worker starts a task more than this many tasks per thread past the
/// frontier; bounds the buffered output.
inline constexpr uint64_t kLookaheadPerThread = 4;

/// Expands a self-join of `tree` into at least `target` independent tasks
/// where the tree allows it. A task whose subtree already satisfies the
/// early-stop bound is never split further (splitting it would only lose
/// grouping opportunities).
template <SpatialIndex Tree>
std::vector<JoinTask> BuildTaskList(const Tree& tree, double eps,
                                    size_t target,
                                    const ExecContext* exec = nullptr) {
  std::vector<JoinTask> tasks;
  if (tree.Root() == kInvalidNode || tree.size() < 2) return tasks;
  tasks.push_back(JoinTask{tree.Root(), kInvalidNode});

  // Breadth-style expansion: repeatedly split splittable tasks until the
  // target count is reached or nothing can be split.
  size_t scan = 0;
  while (tasks.size() < target && scan < tasks.size()) {
    const JoinTask task = tasks[scan];
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
        tasks.push_back(JoinTask{children[i], kInvalidNode});
        for (size_t j = i + 1; j < children.size(); ++j) {
          if (tree.MinDistance(children[i], children[j]) <= eps) {
            tasks.push_back(JoinTask{children[i], children[j]});
          }
        }
      }
    } else {
      const auto c1 = TreeChildren(tree, task.first, exec);
      const auto c2 = TreeChildren(tree, task.second, exec);
      for (NodeId a : c1) {
        for (NodeId b : c2) {
          if (tree.MinDistance(a, b) <= eps) tasks.push_back(JoinTask{a, b});
        }
      }
    }
    // Do not advance `scan`: the swapped-in task may itself be splittable.
  }
  return tasks;
}

/// The dual-join task list: the root pair if the roots are within eps, with
/// a pair split into its qualifying child pairs while both nodes are
/// internal and the pair's union diameter bound exceeds eps.
template <SpatialIndex TreeA, SpatialIndex TreeB>
std::vector<JoinTask> BuildTaskList(const TreeA& tree_a, const TreeB& tree_b,
                                    double eps, size_t target,
                                    const ExecContext* exec = nullptr) {
  std::vector<JoinTask> tasks;
  if (tree_a.Root() == kInvalidNode || tree_b.Root() == kInvalidNode ||
      MinDistance(tree_a.Shape(tree_a.Root()), tree_b.Shape(tree_b.Root())) >
          eps) {
    return tasks;
  }
  tasks.push_back(JoinTask{tree_a.Root(), tree_b.Root()});
  size_t scan = 0;
  while (tasks.size() < target && scan < tasks.size()) {
    const JoinTask task = tasks[scan];
    if (tree_a.IsLeaf(task.first) || tree_b.IsLeaf(task.second) ||
        UnionDiameterBound(tree_a.Shape(task.first),
                           tree_b.Shape(task.second)) <= eps) {
      ++scan;
      continue;
    }
    tasks[scan] = tasks.back();
    tasks.pop_back();
    const auto children_b = TreeChildren(tree_b, task.second, exec);
    for (NodeId a : TreeChildren(tree_a, task.first, exec)) {
      for (NodeId b : children_b) {
        if (MinDistance(tree_a.Shape(a), tree_b.Shape(b)) <= eps) {
          tasks.push_back(JoinTask{a, b});
        }
      }
    }
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

/// Adds one task's work counters to a run's.
inline void AddWork(JoinStats* total, const JoinStats& task) {
  total->distance_computations += task.distance_computations;
  total->kernel_candidates += task.kernel_candidates;
  total->kernel_pruned += task.kernel_pruned;
  total->kernel_hits += task.kernel_hits;
  total->early_stops += task.early_stops;
  total->merge_attempts += task.merge_attempts;
  total->merges += task.merges;
}

/// Rejects thread counts the trees or the options cannot support.
template <typename TreeA, typename TreeB>
Status CheckThreads(int threads, const JoinOptions& options) {
  if (threads <= 1) return Status::OK();
  if (options.tracker != nullptr) {
    return Status::InvalidArgument(
        "node-access tracking is not supported with more than one thread");
  }
  if (!TreeA::kThreadSafeReads || !TreeB::kThreadSafeReads) {
    return Status::InvalidArgument(
        "this tree type is not safe for concurrent reads; run with "
        "threads = 1");
  }
  return Status::OK();
}

/// What the manifest layer (core/checkpoint_join.h) adds to the task loop.
struct TaskLoopHook {
  std::string manifest_path;  ///< named in the interruption message
  /// The committed task prefix of a resumed join: the loop starts here.
  uint64_t first_task = 0;
  /// A resumed join neither counts its once-per-join metrics again nor
  /// saves an initial checkpoint.
  bool resumed = false;
  /// Committed tasks between checkpoints; 0 = only the final one.
  uint64_t checkpoint_interval = 0;
  /// Saves a checkpoint at `frontier` with this session's stats so far.
  /// Called with no task in flight.
  std::function<Status(uint64_t frontier, const JoinStats& session)> save;
};

/// The one executor of tree joins: runs `tasks` in order into `sink` on
/// `threads` workers (see the file comment). Returns this session's work
/// counters, implied links and write time, the sink's output counters and
/// the outcome; does not Finish() the sink.
///
/// Governance: the loop owns an ExecContext chaining `options.exec` with
/// `options.deadline_ms`, polled before every task is handed out. Without a
/// hook the drivers see it too and stop at their next node visit: there is
/// nothing to resume. With a hook they see only the memory budget (and a
/// trip once the run has failed), so a deadline or cancel never cuts a task
/// short: workers stop pulling, the tasks in flight commit, and the hook
/// saves a final checkpoint at the new frontier.
template <SpatialIndex TreeA, SpatialIndex TreeB>
JoinStats RunTaskLoop(const TreeA& tree_a, const TreeB& tree_b,
                      bool self_join, const std::vector<JoinTask>& tasks,
                      JoinAlgorithm algorithm, const JoinOptions& options,
                      JoinSink* sink, int threads,
                      const TaskLoopHook* hook = nullptr) {
  using Driver = JoinDriver<TreeA, TreeB>;
  threads = std::max(threads, 1);
  WallTimer timer;
  // This session's work counters (every task it ran), the implied links and
  // write time of the output it committed.
  JoinStats session;
  session.algorithm = algorithm;
  session.epsilon = options.epsilon;
  session.window_size =
      algorithm == JoinAlgorithm::kCSJ ? options.window_size : 0;
  session.status = CheckThreads<TreeA, TreeB>(threads, options);
  if (!session.status.ok()) return session;

  if (hook == nullptr || !hook->resumed) {
    // Once per join: a resume continues the same join.
    CSJ_METRIC_COUNT("join.runs", 1);
    CSJ_METRIC_COUNT("parallel.joins", 1);
    CSJ_METRIC_COUNT("parallel.tasks_total", tasks.size());
  }
  CSJ_METRIC_COUNT("parallel.workers", static_cast<uint64_t>(threads));
  if (options.tracker != nullptr) options.tracker->Reset();

  ExecContext run_ctx;
  run_ctx.SetParent(options.exec);
  run_ctx.SetDeadlineAfterMs(options.deadline_ms);
  ExecContext task_ctx;
  if (hook == nullptr) {
    task_ctx.SetParent(&run_ctx);
  } else {
    task_ctx.SetMemoryBudget(run_ctx.memory_budget());
  }
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
  auto result = [&](Status status) {
    JoinStats out = session_stats();
    ReadOutputCounters(*sink, &out);
    out.elapsed_seconds = timer.ElapsedSeconds();
    out.status = std::move(status);
    CSJ_METRIC_HIST("join.elapsed_ns",
                    static_cast<uint64_t>(out.elapsed_seconds * 1e9));
    return out;
  };

  // --- The loop. From here to the thread join, `session`, `failure` and the
  // state below are guarded by mu.
  const uint64_t total = tasks.size();
  const uint64_t lookahead =
      kLookaheadPerThread * static_cast<uint64_t>(threads);
  const uint64_t interval = hook != nullptr ? hook->checkpoint_interval : 0;
  auto boundary_after = [&](uint64_t from) {
    return interval == 0 ? total : std::min(total, from + interval);
  };
  std::mutex mu;
  std::condition_variable cv;
  uint64_t next = hook != nullptr ? hook->first_task : 0;  // next to hand out
  uint64_t frontier = next;  // first task whose output is not in the sink
  uint64_t stop_at = boundary_after(frontier);  // hand out only below this
  Status failure;       // stops the loop; no further checkpoint is written
  Status interruption;  // deadline or cancel: stop pulling, keep committing
  // An initial checkpoint: a run killed before the first periodic checkpoint
  // still resumes instead of silently starting over.
  if (hook != nullptr && !hook->resumed && total > 0) {
    failure = hook->save(next, session_stats());
  }
  std::vector<std::unique_ptr<TaskBuffer>> buffers(total);
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
          implied = buffer->ReplayInto(sink);
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
      Driver driver(tree_a, tree_b, self_join, algorithm, task_options);
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
            if (hook == nullptr) {
              record_failure(run_ctx.status());
              return;
            }
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
          std::unique_ptr<TaskBuffer> buffer;
          if (!direct) {
            buffer = std::make_unique<TaskBuffer>(sink->id_width(),
                                                  task_ctx.memory_budget());
          }
          const JoinStats stats =
              driver.RunTask(tasks[index], direct ? sink : buffer.get());
          lock.lock();
          AddWork(&session, stats);
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
        if (Status save = hook->save(frontier, session_stats()); !save.ok()) {
          record_failure(std::move(save));
          return;
        }
        stop_at = boundary_after(frontier);
        cv.notify_all();
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      record_failure(Status::Internal(StrFormat(
          "join worker %d failed: %s", worker, e.what())));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      record_failure(Status::Internal(StrFormat(
          "join worker %d failed with a non-standard exception", worker)));
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
          StrFormat("cannot start a join worker: %s", e.what())));
    }
    work(0);
    for (auto& thread : pool) thread.join();
  }

  if (!failure.ok()) {
    if (failure.code() != StatusCode::kDeadlineExceeded &&
        failure.code() != StatusCode::kCancelled) {
      CSJ_METRIC_COUNT("parallel.failed_joins", 1);
    }
    return result(failure);
  }
  if (!interruption.ok()) {
    const Status save = hook->save(frontier, session_stats());
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
                  hook->manifest_path.c_str())));
  }
  return result(Status::OK());
}

/// A join through the task loop over the list BuildTaskList makes for
/// (tree(s), eps): a self-join of tree_a when `self_join`, else the dual
/// join of tree_a with tree_b.
template <SpatialIndex TreeA, SpatialIndex TreeB>
JoinStats RunJoin(const TreeA& tree_a, const TreeB& tree_b, bool self_join,
                  JoinAlgorithm algorithm, const JoinOptions& options,
                  JoinSink* sink, int threads = 1) {
  CSJ_CHECK(sink != nullptr);
  const std::vector<JoinTask> tasks =
      self_join ? BuildTaskList(tree_a, options.epsilon, kTaskTarget,
                                options.exec)
                : BuildTaskList(tree_a, tree_b, options.epsilon, kTaskTarget,
                                options.exec);
  return RunTaskLoop(tree_a, tree_b, self_join, tasks, algorithm, options,
                     sink, threads);
}

}  // namespace internal

/// Runs a self-join by runtime algorithm value, on the calling thread.
template <SpatialIndex Tree>
JoinStats RunSelfJoin(JoinAlgorithm algorithm, const Tree& tree,
                      const JoinOptions& options, JoinSink* sink) {
  return internal::RunJoin(tree, tree, /*self_join=*/true, algorithm, options,
                           sink);
}

/// Standard similarity self-join (SSJ): every qualifying pair is emitted as
/// an individual link. The baseline of all experiments.
template <SpatialIndex Tree>
JoinStats StandardSimilarityJoin(const Tree& tree, const JoinOptions& options,
                                 JoinSink* sink) {
  return RunSelfJoin(JoinAlgorithm::kSSJ, tree, options, sink);
}

/// Naive compact self-join (N-CSJ): subtrees whose bounding-shape diameter is
/// within epsilon are emitted as whole groups; everything else as links.
template <SpatialIndex Tree>
JoinStats NaiveCompactJoin(const Tree& tree, const JoinOptions& options,
                           JoinSink* sink) {
  return RunSelfJoin(JoinAlgorithm::kNCSJ, tree, options, sink);
}

/// Compact self-join CSJ(g): N-CSJ plus merging of individual links into the
/// g most recent groups (options.window_size).
template <SpatialIndex Tree>
JoinStats CompactSimilarityJoin(const Tree& tree, const JoinOptions& options,
                                JoinSink* sink) {
  return RunSelfJoin(JoinAlgorithm::kCSJ, tree, options, sink);
}

/// Standard spatial join of two trees (cross pairs only). The two trees must
/// use the same bounding-shape family and disjoint point-id spaces.
template <SpatialIndex TreeA, SpatialIndex TreeB>
JoinStats StandardSpatialJoin(const TreeA& tree_a, const TreeB& tree_b,
                              const JoinOptions& options, JoinSink* sink) {
  return internal::RunJoin(tree_a, tree_b, /*self_join=*/false,
                           JoinAlgorithm::kSSJ, options, sink);
}

/// Naive compact spatial join.
template <SpatialIndex TreeA, SpatialIndex TreeB>
JoinStats NaiveCompactSpatialJoin(const TreeA& tree_a, const TreeB& tree_b,
                                  const JoinOptions& options, JoinSink* sink) {
  return internal::RunJoin(tree_a, tree_b, /*self_join=*/false,
                           JoinAlgorithm::kNCSJ, options, sink);
}

/// Compact spatial join CSJ(g) over two trees.
template <SpatialIndex TreeA, SpatialIndex TreeB>
JoinStats CompactSpatialJoin(const TreeA& tree_a, const TreeB& tree_b,
                             const JoinOptions& options, JoinSink* sink) {
  return internal::RunJoin(tree_a, tree_b, /*self_join=*/false,
                           JoinAlgorithm::kCSJ, options, sink);
}

}  // namespace csj

#endif  // CSJ_CORE_SIMILARITY_JOIN_H_
