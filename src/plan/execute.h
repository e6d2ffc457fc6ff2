#ifndef CSJ_PLAN_EXECUTE_H_
#define CSJ_PLAN_EXECUTE_H_

#include <algorithm>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/checkpoint_join.h"
#include "core/ego.h"
#include "core/query_spec.h"
#include "core/similarity_join.h"
#include "plan/planner.h"

/// \file
/// The one way from a QuerySpec to a finished tree join, shared by csj_tool
/// and csj_serve: resolve `auto`, derive the options, clamp and apply
/// `threads`, run the task loop (core/similarity_join.h) — through the
/// manifest layer (core/checkpoint_join.h) when checkpoint options are given
/// — and attach the plan. The output depends only on the data and the
/// resolved spec, so a served query and a one-shot run of the same spec
/// write the same bytes at any thread count.

namespace csj::plan {

/// Makes the sink for `out`, runs `join` into it and finishes it: always
/// after a complete run, and after a failed one only when it is a stream
/// (out.fd >= 0), whose partial payload still gets its end marker. A failed
/// run's file sink is discarded instead of committed half-written.
template <typename Join>
JoinStats RunIntoSink(const OutputSpec& out, Join&& join) {
  auto sink = MakeSink(out);
  if (!sink.ok()) {
    JoinStats stats;
    stats.status = sink.status();
    return stats;
  }
  JoinStats stats = join(sink->get());
  if (stats.status.ok() || out.fd >= 0) {
    const uint64_t lost = (*sink)->lost_implied_links();
    const Status finished = (*sink)->Finish();
    stats.DeductImpliedLinks((*sink)->lost_implied_links() - lost);
    if (stats.status.ok()) stats.status = finished;
  }
  return stats;
}

/// Runs `spec` (a tree algorithm or auto) as a self-join of `tree`, or a
/// dual join with `tree_b` when non-null, into a sink made from `out`.
/// `auto` resolves against `sketch`, or against SketchTree(tree, exec) when
/// null; `exec` carries the caller's cancel flag and memory budget. With
/// `ckpt` the self-join runs under the manifest layer, which makes (or
/// resumes) and finishes the sink itself.
template <SpatialIndex Tree>
JoinStats Execute(QuerySpec spec, const Tree& tree,
                  const std::type_identity_t<Tree>* tree_b,
                  const DatasetSketch* sketch, const OutputSpec& out,
                  ExecContext* exec,
                  const CheckpointJoinOptions* ckpt = nullptr) {
  std::optional<QueryPlan> plan;
  if (spec.algo == QueryAlgo::kAuto) {
    Result<DatasetSketch> walked = DatasetSketch{};
    if (sketch == nullptr) {
      walked = SketchTree(tree, exec);
      if (!walked.ok()) {
        JoinStats stats;
        stats.status = walked.status();
        return stats;
      }
      sketch = &*walked;
    }
    plan = PlanQuery(spec, *sketch, out.id_width);
    spec = plan->resolved;
  }
  JoinOptions options = DeriveJoinOptions(spec);
  options.exec = exec;
  const JoinAlgorithm algorithm = TreeAlgorithmFor(spec.algo);
  // Any thread count writes the same bytes, so a peer's request is bounded
  // by the host's cores.
  const int threads = std::clamp(
      spec.threads, 1,
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())));

  JoinStats stats;
  if (ckpt != nullptr && tree_b != nullptr) {
    stats.status =
        Status::InvalidArgument("checkpointing supports self-joins only");
  } else if (ckpt != nullptr) {
    CheckpointJoinOptions run_ckpt = *ckpt;
    run_ckpt.threads = threads;
    stats = CheckpointedSelfJoin(tree, algorithm, options, out, run_ckpt);
  } else {
    stats = RunIntoSink(out, [&](JoinSink* sink) {
      return internal::RunJoin(
          tree, tree_b != nullptr ? *tree_b : tree, tree_b == nullptr,
          algorithm, options, sink, threads);
    });
  }
  if (plan) {
    AttachPlan(*plan, &stats);
    if (stats.status.ok()) RecordPlanAccuracy(stats);
  }
  return stats;
}

/// Runs an ego or cego spec over raw points. EGO has no tree: it runs
/// serial, without checkpoints.
template <int D>
JoinStats Execute(const QuerySpec& spec, const std::vector<Entry<D>>& entries,
                  const OutputSpec& out, ExecContext* exec) {
  EgoOptions options = DeriveEgoOptions(spec);
  options.exec = exec;
  return RunIntoSink(out, [&](JoinSink* sink) {
    return ego_internal::RunEgoJoin<D>(entries, nullptr, options,
                                       spec.algo == QueryAlgo::kCEgo, sink);
  });
}

}  // namespace csj::plan

#endif  // CSJ_PLAN_EXECUTE_H_
