/// \file
/// csj_tool — command-line front end for the library. Covers the full
/// pipeline a downstream user needs without writing C++:
///
///   csj_tool generate --kind roadnet --n 27000 --seed 27 --out pts.txt
///   csj_tool build    --points pts.txt --out index.csjt [--fanout 64]
///   csj_tool join     --index index.csjt --eps 0.05 --algo csj --g 10
///                     --out result.txt   (one line)
///   csj_tool join     --points pts.txt --eps 0.05 --algo ego --out r.txt
///   csj_tool join     --index index.csjt --eps 0.05 --algo auto --out r.txt
///                     (cost-based planner picks algorithm, g and
///                     serial-vs-parallel; the chosen plan and its
///                     predictions ride along in --metrics json output; see
///                     docs/PLANNING.md)
///   csj_tool plan     --index index.csjt --eps 0.05 [--algo csj] [--json 1]
///                     (alias: explain — print the QueryPlan, with a
///                     rationale per decision, without executing anything;
///                     defaults to --algo auto, an explicit algo is priced)
///   csj_tool join     ... --metrics json   (stats + metrics snapshot JSON
///                     on stdout; --metrics text appends a readable dump)
///   csj_tool join     ... --output-format text|binary|none   (binary = the
///                     compact CSJ2 format, docs/OUTPUT_FORMAT.md; none =
///                     count bytes without writing; default text)
///   csj_tool join     ... [--deadline-ms 60000] [--mem-budget 268435456]
///                     (resource governance, docs/ROBUSTNESS.md: every join
///                     — including plain, ego and cego runs — stops cleanly
///                     when the wall-clock budget or the memory budget in
///                     bytes runs out; deadline exits 4, exhausted memory
///                     exits 5, SIGINT/SIGTERM exits 3; no partial output
///                     file is left behind)
///   csj_tool join     ... --checkpoint-interval 32 [--checkpoint run.ckpt]
///                     [--threads 4] [--tasks-per-thread 16]   (crash-safe
///                     checkpointed execution, docs/ROBUSTNESS.md; the
///                     manifest defaults to <out>.ckpt; SIGINT/SIGTERM and
///                     deadlines additionally save a final checkpoint for
///                     --resume; the output depends on threads x
///                     tasks-per-thread, not on the thread count)
///   csj_tool join     ... --resume 1   (continue an interrupted run from
///                     its manifest, at any thread count with the same
///                     threads x tasks-per-thread; the finished output is
///                     byte-identical to an uninterrupted run)
///   csj_tool cat      --result result.bin [--out result.txt] [--width N]
///                     (decode any result — text or binary — to canonical
///                     text; stdout when --out is omitted)
///   csj_tool expand   --result result.txt --out links.txt
///   csj_tool verify   --points pts.txt --result result.txt --eps 0.05
///   csj_tool stats    --index index.csjt
///
/// expand / verify / report / cat auto-detect the result format, so every
/// inspection command runs unchanged on text and binary outputs.
///
/// 2-D only (the common GIS case); the C++ API is dimension-generic.

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "csj.h"

namespace csj::tool {
namespace {

/// Exit codes beyond the usual 0/1/2: a join stopped by SIGINT/SIGTERM, one
/// stopped by an expired --deadline-ms, and one stopped by an exhausted
/// --mem-budget.
constexpr int kExitInterrupted = 3;
constexpr int kExitDeadline = 4;
constexpr int kExitResourceExhausted = 5;

/// Flipped by the signal handler; polled by the checkpoint runner at task
/// boundaries, which then writes a final checkpoint and unwinds cleanly.
std::atomic<bool> g_cancel_requested{false};

void HandleTerminationSignal(int) {
  // async-signal-safe: just raise the flag; all I/O happens on the main
  // thread once the runner reaches the next task boundary.
  g_cancel_requested.store(true, std::memory_order_relaxed);
}

void InstallTerminationHandlers() {
  std::signal(SIGINT, HandleTerminationSignal);
  std::signal(SIGTERM, HandleTerminationSignal);
}

/// Minimal --flag value parser; every flag takes exactly one value.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        Die(StrFormat("expected a --flag, got '%s'", argv[i]));
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) {
      Die(StrFormat("flag '%s' is missing its value", argv[argc - 1]));
    }
  }

  std::string GetOr(const std::string& key, const std::string& fallback) {
    seen_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string Require(const std::string& key) {
    seen_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing required flag --" + key);
    return it->second;
  }

  double GetDouble(const std::string& key, double fallback) {
    const std::string v = GetOr(key, "");
    return v.empty() ? fallback : std::atof(v.c_str());
  }

  long GetInt(const std::string& key, long fallback) {
    const std::string v = GetOr(key, "");
    return v.empty() ? fallback : std::atol(v.c_str());
  }

  /// Rejects typo'd flags once the command has read everything it knows.
  void CheckAllUsed() {
    for (const auto& [key, value] : values_) {
      if (seen_.find(key) == seen_.end()) Die("unknown flag --" + key);
    }
  }

  [[noreturn]] static void Die(const std::string& message) {
    std::fprintf(stderr, "csj_tool: %s\n", message.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> seen_;
};

void DieOnError(const Status& status) {
  if (!status.ok()) Flags::Die(status.ToString());
}

/// Maps a governed join's terminal status to the exit codes above; 0 for
/// statuses that are not governance outcomes.
int GovernanceExitCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
      return kExitInterrupted;
    case StatusCode::kDeadlineExceeded:
      return kExitDeadline;
    case StatusCode::kResourceExhausted:
      return kExitResourceExhausted;
    default:
      return 0;
  }
}

/// Reports a join's terminal status: returns 0 for OK (continue), the
/// governance exit code for a clean stop, and dies (exit 2) on any other
/// error. On a non-zero return the caller must skip sink->Finish(), so the
/// atomic output file is discarded instead of committed half-written.
int HandleJoinStatus(const Status& status) {
  if (status.ok()) return 0;
  const int code = GovernanceExitCode(status);
  if (code != 0) {
    std::fprintf(stderr, "join stopped: %s\n", status.ToString().c_str());
    return code;
  }
  Flags::Die(status.ToString());
}

Result<std::vector<Entry<2>>> LoadEntries(const std::string& path) {
  CSJ_ASSIGN_OR_RETURN(auto points, LoadPoints<2>(path));
  return ToEntries(points);
}

int CmdGenerate(Flags& flags) {
  const std::string kind = flags.GetOr("kind", "roadnet");
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string out = flags.Require("out");
  flags.CheckAllUsed();

  std::vector<Point2> points;
  if (kind == "roadnet") {
    RoadNetOptions options;
    options.num_points = n;
    options.seed = seed;
    points = GenerateRoadNetwork(options);
  } else if (kind == "uniform") {
    points = GenerateUniform<2>(n, seed);
  } else if (kind == "clusters") {
    points = GenerateGaussianClusters<2>(n, 8, 0.02, seed);
  } else if (kind == "sierpinski") {
    points = GenerateSierpinski2D(n, seed);
  } else {
    Flags::Die("unknown --kind '" + kind +
               "' (roadnet|uniform|clusters|sierpinski)");
  }
  DieOnError(SavePoints(out, points));
  std::printf("wrote %s points to %s\n", WithThousands(points.size()).c_str(),
              out.c_str());
  return 0;
}

int CmdBuild(Flags& flags) {
  const std::string points_path = flags.Require("points");
  const std::string out = flags.Require("out");
  RStarOptions options;
  options.max_fanout = static_cast<size_t>(flags.GetInt("fanout", 64));
  options.min_fanout = std::max<size_t>(2, options.max_fanout * 2 / 5);
  const bool bulk = flags.GetOr("bulk", "str") != "none";
  flags.CheckAllUsed();

  auto entries = LoadEntries(points_path);
  DieOnError(entries.status());
  RStarTree<2> tree(options);
  WallTimer timer;
  if (bulk) {
    PackStr(&tree, *entries);
  } else {
    for (const auto& e : *entries) tree.Insert(e.id, e.point);
  }
  std::printf("built R*-tree over %s points in %s (%s)\n",
              WithThousands(entries->size()).c_str(),
              HumanDuration(timer.ElapsedSeconds()).c_str(),
              tree.Stats().ToString().c_str());
  DieOnError(SaveTree(tree, out));
  std::printf("saved index to %s\n", out.c_str());
  return 0;
}

/// Builds the QuerySpec shared by `join` and `plan` from the command-line
/// flags, plus the dataset source flags (--index / --points). Dies on any
/// malformed value. This is the only flag-to-spec mapping in the tool: both
/// commands describe the same run identically, and execution knobs are
/// derived from the spec (plan/planner.h), never re-read from the flags.
QuerySpec SpecFromFlags(Flags& flags, std::string* index_path,
                        std::string* points_path) {
  QuerySpec spec;
  const std::string algo = flags.GetOr("algo", "csj");
  if (!ParseQueryAlgo(algo, &spec.algo)) {
    Flags::Die("unknown --algo '" + algo + "' (auto|ssj|ncsj|csj|ego|cego)");
  }
  spec.eps = flags.GetDouble("eps", 0.0);
  spec.window = static_cast<int>(flags.GetInt("g", 10));
  // Absent --threads leaves 0 ("unspecified"): the planner decides under
  // --algo auto, explicit runs stay serial — the historical default.
  spec.threads = static_cast<int>(flags.GetInt("threads", 0));
  const long deadline_ms = flags.GetInt("deadline-ms", 0);
  if (deadline_ms < 0) Flags::Die("--deadline-ms must be non-negative");
  spec.deadline_ms = static_cast<uint64_t>(deadline_ms);
  const long mem_budget = flags.GetInt("mem-budget", 0);
  if (mem_budget < 0) Flags::Die("--mem-budget must be non-negative bytes");
  spec.mem_budget = static_cast<uint64_t>(mem_budget);
  const std::string format_name = flags.GetOr("output-format", "text");
  if (!ParseOutputFormat(format_name, &spec.output)) {
    Flags::Die("--output-format must be text, binary or none");
  }
  *index_path = flags.GetOr("index", "");
  *points_path = flags.GetOr("points", "");
  spec.dataset = index_path->empty() ? *points_path : *index_path;
  DieOnError(spec.Validate());
  return spec;
}

/// Loads the dataset named by --index / --points as raw points (for the
/// planner's sketch; `plan` also renders predictions from them).
std::vector<Point2> LoadPlanningPoints(const std::string& index_path,
                                       const std::string& points_path) {
  std::vector<Point2> points;
  if (!index_path.empty()) {
    auto info = PeekTreeFile(index_path);
    DieOnError(info.status());
    RStarOptions options;
    options.max_fanout = info->max_fanout;
    options.min_fanout = info->min_fanout;
    RStarTree<2> tree(options);
    DieOnError(LoadTree(&tree, index_path));
    points.reserve(tree.size());
    ForEachEntryInSubtree(
        tree, tree.Root(), static_cast<NodeAccessTracker*>(nullptr),
        [&](const Entry<2>& e) { points.push_back(e.point); });
  } else if (!points_path.empty()) {
    // Pack and walk exactly as CmdJoin does: the sketch's seeded sample is
    // input-order sensitive, so `plan` must see the same point sequence as
    // `join --algo auto` for the two to resolve the same plan.
    auto entries = LoadEntries(points_path);
    DieOnError(entries.status());
    RStarTree<2> tree;
    PackStr(&tree, *entries);
    points.reserve(tree.size());
    ForEachEntryInSubtree(
        tree, tree.Root(), static_cast<NodeAccessTracker*>(nullptr),
        [&](const Entry<2>& e) { points.push_back(e.point); });
  } else {
    Flags::Die("need --index or --points");
  }
  return points;
}

int CmdJoin(Flags& flags) {
  std::string index_path;
  std::string points_path;
  QuerySpec spec = SpecFromFlags(flags, &index_path, &points_path);
  const std::string out = flags.GetOr("out", "");
  if (out.empty() && spec.output != OutputFormat::kNone) {
    Flags::Die("join needs --out (or --output-format none)");
  }
  const std::string metrics_mode = flags.GetOr("metrics", "off");
  if (metrics_mode != "off" && metrics_mode != "text" &&
      metrics_mode != "json") {
    Flags::Die("--metrics must be off, text or json");
  }
  // Checkpoint/resume flags. Any of them — or a resolved thread count above
  // one — selects the crash-safe runner (docs/ROBUSTNESS.md); without them
  // the join runs exactly as before.
  const long tasks_per_thread = flags.GetInt("tasks-per-thread", 16);
  const long checkpoint_interval = flags.GetInt("checkpoint-interval", -1);
  const bool resume = flags.GetOr("resume", "0") != "0";
  std::string manifest_path = flags.GetOr("checkpoint", "");
  flags.CheckAllUsed();

  const bool checkpoint_flags =
      resume || checkpoint_interval >= 0 || !manifest_path.empty();
  if (tasks_per_thread < 1) Flags::Die("--tasks-per-thread must be positive");
  if ((checkpoint_flags || spec.threads > 1) && IsEgoAlgo(spec.algo)) {
    Flags::Die("checkpointing supports the tree algorithms (ssj|ncsj|csj)");
  }
  if (manifest_path.empty()) {
    manifest_path = (out.empty() ? std::string("csj_join") : out) + ".ckpt";
  }

  // Governance shared by every join flavor below: SIGINT/SIGTERM cancel,
  // plus the optional memory budget. Drivers layer --deadline-ms on top.
  MemoryBudget budget(spec.mem_budget);
  ExecContext exec;
  exec.SetCancelFlag(&g_cancel_requested);
  exec.SetMemoryBudget(&budget);
  InstallTerminationHandlers();

  // Every sink — text file, binary file, or byte-counting — comes from the
  // same factory, so the join code below is format-agnostic.
  const auto make_sink = [&](uint64_t n) {
    OutputSpec out_spec;
    out_spec.format = spec.output;
    out_spec.path = out;
    out_spec.id_width = IdWidthFor(n);
    out_spec.budget = &budget;
    auto sink = MakeSink(out_spec);
    DieOnError(sink.status());
    return std::move(sink).value();
  };

  JoinStats stats;
  uint64_t n = 0;
  if (IsEgoAlgo(spec.algo)) {
    if (points_path.empty()) Flags::Die("--algo ego needs --points");
    auto entries = LoadEntries(points_path);
    DieOnError(entries.status());
    n = entries->size();
    auto sink = make_sink(n);
    EgoOptions options = plan::DeriveEgoOptions(spec);
    options.exec = &exec;
    stats = spec.algo == QueryAlgo::kEgo
                ? EgoSimilarityJoin(*entries, options, sink.get())
                : CompactEgoJoin(*entries, options, sink.get());
    // A governed stop must not leave a partial artifact: skipping Finish()
    // makes the atomic FileSink discard its temp file.
    if (const int code = HandleJoinStatus(stats.status)) return code;
    DieOnError(sink->Finish());
  } else {
    RStarOptions tree_options;
    if (!index_path.empty()) {
      // Match the on-disk fanout before loading.
      auto info = PeekTreeFile(index_path);
      DieOnError(info.status());
      tree_options.max_fanout = info->max_fanout;
      tree_options.min_fanout = info->min_fanout;
    }
    RStarTree<2> tree(tree_options);
    if (!index_path.empty()) {
      DieOnError(LoadTree(&tree, index_path));
    } else if (!points_path.empty()) {
      auto entries = LoadEntries(points_path);
      DieOnError(entries.status());
      PackStr(&tree, *entries);
    } else {
      Flags::Die("join needs --index or --points");
    }
    n = tree.size();

    // --algo auto: sketch the already-loaded dataset and let the planner
    // resolve every open knob; the plan rides along in the stats.
    std::optional<plan::QueryPlan> query_plan;
    if (spec.algo == QueryAlgo::kAuto) {
      std::vector<Point2> points;
      points.reserve(n);
      ForEachEntryInSubtree(
          tree, tree.Root(), static_cast<NodeAccessTracker*>(nullptr),
          [&](const Entry<2>& e) { points.push_back(e.point); });
      query_plan =
          plan::PlanQuery(spec, plan::BuildSketch(points), IdWidthFor(n));
      spec = query_plan->resolved;
    }
    const auto finish_plan = [&](JoinStats* s) {
      if (!query_plan) return;
      plan::AttachPlan(*query_plan, s);
      if (s->status.ok()) plan::RecordPlanAccuracy(*s);
    };

    JoinOptions options = plan::DeriveJoinOptions(spec);
    options.exec = &exec;
    const JoinAlgorithm algorithm = TreeAlgorithmFor(spec.algo);
    if (checkpoint_flags || spec.threads > 1) {
      OutputSpec out_spec;
      out_spec.format = spec.output;
      out_spec.path = out;
      out_spec.id_width = IdWidthFor(n);
      out_spec.budget = &budget;
      CheckpointJoinOptions ckpt;
      ckpt.manifest_path = manifest_path;
      ckpt.checkpoint_interval = checkpoint_interval < 0
                                     ? uint64_t{32}
                                     : static_cast<uint64_t>(checkpoint_interval);
      ckpt.threads = spec.threads > 0 ? spec.threads : 1;
      ckpt.tasks_per_thread = static_cast<int>(tasks_per_thread);
      ckpt.resume = resume;
      ckpt.cancel = &g_cancel_requested;
      stats = CheckpointedSelfJoin(tree, algorithm, options, out_spec, ckpt);
      finish_plan(&stats);
      // The checkpoint runner already persisted a resumable manifest, so a
      // governed stop here is an orderly exit, not a Die().
      if (const int code = HandleJoinStatus(stats.status)) return code;
    } else {
      auto sink = make_sink(n);
      if (algorithm == JoinAlgorithm::kSSJ) {
        stats = StandardSimilarityJoin(tree, options, sink.get());
      } else if (algorithm == JoinAlgorithm::kNCSJ) {
        stats = NaiveCompactJoin(tree, options, sink.get());
      } else {
        stats = CompactSimilarityJoin(tree, options, sink.get());
      }
      finish_plan(&stats);
      // Skip Finish() on a governed stop so the atomic FileSink discards its
      // temp file instead of publishing a partial result.
      if (const int code = HandleJoinStatus(stats.status)) return code;
      DieOnError(sink->Finish());
    }
  }
  if (metrics_mode == "json") {
    // Machine-readable mode: stdout carries exactly one JSON document with
    // the run's stats and the process metrics snapshot.
    json::Value doc = json::Object{};
    doc["stats"] = stats.ToJsonValue();
    doc["metrics"] = metrics::Snapshot().ToJsonValue();
    std::printf("%s\n", json::Write(doc, /*pretty=*/true).c_str());
    return 0;
  }
  std::printf("%s\n", stats.ToString().c_str());
  if (spec.output == OutputFormat::kNone) {
    std::printf("counted %s (%s) of %s output; nothing written\n",
                HumanBytes(stats.output_bytes).c_str(),
                WithThousands(stats.output_bytes).c_str(),
                OutputFormatName(OutputFormat::kText));
  } else {
    std::printf("wrote %s (%s) of %s output to %s\n",
                HumanBytes(stats.output_bytes).c_str(),
                WithThousands(stats.output_bytes).c_str(),
                OutputFormatName(spec.output), out.c_str());
  }
  if (metrics_mode == "text") {
    std::printf("%s", metrics::Snapshot().ToText().c_str());
  }
  return 0;
}

int CmdPlan(Flags& flags) {
  // Explain mode: resolve the spec against the dataset sketch and print the
  // QueryPlan — chosen knobs, predictions and a rationale per decision —
  // without executing the join. `--json 1` prints the exact document that
  // `join --algo auto --metrics json` echoes under stats.plan.
  std::string index_path;
  std::string points_path;
  QuerySpec spec = SpecFromFlags(flags, &index_path, &points_path);
  // Unlike join (whose historical default is csj), plan defaults to auto:
  // "what would the planner do" is the question the command answers. An
  // explicit --algo still prices that configuration instead.
  if (flags.GetOr("algo", "").empty()) spec.algo = QueryAlgo::kAuto;
  const bool as_json = flags.GetOr("json", "0") != "0";
  flags.CheckAllUsed();

  const std::vector<Point2> points =
      LoadPlanningPoints(index_path, points_path);
  const auto query_plan = plan::PlanQuery(spec, plan::BuildSketch(points),
                                          IdWidthFor(points.size()));
  if (as_json) {
    std::printf("%s\n",
                json::Write(query_plan.ToJsonValue(), /*pretty=*/true).c_str());
  } else {
    std::printf("%s", query_plan.ToText().c_str());
  }
  return 0;
}

/// Opens the result file as a streaming cursor, dying on failure. Handles
/// text and binary transparently (magic-byte sniffing).
std::unique_ptr<ResultCursor> OpenCursorOrDie(const std::string& path) {
  auto cursor = OpenResultCursor(path);
  DieOnError(cursor.status());
  return std::move(cursor).value();
}

int CmdExpand(Flags& flags) {
  const std::string result_path = flags.Require("result");
  const std::string out = flags.Require("out");
  flags.CheckAllUsed();

  auto cursor = OpenCursorOrDie(result_path);
  uint64_t links_seen = 0;
  uint64_t groups_seen = 0;
  std::vector<Link> links;
  DieOnError(ForEachImpliedLink(cursor.get(), [&](PointId a, PointId b) {
    links.push_back(MakeLink(a, b));
  }));
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  links_seen = cursor->links_read();
  groups_seen = cursor->groups_read();

  OutputFile file;
  DieOnError(file.Open(out, OutputFile::Options{.atomic = true}));
  for (const auto& [a, b] : links) {
    // Errors are sticky; stop at the first one and let Close() report it.
    if (!file.Append(StrFormat("%u %u\n", a, b)).ok()) break;
  }
  DieOnError(file.Close());
  std::printf("expanded %s links + %s groups into %s distinct links (%s)\n",
              WithThousands(links_seen).c_str(),
              WithThousands(groups_seen).c_str(),
              WithThousands(links.size()).c_str(), out.c_str());
  return 0;
}

int CmdVerify(Flags& flags) {
  const std::string points_path = flags.Require("points");
  const std::string result_path = flags.Require("result");
  const double eps = flags.GetDouble("eps", 0.0);
  if (eps <= 0.0) Flags::Die("--eps must be positive");
  flags.CheckAllUsed();

  auto entries = LoadEntries(points_path);
  DieOnError(entries.status());
  auto cursor = OpenCursorOrDie(result_path);
  auto expansion = ExpandSelfJoin(cursor.get());
  DieOnError(expansion.status());
  const auto report =
      CompareLinkSets(*expansion, BruteForceSelfJoin(*entries, eps));
  std::printf("%s\n", report.ToString().c_str());
  return report.lossless() ? 0 : 1;
}

int CmdReport(Flags& flags) {
  // Descriptive statistics of a join-output file: compaction ratio, group
  // size distribution, overlap. Streams; never loads the output.
  const std::string result_path = flags.Require("result");
  const int width = static_cast<int>(flags.GetInt("width", 0));
  flags.CheckAllUsed();

  auto cursor = OpenCursorOrDie(result_path);
  // With --width 0 the stats layer uses the file's declared width (binary)
  // or the width of the largest id seen (text).
  auto stats = ComputeOutputStats(cursor.get(), width);
  DieOnError(stats.status());
  std::printf("%s", stats->ToString().c_str());
  return 0;
}

int CmdCat(Flags& flags) {
  // Decodes a result file — text or binary — to the canonical fixed-width
  // text format. `csj_tool cat` on a binary result reproduces, byte for
  // byte, the text file the same join would have written directly.
  const std::string result_path = flags.Require("result");
  const std::string out = flags.GetOr("out", "");
  int width = static_cast<int>(flags.GetInt("width", 0));
  flags.CheckAllUsed();

  if (width == 0) {
    auto cursor = OpenCursorOrDie(result_path);
    width = cursor->declared_id_width();
    if (width == 0) {
      // Text input declares no width: pre-scan for the largest id.
      PointId max_id = 0;
      while (cursor->Next()) {
        for (PointId id : cursor->record().ids) max_id = std::max(max_id, id);
      }
      DieOnError(cursor->status());
      width = DecimalWidth(max_id);
    }
  }

  auto cursor = OpenCursorOrDie(result_path);
  if (!out.empty()) {
    OutputSpec spec;
    spec.format = OutputFormat::kText;
    spec.path = out;
    spec.id_width = width;
    auto sink = MakeSink(spec);
    DieOnError(sink.status());
    DieOnError(ReplayResult(cursor.get(), sink->get()));
    DieOnError((*sink)->Finish());
    std::printf("decoded %s records to %s (width %d)\n",
                WithThousands(cursor->links_read() + cursor->groups_read())
                    .c_str(),
                out.c_str(), width);
  } else {
    bool consumer_gone = false;
    while (!consumer_gone && cursor->Next()) {
      const auto ids = cursor->record().ids;
      for (size_t i = 0; i < ids.size(); ++i) {
        errno = 0;
        if (std::printf("%0*u%c", width, ids[i],
                        i + 1 == ids.size() ? '\n' : ' ') < 0) {
          // `csj_tool cat ... | head`: the consumer closed stdout. SIGPIPE
          // is ignored process-wide, so the hangup surfaces here as EPIPE —
          // a consumer decision, not an error. Anything else still dies.
          if (errno != EPIPE) {
            Flags::Die(std::string("write to stdout failed: ") +
                       std::strerror(errno));
          }
          consumer_gone = true;
          break;
        }
      }
    }
    DieOnError(cursor->status());
  }
  return 0;
}

int CmdFractal(Flags& flags) {
  // Intrinsic-dimension analysis of a point set + join-output prediction
  // (the paper's future-work analysis).
  const std::string points_path = flags.Require("points");
  const double eps = flags.GetDouble("eps", 0.0);
  flags.CheckAllUsed();

  auto entries = LoadEntries(points_path);
  DieOnError(entries.status());
  std::vector<Point2> points;
  points.reserve(entries->size());
  for (const auto& e : *entries) points.push_back(e.point);

  const auto d0 = BoxCountingDimension(points);
  DieOnError(d0.status());
  const PowerLawFit d2 = CorrelationDimension(points);
  std::printf("points: %s\n", WithThousands(points.size()).c_str());
  std::printf("box-counting dimension D0 = %.2f (R^2=%.3f)\n", d0->slope,
              d0->r_squared);
  std::printf("correlation dimension D2 = %.2f (R^2=%.3f)\n", d2.slope,
              d2.r_squared);
  if (eps > 0.0) {
    const uint64_t predicted = PredictLinkCount(d2, points.size(), eps);
    std::printf("predicted similarity-join links at eps=%g: ~%s "
                "(~%s as a plain link listing)\n",
                eps, WithThousands(predicted).c_str(),
                HumanBytes(predicted * 2 *
                           static_cast<uint64_t>(
                               DecimalWidth(points.size() - 1) + 1))
                    .c_str());
  }
  return 0;
}

int CmdSuggestEps(Flags& flags) {
  // k-distance epsilon suggestion plus a D2-based output-size preview.
  const std::string points_path = flags.Require("points");
  const size_t k = static_cast<size_t>(flags.GetInt("k", 8));
  const double percentile = flags.GetDouble("percentile", 0.5);
  flags.CheckAllUsed();

  auto entries = LoadEntries(points_path);
  DieOnError(entries.status());
  RStarTree<2> tree;
  PackStr(&tree, *entries);
  const auto suggestion = SuggestEpsilon(tree, *entries, k, percentile);
  if (suggestion.epsilon <= 0.0) Flags::Die("not enough points to suggest");
  std::printf("k-distance scan (k=%zu, %zu anchors): median %.6g, "
              "p90 %.6g\n",
              k, suggestion.sample_size, suggestion.median_kdist,
              suggestion.p90_kdist);
  std::printf("suggested eps (p%02.0f) = %.6g\n", percentile * 100.0,
              suggestion.epsilon);

  std::vector<Point2> points;
  points.reserve(entries->size());
  for (const auto& e : *entries) points.push_back(e.point);
  const PowerLawFit d2 = CorrelationDimension(points);
  const uint64_t predicted =
      PredictLinkCount(d2, points.size(), suggestion.epsilon);
  std::printf("predicted links at that eps (D2=%.2f): ~%s\n", d2.slope,
              WithThousands(predicted).c_str());
  return 0;
}

int CmdStats(Flags& flags) {
  const std::string index_path = flags.Require("index");
  flags.CheckAllUsed();
  auto info = PeekTreeFile(index_path);
  DieOnError(info.status());
  RStarOptions options;
  options.max_fanout = info->max_fanout;
  options.min_fanout = info->min_fanout;
  RStarTree<2> tree(options);
  DieOnError(LoadTree(&tree, index_path));
  std::printf("%s\n", tree.Stats().ToString().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: csj_tool "
               "<generate|build|join|plan|cat|expand|verify|stats|report|"
               "fractal|suggest-eps> "
               "[--flag value ...]\n"
               "see the header comment of tools/csj_tool.cc for examples\n");
  return 2;
}

int Main(int argc, char** argv) {
  // A consumer hanging up mid-stream (`csj_tool join ... | head`) must not
  // kill the process with SIGPIPE: ignored, the broken pipe surfaces as
  // EPIPE, which OutputFile maps to a clean sticky kCancelled (exit 3) and
  // CmdCat's stdout loop treats as end-of-interest (exit 0).
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "build") return CmdBuild(flags);
  if (command == "join") return CmdJoin(flags);
  if (command == "plan" || command == "explain") return CmdPlan(flags);
  if (command == "cat") return CmdCat(flags);
  if (command == "expand") return CmdExpand(flags);
  if (command == "verify") return CmdVerify(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "report") return CmdReport(flags);
  if (command == "fractal") return CmdFractal(flags);
  if (command == "suggest-eps") return CmdSuggestEps(flags);
  return Usage();
}

}  // namespace
}  // namespace csj::tool

int main(int argc, char** argv) { return csj::tool::Main(argc, argv); }
