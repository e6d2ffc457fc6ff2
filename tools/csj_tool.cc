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
///                     (cost-based planner picks algorithm, g and threads;
///                     the chosen plan and its predictions ride along in
///                     --metrics json output; see docs/PLANNING.md)
///   csj_tool plan     --index index.csjt --eps 0.05 [--algo csj] [--json 1]
///                     (alias: explain — print the QueryPlan, with a
///                     rationale per decision, without executing anything;
///                     defaults to --algo auto, an explicit algo is priced)
///   csj_tool join     ... --metrics json   (stats + metrics snapshot JSON
///                     on stdout; --metrics text appends a readable dump)
///   csj_tool join     ... --output-format text|binary|none   (binary = the
///                     compact CSJ2 format, docs/OUTPUT_FORMAT.md; none =
///                     count bytes without writing; default text)
///   csj_tool join     ... --threads 4   (tree algorithms: workers over the
///                     join's task list; the output does not depend on it)
///   csj_tool join     ... [--deadline-ms 60000] [--mem-budget 268435456]
///                     (resource governance, docs/ROBUSTNESS.md: every join
///                     stops cleanly when the wall-clock budget or the memory
///                     budget in bytes runs out; deadline exits 4, exhausted
///                     memory exits 5, SIGINT/SIGTERM exits 3; no partial
///                     output file is left behind)
///   csj_tool join     ... --checkpoint-interval 32 [--checkpoint run.ckpt]
///                     (crash-safe checkpointed execution,
///                     docs/ROBUSTNESS.md; the manifest defaults to
///                     <out>.ckpt; SIGINT/SIGTERM and deadlines additionally
///                     save a final checkpoint for --resume)
///   csj_tool join     ... --resume 1   (continue an interrupted run from
///                     its manifest, at any thread count; the finished
///                     output is byte-identical to an uninterrupted run)
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

#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "csj.h"
#include "flags.h"

namespace csj::tool {
namespace {

using cli::DieOnError;
using cli::Flags;
using cli::kExitDeadline;
using cli::kExitInterrupted;
using cli::kExitResourceExhausted;

/// Maps a governed join's terminal status to the cli exit codes; 0 for
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
/// error.
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

/// Loads the tree named by --index, or STR-packs the points named by
/// --points. Dies when neither is given or the load fails.
std::unique_ptr<RStarTree<2>> LoadTreeOrDie(const std::string& index_path,
                                            const std::string& points_path) {
  RStarOptions options;
  if (!index_path.empty()) {
    // Match the on-disk fanout before loading.
    auto info = PeekTreeFile(index_path);
    DieOnError(info.status());
    options.max_fanout = info->max_fanout;
    options.min_fanout = info->min_fanout;
  }
  auto tree = std::make_unique<RStarTree<2>>(options);
  if (!index_path.empty()) {
    DieOnError(LoadTree(tree.get(), index_path));
  } else if (!points_path.empty()) {
    auto entries = LoadEntries(points_path);
    DieOnError(entries.status());
    PackStr(tree.get(), *entries);
  } else {
    Flags::Die("need --index or --points");
  }
  return tree;
}

int CmdJoin(Flags& flags) {
  std::string index_path;
  std::string points_path;
  const QuerySpec spec = SpecFromFlags(flags, &index_path, &points_path);
  const std::string out = flags.GetOr("out", "");
  if (out.empty() && spec.output != OutputFormat::kNone) {
    Flags::Die("join needs --out (or --output-format none)");
  }
  const std::string metrics_mode = flags.GetOr("metrics", "off");
  if (metrics_mode != "off" && metrics_mode != "text" &&
      metrics_mode != "json") {
    Flags::Die("--metrics must be off, text or json");
  }
  // Only the checkpoint flags select the manifest layer (docs/ROBUSTNESS.md);
  // --threads sets the number of workers and never changes the output.
  const long checkpoint_interval = flags.GetInt("checkpoint-interval", -1);
  const bool resume = flags.GetOr("resume", "0") != "0";
  std::string manifest_path = flags.GetOr("checkpoint", "");
  flags.CheckAllUsed();

  const bool checkpointed =
      resume || checkpoint_interval >= 0 || !manifest_path.empty();
  if ((checkpointed || spec.threads > 1) && IsEgoAlgo(spec.algo)) {
    Flags::Die("--threads and checkpointing support the tree algorithms "
               "(ssj|ncsj|csj); ego and cego run serial");
  }

  // Governance shared by every join: SIGINT/SIGTERM cancel, plus the
  // optional memory budget; --deadline-ms rides in the spec.
  MemoryBudget budget(spec.mem_budget);
  ExecContext exec;
  exec.SetCancelFlag(&cli::g_termination_requested);
  exec.SetMemoryBudget(&budget);
  cli::InstallTerminationHandlers();

  OutputSpec out_spec;
  out_spec.format = spec.output;
  out_spec.path = out;
  out_spec.budget = &budget;
  JoinStats stats;
  if (IsEgoAlgo(spec.algo)) {
    if (points_path.empty()) Flags::Die("--algo ego needs --points");
    auto entries = LoadEntries(points_path);
    DieOnError(entries.status());
    out_spec.id_width = IdWidthFor(entries->size());
    stats = plan::Execute(spec, *entries, out_spec, &exec);
  } else {
    const auto tree = LoadTreeOrDie(index_path, points_path);
    out_spec.id_width = IdWidthFor(tree->size());
    CheckpointJoinOptions ckpt;
    ckpt.manifest_path =
        !manifest_path.empty()
            ? manifest_path
            : (out.empty() ? std::string("csj_join") : out) + ".ckpt";
    ckpt.checkpoint_interval = checkpoint_interval < 0
                                   ? uint64_t{32}
                                   : static_cast<uint64_t>(checkpoint_interval);
    ckpt.resume = resume;
    stats = plan::Execute(spec, *tree, nullptr, nullptr, out_spec, &exec,
                          checkpointed ? &ckpt : nullptr);
  }
  // A governed stop exits with its own code. A plain run's file sink was
  // discarded, a checkpointed run's manifest kept for --resume.
  if (const int code = HandleJoinStatus(stats.status)) return code;
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

  // The same tree and sketch `join --algo auto` plans against, so the two
  // resolve the same plan.
  const auto tree = LoadTreeOrDie(index_path, points_path);
  auto sketch = plan::SketchTree(*tree);
  DieOnError(sketch.status());
  const auto query_plan =
      plan::PlanQuery(spec, *sketch, IdWidthFor(tree->size()));
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
  auto links = ExpandSelfJoin(cursor.get());
  DieOnError(links.status());

  // A text sink with id_width 1 writes each link as "a b\n", unpadded.
  OutputSpec spec;
  spec.path = out;
  auto sink = MakeSink(spec);
  DieOnError(sink.status());
  for (const auto& [a, b] : *links) (*sink)->Link(a, b);
  DieOnError((*sink)->Finish());
  std::printf("expanded %s links + %s groups into %s distinct links (%s)\n",
              WithThousands(cursor->links_read()).c_str(),
              WithThousands(cursor->groups_read()).c_str(),
              WithThousands(links->size()).c_str(), out.c_str());
  return 0;
}

int CmdVerify(Flags& flags) {
  const std::string points_path = flags.Require("points");
  const std::string result_path = flags.Require("result");
  const double eps = flags.GetDouble("eps", 0.0);
  if (!std::isfinite(eps) || eps <= 0.0) {
    Flags::Die("--eps must be finite and positive");
  }
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

  // stdout streams through the same text sink as --out.
  auto cursor = OpenCursorOrDie(result_path);
  OutputSpec spec = out.empty() ? OutputSpec::Stream(STDOUT_FILENO, 0)
                                : OutputSpec::File(out, 0);
  spec.id_width = width;
  auto sink = MakeSink(spec);
  DieOnError(sink.status());
  Status status = ReplayResult(cursor.get(), sink->get());
  if (status.ok()) status = (*sink)->Finish();
  // `csj_tool cat ... | head`: the consumer closed stdout. SIGPIPE is
  // ignored process-wide, so the hang-up is the sink's sticky kCancelled —
  // a consumer decision, not an error.
  if (out.empty() && status.code() == StatusCode::kCancelled) return 0;
  DieOnError(status);
  if (!out.empty()) {
    std::printf("decoded %s records to %s (width %d)\n",
                WithThousands(cursor->links_read() + cursor->groups_read())
                    .c_str(),
                out.c_str(), width);
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
  const auto tree = LoadTreeOrDie(index_path, "");
  std::printf("%s\n", tree->Stats().ToString().c_str());
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
  // EPIPE, which OutputFile maps to a clean sticky kCancelled: exit 3 for a
  // join, end-of-interest (exit 0) for `cat` to stdout.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags("csj_tool", argc, argv, 2);
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
