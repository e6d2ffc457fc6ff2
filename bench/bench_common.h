#ifndef CSJ_BENCH_BENCH_COMMON_H_
#define CSJ_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <unistd.h>
#include <string>
#include <vector>

#include "core/query_spec.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/roadnet.h"
#include "index/rstar_tree.h"
#include "plan/planner.h"
#include "storage/output_file.h"
#include "util/format.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/table.h"
#include "util/timer.h"

/// \file
/// Shared harness code for the experiment binaries (one binary per paper
/// table/figure). Conventions:
///  * every binary runs with no arguments in laptop-scale time and prints
///    the same rows the corresponding paper figure plots;
///  * --full switches to the paper's full data sizes (Pacific NW 1.5M);
///  * --csv <dir> additionally writes each table as CSV for plotting;
///  * where the paper printed "SSJ (Estimate)" because the standard join
///    crashed/exploded, we do the same: a sampling-based estimate replaces
///    the run when the predicted link count exceeds a budget, and the row is
///    marked with a trailing '*'.

namespace csj::bench {

/// Command-line options shared by all experiment binaries.
struct BenchArgs {
  bool full = false;        ///< paper-scale datasets
  bool smoke = false;       ///< CI-scale: smallest dataset, few epsilons
  int runs = 1;             ///< repetitions per measurement (paper used 25)
  std::string csv_dir;      ///< if nonempty, tables are also written as CSV
  std::string json_dir;     ///< BENCH_<name>.json dir (default: csv_dir or .)
  std::string bench_name;   ///< argv[0] basename; names the JSON report
  uint64_t link_budget = 30'000'000;  ///< SSJ runs above this are estimated

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    const char* slash = std::strrchr(argv[0], '/');
    args.bench_name = slash != nullptr ? slash + 1 : argv[0];
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) {
        args.full = true;
        args.link_budget = 400'000'000;
      } else if (std::strcmp(argv[i], "--smoke") == 0) {
        args.smoke = true;
      } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
        args.runs = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
        args.csv_dir = argv[++i];
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        args.json_dir = argv[++i];
      } else {
        std::fprintf(
            stderr,
            "usage: %s [--full] [--smoke] [--runs N] [--csv DIR] "
            "[--json DIR]\n",
            argv[0]);
        std::exit(2);
      }
    }
    return args;
  }

  /// Directory the BENCH_<name>.json report lands in.
  std::string JsonDir() const {
    if (!json_dir.empty()) return json_dir;
    if (!csv_dir.empty()) return csv_dir;
    return ".";
  }
};

/// The paper's query ranges: 9 values equally spaced on a log scale between
/// 2^-9 and 2^-1.
inline std::vector<double> PaperEpsilons() {
  std::vector<double> eps;
  for (int e = -9; e <= -1; ++e) eps.push_back(std::ldexp(1.0, e));
  return eps;
}

/// Builds an R*-tree (the paper's default index) over a dataset.
template <int D>
RStarTree<D> BuildDefaultTree(const std::vector<Entry<D>>& entries) {
  RStarTree<D> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  return tree;
}

/// Result of one measured (or estimated) join run.
struct RunResult {
  double seconds = 0.0;
  uint64_t bytes = 0;
  uint64_t links = 0;
  uint64_t groups = 0;
  bool estimated = false;
  JoinStats stats;

  std::string TimeCell() const {
    return HumanDuration(seconds) + (estimated ? " *" : "");
  }
  std::string BytesCell() const {
    return WithThousands(bytes) + (estimated ? " *" : "");
  }
};

/// Collects every measured run of a bench binary and writes the structured
/// BENCH_<name>.json report next to the CSVs: configuration, one record per
/// run (with the full JoinStats), the process-wide metrics snapshot and the
/// total wall time. MeasureJoin records automatically; benches that drive
/// joins directly call RecordStats. Single-threaded like the rest of the
/// harness (parallel joins record from the coordinating thread).
class BenchRecorder {
 public:
  static BenchRecorder& Get() {
    static BenchRecorder* recorder = new BenchRecorder();
    return *recorder;
  }

  /// Labels subsequent records, e.g. with the current dataset name.
  void SetContext(std::string context) { context_ = std::move(context); }

  /// Adds an entry to the report's config block — facts a reader needs to
  /// interpret the numbers, e.g. the planner bench's summary. Last write per
  /// key wins.
  void AddConfig(const std::string& key, json::Value value) {
    extra_config_[key] = std::move(value);
  }

  /// One measured (or estimated) MeasureJoin result.
  void RecordRun(JoinAlgorithm algorithm, double eps,
                 const RunResult& result) {
    json::Value run = json::Object{};
    run["context"] = context_;
    run["algorithm"] = JoinAlgorithmName(algorithm);
    run["epsilon"] = eps;
    run["estimated"] = result.estimated;
    run["seconds"] = result.seconds;
    run["bytes"] = result.bytes;
    run["links"] = result.links;
    run["groups"] = result.groups;
    // Estimated rows were never run, so there are no stats to report.
    if (!result.estimated) run["stats"] = result.stats.ToJsonValue();
    runs_.Append(std::move(run));
  }

  /// One directly-driven join (benches that bypass MeasureJoin).
  void RecordStats(const JoinStats& stats) {
    json::Value run = json::Object{};
    run["context"] = context_;
    run["algorithm"] = JoinAlgorithmName(stats.algorithm);
    run["epsilon"] = stats.epsilon;
    run["estimated"] = false;
    run["seconds"] = stats.elapsed_seconds;
    run["bytes"] = stats.output_bytes;
    run["links"] = stats.links;
    run["groups"] = stats.groups;
    run["stats"] = stats.ToJsonValue();
    runs_.Append(std::move(run));
  }

  /// Writes <JsonDir()>/BENCH_<bench_name>.json (atomic temp+rename).
  void WriteReport(const BenchArgs& args, double wall_seconds) {
    json::Value doc = json::Object{};
    doc["schema_version"] = int64_t{1};
    doc["bench"] = args.bench_name;
    json::Value config = json::Object{};
    config["full"] = args.full;
    config["smoke"] = args.smoke;
    config["runs"] = static_cast<int64_t>(args.runs);
    config["csv_dir"] = args.csv_dir;
    config["link_budget"] = args.link_budget;
    for (auto& [key, value] : extra_config_) config[key] = value;
    doc["config"] = std::move(config);
    doc["runs"] = std::move(runs_);
    runs_ = json::Value(json::Array{});
    doc["metrics"] = metrics::Snapshot().ToJsonValue();
    doc["wall_seconds"] = wall_seconds;

    const std::string path =
        args.JsonDir() + "/BENCH_" + args.bench_name + ".json";
    OutputFile file;
    Status status = file.Open(path);
    if (status.ok()) status = file.Append(json::Write(doc, /*pretty=*/true));
    if (status.ok()) status = file.Append("\n");
    if (status.ok()) status = file.Close();
    if (status.ok()) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "bench report write failed: %s\n",
                   status.ToString().c_str());
    }
  }

 private:
  BenchRecorder() = default;

  std::string context_;
  json::Object extra_config_;
  json::Value runs_ = json::Value(json::Array{});
};

/// Parses the shared flags, runs the bench body, then writes the
/// BENCH_<name>.json report. Every experiment main() delegates here.
inline int BenchMain(int argc, char** argv,
                     void (*body)(const BenchArgs& args)) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  WallTimer wall;
  body(args);
  BenchRecorder::Get().WriteReport(args, wall.ElapsedSeconds());
  return 0;
}

/// Sampling estimate of the number of SSJ links: query the tree around a
/// sample of the points and scale. Used when the real run would explode,
/// exactly like the paper's filled "estimate" markers.
template <typename Tree, int D>
uint64_t EstimateLinkCount(const Tree& tree,
                           const std::vector<Entry<D>>& entries, double eps,
                           size_t sample = 400) {
  if (entries.size() < 2) return 0;
  uint64_t neighbor_sum = 0;
  const size_t stride = std::max<size_t>(1, entries.size() / sample);
  size_t sampled = 0;
  for (size_t i = 0; i < entries.size(); i += stride) {
    neighbor_sum += tree.RangeCount(entries[i].point, eps) - 1;
    ++sampled;
  }
  const double avg = static_cast<double>(neighbor_sum) /
                     static_cast<double>(sampled);
  return static_cast<uint64_t>(avg * static_cast<double>(entries.size()) / 2.0);
}

/// Per-algorithm extrapolation state: maps the workload-size proxy
/// (predicted standard-join link count) to measured cost. Updated after
/// every real run; used to fabricate the paper-style "(Estimate)" rows.
struct Calibration {
  bool valid = false;
  double seconds_per_link = 4.0e-8;
  double bytes_per_link = 14.0;

  void Update(uint64_t predicted_links, double seconds, uint64_t bytes) {
    if (predicted_links < 100000) return;  // too noisy to calibrate on
    seconds_per_link = seconds / static_cast<double>(predicted_links);
    bytes_per_link =
        static_cast<double>(bytes) / static_cast<double>(predicted_links);
    valid = true;
  }
};

/// Runs `algorithm` on `tree`, writing real output files like the paper
/// ("runtime is measured ... until the last tuple of the complete exact
/// result of the query is written to disk"), repeating `runs` times and
/// keeping the best time.
///
/// Escape hatches keep explosive rows tractable, all marked '*' — the
/// analog of the paper's filled "(Estimate)" markers (which it used for SSJ
/// everywhere it crashed and for N-CSJ on the largest Pacific-NW ranges):
///  * SSJ rows whose predicted link count exceeds args.link_budget, and
///    compact rows beyond 8x that budget, are extrapolated from the
///    algorithm's calibration instead of run (linear in predicted links —
///    conservative for the compact algorithms, whose real cost grows
///    sublinearly);
///  * any run whose output exceeds the 1 GB file cap keeps counting without
///    writing; the unwritten bytes' cost is added back at the measured write
///    throughput of the written prefix.
///
/// `predicted_links` is the sampling estimate for this (tree, eps); pass the
/// value from EstimateLinkCount so all three algorithms share one probe.
///
/// The run's knobs come from `base_spec` through the same
/// `plan::DeriveJoinOptions` mapping the tool and the server use — benches
/// measure exactly what those entry points execute. `base_spec.eps` is
/// overridden by `eps` per measurement.
template <typename Tree, int D>
RunResult MeasureJoin(JoinAlgorithm algorithm, const Tree& tree,
                      const std::vector<Entry<D>>& entries, double eps,
                      const BenchArgs& args, const QuerySpec& base_spec,
                      uint64_t predicted_links, Calibration* calibration) {
  constexpr uint64_t kFileCap = 1ull << 30;
  RunResult result;
  JoinOptions options = plan::DeriveJoinOptions(base_spec);
  options.epsilon = eps;
  options.measure_write_time = true;

  const uint64_t budget = algorithm == JoinAlgorithm::kSSJ
                              ? args.link_budget
                              : args.link_budget * 8;
  if (predicted_links > budget) {
    result.estimated = true;
    result.links = predicted_links;
    if (algorithm == JoinAlgorithm::kSSJ) {
      result.bytes = predicted_links * 2ull *
                     static_cast<uint64_t>(IdWidthFor(entries.size()) + 1);
      result.seconds = static_cast<double>(predicted_links) *
                       calibration->seconds_per_link;
    } else {
      result.bytes = static_cast<uint64_t>(
          static_cast<double>(predicted_links) * calibration->bytes_per_link);
      result.seconds = static_cast<double>(predicted_links) *
                       calibration->seconds_per_link;
    }
    BenchRecorder::Get().RecordRun(algorithm, eps, result);
    return result;
  }

  const std::string path = StrFormat("/tmp/csj_bench_%d.txt", getpid());
  for (int r = 0; r < args.runs; ++r) {
    // Capped text file: writes stop at kFileCap but counting continues, so
    // explosive outputs measure real write costs without filling the disk.
    OutputSpec spec = OutputSpec::File(path, entries.size());
    spec.cap_bytes = kFileCap;
    auto sink = MakeSinkOrDie(spec);
    const JoinStats stats = RunSelfJoin(algorithm, tree, options, sink.get());
    (void)sink->Finish();
    double seconds = stats.elapsed_seconds;
    if (sink->truncated() && sink->materialized_bytes() > 0 &&
        stats.write_seconds > 0.0) {
      // Add back the write cost of the counted-but-unwritten suffix.
      const double throughput =
          static_cast<double>(sink->materialized_bytes()) /
          stats.write_seconds;
      seconds += static_cast<double>(sink->bytes() -
                                     sink->materialized_bytes()) /
                 throughput;
      result.estimated = true;
    }
    if (r == 0 || seconds < result.seconds) {
      result.seconds = seconds;
      result.stats = stats;
    }
    result.bytes = sink->bytes();
    result.links = sink->num_links();
    result.groups = sink->num_groups();
  }
  std::remove(path.c_str());
  calibration->Update(predicted_links, result.seconds, result.bytes);
  BenchRecorder::Get().RecordRun(algorithm, eps, result);
  return result;
}

/// Writes a table to stdout and, if --csv was given, to <dir>/<slug>.csv.
inline void EmitTable(const Table& table, const BenchArgs& args,
                      const std::string& slug) {
  table.Print();
  std::printf("\n");
  if (!args.csv_dir.empty()) {
    const std::string path = args.csv_dir + "/" + slug + ".csv";
    const Status status = table.WriteCsv(path);
    if (!status.ok()) {
      std::fprintf(stderr, "csv write failed: %s\n",
                   status.ToString().c_str());
    }
  }
}

}  // namespace csj::bench

#endif  // CSJ_BENCH_BENCH_COMMON_H_
