/// \file
/// The batch workloads: the paper's Experiment-1 sweep (SSJ, N-CSJ, CSJ(10)
/// across an epsilon ladder) over the MG stand-in, through the same entry
/// points `csj_tool join` uses — QuerySpec defaults, plan::DeriveJoinOptions,
/// MakeSink, the driver (or the checkpointed runner for --threads), Finish.
///
///   exp1-text    text output to a file, serial
///   exp1-count   counting sink (output none), serial
///   parallel-2t  counting sink through CheckpointedSelfJoin, 2 threads

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.h"

namespace perfbench {
namespace {

using csj::JoinStats;
using csj::OutputFormat;
using csj::QuerySpec;
using Tree = csj::RStarTree<2>;

constexpr int kSetupPasses = 11;
constexpr int kMinRounds = 3;
constexpr int kThreads = 2;
constexpr int kTasksPerThread = 16;  // csj_tool's default

struct WorkloadShape {
  std::vector<int> ladder_log2;  ///< eps = 2^k
  OutputFormat output;
  bool parallel;
};

WorkloadShape ShapeOf(const std::string& name) {
  if (name == "exp1-text") return {{-8, -7, -6}, OutputFormat::kText, false};
  if (name == "exp1-count") return {{-7, -6, -5}, OutputFormat::kNone, false};
  return {{-7, -6, -5}, OutputFormat::kNone, true};
}

/// One (algorithm, eps) cell. Index 0 of the per-mode vectors holds
/// untraced repetitions, index 1 traced ones.
struct Cell {
  const AlgoInfo* algo = nullptr;
  double eps = 0.0;
  std::string label;

  bool have_ref = false;
  JoinStats ref;  ///< first repetition: every later one must match it

  std::vector<double> wall[2];
  /// The same walls at the reference speed: each multiplied by
  /// kReferenceNominalS / the reference time measured just before it.
  std::vector<double> scaled[2];
  // Traced repetitions only.
  std::vector<double> join_s, finish_s, write_s, checkpoint_s;
  std::optional<JoinStats> traced;
  csj::metrics::MetricsSnapshot delta_begin, delta_end;
};

struct SetupPass {
  double total = 0.0;
  double scaled = 0.0;  ///< total at the reference speed
  double load_points = 0.0, pack = 0.0, save = 0.0, load = 0.0;
};

/// LoadPoints -> PackStr -> SaveTree -> LoadTree, the way `csj_tool build`
/// and `join --index` do it. Returns the loaded tree.
std::unique_ptr<Tree> SetUp(Tracer* tracer, SetupPass* pass, Ledger* ledger) {
  const uint64_t trace_id = tracer ? tracer->NewTrace() : 0;
  const double t0 = Now();
  ScopedSpan root(tracer, "setup", Tracer::kNoSpan, trace_id);
  std::unique_ptr<Tree> loaded;
  double mark = Now();
  auto step = [&](double* field) {
    const double now = Now();
    *field = now - mark;
    mark = now;
  };
  std::vector<csj::Entry<2>> entries;
  {
    ScopedSpan span(tracer, "setup.load_points", root.id(), trace_id);
    auto points = csj::LoadPoints<2>("mg.txt");
    ledger->Op(points.ok(), "LoadPoints: " + points.status().ToString());
    if (!points.ok()) return nullptr;
    entries = csj::ToEntries(*points);
  }
  step(&pass->load_points);
  Tree built;
  {
    ScopedSpan span(tracer, "setup.pack", root.id(), trace_id);
    csj::PackStr(&built, std::move(entries));
  }
  step(&pass->pack);
  {
    ScopedSpan span(tracer, "setup.save", root.id(), trace_id);
    const csj::Status saved = csj::SaveTree(built, "mg.csjt");
    ledger->Op(saved.ok(), "SaveTree: " + saved.ToString());
    if (!saved.ok()) return nullptr;
  }
  step(&pass->save);
  {
    ScopedSpan span(tracer, "setup.load", root.id(), trace_id);
    auto info = csj::PeekTreeFile("mg.csjt");
    ledger->Op(info.ok(), "PeekTreeFile: " + info.status().ToString());
    if (!info.ok()) return nullptr;
    csj::RStarOptions options;
    options.max_fanout = info->max_fanout;
    options.min_fanout = info->min_fanout;
    loaded = std::make_unique<Tree>(options);
    const csj::Status status = csj::LoadTree(loaded.get(), "mg.csjt");
    ledger->Op(status.ok(), "LoadTree: " + status.ToString());
    if (!status.ok()) return nullptr;
  }
  step(&pass->load);
  root.Close();
  pass->total = Now() - t0;
  return loaded;
}

/// Runs one query of a cell and checks it against the cell's reference.
void RunQuery(const Tree& tree, const WorkloadShape& shape, Cell* cell,
              bool traced, Tracer* tracer, Ledger* ledger) {
  QuerySpec spec;
  spec.algo = cell->algo->algo;
  spec.eps = cell->eps;
  spec.output = shape.output;
  csj::JoinOptions options = csj::plan::DeriveJoinOptions(spec);
  csj::NodeAccessTracker access_tracker(1, 1024);
  Tracer* t = traced ? tracer : nullptr;
  if (traced) {
    options.measure_write_time = true;
    if (!shape.parallel) options.tracker = &access_tracker;
  }
  const csj::JoinAlgorithm algorithm = csj::TreeAlgorithmFor(spec.algo);
  csj::OutputSpec out;
  out.format = spec.output;
  out.path = "out.txt";
  out.id_width = csj::IdWidthFor(tree.size());

  const uint64_t trace_id = t ? t->NewTrace() : 0;
  csj::metrics::MetricsSnapshot begin;
  if (t) begin = csj::metrics::Snapshot();
  const double reference = ReferenceSeconds();

  JoinStats stats;
  csj::Status status;
  double join_s = 0.0, finish_s = 0.0;
  int root_id = Tracer::kNoSpan;
  const double t0 = Now();
  {
    ScopedSpan root(t, "query", Tracer::kNoSpan, trace_id);
    root_id = root.id();
    if (shape.parallel) {
      csj::CheckpointJoinOptions ckpt;
      ckpt.manifest_path = "join.ckpt";
      ckpt.threads = kThreads;
      ckpt.tasks_per_thread = kTasksPerThread;
      ScopedSpan span(t, "query.runner", root.id(), trace_id);
      stats = csj::CheckpointedSelfJoin(tree, algorithm, options, out, ckpt);
      status = stats.status;
      span.Close();
      join_s = Now() - t0;
    } else {
      std::unique_ptr<csj::JoinSink> sink;
      {
        ScopedSpan span(t, "query.make_sink", root.id(), trace_id);
        auto made = csj::MakeSink(out);
        if (!made.ok()) {
          ledger->Op(false, cell->label + " MakeSink: " +
                                made.status().ToString());
          return;
        }
        sink = std::move(made).value();
      }
      const double j0 = Now();
      {
        ScopedSpan span(t, "query.join", root.id(), trace_id);
        stats = csj::RunSelfJoin(algorithm, tree, options, sink.get());
      }
      const double f0 = Now();
      join_s = f0 - j0;
      {
        ScopedSpan span(t, "query.finish", root.id(), trace_id);
        // A failed join must not publish its file: skip Finish, as
        // csj_tool does.
        status = stats.status.ok() ? sink->Finish() : stats.status;
      }
      finish_s = Now() - f0;
    }
  }
  const double wall = Now() - t0;

  std::string why;
  if (!status.ok()) {
    why = status.ToString();
  } else if (cell->have_ref &&
             (stats.links != cell->ref.links ||
              stats.groups != cell->ref.groups ||
              stats.group_member_total != cell->ref.group_member_total ||
              stats.output_bytes != cell->ref.output_bytes)) {
    why = "output differs from the first repetition";
  } else if (shape.output == OutputFormat::kText) {
    struct stat st;
    if (::stat("out.txt", &st) != 0 ||
        static_cast<uint64_t>(st.st_size) != stats.output_bytes) {
      why = "file size differs from the counted bytes";
    }
  }
  if (shape.output == OutputFormat::kText) std::remove("out.txt");
  ledger->Op(why.empty(), cell->label + ": " + why);
  if (!why.empty()) return;
  if (!cell->have_ref) {
    cell->ref = stats;
    cell->have_ref = true;
  }
  cell->wall[traced ? 1 : 0].push_back(wall);
  cell->scaled[traced ? 1 : 0].push_back(wall * kReferenceNominalS / reference);
  if (!traced) return;
  cell->join_s.push_back(join_s);
  cell->finish_s.push_back(finish_s);
  cell->write_s.push_back(stats.write_seconds);
  const csj::metrics::MetricsSnapshot end = csj::metrics::Snapshot();
  cell->checkpoint_s.push_back(
      (static_cast<double>(HistogramSum(end, "checkpoint.save_ns")) -
       static_cast<double>(HistogramSum(begin, "checkpoint.save_ns"))) /
      1e9);
  if (!cell->traced) {
    cell->traced = stats;
    cell->delta_begin = begin;
    cell->delta_end = end;
  }
  tracer->Snapshot(root_id, "query.begin", CountersJson(begin));
  tracer->Snapshot(root_id, "query.end", CountersJson(end));
}

/// Serial MemorySink run (outside any timed region) for the checks.
JoinStats RunToMemory(const Tree& tree, csj::QueryAlgo algo, double eps,
                      csj::MemorySink* sink) {
  QuerySpec spec;
  spec.algo = algo;
  spec.eps = eps;
  const csj::JoinOptions options = csj::plan::DeriveJoinOptions(spec);
  return csj::RunSelfJoin(csj::TreeAlgorithmFor(algo), tree, options, sink);
}

/// Theorems 1-2 at the smallest eps: every compact output expands to SSJ's
/// link set. For the serial workloads the MemorySink run must also match
/// the measured cell's counts; for parallel-2t, SSJ's and N-CSJ's counts
/// must equal the serial ones at every eps.
void CheckOutputs(const Tree& tree, const WorkloadShape& shape,
                  const std::vector<Cell>& cells, Ledger* ledger) {
  const double smallest = std::ldexp(1.0, shape.ladder_log2.front());
  std::vector<csj::Link> reference;
  for (const Cell& cell : cells) {
    if (cell.eps != smallest || !cell.have_ref) continue;
    csj::MemorySink sink(csj::IdWidthFor(tree.size()));
    const JoinStats stats = RunToMemory(tree, cell.algo->algo, cell.eps, &sink);
    if (!shape.parallel) {
      ledger->Op(stats.links == cell.ref.links &&
                     stats.groups == cell.ref.groups &&
                     stats.group_member_total == cell.ref.group_member_total,
                 cell.label + ": memory run differs from the measured run");
    }
    std::vector<csj::Link> links = csj::ExpandSelfJoin(sink);
    if (cell.algo->algo == csj::QueryAlgo::kSSJ) {
      reference = std::move(links);
      continue;
    }
    const csj::LosslessReport report = csj::CompareLinkSets(links, reference);
    ledger->Op(!reference.empty() && report.lossless(),
               cell.label + ": " + report.ToString());
  }
  if (!shape.parallel) return;
  for (const Cell& cell : cells) {
    if (cell.algo->algo == csj::QueryAlgo::kCSJ || !cell.have_ref) continue;
    csj::MemorySink sink(csj::IdWidthFor(tree.size()));
    const JoinStats serial = RunToMemory(tree, cell.algo->algo, cell.eps, &sink);
    ledger->Op(serial.ImpliedLinkUpperBound() ==
                       cell.ref.ImpliedLinkUpperBound() &&
                   serial.links == cell.ref.links,
               cell.label + ": parallel pair count differs from serial");
  }
}

/// End-to-end metrics from per-cell medians of one mode (0 untraced,
/// 1 traced), at the reference speed or (`scaled` false) as measured.
/// Returns false when a cell has no sample in that mode.
bool EndToEnd(const std::vector<Cell>& cells,
              const std::vector<SetupPass>& setups, int mode, bool scaled,
              std::map<std::string, double>* out) {
  const auto cell_time = [&](const Cell& c) {
    return Median(scaled ? c.scaled[mode] : c.wall[mode]);
  };
  std::map<double, double> pairs;  // eps -> SSJ links
  for (const Cell& c : cells) {
    if (c.wall[mode].empty()) return false;
    if (c.algo->algo == csj::QueryAlgo::kSSJ) {
      pairs[c.eps] = static_cast<double>(c.ref.links);
    }
  }
  std::vector<double> medians;
  double median_sum = 0.0;
  for (const AlgoInfo& a : kAlgos) {
    std::vector<double> rates;
    double bytes = 0.0, pair_sum = 0.0;
    for (const Cell& c : cells) {
      if (c.algo != &a) continue;
      const double m = cell_time(c);
      rates.push_back(pairs[c.eps] / m);
      bytes += static_cast<double>(c.ref.output_bytes);
      pair_sum += pairs[c.eps];
    }
    (*out)[std::string(a.name) + "_pairs_per_s"] = GeometricMean(rates);
    if (a.algo != csj::QueryAlgo::kSSJ) {
      (*out)[std::string(a.name) + "_bytes_per_pair"] = bytes / pair_sum;
    }
  }
  for (const Cell& c : cells) {
    const double m = cell_time(c);
    medians.push_back(m);
    median_sum += m;
  }
  (*out)["req_p50_ms"] = Median(medians) * 1e3;
  (*out)["req_p99_ms"] = *std::max_element(medians.begin(), medians.end()) * 1e3;
  (*out)["req_per_s"] = static_cast<double>(cells.size()) / median_sum;
  std::vector<double> setup;
  for (const SetupPass& pass : setups) {
    setup.push_back(scaled ? pass.scaled : pass.total);
  }
  (*out)["setup_s"] = Median(setup);
  return true;
}

}  // namespace

void RunBatchWorkload(const Args& args, Tracer* tracer, Ledger* ledger) {
  const WorkloadShape shape = ShapeOf(args.workload);
  {
    const csj::Status written = WritePoints(MgOptions(), args.seed, "mg.txt");
    ledger->Op(written.ok(), "generate: " + written.ToString());
    if (!written.ok()) return;
  }

  // Set-up is repeated and its median reported; in a traced run odd passes
  // are traced. Set-up passes and timed rounds rotate over the CPUs (see
  // PinToCpus); the parallel runner's workers inherit a window of kThreads
  // CPUs.
  const std::vector<int> cpus = AllowedCpus();
  const size_t pinned = shape.parallel ? kThreads : 1;
  std::vector<SetupPass> setups;
  std::vector<SetupPass> traced_setups;
  std::unique_ptr<Tree> tree;
  for (int i = 0; i < kSetupPasses; ++i) {
    PinToCpus(cpus, static_cast<size_t>(i), 1);
    const bool traced = args.trace && i % 2 == 1;
    SetupPass pass;
    const double reference = ReferenceSeconds();
    tree = SetUp(traced ? tracer : nullptr, &pass, ledger);
    if (tree == nullptr) return;
    pass.scaled = pass.total * kReferenceNominalS / reference;
    (traced ? traced_setups : setups).push_back(pass);
  }

  std::vector<Cell> cells;
  for (const int k : shape.ladder_log2) {
    for (const AlgoInfo& a : kAlgos) {
      Cell cell;
      cell.algo = &a;
      cell.eps = std::ldexp(1.0, k);
      cell.label = csj::StrFormat("%s@2^%d", a.name, k);
      cells.push_back(std::move(cell));
    }
  }

  // One untimed warm-up round fixes each cell's reference output.
  PinToCpus(cpus, 0, pinned);
  for (Cell& cell : cells) {
    RunQuery(*tree, shape, &cell, /*traced=*/false, nullptr, ledger);
    cell.wall[0].clear();
  }

  // Timed rounds, round-robin over the cells so drift hits every cell
  // alike. In a traced run, rounds alternate traced / untraced.
  const double start = Now();
  int rounds = 0;
  while (rounds < kMinRounds || Now() - start < args.seconds) {
    PinToCpus(cpus, static_cast<size_t>(rounds), pinned);
    const bool traced = args.trace && rounds % 2 == 1;
    for (Cell& cell : cells) {
      RunQuery(*tree, shape, &cell, traced, tracer, ledger);
    }
    ++rounds;
  }
  const double measured_s = Now() - start;
  const double peak_rss = PeakRssMb();
  PinToCpus(cpus, 0, cpus.size());

  CheckOutputs(*tree, shape, cells, ledger);

  csj::json::Value cell_docs = csj::json::Array{};
  for (const Cell& c : cells) {
    csj::json::Value v = csj::json::Object{};
    v["cell"] = c.label;
    v["links"] = c.ref.links;
    v["groups"] = c.ref.groups;
    v["bytes"] = c.ref.output_bytes;
    csj::json::Value walls = csj::json::Array{};
    for (double w : c.wall[0]) walls.Append(w);
    v["wall_s"] = std::move(walls);
    csj::json::Value scaled = csj::json::Array{};
    for (double w : c.scaled[0]) scaled.Append(w);
    v["scaled_s"] = std::move(scaled);
    if (!c.wall[0].empty()) {
      v["median_s"] = Median(c.wall[0]);
      v["min_s"] = *std::min_element(c.wall[0].begin(), c.wall[0].end());
      v["max_s"] = *std::max_element(c.wall[0].begin(), c.wall[0].end());
    }
    cell_docs.Append(std::move(v));
  }
  ledger->details["cells"] = std::move(cell_docs);
  ledger->details["rounds"] = static_cast<int64_t>(rounds);
  ledger->details["measured_s"] = measured_s;

  std::map<std::string, double> untraced, raw;
  if (!EndToEnd(cells, setups, 0, true, &untraced) ||
      !EndToEnd(cells, setups, 0, false, &raw)) {
    ledger->Fail("a cell has no untraced repetition");
    return;
  }
  untraced["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss;
  csj::json::Value raw_doc = csj::json::Object{};
  for (const auto& [name, value] : raw) raw_doc[name] = value;
  ledger->details["raw"] = std::move(raw_doc);
  if (!args.trace) {
    for (const auto& [name, unit] : EndToEndMetrics()) {
      ledger->Set(name, untraced.at(name), unit);
    }
    return;
  }

  // ---- Traced run: per-layer metrics and the tracing overhead.
  std::map<std::string, double> traced;
  if (!EndToEnd(cells, traced_setups, 1, true, &traced)) {
    ledger->Fail("a cell has no traced repetition");
    return;
  }
  traced["peak_rss_mb"] = peak_rss;
  for (const auto& [name, unit] : EndToEndMetrics()) {
    ledger->Set("overhead." + name, traced.at(name) - untraced.at(name), unit);
  }

  auto setup_median = [&](double SetupPass::*field) {
    std::vector<double> v;
    for (const SetupPass& p : traced_setups) v.push_back(p.*field);
    return Median(v);
  };
  ledger->Set("data.load_points_s", setup_median(&SetupPass::load_points), "s");
  ledger->Set("index.pack_s", setup_median(&SetupPass::pack), "s");
  ledger->Set("index.save_s", setup_median(&SetupPass::save), "s");
  ledger->Set("index.load_s", setup_median(&SetupPass::load), "s");

  double finish_s = 0.0, appends = 0.0, append_bytes = 0.0, blocks = 0.0,
         block_bytes = 0.0, ckpt_saves = 0.0, ckpt_s = 0.0;
  for (const AlgoInfo& a : kAlgos) {
    JoinLayer layer;
    for (const Cell& c : cells) {
      if (c.algo != &a || !c.traced) continue;
      const auto& b = c.delta_begin;
      const auto& e = c.delta_end;
      layer.Add(*c.traced);
      // The parallel runner refuses the access tracker; the driver's own
      // node-visit counter covers both workers.
      if (shape.parallel) layer.node_visits += Delta(b, e, "join.node_visits");
      layer.join_s += Median(c.join_s);
      layer.sink_s += Median(c.write_s);
      layer.evictions += Delta(b, e, "window.evictions");
      finish_s += Median(c.finish_s);
      appends += Delta(b, e, "output_file.appends");
      append_bytes += Delta(b, e, "output_file.bytes");
      blocks += Delta(b, e, "sink.binary_blocks");
      block_bytes += Delta(b, e, "block_writer.flushed_bytes");
      ckpt_saves += Delta(b, e, "checkpoint.saves");
      ckpt_s += Median(c.checkpoint_s);
    }
    SetJoinLayerMetrics(a, layer, ledger);
  }
  ledger->Set("storage.finish_s", finish_s, "s");
  ledger->Set("storage.appends", appends, "count");
  ledger->Set("storage.bytes_per_append", Ratio(append_bytes, appends), "B");
  ledger->Set("storage.blocks", blocks, "count");
  ledger->Set("storage.block_bytes", Ratio(block_bytes, blocks), "B");
  ledger->Set("storage.checkpoint_saves", ckpt_saves, "count");
  ledger->Set("storage.checkpoint_s", ckpt_s, "s");
}

}  // namespace perfbench
