/// \file
/// Planner regret and estimator accuracy: for each (dataset, eps), sweep the
/// hand-tuned candidate configurations (SSJ, N-CSJ, CSJ(g) for several g),
/// then run the cost-based planner's pick, and report
///
///   regret = planned time / best hand-tuned time
///
/// plus predicted-vs-actual output counts. Datasets cover the planner's
/// decision space: Gaussian clusters (grouped output pays, CSJ territory),
/// uniform (little group structure at small eps, SSJ territory), and the
/// road network (the paper's real-data shape, intermediate dimension).
///
/// Under --smoke this is a CI gate: regret must stay within each dataset's
/// bound (1.10x on clustered — the headline acceptance — and 1.5x on the
/// others, whose absolute times are small enough for noise to dominate),
/// and predicted links must land within 2x of the actual count everywhere.
/// The per-eps details land in the BENCH_bench_planner.json report under
/// config.planner_summary, which CI validates structurally.
///
/// Timing uses counting sinks and keeps the best of three runs, taken in
/// interleaved rounds over the candidates and the planned spec; a planned
/// spec that is one of the candidates reports that candidate's time. The
/// auto spec declares `output: none` to match, so the planner prices the same
/// count-only query the candidates ran (with nothing written, compression
/// cannot pay and the planner resolves to n-csj). Actual link counts come
/// from the SSJ candidate, which emits every qualifying pair exactly once.

#include <cstdio>

#include "bench_common.h"
#include "data/generators.h"
#include "data/roadnet.h"
#include "index/bulk_load.h"
#include "plan/estimator.h"

namespace csj::bench {

/// Raised when a --smoke gate fails; main() turns it into exit 1 *after*
/// the JSON report is written.
bool g_gate_failed = false;

namespace {

struct PlannerDataset {
  std::string name;
  std::vector<Point2> points;
  double regret_limit = 1.5;  ///< --smoke gate on planned/best time
};

struct Candidate {
  QueryAlgo algo;
  int g;
};

std::string CandidateName(QueryAlgo algo, int g) {
  if (algo == QueryAlgo::kCSJ) return StrFormat("csj(%d)", g);
  return QueryAlgoName(algo);
}

void Main(const BenchArgs& args) {
  const size_t n = args.full ? 100000 : (args.smoke ? 12000 : 30000);
  std::vector<PlannerDataset> datasets;
  datasets.push_back(
      {"clustered", GenerateGaussianClusters<2>(n, 8, 0.02, 7), 1.10});
  datasets.push_back({"uniform", GenerateUniform<2>(n, 11), 1.50});
  {
    RoadNetOptions rn;
    rn.num_points = n;
    rn.seed = 27;
    datasets.push_back({"roadnet", GenerateRoadNetwork(rn), 1.50});
  }

  const std::vector<double> epsilons =
      args.smoke ? std::vector<double>{0.005, 0.01, 0.02}
                 : std::vector<double>{0.002, 0.005, 0.01, 0.02, 0.04};
  const std::vector<Candidate> candidates = {
      {QueryAlgo::kSSJ, 10},  {QueryAlgo::kNCSJ, 10}, {QueryAlgo::kCSJ, 4},
      {QueryAlgo::kCSJ, 10},  {QueryAlgo::kCSJ, 16},  {QueryAlgo::kCSJ, 32}};
  const int reps = std::max(args.runs, 3);

  json::Value summary = json::Array{};

  for (auto& ds : datasets) {
    BenchRecorder::Get().SetContext(ds.name);
    const auto entries = ToEntries(ds.points);
    RStarTree<2> tree;
    PackStr(&tree, entries);
    const plan::DatasetSketch sketch = plan::SketchTree(tree).value();
    const int id_width = IdWidthFor(entries.size());

    Table table(StrFormat("planner regret — %s (%s points)", ds.name.c_str(),
                          WithThousands(n).c_str()),
                {"eps", "planned", "planned time", "best config", "best time",
                 "regret", "pred links", "actual links"});

    for (double eps : epsilons) {
      // The planner's pick, executed exactly as `join --algo auto` would.
      // The spec declares count-only output to match the counting sinks
      // the whole sweep is timed with, so the planner prices the same
      // query the candidates ran.
      QuerySpec auto_spec;
      auto_spec.algo = QueryAlgo::kAuto;
      auto_spec.eps = eps;
      auto_spec.output = OutputFormat::kNone;
      const plan::QueryPlan qplan =
          plan::PlanQuery(auto_spec, sketch, id_width);

      // The hand-tuned sweep the planner competes against, then the planned
      // spec, timed best-of-`reps` over counting sinks in interleaved
      // rounds, so a slow stretch of the host hits every spec alike.
      std::vector<QuerySpec> specs;
      for (const Candidate& c : candidates) {
        QuerySpec spec;
        spec.algo = c.algo;
        spec.eps = eps;
        spec.window = c.g;
        specs.push_back(spec);
      }
      specs.push_back(qplan.resolved);
      std::vector<double> best(specs.size(), 0.0);
      std::vector<JoinStats> best_stats(specs.size());
      for (int r = 0; r < reps; ++r) {
        for (size_t i = 0; i < specs.size(); ++i) {
          auto sink = MakeSinkOrDie(OutputSpec::Counting(entries.size()));
          JoinStats stats =
              RunSelfJoin(TreeAlgorithmFor(specs[i].algo), tree,
                          plan::DeriveJoinOptions(specs[i]), sink.get());
          (void)sink->Finish();
          if (r == 0 || stats.elapsed_seconds < best[i]) {
            best[i] = stats.elapsed_seconds;
            best_stats[i] = stats;
          }
        }
      }

      // The SSJ run doubles as ground truth for the link count: it emits
      // every qualifying pair exactly once. (A compact run's
      // ImpliedLinkUpperBound() would not do — merge-window groups can
      // overlap, so their implied pair count double-counts shared links,
      // by several x on dense clusters.)
      double best_time = 0.0;
      std::string best_name;
      uint64_t exact_links = 0;
      // When the planner resolves to a swept candidate (g matters only
      // under CSJ), that candidate's own measurement is the planned time:
      // a second timing of the same configuration would only add noise.
      size_t planned = candidates.size();
      for (size_t i = 0; i < candidates.size(); ++i) {
        const Candidate& c = candidates[i];
        BenchRecorder::Get().RecordStats(best_stats[i]);
        if (c.algo == QueryAlgo::kSSJ) exact_links = best_stats[i].links;
        if (best_name.empty() || best[i] < best_time) {
          best_time = best[i];
          best_name = CandidateName(c.algo, c.g);
        }
        if (c.algo == qplan.resolved.algo &&
            (c.algo != QueryAlgo::kCSJ || c.g == qplan.resolved.window)) {
          planned = i;
        }
      }
      const double planned_time = best[planned];
      JoinStats planned_stats = best_stats.back();
      plan::AttachPlan(qplan, &planned_stats);
      plan::RecordPlanAccuracy(planned_stats);
      BenchRecorder::Get().RecordStats(planned_stats);

      const double regret = best_time > 0.0 ? planned_time / best_time : 1.0;
      const uint64_t actual = exact_links;
      const uint64_t predicted = planned_stats.predicted_links;
      const double links_ratio =
          actual > 0 ? static_cast<double>(predicted) /
                           static_cast<double>(actual)
                     : (predicted == 0 ? 1.0 : 1e9);
      const std::string planned_name =
          CandidateName(qplan.resolved.algo, qplan.resolved.window);

      table.AddRow({StrFormat("%.6g", eps), planned_name,
                    HumanDuration(planned_time), best_name,
                    HumanDuration(best_time), StrFormat("%.2fx", regret),
                    WithThousands(predicted), WithThousands(actual)});

      json::Value entry = json::Object{};
      entry["dataset"] = ds.name;
      entry["epsilon"] = eps;
      entry["planned_algo"] = QueryAlgoName(qplan.resolved.algo);
      entry["planned_g"] = static_cast<int64_t>(qplan.resolved.window);
      entry["planned_seconds"] = planned_time;
      entry["best_config"] = best_name;
      entry["best_seconds"] = best_time;
      entry["regret"] = regret;
      entry["regret_limit"] = ds.regret_limit;
      entry["predicted_links"] = predicted;
      entry["actual_links"] = actual;
      entry["links_ratio"] = links_ratio;
      summary.Append(std::move(entry));

      if (args.smoke) {
        if (regret > ds.regret_limit) {
          std::fprintf(stderr,
                       "GATE FAIL: %s eps=%g regret %.2fx > %.2fx "
                       "(planned %s %.4fs vs best %s %.4fs)\n",
                       ds.name.c_str(), eps, regret, ds.regret_limit,
                       planned_name.c_str(), planned_time, best_name.c_str(),
                       best_time);
          g_gate_failed = true;
        }
        if (links_ratio < 0.5 || links_ratio > 2.0) {
          std::fprintf(stderr,
                       "GATE FAIL: %s eps=%g predicted links %llu vs actual "
                       "%llu (ratio %.2f outside [0.5, 2.0])\n",
                       ds.name.c_str(), eps,
                       static_cast<unsigned long long>(predicted),
                       static_cast<unsigned long long>(actual), links_ratio);
          g_gate_failed = true;
        }
      }
    }
    EmitTable(table, args, "planner_" + ds.name);
  }

  BenchRecorder::Get().AddConfig("planner_summary", std::move(summary));
  if (args.smoke) {
    std::printf("smoke gates: %s\n", g_gate_failed ? "FAILED" : "passed");
  }
}

}  // namespace
}  // namespace csj::bench

int main(int argc, char** argv) {
  const int rc = csj::bench::BenchMain(argc, argv, csj::bench::Main);
  if (rc != 0) return rc;
  return csj::bench::g_gate_failed ? 1 : 0;
}
