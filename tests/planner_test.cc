#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/query_spec.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/roadnet.h"
#include "index/bulk_load.h"
#include "index/rstar_tree.h"
#include "index/tree_io.h"
#include "plan/estimator.h"
#include "plan/planner.h"
#include "serve/registry.h"
#include "util/format.h"
#include "util/json.h"

namespace csj::plan {
namespace {

/// The sketch csj_tool plans `join --points` with: SketchTree over the
/// STR-packed tree of `points`.
DatasetSketch SketchOf(const std::vector<Point2>& points) {
  RStarTree<2> tree;
  PackStr(&tree, ToEntries(points));
  auto sketch = SketchTree(tree);
  EXPECT_TRUE(sketch.ok()) << sketch.status().ToString();
  return std::move(sketch).value();
}

QuerySpec AutoSpec(double eps) {
  QuerySpec spec;
  spec.algo = QueryAlgo::kAuto;
  spec.eps = eps;
  return spec;
}

TEST(PlannerTest, ExplicitSpecPassesThroughUntouched) {
  const DatasetSketch sketch =
      SketchOf(GenerateGaussianClusters<2>(4000, 8, 0.02, 7));
  QuerySpec spec;
  spec.algo = QueryAlgo::kSSJ;  // deliberately "wrong" for clustered data
  spec.eps = 0.02;
  spec.window = 3;
  spec.threads = 2;
  const QueryPlan plan = PlanQuery(spec, sketch, 4);
  EXPECT_EQ(plan.resolved, spec);  // the planner only prices explicit runs
  EXPECT_GT(plan.estimate.links, 0u);
}

TEST(PlannerTest, AutoPicksCompactJoinOnClusteredData) {
  // Clustered data at a grouping eps: compression clearly pays, so the
  // planner must choose CSJ with a sane window.
  const DatasetSketch sketch =
      SketchOf(GenerateGaussianClusters<2>(6000, 8, 0.01, 7));
  const QueryPlan plan = PlanQuery(AutoSpec(0.02), sketch, 4);
  EXPECT_EQ(plan.resolved.algo, QueryAlgo::kCSJ);
  EXPECT_GE(plan.resolved.window, 1);
  EXPECT_FALSE(plan.decisions.empty());
}

TEST(PlannerTest, AutoPicksSsjWhenCompressionDoesNotPay) {
  // Uniform data at a tiny eps: almost no mergeable groups, predicted
  // compression under the 1.2x bar, so plain SSJ wins.
  const DatasetSketch sketch = SketchOf(GenerateUniform<2>(6000, 11));
  const QueryPlan plan = PlanQuery(AutoSpec(0.001), sketch, 4);
  EXPECT_EQ(plan.resolved.algo, QueryAlgo::kSSJ);
}

TEST(PlannerTest, AutoPicksEarlyStopWhenOutputIsNotMaterialized) {
  // Compactness is an output optimization. A count-only query writes
  // nothing, so the merge window's upkeep can never pay for itself — even
  // on clustered data where compression is high, the planner must fall
  // back to N-CSJ (early-stop saves work without any output trade).
  const DatasetSketch sketch =
      SketchOf(GenerateGaussianClusters<2>(6000, 8, 0.01, 7));
  QuerySpec spec = AutoSpec(0.02);
  spec.output = OutputFormat::kNone;
  const QueryPlan plan = PlanQuery(spec, sketch, 4);
  EXPECT_EQ(plan.resolved.algo, QueryAlgo::kNCSJ);
  // The same sketch with materialized output picks CSJ (previous test),
  // so the switch is driven by the output shape alone.
}

TEST(PlannerTest, ResolvedSpecIsNeverAutoAndValidates) {
  const DatasetSketch sketch = SketchOf(GenerateUniform<2>(3000, 5));
  for (double eps : {0.001, 0.01, 0.1}) {
    const QueryPlan plan = PlanQuery(AutoSpec(eps), sketch, 4);
    EXPECT_NE(plan.resolved.algo, QueryAlgo::kAuto) << "eps=" << eps;
    EXPECT_TRUE(IsTreeAlgo(plan.resolved.algo)) << "eps=" << eps;
    EXPECT_TRUE(plan.resolved.Validate().ok()) << "eps=" << eps;
    EXPECT_GE(plan.resolved.threads, 1) << "eps=" << eps;
  }
}

TEST(PlannerTest, EveryAutoKnobCarriesARationale) {
  const DatasetSketch sketch =
      SketchOf(GenerateGaussianClusters<2>(6000, 8, 0.01, 7));
  const QueryPlan plan = PlanQuery(AutoSpec(0.02), sketch, 4);
  std::vector<std::string> knobs;
  for (const PlanDecision& d : plan.decisions) {
    EXPECT_FALSE(d.choice.empty()) << d.knob;
    EXPECT_FALSE(d.rationale.empty()) << d.knob;
    knobs.push_back(d.knob);
  }
  // The planner decides only what changes cost.
  EXPECT_EQ(knobs, (std::vector<std::string>{"algo", "g", "threads"}));
}

TEST(PlannerTest, PlanJsonRoundTripsTheResolvedKnobs) {
  const DatasetSketch sketch =
      SketchOf(GenerateGaussianClusters<2>(6000, 8, 0.01, 7));
  const QueryPlan plan = PlanQuery(AutoSpec(0.02), sketch, 4);

  // Serialize -> parse -> the knobs must match the resolved spec. This is
  // the same consistency CI checks between `plan --json` and the plan echo
  // in `join --algo auto` stats.
  const auto doc = json::Parse(json::Write(plan.ToJsonValue()));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* knobs = doc->Find("knobs");
  ASSERT_NE(knobs, nullptr);
  ASSERT_TRUE(knobs->is_object());
  EXPECT_EQ(knobs->Find("algo")->AsString(),
            QueryAlgoName(plan.resolved.algo));
  EXPECT_EQ(knobs->Find("g")->AsInt(), plan.resolved.window);
  EXPECT_EQ(knobs->Find("threads")->AsInt(), plan.resolved.threads);
  EXPECT_EQ(knobs->AsObject().size(), 3u);
  const json::Value* predicted = doc->Find("predicted");
  ASSERT_NE(predicted, nullptr);
  EXPECT_TRUE(predicted->is_object());
  const json::Value* decisions = doc->Find("decisions");
  ASSERT_NE(decisions, nullptr);
  ASSERT_TRUE(decisions->is_array());
  EXPECT_EQ(decisions->AsArray().size(), plan.decisions.size());

  // And text rendering mentions the headline choice.
  const std::string text = plan.ToText();
  EXPECT_NE(text.find(QueryAlgoName(plan.resolved.algo)), std::string::npos);
}

TEST(PlannerTest, DeriveJoinOptionsIsAFieldCopy) {
  QuerySpec spec;
  spec.eps = 0.125;
  spec.algo = QueryAlgo::kCSJ;
  spec.window = 24;
  spec.deadline_ms = 777;
  const JoinOptions options = DeriveJoinOptions(spec);
  EXPECT_DOUBLE_EQ(options.epsilon, 0.125);
  EXPECT_EQ(options.window_size, 24);
  EXPECT_EQ(options.deadline_ms, 777u);
  // Every query runs the defaults: sweep, cached tiles, creation-order window.
  EXPECT_EQ(options.leaf_kernel, LeafKernel::kSweep);
  EXPECT_FALSE(options.promote_on_merge);
}

TEST(PlannerTest, DeriveEgoOptionsIsAFieldCopy) {
  QuerySpec spec;
  spec.eps = 0.25;
  spec.algo = QueryAlgo::kCEgo;
  spec.window = 7;
  spec.deadline_ms = 99;
  const EgoOptions options = DeriveEgoOptions(spec);
  EXPECT_DOUBLE_EQ(options.epsilon, 0.25);
  EXPECT_EQ(options.window_size, 7);
  EXPECT_EQ(options.leaf_kernel, LeafKernel::kSweep);
  EXPECT_EQ(options.deadline_ms, 99u);
}

TEST(PlannerTest, AttachPlanStampsStats) {
  const DatasetSketch sketch =
      SketchOf(GenerateGaussianClusters<2>(6000, 8, 0.01, 7));
  const QueryPlan plan = PlanQuery(AutoSpec(0.02), sketch, 4);
  JoinStats stats;
  stats.links = 10;
  AttachPlan(plan, &stats);
  EXPECT_EQ(stats.predicted_links, plan.estimate.links);
  EXPECT_EQ(stats.predicted_groups, plan.estimate.groups);
  ASSERT_FALSE(stats.plan_json.empty());

  // The stamped plan echoes through the stats JSON, parseable and carrying
  // the resolved knobs.
  const auto doc = json::Parse(json::Write(stats.ToJsonValue()));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* echoed = doc->Find("plan");
  ASSERT_NE(echoed, nullptr);
  ASSERT_TRUE(echoed->is_object());
  EXPECT_EQ(echoed->Find("knobs")->Find("algo")->AsString(),
            QueryAlgoName(plan.resolved.algo));

  // RecordPlanAccuracy must accept both planned and unplanned stats.
  RecordPlanAccuracy(stats);
  JoinStats unplanned;
  RecordPlanAccuracy(unplanned);
}

/// One-shot == served `auto`: a saved tree loaded by csj_serve's registry
/// (served in place) and by LoadTree (as csj_tool does) yields
/// the same sketch, so both resolve the same knobs at every eps of the
/// 1/8-octave ladder 2^-12 .. 2^-1. Run on perfbench's MG and PNW stand-ins.
TEST(PlannerTest, RegistryAndLoadTreePlanAutoAlike) {
  RoadNetOptions mg;
  mg.num_points = 27000;
  mg.seed = 27;
  mg.num_cities = 8;
  RoadNetOptions pnw;
  pnw.num_points = 150000;
  pnw.seed = 1015;
  pnw.num_cities = 24;
  pnw.subdivision_depth = 8;
  pnw.urban_fraction = 0.45;
  pnw.urban_sigma = 0.02;
  for (const auto& [name, options] : {std::pair{"mg", mg}, {"pnw", pnw}}) {
    SCOPED_TRACE(name);
    const std::string path = StrFormat("%s/%d_planner_%s.csjt",
                                       testing::TempDir().c_str(), getpid(),
                                       name);
    {
      RStarTree<2> tree;
      PackStr(&tree, ToEntries(GenerateRoadNetwork(options)));
      ASSERT_TRUE(SaveTree(tree, path).ok());
    }
    serve::DatasetRegistry registry;
    ASSERT_TRUE(registry.Load({.name = name, .path = path}).ok());
    const auto served = registry.Find(name);
    ASSERT_NE(served, nullptr);

    const auto info = PeekTreeFile(path);
    ASSERT_TRUE(info.ok());
    RStarOptions tree_options;
    tree_options.max_fanout = info->max_fanout;
    tree_options.min_fanout = info->min_fanout;
    RStarTree<2> tree(tree_options);
    ASSERT_TRUE(LoadTree(&tree, path).ok());
    std::remove(path.c_str());
    const auto one_shot = SketchTree(tree);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();

    EXPECT_EQ(served->sketch.num_points, one_shot->num_points);
    EXPECT_EQ(served->sketch.sample, one_shot->sample);
    EXPECT_EQ(served->sketch.d2.slope, one_shot->d2.slope);
    EXPECT_EQ(served->sketch.d2.intercept, one_shot->d2.intercept);
    const int id_width = IdWidthFor(tree.size());
    for (int k = 0; k <= 88; ++k) {
      const QuerySpec spec =
          AutoSpec(std::ldexp(1.0, -12) * std::exp2(k / 8.0));
      const QuerySpec a = PlanQuery(spec, served->sketch, id_width).resolved;
      const QuerySpec b = PlanQuery(spec, *one_shot, id_width).resolved;
      EXPECT_EQ(a, b) << "eps=" << spec.eps;
    }
  }
}

}  // namespace
}  // namespace csj::plan
