#include <gtest/gtest.h>

#include <cmath>

#include "core/brute.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/bulk_load.h"
#include "index/rstar_tree.h"
#include "plan/estimator.h"

namespace csj::plan {
namespace {

/// Exact link count (qualifying pairs, d <= eps) by brute force.
uint64_t ExactLinks(const std::vector<Point2>& points, double eps) {
  return BruteForceSelfJoin(ToEntries(points), eps).size();
}

/// The sketch csj_tool plans `join --points` with: SketchTree over the
/// STR-packed tree of `points`.
DatasetSketch SketchOf(const std::vector<Point2>& points) {
  RStarTree<2> tree;
  PackStr(&tree, ToEntries(points));
  auto sketch = SketchTree(tree);
  EXPECT_TRUE(sketch.ok()) << sketch.status().ToString();
  return std::move(sketch).value();
}

TEST(EstimatorTest, SketchIsDeterministic) {
  const auto points = GenerateGaussianClusters<2>(5000, 6, 0.03, 42);
  const DatasetSketch a = SketchOf(points);
  const DatasetSketch b = SketchOf(points);
  EXPECT_EQ(a.num_points, b.num_points);
  EXPECT_EQ(a.sample_size, b.sample_size);
  EXPECT_EQ(a.sample.size(), b.sample.size());
  for (size_t i = 0; i < a.sample.size(); ++i) {
    EXPECT_EQ(a.sample[i], b.sample[i]) << "sample diverged at " << i;
  }
  EXPECT_DOUBLE_EQ(a.d2.slope, b.d2.slope);

  // And estimates built from equal sketches are equal.
  const auto ea = EstimateOutput(a, 0.01, 4);
  const auto eb = EstimateOutput(b, 0.01, 4);
  EXPECT_EQ(ea.links, eb.links);
  EXPECT_EQ(ea.groups, eb.groups);
  EXPECT_EQ(ea.csj_bytes, eb.csj_bytes);
}

TEST(EstimatorTest, SketchBasicShape) {
  const auto points = GenerateUniform<2>(10000, 9);
  const DatasetSketch sketch = SketchOf(points);
  EXPECT_EQ(sketch.num_points, 10000u);
  // Every max(1, 10000 / 4096) = 2nd point of the tree-order walk.
  EXPECT_EQ(sketch.sample_size, 5000u);
  EXPECT_EQ(sketch.sample.size(), 5000u);
  EXPECT_NEAR(sketch.sample_fraction, 5000.0 / 10000.0, 1e-9);
  // Uniform 2-D data has correlation dimension ~2.
  ASSERT_GE(sketch.d2_points, 2u);
  EXPECT_NEAR(sketch.d2.slope, 2.0, 0.4);
}

TEST(EstimatorTest, SmallDatasetsAreSampledWhole) {
  const auto points = GenerateUniform<2>(300, 5);
  const DatasetSketch sketch = SketchOf(points);
  EXPECT_EQ(sketch.sample_size, 300u);
  EXPECT_DOUBLE_EQ(sketch.sample_fraction, 1.0);
}

TEST(EstimatorTest, LinkEstimateWithinTwoXOfExact) {
  // The acceptance bound of the planner work: predicted links within 2x of
  // actual, on both a clustered and a uniform dataset, across the smoke eps
  // ladder. Exact counts come from brute force on modest n.
  struct Case {
    const char* name;
    std::vector<Point2> points;
  };
  const std::vector<Case> cases = {
      {"clustered", GenerateGaussianClusters<2>(4000, 8, 0.02, 7)},
      {"uniform", GenerateUniform<2>(4000, 11)},
  };
  for (const auto& c : cases) {
    const DatasetSketch sketch = SketchOf(c.points);
    for (double eps : {0.005, 0.01, 0.02}) {
      const uint64_t actual = ExactLinks(c.points, eps);
      const OutputEstimate est = EstimateOutput(sketch, eps, 4);
      if (actual == 0) continue;  // nothing to bound against
      const double ratio = static_cast<double>(est.links) /
                           static_cast<double>(actual);
      EXPECT_GE(ratio, 0.5) << c.name << " eps=" << eps << " est=" << est.links
                            << " actual=" << actual;
      EXPECT_LE(ratio, 2.0) << c.name << " eps=" << eps << " est=" << est.links
                            << " actual=" << actual;
    }
  }
}

TEST(EstimatorTest, EstimatesGrowWithEps) {
  const auto points = GenerateGaussianClusters<2>(4000, 8, 0.02, 7);
  const DatasetSketch sketch = SketchOf(points);
  uint64_t prev_links = 0;
  double prev_work = 0.0;
  for (double eps : {0.002, 0.005, 0.01, 0.02, 0.05}) {
    const OutputEstimate est = EstimateOutput(sketch, eps, 4);
    EXPECT_GE(est.links, prev_links) << "eps=" << eps;
    EXPECT_GE(est.leaf_work, prev_work) << "eps=" << eps;
    prev_links = est.links;
    prev_work = est.leaf_work;
  }
}

TEST(EstimatorTest, CompressionFavorsClusteredData) {
  // At an eps that groups cluster cores, the predicted CSJ compression on
  // clustered data must clearly beat the one on uniform data at the same
  // output scale — this is the signal the planner keys off.
  const DatasetSketch clustered =
      SketchOf(GenerateGaussianClusters<2>(6000, 8, 0.01, 7));
  const DatasetSketch uniform = SketchOf(GenerateUniform<2>(6000, 11));
  const OutputEstimate ec = EstimateOutput(clustered, 0.02, 4);
  const OutputEstimate eu = EstimateOutput(uniform, 0.005, 4);
  EXPECT_GT(ec.compression, 1.2);
  EXPECT_GT(ec.compression, eu.compression);
  EXPECT_GE(eu.compression, 1.0 - 1e-9);
  EXPECT_LE(ec.csj_bytes, ec.ssj_bytes);
}

TEST(EstimatorTest, TinyEpsFallsBackToPowerLaw) {
  // Far below the sample's resolution the direct probe finds no pairs; the
  // estimator must fall back to a power-law extrapolation, not report 0.
  // (Uniform data: the clamped-Gaussian generator piles points onto the
  // cube boundary, whose coincident pairs would satisfy the probe at any
  // eps.) The walk keeps every 2nd of 12,000 points.
  const DatasetSketch sketch = SketchOf(GenerateUniform<2>(12000, 13));
  ASSERT_LT(sketch.sample_fraction, 1.0);
  EXPECT_TRUE(EstimateOutput(sketch, 1e-5, 4).from_power_law);

  // Up to 8,191 points the walk keeps them all, and the probe is exact.
  const auto points = GenerateUniform<2>(6000, 13);
  const OutputEstimate exact = EstimateOutput(SketchOf(points), 1e-5, 4);
  EXPECT_FALSE(exact.from_power_law);
  EXPECT_EQ(exact.links, ExactLinks(points, 1e-5));
}

TEST(EstimatorTest, SketchJsonHasTheExplainFields) {
  const DatasetSketch sketch = SketchOf(GenerateUniform<2>(2000, 3));
  const OutputEstimate est = EstimateOutput(sketch, 0.01, 4);
  const std::string est_text = json::Write(est.ToJsonValue());
  EXPECT_NE(est_text.find("links"), std::string::npos);
  EXPECT_NE(est_text.find("compression"), std::string::npos);
  EXPECT_NE(est_text.find("leaf_work"), std::string::npos);
}

}  // namespace
}  // namespace csj::plan
