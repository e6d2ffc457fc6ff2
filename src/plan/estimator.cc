#include "plan/estimator.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace csj::plan {

namespace {

/// Minimum sampled-pair mass below which the direct probe is considered
/// noise and the power-law fallback takes over.
constexpr double kMinProbePairs = 8.0;

/// FNV-1a over a 2-D integer cell coordinate.
uint64_t CellKey(int64_t cx, int64_t cy) {
  uint64_t key = 1469598103934665603ULL;
  key ^= static_cast<uint64_t>(cx);
  key *= 1099511628211ULL;
  key ^= static_cast<uint64_t>(cy);
  key *= 1099511628211ULL;
  return key;
}

/// Average within-eps neighbor count per *sample* point, among the sample
/// (exact grid probe, every sample point an anchor).
double SampleAverageNeighbors(const std::vector<Point2>& sample, double eps) {
  if (sample.size() < 2 || eps <= 0.0) return 0.0;
  return fractal_internal::AverageNeighbors(sample, eps, sample.size());
}

}  // namespace

json::Value OutputEstimate::ToJsonValue() const {
  json::Value v = json::Object{};
  v["eps"] = eps;
  v["links"] = links;
  v["avg_neighbors"] = avg_neighbors;
  v["groups"] = groups;
  v["group_member_total"] = group_member_total;
  v["grouped_links"] = grouped_links;
  v["residual_links"] = residual_links;
  v["ssj_bytes"] = ssj_bytes;
  v["csj_bytes"] = csj_bytes;
  v["compression"] = compression;
  v["leaf_work"] = leaf_work;
  v["from_power_law"] = from_power_law;
  return v;
}

OutputEstimate EstimateOutput(const DatasetSketch& sketch, double eps,
                              int id_width) {
  OutputEstimate est;
  est.eps = eps;
  if (eps <= 0.0 || sketch.num_points < 2 || sketch.sample.size() < 2) {
    return est;
  }
  const double n = static_cast<double>(sketch.num_points);
  const double f = sketch.sample_fraction;

  // Link count: direct probe on the sample, scaled by the sampling
  // fraction (a sample point sees ~f of its true neighbors inside the
  // sample). Below the sample's resolution, the D2 power law, which models
  // the same sample-vs-sample neighbor density, scaled the same way.
  auto scaled_avg = [&](double eps_probe) {
    const double avg_sample = SampleAverageNeighbors(sketch.sample, eps_probe);
    const double pairs_sample =
        avg_sample * static_cast<double>(sketch.sample.size()) / 2.0;
    const bool extrapolate =
        pairs_sample < kMinProbePairs && f < 1.0 && sketch.d2_points >= 2;
    const double avg = extrapolate ? sketch.d2.Predict(eps_probe) : avg_sample;
    return std::make_pair(avg / std::max(f, 1e-12), extrapolate);
  };

  const auto [avg_full, extrapolated] = scaled_avg(eps);
  est.avg_neighbors = avg_full;
  est.from_power_law = extrapolated;
  est.links = static_cast<uint64_t>(std::llround(n * avg_full / 2.0));

  // Group structure: grid cells of side eps/sqrt(2) have diagonal <= eps,
  // so every cell with >= 2 points is a valid CSJ group. Expected full
  // occupancy of a cell holding c sample points is c / f; cells the sample
  // missed entirely are (under-)counted as no group, which keeps the group
  // prediction conservative.
  const double cell = eps / std::sqrt(2.0);
  std::unordered_map<uint64_t, uint64_t> cells;
  cells.reserve(sketch.sample.size() * 2);
  for (const auto& p : sketch.sample) {
    const auto cx = static_cast<int64_t>(std::floor(p[0] / cell));
    const auto cy = static_cast<int64_t>(std::floor(p[1] / cell));
    ++cells[CellKey(cx, cy)];
  }
  for (const auto& [key, c] : cells) {
    const auto members = static_cast<uint64_t>(
        std::llround(static_cast<double>(c) / std::max(f, 1e-12)));
    if (members < 2) continue;
    ++est.groups;
    est.group_member_total += members;
    est.grouped_links += members * (members - 1) / 2;
  }
  est.grouped_links = std::min(est.grouped_links, est.links);
  est.residual_links = est.links - est.grouped_links;

  // Byte cost in the text format: a link is two ids, a group its members,
  // each id id_width digits plus a separator.
  const auto per_id = static_cast<uint64_t>(id_width + 1);
  est.ssj_bytes = est.links * 2 * per_id;
  est.csj_bytes =
      est.group_member_total * per_id + est.residual_links * 2 * per_id;
  est.compression =
      est.csj_bytes > 0
          ? static_cast<double>(est.ssj_bytes) /
                static_cast<double>(est.csj_bytes)
          : 1.0;

  // Leaf-work proxy: candidate pairs within the tree traversal's MBR slop
  // (~3 eps) that the leaf kernels must at least consider.
  est.leaf_work = n * scaled_avg(3.0 * eps).first;
  return est;
}

}  // namespace csj::plan
