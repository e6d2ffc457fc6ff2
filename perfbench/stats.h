#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file
/// The harness's statistics: medians, the tail-percentile rule, geometric
/// means and span self time. Header-only so the self-test binary checks the
/// exact code the benchmark runs.

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// NaN for an empty input.
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// A percentile read off a sample, with the percentile actually used and
/// the number of samples that lie beyond it.
struct Percentile {
  double percent = 0.0;
  double value = std::numeric_limits<double>::quiet_NaN();
  size_t beyond = 0;
};

/// The sample of 1-based rank `rank` in sorted order, as a Percentile.
inline Percentile AtRank(const std::vector<double>& sorted, size_t rank,
                         double percent) {
  Percentile out;
  out.percent = percent;
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  return out;
}

/// Nearest-rank percentile: the smallest sample with at least `percent`% of
/// the samples at or below it. +inf samples (failed operations) sort last.
inline Percentile NearestRank(std::vector<double> values, double percent) {
  if (values.empty()) return Percentile{percent};
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // percent * n first: exact for whole percents, so 99% of 1000 is rank 990.
  const double exact = percent * static_cast<double>(n) / 100.0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(exact)), 1, n);
  return AtRank(values, rank, percent);
}

/// The tail rule: `target`% (e.g. 99) when at least `min_beyond` samples
/// lie beyond it; otherwise the highest nearest-rank percentile that still
/// leaves `min_beyond` samples beyond it. Samples must number more than
/// `min_beyond`; with fewer, the maximum is returned with `beyond` < the
/// requested count so callers can see the rule was not met.
inline Percentile TailPercentile(const std::vector<double>& values,
                                 double target, size_t min_beyond) {
  Percentile p = NearestRank(values, target);
  if (p.beyond >= min_beyond || values.empty()) return p;
  const size_t n = values.size();
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  if (n <= min_beyond) return AtRank(sorted, n, 100.0);
  // Rank n - min_beyond has exactly min_beyond samples beyond it; it is the
  // nearest rank of the percentile 100 * (n - min_beyond) / n.
  return AtRank(sorted, n - min_beyond,
                100.0 * static_cast<double>(n - min_beyond) /
                    static_cast<double>(n));
}

/// Geometric mean of positive values; NaN if any is not positive or the
/// input is empty.
inline double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return std::numeric_limits<double>::quiet_NaN();
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Total length of the union of half-open intervals [first, second).
inline double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_lo = 0.0;
  double cur_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// A span's self time: its duration minus the part of [start, end) that
/// its children cover (children may overlap each other; parts outside the
/// parent are clipped).
inline double SelfTime(double start, double end,
                       const std::vector<std::pair<double, double>>& children) {
  std::vector<std::pair<double, double>> clipped;
  clipped.reserve(children.size());
  for (const auto& [lo, hi] : children) {
    clipped.emplace_back(std::max(lo, start), std::min(hi, end));
  }
  return (end - start) - UnionLength(std::move(clipped));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
