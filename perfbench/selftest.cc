/// \file
/// Self-tests of the harness's own statistics against hand-computed cases,
/// and of BENCHMARK.json against the harness's metric catalog.
///
///   perfbench_selftest <path to BENCHMARK.json>
///
/// Exits 0 when every check passes; prints each failed check otherwise.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestMedian() {
  Expect(Median({3, 1, 2}) == 2, "median of 3 values");
  Expect(Median({4, 1, 3, 2}) == 2.5, "median of 4 values averages the middle");
  Expect(std::isnan(Median({})), "median of nothing is NaN");
}

void TestPercentileRule() {
  // 1000 samples: p99 is the 990th smallest, with exactly 10 beyond it.
  Percentile p = TailPercentile(OneTo(1000), 99, 10);
  Expect(p.percent == 99 && p.value == 990 && p.beyond == 10,
         "p99 of 1..1000 is 990 with 10 beyond");
  // 1500 samples: rank ceil(0.99 * 1500) = 1485, 15 beyond.
  p = TailPercentile(OneTo(1500), 99, 10);
  Expect(p.percent == 99 && p.value == 1485 && p.beyond == 15,
         "p99 of 1..1500 is 1485 with 15 beyond");
  // 100 samples: p99 would leave 1 beyond, so the rule falls back to the
  // 90th percentile, value 90, with 10 beyond.
  p = TailPercentile(OneTo(100), 99, 10);
  Expect(Near(p.percent, 90) && p.value == 90 && p.beyond == 10,
         "tail of 1..100 falls back to p90 = 90");
  // 250 samples: 10 beyond means rank 240 = p96.
  p = TailPercentile(OneTo(250), 99, 10);
  Expect(Near(p.percent, 96) && p.value == 240 && p.beyond == 10,
         "tail of 1..250 is p96 = 240");
  // Failures are +inf and can only push the tail up.
  std::vector<double> with_failures = OneTo(1000);
  for (int i = 0; i < 11; ++i) {
    with_failures[static_cast<size_t>(i)] =
        std::numeric_limits<double>::infinity();
  }
  p = TailPercentile(with_failures, 99, 10);
  Expect(std::isinf(p.value), "11 failures in 1000 put p99 at +inf");
  p = NearestRank(OneTo(1000), 50);
  Expect(p.value == 500, "nearest-rank p50 of 1..1000 is 500");
  p = TailPercentile(OneTo(5), 99, 10);
  Expect(p.value == 5 && p.beyond == 0, "too few samples: the maximum");
}

void TestGeometricMean() {
  Expect(Near(GeometricMean({1, 100}), 10), "geomean(1, 100) = 10");
  Expect(Near(GeometricMean({2, 8, 4}), 4), "geomean(2, 8, 4) = 4");
  // Each epsilon counts once: scaling one cell by 8 moves the mean by 2 over
  // three cells.
  Expect(Near(GeometricMean({8e6, 1e6, 1e6}) / GeometricMean({1e6, 1e6, 1e6}), 2),
         "geomean scales by the cube root of one cell's factor");
  Expect(std::isnan(GeometricMean({1, 0})), "geomean rejects zero");
}

void TestSelfTime() {
  // Parent [0, 10); children [1, 4) and [3, 6) overlap: union [1, 6) = 5.
  Expect(Near(SelfTime(0, 10, {{1, 4}, {3, 6}}), 5), "overlapping children");
  // Nested child [2, 3) inside [1, 4) adds nothing to the union.
  Expect(Near(SelfTime(0, 10, {{1, 4}, {2, 3}, {8, 9}}), 6),
         "contained and disjoint children");
  // A child sticking out of the parent is clipped to it.
  Expect(Near(SelfTime(0, 10, {{-5, 2}, {9, 12}}), 7), "children are clipped");
  Expect(Near(SelfTime(0, 10, {}), 10), "a leaf's self time is its duration");

  // Recorded spans: self times of one root's tree sum to its wall time.
  Tracer tracer;
  const uint64_t id = tracer.NewTrace();
  const int root = tracer.Add("q", Tracer::kNoSpan, id, 0.0, 10.0);
  const int a = tracer.Add("q.a", root, id, 1.0, 4.0);
  tracer.Add("q.a.x", a, id, 2.0, 3.0);
  tracer.Add("q.b", root, id, 5.0, 9.0);
  const std::vector<double> self = tracer.SelfTimes();
  Expect(Near(self[0], 3) && Near(self[1], 2) && Near(self[2], 1) &&
             Near(self[3], 4),
         "span self times 3 + 2 + 1 + 4");
  Expect(tracer.MaxSelfSumError() < 1e-12, "self times sum to the wall time");
}

void TestCatalog(const std::string& path) {
  auto doc = csj::json::Parse(ReadFile(path));
  Expect(doc.ok(), "BENCHMARK.json parses");
  if (!doc.ok()) return;
  for (const auto& [key, catalog] :
       {std::pair{"end_to_end", &EndToEndMetrics()},
        std::pair{"per_layer", &PerLayerMetrics()}}) {
    const csj::json::Value* list = doc->Find(key);
    Expect(list != nullptr && list->is_array(), std::string(key) + " is a list");
    if (list == nullptr || !list->is_array()) continue;
    Expect(list->size() == catalog->size(),
           std::string(key) + " has as many metrics as the harness prints");
    for (size_t i = 0; i < list->AsArray().size() && i < catalog->size(); ++i) {
      const csj::json::Value& m = list->AsArray()[i];
      const csj::json::Value* name = m.Find("name");
      const csj::json::Value* unit = m.Find("unit");
      Expect(name != nullptr && name->is_string() &&
                 name->AsString() == (*catalog)[i].first,
             std::string(key) + " entry " + std::to_string(i) + " is " +
                 (*catalog)[i].first);
      Expect(unit != nullptr && unit->is_string() &&
                 unit->AsString() == (*catalog)[i].second,
             (*catalog)[i].first + " has unit " + (*catalog)[i].second);
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  TestMedian();
  TestPercentileRule();
  TestGeometricMean();
  TestSelfTime();
  if (argc > 1) TestCatalog(argv[1]);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "ok" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
