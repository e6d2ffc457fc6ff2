/// \file
/// Section VII, "problem 2": compact similarity joins in a general metric
/// space. The paper claims the gains carry over when only distances (no
/// coordinates) are available; this binary measures the claim on strings
/// under edit distance — a workload no R-tree can index — comparing the
/// standard and compact metric joins across duplicate densities.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "metric/edit_distance.h"
#include "metric/generic_mtree.h"
#include "metric/metric_join.h"
#include "util/random.h"

namespace csj::bench {
namespace {

/// Builds a corpus of `bases` distinct strings with `copies` noisy variants
/// each (more copies = denser duplicates = worse output explosion).
std::vector<std::string> MakeCorpus(int bases, int copies, uint64_t seed) {
  Rng rng(seed);
  auto random_word = [&](size_t len) {
    std::string w;
    for (size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + rng.UniformInt(uint64_t{26})));
    }
    return w;
  };
  std::vector<std::string> corpus;
  for (int b = 0; b < bases; ++b) {
    const std::string base = random_word(10 + rng.UniformInt(uint64_t{8}));
    for (int c = 0; c < copies; ++c) {
      std::string v = base;
      const int typos = static_cast<int>(rng.UniformInt(uint64_t{2}));
      for (int t = 0; t < typos; ++t) {
        v[rng.UniformInt(v.size())] =
            static_cast<char>('a' + rng.UniformInt(uint64_t{26}));
      }
      corpus.push_back(std::move(v));
    }
  }
  rng.Shuffle(corpus);
  return corpus;
}

void Main(const BenchArgs& args) {
  Table table("Section VII — metric compact join (strings, edit distance)",
              {"copies/base", "records", "eps", "SSJ time", "SSJ bytes",
               "CSJ(10) time", "CSJ(10) bytes", "savings"});

  const int bases = args.full ? 1200 : 500;
  for (int copies : {2, 6, 12}) {
    const auto corpus = MakeCorpus(bases, copies, 97);
    // Sampled promotion for insert-time speed (edit distances are costly).
    MTreeOptions tree_options;
    tree_options.max_fanout = 16;
    tree_options.promotion = MTreePromotion::kSampled;
    tree_options.sampled_pairs = 48;
    GenericMTree<std::string, EditDistanceMetric> tree(EditDistanceMetric(),
                                                       tree_options);
    for (size_t i = 0; i < corpus.size(); ++i) {
      tree.Insert(static_cast<PointId>(i), corpus[i]);
    }
    for (double eps : {1.0, 2.0}) {
      JoinOptions options;
      options.epsilon = eps;
      options.window_size = 10;

      auto standard = MakeSinkOrDie(OutputSpec::Counting(corpus.size()));
      const JoinStats ssj = MetricStandardJoin(tree, options, standard.get());
      auto compact = MakeSinkOrDie(OutputSpec::Counting(corpus.size()));
      const JoinStats csj = MetricCompactJoin(tree, options, compact.get());
      BenchRecorder::Get().SetContext(StrFormat("copies=%d", copies));
      BenchRecorder::Get().RecordStats(ssj);
      BenchRecorder::Get().RecordStats(csj);

      const double savings =
          standard->bytes() == 0
              ? 0.0
              : 100.0 * (1.0 - static_cast<double>(compact->bytes()) /
                                   static_cast<double>(standard->bytes()));
      table.AddRow({StrFormat("%d", copies),
                    WithThousands(corpus.size()), StrFormat("%.0f", eps),
                    HumanDuration(ssj.elapsed_seconds),
                    WithThousands(standard->bytes()),
                    HumanDuration(csj.elapsed_seconds),
                    WithThousands(compact->bytes()),
                    StrFormat("%.1f%%", savings)});
    }
  }
  EmitTable(table, args, "sec7_metric_strings");
  std::printf(
      "Expected: savings grow with duplicate density (the metric analog of "
      "the output explosion); runtimes stay comparable since both joins do "
      "the same distance evaluations.\n");
}

}  // namespace
}  // namespace csj::bench

int main(int argc, char** argv) {
  return csj::bench::BenchMain(argc, argv, csj::bench::Main);
}
