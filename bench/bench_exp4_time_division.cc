/// \file
/// Experiment 3 / Figure 8: where do the savings come from?
///
/// Part A (Figure 8): computation time vs disk-write time on MG County at
/// eps = 0.1 for SSJ, N-CSJ, CSJ(1), CSJ(10), CSJ(100). Output goes through
/// a real buffered file (the paper measures until the last tuple is written
/// to disk). Expected: most of the compact algorithms' saving is computation
/// (the early-stopping rule), with additional savings from smaller writes.
///
/// Part C: the same joins off the disk-resident index — the CSJTREE2 file
/// SaveTree (and `csj_tool build`) writes, read in place by PagedTree
/// through a real block cache. Every row must write Part A's output bytes:
/// the binary exits 1 otherwise.
///
/// Part B: simulated page/cache accesses under several page and cache sizes.
/// Expected (the paper's finding): no significant difference between the
/// algorithms — the traversal is the same; only the work per node differs.
///
/// `--smoke` runs all three parts at eps = 0.01.

#include <cstdio>
#include <iterator>
#include <utility>

#include "bench_common.h"
#include "data/roadnet.h"
#include "index/bulk_load.h"
#include "index/paged_tree.h"
#include "index/tree_io.h"
#include "storage/binary_format.h"

namespace csj::bench {
namespace {

/// Set when a disk-resident row's output differs from Part A's; surfaced as
/// the exit code.
bool g_bytes_differ = false;

/// Size and CRC-32 of a file's contents, read in 64 KiB chunks.
std::pair<uint64_t, uint32_t> FileDigest(const std::string& path) {
  std::pair<uint64_t, uint32_t> digest{0, 0};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return digest;
  std::vector<char> chunk(64 * 1024);
  size_t got;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    digest.first += got;
    digest.second = binfmt::Crc32(chunk.data(), got, digest.second);
  }
  std::fclose(f);
  return digest;
}

struct Variant {
  const char* label;
  JoinAlgorithm algorithm;
  int window;
};

constexpr Variant kVariants[] = {
    {"SSJ", JoinAlgorithm::kSSJ, 0},
    {"N-CSJ", JoinAlgorithm::kNCSJ, 0},
    {"CSJ(1)", JoinAlgorithm::kCSJ, 1},
    {"CSJ(10)", JoinAlgorithm::kCSJ, 10},
    {"CSJ(100)", JoinAlgorithm::kCSJ, 100},
};

void Main(const BenchArgs& args) {
  const auto mg = MakeMgCounty();
  RStarTree<2> tree;
  PackStr(&tree, mg.entries);
  const double eps = args.smoke ? 0.01 : 0.1;
  const std::string out_dir = "/tmp";

  Table division(
      StrFormat("Figure 8 — MG County eps=%.2g: computation vs write time", eps),
      {"algorithm", "total", "compute", "write", "bytes written"});

  std::vector<std::pair<uint64_t, uint32_t>> part_a_digests;
  for (const Variant& v : kVariants) {
    JoinOptions options;
    options.epsilon = eps;
    options.window_size = v.window == 0 ? 10 : v.window;
    options.measure_write_time = true;

    double best_total = 0.0, best_write = 0.0;
    uint64_t bytes = 0;
    for (int r = 0; r < args.runs; ++r) {
      const std::string path =
          out_dir + "/csj_fig8_" + std::to_string(r) + ".txt";
      auto sink =
          MakeSinkOrDie(OutputSpec::File(path, mg.entries.size()));
      const JoinStats stats =
          RunSelfJoin(v.algorithm, tree, options, sink.get());
      const Status finish = sink->Finish();
      if (!finish.ok()) {
        std::fprintf(stderr, "sink error: %s\n", finish.ToString().c_str());
        return;
      }
      if (r == 0 || stats.elapsed_seconds < best_total) {
        best_total = stats.elapsed_seconds;
        best_write = stats.write_seconds;
      }
      bytes = sink->bytes();
      if (r == 0) part_a_digests.push_back(FileDigest(path));
      std::remove(path.c_str());
    }
    division.AddRow({v.label, HumanDuration(best_total),
                     HumanDuration(best_total - best_write),
                     HumanDuration(best_write), WithThousands(bytes)});
  }
  EmitTable(division, args, "fig8_time_division");

  // Part C: the same joins running off the saved index, read in place
  // (4KB blocks through a 256-block LRU cache with actual file IO).
  {
    const std::string index_path = out_dir + "/csj_fig8_index.csjt";
    const Status saved = SaveTree(tree, index_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "index save failed: %s\n", saved.ToString().c_str());
      g_bytes_differ = true;
      return;
    }
    Table disk("Experiment 3 — real disk-resident joins (4KB blocks, "
               "256-block cache)",
               {"algorithm", "time", "block requests", "real disk reads",
                "hit rate", "bytes = Part A"});
    for (size_t i = 0; i < std::size(kVariants); ++i) {
      const Variant& v = kVariants[i];
      auto paged = PagedTree<2>::Open(index_path);
      if (!paged.ok()) {
        std::fprintf(stderr, "open failed: %s\n",
                     paged.status().ToString().c_str());
        g_bytes_differ = true;
        return;
      }
      JoinOptions options;
      options.epsilon = eps;
      options.window_size = v.window == 0 ? 10 : v.window;
      const std::string path = out_dir + "/csj_fig8_disk.txt";
      auto sink = MakeSinkOrDie(OutputSpec::File(path, mg.entries.size()));
      const JoinStats stats =
          RunSelfJoin(v.algorithm, *paged, options, sink.get());
      const Status finish = sink->Finish();
      const bool same = stats.status.ok() && finish.ok() &&
                        i < part_a_digests.size() &&
                        FileDigest(path) == part_a_digests[i];
      std::remove(path.c_str());
      if (!same) g_bytes_differ = true;
      const PagedIoStats& io = paged->io_stats();
      const double hit_rate =
          io.block_requests == 0
              ? 0.0
              : 100.0 * static_cast<double>(io.block_cache_hits) /
                    static_cast<double>(io.block_requests);
      disk.AddRow({v.label, HumanDuration(stats.elapsed_seconds),
                   WithThousands(io.block_requests),
                   WithThousands(io.disk_reads),
                   StrFormat("%.1f%%", hit_rate), same ? "yes" : "NO"});
    }
    EmitTable(disk, args, "exp3_real_disk");
    std::remove(index_path.c_str());
    if (g_bytes_differ) {
      std::fprintf(stderr,
                   "FAIL: a disk-resident join's output differs from Part "
                   "A's\n");
    } else {
      std::printf("check: every disk-resident join wrote Part A's bytes\n");
    }
  }

  // Part B: page and cache accesses under varying page/cache sizes.
  for (const auto& [nodes_per_page, cache_pages] :
       std::vector<std::pair<int, size_t>>{{4, 64}, {16, 64}, {4, 1024}}) {
    Table pages(StrFormat("Experiment 3 — page accesses (%d nodes/page, "
                          "%zu-page LRU cache)",
                          nodes_per_page, cache_pages),
                {"algorithm", "node accesses", "page requests", "disk reads",
                 "hit rate"});
    for (const Variant& v : kVariants) {
      NodeAccessTracker tracker(nodes_per_page, cache_pages);
      JoinOptions options;
      options.epsilon = eps;
      options.window_size = v.window == 0 ? 10 : v.window;
      options.tracker = &tracker;
      auto sink = MakeSinkOrDie(OutputSpec::Counting(mg.entries.size()));
      const JoinStats stats =
          RunSelfJoin(v.algorithm, tree, options, sink.get());
      const double hit_rate =
          stats.page_requests == 0
              ? 0.0
              : 100.0 * static_cast<double>(stats.page_requests -
                                            stats.page_disk_reads) /
                    static_cast<double>(stats.page_requests);
      pages.AddRow({v.label, WithThousands(stats.node_accesses),
                    WithThousands(stats.page_requests),
                    WithThousands(stats.page_disk_reads),
                    StrFormat("%.1f%%", hit_rate)});
    }
    EmitTable(pages, args,
              StrFormat("exp3_pages_%d_%zu", nodes_per_page, cache_pages));
  }
}

}  // namespace
}  // namespace csj::bench

int main(int argc, char** argv) {
  const int rc = csj::bench::BenchMain(argc, argv, csj::bench::Main);
  if (rc != 0) return rc;
  return csj::bench::g_bytes_differ ? 1 : 0;
}
