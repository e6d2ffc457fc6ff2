/// \file
/// Leaf-kernel microbenchmark: naive vs sweep vs simd (geom/kernels.h) over
/// varying leaf sizes, densities and dimensions, for both the self-join and
/// the block (leaf-pair) kernel. This is the ablation harness for the
/// JoinOptions::leaf_kernel modes: it isolates the leaf–leaf inner loop from
/// tree traversal so kernel changes show up undiluted.
///
/// A scenario is a leaf of `k` points uniform in the unit cube joined at an
/// epsilon chosen as a fraction of the cube diagonal; small fractions mean a
/// narrow sweep window (strong pruning), large fractions approach the dense
/// all-pairs regime. Every cell reports pair throughput and its speedup over
/// the naive loop on the same scenario; each cell also lands in
/// BENCH_bench_kernels.json (context "self|block dim=D k=K eps=E
/// kernel=MODE") so the bench trajectory tracks kernel performance over
/// time. In addition to the three modes, one `simd` row per *available*
/// explicit ISA backend (avx2, avx512), forced through CSJ_KERNEL_ISA,
/// isolates the per-ISA cost, and the config block records which ISA the
/// `simd` rows dispatched to on this host.
/// `--smoke` shrinks sizes and repetitions to CI scale and additionally
/// asserts the dispatched SIMD backend is no slower than `sweep` on the
/// dense-leaf cells (exit 1 on regression; skipped when dispatch resolves
/// to scalar, e.g. under -DCSJ_SIMD=OFF).

#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/generators.h"
#include "geom/dispatch.h"
#include "geom/kernels.h"
#include "util/random.h"

namespace csj::bench {
namespace {

/// One benchmark row: a kernel mode and its label. The per-ISA rows run
/// kSimd with CSJ_KERNEL_ISA forced to the label.
struct BenchMode {
  LeafKernel kernel;
  const char* label;
  bool forced_isa = false;
};

/// The three modes plus every explicit ISA backend this host can run. (An
/// unavailable ISA would fall back to best-available — a row labeled
/// "avx2" timing another backend is worse than no row.)
std::vector<BenchMode> BenchModes() {
  std::vector<BenchMode> modes = {{LeafKernel::kNaive, "naive"},
                                  {LeafKernel::kSweep, "sweep"},
                                  {LeafKernel::kSimd, "simd"}};
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (KernelIsaAvailable(isa)) {
      modes.push_back({LeafKernel::kSimd, KernelIsaName(isa), true});
    }
  }
  return modes;
}

/// Accumulated dense-leaf (largest epsilon fraction) per-call times, the
/// basis of the --smoke regression gate.
struct SmokeTotals {
  double sweep_seconds = 0.0;
  double simd_seconds = 0.0;
};

template <int D>
std::vector<Entry<D>> LeafPoints(size_t k, uint64_t seed) {
  const auto points = GenerateUniform<D>(k, seed);
  std::vector<Entry<D>> entries(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries[i] = Entry<D>{static_cast<PointId>(i), points[i]};
  }
  return entries;
}

struct Cell {
  double seconds_per_call = 0.0;
  uint64_t candidates = 0;
  uint64_t computed = 0;
  uint64_t hits = 0;
};

/// Times `calls` kernel invocations and returns per-call cost + counters.
template <typename KernelFn>
Cell TimeKernel(KernelFn&& kernel, int calls, int runs) {
  Cell cell;
  for (int r = 0; r < runs; ++r) {
    uint64_t hits = 0;
    KernelCounters last;
    WallTimer timer;
    for (int c = 0; c < calls; ++c) {
      last = kernel(&hits);
    }
    const double per_call = timer.ElapsedSeconds() / calls;
    if (r == 0 || per_call < cell.seconds_per_call) {
      cell.seconds_per_call = per_call;
    }
    cell.candidates = last.candidates;
    cell.computed = last.computed;
    cell.hits = last.hits;
  }
  return cell;
}

void Record(const std::string& context, double eps, const Cell& cell) {
  BenchRecorder::Get().SetContext(context);
  JoinStats stats;
  stats.algorithm = JoinAlgorithm::kSSJ;
  stats.epsilon = eps;
  stats.elapsed_seconds = cell.seconds_per_call;
  stats.distance_computations = cell.computed;
  stats.kernel_candidates = cell.candidates;
  stats.kernel_pruned = cell.candidates - cell.computed;
  stats.kernel_hits = cell.hits;
  stats.links = cell.hits;
  BenchRecorder::Get().RecordStats(stats);
}

template <int D>
void BenchDim(const BenchArgs& args, Table* table, SmokeTotals* smoke) {
  const std::vector<size_t> sizes =
      args.smoke ? std::vector<size_t>{64, 256}
                 : std::vector<size_t>{64, 256, 1024};
  // Epsilon as a fraction of the unit-cube diagonal: the sweep window works
  // on one axis, so the fraction directly controls how much it prunes.
  const double diagonal = std::sqrt(static_cast<double>(D));
  for (size_t k : sizes) {
    for (double frac : {0.02, 0.1, 0.4}) {
      const double eps = frac * diagonal;
      const double eps2 = eps * eps;
      const auto entries = LeafPoints<D>(k, 1000 + k + D);
      const auto half_a = LeafPoints<D>(k / 2, 2000 + k + D);
      auto half_b = LeafPoints<D>(k / 2, 3000 + k + D);
      for (auto& e : half_b) e.id += 1u << 20;

      // Enough calls that even the fastest kernel is timeable.
      const uint64_t pair_space = static_cast<uint64_t>(k) * (k - 1) / 2;
      const int calls = static_cast<int>(std::max<uint64_t>(
          1, (args.smoke ? 2'000'000 : 20'000'000) / std::max<uint64_t>(
                                                          1, pair_space)));

      LeafJoinScratch<D> scratch;
      double naive_self = 0.0;
      double naive_block = 0.0;
      for (const BenchMode& bench_mode : BenchModes()) {
        std::optional<dispatch_internal::ScopedKernelIsaOverride> forced;
        if (bench_mode.forced_isa) forced.emplace(bench_mode.label);
        const LeafKernel mode = bench_mode.kernel;
        const Cell self = TimeKernel(
            [&](uint64_t* hits) {
              return SelfJoinKernel(
                  scratch, std::span<const Entry<D>>(entries), eps2, mode,
                  [hits](const Entry<D>&, const Entry<D>&) { ++*hits; });
            },
            calls, args.runs);
        const Cell block = TimeKernel(
            [&](uint64_t* hits) {
              return BlockJoinKernel(
                  scratch, std::span<const Entry<D>>(half_a),
                  std::span<const Entry<D>>(half_b), eps2, mode,
                  [hits](const Entry<D>&, const Entry<D>&) { ++*hits; });
            },
            calls, args.runs);
        if (mode == LeafKernel::kNaive) {
          naive_self = self.seconds_per_call;
          naive_block = block.seconds_per_call;
        }
        // Dense-leaf cells (widest epsilon fraction) feed the --smoke gate:
        // that is the regime the SIMD backend exists for.
        if (frac == 0.4) {
          if (mode == LeafKernel::kSweep) {
            smoke->sweep_seconds += self.seconds_per_call +
                                    block.seconds_per_call;
          } else if (mode == LeafKernel::kSimd && !bench_mode.forced_isa) {
            smoke->simd_seconds += self.seconds_per_call +
                                   block.seconds_per_call;
          }
        }
        const auto row = [&](const char* shape, const Cell& cell,
                             double naive_seconds) {
          const double mpairs =
              static_cast<double>(cell.candidates) /
              std::max(cell.seconds_per_call, 1e-12) / 1e6;
          table->AddRow(
              {StrFormat("%d", D), shape, WithThousands(k),
               StrFormat("%.3f", eps), bench_mode.label,
               HumanDuration(cell.seconds_per_call),
               StrFormat("%.0f", mpairs),
               StrFormat("%.0f%%", 100.0 * static_cast<double>(cell.computed) /
                                       static_cast<double>(std::max<uint64_t>(
                                           1, cell.candidates))),
               WithThousands(cell.hits),
               StrFormat("%.2fx", naive_seconds /
                                      std::max(cell.seconds_per_call, 1e-12))});
          Record(StrFormat("%s dim=%d k=%zu eps=%.3f kernel=%s", shape, D, k,
                           eps, bench_mode.label),
                 eps, cell);
        };
        row("self", self, naive_self);
        row("block", block, naive_block);
      }
    }
  }
}

/// Set by the --smoke regression gate; surfaced as the process exit code.
bool g_smoke_failed = false;

void Main(const BenchArgs& args) {
  const KernelIsa dispatched = DispatchedKernelIsa();
  BenchRecorder::Get().AddConfig("kernel_isa", KernelIsaName(dispatched));
  BenchRecorder::Get().AddConfig("kernel_isa_avx2_available",
                                 KernelIsaAvailable(KernelIsa::kAvx2));
  BenchRecorder::Get().AddConfig("kernel_isa_avx512_available",
                                 KernelIsaAvailable(KernelIsa::kAvx512));
  std::printf("simd dispatches to: %s\n\n", KernelIsaName(dispatched));

  Table table("Leaf-join kernels — pair enumeration throughput",
              {"dim", "shape", "k", "eps", "kernel", "t/call", "Mpairs/s",
               "computed", "hits", "speedup"});
  SmokeTotals smoke;
  BenchDim<2>(args, &table, &smoke);
  BenchDim<3>(args, &table, &smoke);
  if (!args.smoke) BenchDim<5>(args, &table, &smoke);
  EmitTable(table, args, "kernels");

  if (args.smoke) {
    // CI regression gate: on the dense-leaf cells the dispatched SIMD
    // backend must be at least as fast as the portable sweep (10% noise
    // allowance). Meaningless when dispatch resolves to scalar — then simd
    // *is* sweep-with-function-pointers and only correctness matters.
    if (dispatched == KernelIsa::kScalar) {
      std::printf("smoke gate: skipped (dispatched ISA is scalar)\n");
    } else {
      const double ratio = smoke.simd_seconds /
                           std::max(smoke.sweep_seconds, 1e-12);
      std::printf("smoke gate: dense-leaf simd/sweep time ratio %.3f "
                  "(dispatched %s, limit 1.10)\n",
                  ratio, KernelIsaName(dispatched));
      if (ratio > 1.10) {
        std::fprintf(stderr,
                     "FAIL: dispatched SIMD backend slower than sweep on "
                     "dense leaves (ratio %.3f > 1.10)\n", ratio);
        g_smoke_failed = true;
      }
    }
  }
}

}  // namespace
}  // namespace csj::bench

int main(int argc, char** argv) {
  const int rc = csj::bench::BenchMain(argc, argv, csj::bench::Main);
  if (rc != 0) return rc;
  return csj::bench::g_smoke_failed ? 1 : 0;
}
