#ifndef CSJ_GEOM_KERNELS_H_
#define CSJ_GEOM_KERNELS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "geom/dispatch.h"
#include "geom/point.h"
#include "util/metrics.h"

/// \file
/// Vectorizable leaf-join kernels: the pair-enumeration inner loops shared by
/// every leaf–leaf case of the tree joins (SSJ / N-CSJ / CSJ) and the EGO
/// join's JoinBuffer ranges.
///
/// The hot loop of every similarity join in this repo decides, for each pair
/// of points in a leaf (or pair of leaves), whether their distance is within
/// epsilon. The baseline is a scalar O(k^2) double loop over array-of-structs
/// Entry<D> records. This layer replaces it with three ingredients:
///
///  1. **SoA tiles** (LeafTile): a leaf's entries are transposed into
///     per-dimension contiguous coordinate arrays. Distance evaluation then
///     streams over dense double arrays instead of striding through
///     {id, point} records, which is what lets the compiler vectorize.
///     Tiles are driver-owned scratch — loading a leaf reuses capacity, so
///     steady-state leaf visits allocate nothing.
///
///  2. **Plane-sweep pruning** (LeafKernel::kSweep): the tile is sorted along
///     the dimension of largest spread; the inner loop breaks as soon as the
///     1-D gap alone exceeds epsilon. Dense leaves skip most of the pair
///     space before any full distance is computed. The pruning predicate is
///     gap*gap > eps_squared — the *same* floating-point comparison the full
///     distance test uses on that dimension's term, so a pruned pair can
///     never be one the naive loop would have accepted (the remaining
///     dimensions only add non-negative terms, and IEEE rounding is
///     monotone). Ties exactly at epsilon are therefore preserved bit-for-bit.
///
///  3. **Explicit-SIMD backends** (LeafKernel::kSimd): within the sweep
///     window, squared distances are evaluated by an ISA-specific backend
///     (geom/dispatch.h) — hand-written AVX2 / AVX-512 intrinsic loops or a
///     blocked scalar fallback — selected once at startup by CPUID. The
///     CSJ_KERNEL_ISA env var is the one way to force a backend. Every
///     backend follows the determinism contract in geom/dispatch.h, so
///     accept/reject decisions are bit-identical across ISAs.
///
/// **Output discipline.** The sweep kernels buffer qualifying pairs as
/// original-index hits and replay them through the callback in exactly the
/// order the naive double loop produces (a counting sort over the tile-sized
/// index ranges keeps that replay cheap even when most pairs hit). The naive
/// kernel emits directly — it already enumerates canonically, and skipping
/// the tile transpose and hit buffer keeps it an honest pre-PR baseline.
/// All kernels are therefore *output-identical* — not just multiset-equal —
/// which matters for CSJ(g), whose group window is order-sensitive.
/// Benchmarks can ablate kernels (and ISAs) without changing results.
///
/// The kernels come in two flavors per join shape: span-based
/// (SelfJoinKernel / BlockJoinKernel, which load driver scratch tiles and
/// delegate) and tile-based (SelfJoinTileKernel / BlockJoinTileKernel,
/// operating on pre-loaded tiles). The tile flavor is what the batched leaf
/// pipeline (core/leaf_batch.h) drains through: tiles shared by several
/// deferred leaf-pair tasks are transposed once per batch, not once per
/// task.
///
/// **Accounting.** Instead of a per-pair ++stats counter, each kernel call
/// returns bulk KernelCounters (candidate pairs, distances actually
/// computed, pairs pruned by the sweep, hits) and records them once per leaf
/// through the CSJ_METRIC_* layer. `computed` is what drivers add to
/// JoinStats::distance_computations: under kNaive it equals the full pair
/// count (matching the historical per-pair increments exactly); under
/// kSweep/kSimd it counts only the pairs that survived the 1-D prune.

namespace csj {

/// Leaf-level pair-enumeration strategy.
enum class LeafKernel {
  kNaive,  ///< scalar double loop in entry order (the pre-kernel baseline)
  kSweep,  ///< sort by widest dimension + 1-D gap break
  kSimd,   ///< sweep window + the dispatched explicit-SIMD backend
};

/// Bulk work accounting for one kernel invocation (or a running total).
struct KernelCounters {
  uint64_t invocations = 0;  ///< kernel calls (leaf or leaf-pair visits)
  uint64_t candidates = 0;   ///< size of the raw pair space
  uint64_t computed = 0;     ///< full distance evaluations charged
  uint64_t pruned = 0;       ///< candidates removed by the 1-D sweep bound
  uint64_t hits = 0;         ///< pairs within epsilon

  KernelCounters& operator+=(const KernelCounters& o) {
    invocations += o.invocations;
    candidates += o.candidates;
    computed += o.computed;
    pruned += o.pruned;
    hits += o.hits;
    return *this;
  }
};

/// A qualifying pair, buffered so emission can be replayed in the canonical
/// (naive double loop) order regardless of the enumeration order the kernel
/// actually used: lexicographic in (first, second) original indices. i/j are
/// the tile slots of the first/second endpoint.
struct KernelHit {
  uint32_t first;
  uint32_t second;
  uint32_t i;
  uint32_t j;
};

namespace kernel_internal {
/// Identity projection: spans of Entry<D> are used as-is; wrappers (the EGO
/// join's grid-annotated entries) pass their own projection.
struct IdentityProj {
  template <typename T>
  const T& operator()(const T& e) const {
    return e;
  }
};
}  // namespace kernel_internal

/// Structure-of-arrays scratch image of one leaf. Owned by a driver and
/// reused across leaf visits: Load() only grows capacity, never shrinks.
template <int D>
class LeafTile {
 public:
  /// Transposes `entries` (anything iterable whose elements `proj` maps to
  /// Entry<D>) into per-dimension arrays, in entry order, and records the
  /// per-dimension bounds.
  template <typename Span, typename Proj = kernel_internal::IdentityProj>
  void Load(const Span& entries, Proj proj = {}) {
    size_ = entries.size();
    ids_.resize(size_);
    orig_.resize(size_);
    for (int d = 0; d < D; ++d) {
      coords_[d].resize(size_);
      lo_[d] = 0.0;
      hi_[d] = 0.0;
    }
    size_t i = 0;
    for (const auto& elem : entries) {
      const Entry<D>& e = proj(elem);
      ids_[i] = e.id;
      orig_[i] = static_cast<uint32_t>(i);
      for (int d = 0; d < D; ++d) {
        const double c = e.point[d];
        coords_[d][i] = c;
        if (i == 0) {
          lo_[d] = c;
          hi_[d] = c;
        } else {
          lo_[d] = std::min(lo_[d], c);
          hi_[d] = std::max(hi_[d], c);
        }
      }
      ++i;
    }
    sorted_dim_ = -1;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  double lo(int d) const { return lo_[d]; }
  double hi(int d) const { return hi_[d]; }

  /// Dimension with the largest coordinate spread (the plane-sweep axis of
  /// choice: the wider the spread, the more the 1-D gap bound prunes).
  int WidestDim() const {
    int best = 0;
    double best_spread = hi_[0] - lo_[0];
    for (int d = 1; d < D; ++d) {
      const double spread = hi_[d] - lo_[d];
      if (spread > best_spread) {
        best_spread = spread;
        best = d;
      }
    }
    return best;
  }

  /// Sorts the tile's slots by ascending coordinate in dimension `dim`.
  /// Original entry order stays recoverable through OriginalIndex().
  void SortByDim(int dim) {
    if (sorted_dim_ == dim) return;
    perm_.resize(size_);
    for (size_t i = 0; i < size_; ++i) perm_[i] = static_cast<uint32_t>(i);
    const double* key = coords_[dim].data();
    std::sort(perm_.begin(), perm_.end(),
              [key](uint32_t a, uint32_t b) { return key[a] < key[b]; });
    ApplyPermutation();
    sorted_dim_ = dim;
  }

  /// Contiguous coordinate array of one dimension (the SoA payload).
  const double* Dim(int d) const { return coords_[d].data(); }

  PointId Id(size_t slot) const { return ids_[slot]; }

  /// Position the entry in `slot` had in the span passed to Load().
  uint32_t OriginalIndex(size_t slot) const { return orig_[slot]; }

  /// Reconstructs the full entry stored in `slot`.
  Entry<D> MakeEntry(size_t slot) const {
    Entry<D> e;
    e.id = ids_[slot];
    for (int d = 0; d < D; ++d) e.point[d] = coords_[d][slot];
    return e;
  }

  /// Squared L2 distance between two slots of this tile.
  double SquaredSlotDistance(size_t i, size_t j) const {
    double acc = 0.0;
    for (int d = 0; d < D; ++d) {
      const double diff = coords_[d][i] - coords_[d][j];
      acc += diff * diff;
    }
    return acc;
  }

  /// Squared L2 distance between a slot of this tile and one of `other`.
  double SquaredCrossDistance(size_t i, const LeafTile& other,
                              size_t j) const {
    double acc = 0.0;
    for (int d = 0; d < D; ++d) {
      const double diff = coords_[d][i] - other.coords_[d][j];
      acc += diff * diff;
    }
    return acc;
  }

 private:
  void ApplyPermutation() {
    scratch_coord_.resize(size_);
    for (int d = 0; d < D; ++d) {
      for (size_t i = 0; i < size_; ++i) {
        scratch_coord_[i] = coords_[d][perm_[i]];
      }
      coords_[d].swap(scratch_coord_);
      scratch_coord_.resize(size_);
    }
    scratch_id_.resize(size_);
    scratch_orig_.resize(size_);
    for (size_t i = 0; i < size_; ++i) {
      scratch_id_[i] = ids_[perm_[i]];
      scratch_orig_[i] = orig_[perm_[i]];
    }
    ids_.swap(scratch_id_);
    orig_.swap(scratch_orig_);
  }

  std::array<std::vector<double>, D> coords_;
  std::vector<PointId> ids_;
  std::vector<uint32_t> orig_;
  std::array<double, D> lo_{};
  std::array<double, D> hi_{};
  size_t size_ = 0;
  int sorted_dim_ = -1;

  // Permutation scratch, reused across SortByDim calls.
  std::vector<uint32_t> perm_;
  std::vector<double> scratch_coord_;
  std::vector<PointId> scratch_id_;
  std::vector<uint32_t> scratch_orig_;
};

/// Driver-owned scratch for the leaf kernels: two tiles (self joins use only
/// `a`), the hit buffer plus its sorting scratch, and running counter
/// totals. One instance per join driver (or EGO run); no per-leaf allocation
/// after warmup.
template <int D>
struct LeafJoinScratch {
  LeafTile<D> a;
  LeafTile<D> b;
  std::vector<KernelHit> hits;
  std::vector<KernelHit> hits_tmp;
  std::vector<uint32_t> hit_slots;
  std::vector<uint32_t> isa_hits;  ///< per-window buffer for the backends
  KernelCounters totals;
};

namespace kernel_internal {

/// Records one kernel call in the process metrics and the scratch totals.
template <int D>
inline void Account(LeafJoinScratch<D>& s, const KernelCounters& c) {
  s.totals += c;
  CSJ_METRIC_COUNT("kernel.invocations", 1);
  CSJ_METRIC_COUNT("kernel.candidates", c.candidates);
  CSJ_METRIC_COUNT("kernel.computed", c.computed);
  CSJ_METRIC_COUNT("kernel.pruned", c.pruned);
  CSJ_METRIC_COUNT("kernel.hits", c.hits);
  CSJ_METRIC_HIST("kernel.hits_per_leaf", c.hits);
}

/// Sorts hits lexicographically by (first, second) original index — the
/// canonical naive-loop emission order. The sweep kernels produce hits in
/// near-random original order, so a comparison sort pays a branch mispredict
/// per comparison and dominated dense leaves; instead this runs a two-pass
/// stable counting sort keyed on the (tile-sized) index ranges:
/// O(hits + tile) with fully predictable branches.
inline void SortHitsCanonical(std::vector<KernelHit>& hits,
                              std::vector<KernelHit>& tmp,
                              std::vector<uint32_t>& slots,
                              size_t first_range, size_t second_range) {
  const size_t n = hits.size();
  if (n < 2) return;
  if (n < 32) {
    std::sort(hits.begin(), hits.end(),
              [](const KernelHit& a, const KernelHit& b) {
                return a.first < b.first ||
                       (a.first == b.first && a.second < b.second);
              });
    return;
  }
  tmp.resize(n);
  // Stable counting sort by the second index...
  slots.assign(second_range, 0);
  for (const KernelHit& h : hits) ++slots[h.second];
  uint32_t sum = 0;
  for (uint32_t& slot : slots) {
    const uint32_t count = slot;
    slot = sum;
    sum += count;
  }
  for (const KernelHit& h : hits) tmp[slots[h.second]++] = h;
  // ...then by the first index; stability makes the result lexicographic.
  slots.assign(first_range, 0);
  for (const KernelHit& h : tmp) ++slots[h.first];
  sum = 0;
  for (uint32_t& slot : slots) {
    const uint32_t count = slot;
    slot = sum;
    sum += count;
  }
  for (const KernelHit& h : tmp) hits[slots[h.first]++] = h;
}

}  // namespace kernel_internal

/// Joins a pre-loaded tile against itself: every unordered pair of distinct
/// entries within epsilon is passed to `emit(e1, e2)`, where e1 precedes e2
/// in the tile's original entry order — the exact pairs, in the exact order,
/// the scalar `for i < j` loop produces. This is the tile-major entry point
/// the batched leaf pipeline drains through; `tile` may be driver scratch or
/// a batch-cached tile shared by several deferred tasks. The tile's sort
/// state on entry does not matter: SortByDim is memoized, window bounds and
/// prune decisions depend only on coordinate values, and hits are replayed
/// canonically. kNaive is executed as kSweep here (the transpose has already
/// been paid; output is identical) — drivers keep the naive baseline honest
/// by never routing it through tiles.
template <int D, typename Emit>
KernelCounters SelfJoinTileKernel(LeafJoinScratch<D>& s, LeafTile<D>& tile,
                                  double eps2, LeafKernel mode, Emit&& emit) {
  KernelCounters c;
  c.invocations = 1;
  const size_t n = tile.size();
  if (n >= 2) {
    c.candidates = static_cast<uint64_t>(n) * (n - 1) / 2;
    s.hits.clear();
    auto record = [&](size_t i, size_t j) {
      const uint32_t a = tile.OriginalIndex(i);
      const uint32_t b = tile.OriginalIndex(j);
      const bool swapped = a > b;  // branchless: compiles to conditional moves
      s.hits.push_back(KernelHit{swapped ? b : a, swapped ? a : b,
                                 static_cast<uint32_t>(swapped ? j : i),
                                 static_cast<uint32_t>(swapped ? i : j)});
    };

    tile.SortByDim(tile.WidestDim());
    const double* x = tile.Dim(tile.WidestDim());
    // Dimension pointers hoisted into a local array so the inner distance
    // loop streams over registers + SoA arrays instead of re-resolving
    // vector storage after every hit push.
    std::array<const double*, D> dims;
    for (int d = 0; d < D; ++d) dims[d] = tile.Dim(d);
    if (mode != LeafKernel::kSimd) {
      for (size_t i = 0; i < n; ++i) {
        const double xi = x[i];
        std::array<double, D> center;
        for (int d = 0; d < D; ++d) center[d] = dims[d][i];
        for (size_t j = i + 1; j < n; ++j) {
          const double gap = x[j] - xi;
          if (gap * gap > eps2) break;
          ++c.computed;
          double acc = 0.0;
          for (int d = 0; d < D; ++d) {
            const double diff = dims[d][j] - center[d];
            acc += diff * diff;
          }
          if (acc <= eps2) record(i, j);
        }
      }
    } else {
      const KernelBackend& be = GetKernelBackend(DispatchedKernelIsa());
      s.isa_hits.resize(n);
      std::array<double, D> center;
      for (size_t i = 0; i < n; ++i) {
        const size_t bound = be.sweep_bound(x, i + 1, n, x[i], eps2);
        c.computed += bound - (i + 1);
        for (int d = 0; d < D; ++d) center[d] = dims[d][i];
        const size_t nh = be.window_hits(dims.data(), D, center.data(), i + 1,
                                         bound, eps2, s.isa_hits.data());
        for (size_t k = 0; k < nh; ++k) record(i, s.isa_hits[k]);
      }
    }
    c.pruned = c.candidates - c.computed;

    c.hits = s.hits.size();
    kernel_internal::SortHitsCanonical(s.hits, s.hits_tmp, s.hit_slots, n, n);
    for (const KernelHit& h : s.hits) {
      emit(tile.MakeEntry(h.i), tile.MakeEntry(h.j));
    }
  }
  kernel_internal::Account(s, c);
  return c;
}

/// Joins one leaf against itself from a span of entries: loads driver
/// scratch tile s.a and delegates to SelfJoinTileKernel — except under
/// kNaive, which runs the pre-kernel baseline byte for byte (AoS double loop
/// in entry order, direct emission, no tile transpose, no hit buffering —
/// the honest ablation floor the other modes are measured against). Returns
/// this call's work counters (also accumulated into `s.totals` and the
/// process metrics).
template <int D, typename Span,
          typename Proj = kernel_internal::IdentityProj, typename Emit>
KernelCounters SelfJoinKernel(LeafJoinScratch<D>& s, const Span& entries,
                              double eps2, LeafKernel mode, Emit&& emit,
                              Proj proj = {}) {
  if (mode == LeafKernel::kNaive) {
    KernelCounters c;
    c.invocations = 1;
    const size_t n = entries.size();
    if (n >= 2) {
      c.candidates = static_cast<uint64_t>(n) * (n - 1) / 2;
      c.computed = c.candidates;
      const auto end = std::end(entries);
      for (auto it1 = std::begin(entries); it1 != end; ++it1) {
        const Entry<D>& e1 = proj(*it1);
        for (auto it2 = std::next(it1); it2 != end; ++it2) {
          const Entry<D>& e2 = proj(*it2);
          if (SquaredDistance(e1.point, e2.point) <= eps2) {
            ++c.hits;
            emit(e1, e2);
          }
        }
      }
    }
    kernel_internal::Account(s, c);
    return c;
  }
  s.a.Load(entries, proj);
  return SelfJoinTileKernel(s, s.a, eps2, mode,
                            static_cast<Emit&&>(emit));
}

/// Joins two distinct pre-loaded tiles: every cross pair within epsilon is
/// passed to `emit(ea, eb)` with ea always drawn from tile A, in the order
/// of the scalar `for a { for b }` loop. Tile-major analog of
/// SelfJoinTileKernel, with the same caveats (sort state irrelevant, kNaive
/// executed as kSweep).
template <int D, typename Emit>
KernelCounters BlockJoinTileKernel(LeafJoinScratch<D>& s, LeafTile<D>& ta,
                                   LeafTile<D>& tb, double eps2,
                                   LeafKernel mode, Emit&& emit) {
  KernelCounters c;
  c.invocations = 1;
  const size_t na = ta.size();
  const size_t nb = tb.size();
  if (na != 0 && nb != 0) {
    c.candidates = static_cast<uint64_t>(na) * nb;
    s.hits.clear();
    auto record = [&](size_t i, size_t j) {
      s.hits.push_back(KernelHit{ta.OriginalIndex(i), tb.OriginalIndex(j),
                                 static_cast<uint32_t>(i),
                                 static_cast<uint32_t>(j)});
    };

    {
      // Sort both tiles on the widest dimension of their union so one sweep
      // axis serves both sides.
      int dim = 0;
      double best_spread = -1.0;
      for (int d = 0; d < D; ++d) {
        const double spread = std::max(ta.hi(d), tb.hi(d)) -
                              std::min(ta.lo(d), tb.lo(d));
        if (spread > best_spread) {
          best_spread = spread;
          dim = d;
        }
      }
      ta.SortByDim(dim);
      tb.SortByDim(dim);
      const double* xa = ta.Dim(dim);
      const double* xb = tb.Dim(dim);
      std::array<const double*, D> dims_a;
      std::array<const double*, D> dims_b;
      for (int d = 0; d < D; ++d) {
        dims_a[d] = ta.Dim(d);
        dims_b[d] = tb.Dim(d);
      }
      // Classic merge sweep: for ascending a-slots, the window of b-slots
      // within the 1-D bound only moves right.
      if (mode != LeafKernel::kSimd) {
        size_t start = 0;
        for (size_t i = 0; i < na; ++i) {
          const double xi = xa[i];
          while (start < nb && xb[start] < xi) {
            const double gap = xi - xb[start];
            if (gap * gap <= eps2) break;
            ++start;
          }
          std::array<double, D> center;
          for (int d = 0; d < D; ++d) center[d] = dims_a[d][i];
          for (size_t j = start; j < nb; ++j) {
            const double gap = xb[j] - xi;
            if (gap > 0.0 && gap * gap > eps2) break;
            ++c.computed;
            double acc = 0.0;
            for (int d = 0; d < D; ++d) {
              const double diff = dims_b[d][j] - center[d];
              acc += diff * diff;
            }
            if (acc <= eps2) record(i, j);
          }
        }
      } else {
        // Each window [start, nb) satisfies the backend's monotonicity
        // precondition: every b-slot in it with xb[j] < xi is already
        // within the 1-D bound (the start advance established that), so
        // fl((xb[j]-xi)^2) > eps2 flips false -> true exactly once going
        // right.
        const KernelBackend& be = GetKernelBackend(DispatchedKernelIsa());
        s.isa_hits.resize(nb);
        std::array<double, D> center;
        size_t start = 0;
        for (size_t i = 0; i < na; ++i) {
          const double xi = xa[i];
          while (start < nb && xb[start] < xi) {
            const double gap = xi - xb[start];
            if (gap * gap <= eps2) break;
            ++start;
          }
          const size_t bound = be.sweep_bound(xb, start, nb, xi, eps2);
          c.computed += bound - start;
          for (int d = 0; d < D; ++d) center[d] = dims_a[d][i];
          const size_t nh =
              be.window_hits(dims_b.data(), D, center.data(), start, bound,
                             eps2, s.isa_hits.data());
          for (size_t k = 0; k < nh; ++k) record(i, s.isa_hits[k]);
        }
      }
      c.pruned = c.candidates - c.computed;
    }

    c.hits = s.hits.size();
    kernel_internal::SortHitsCanonical(s.hits, s.hits_tmp, s.hit_slots, na,
                                       nb);
    for (const KernelHit& h : s.hits) {
      emit(ta.MakeEntry(h.i), tb.MakeEntry(h.j));
    }
  }
  kernel_internal::Account(s, c);
  return c;
}

/// Joins two distinct leaves from spans of entries: loads driver scratch
/// tiles s.a / s.b and delegates to BlockJoinTileKernel — except under
/// kNaive, which runs the pre-kernel baseline byte for byte (AoS cross loop
/// in entry order, direct emission; see SelfJoinKernel).
template <int D, typename SpanA, typename SpanB,
          typename Proj = kernel_internal::IdentityProj, typename Emit>
KernelCounters BlockJoinKernel(LeafJoinScratch<D>& s, const SpanA& entries_a,
                               const SpanB& entries_b, double eps2,
                               LeafKernel mode, Emit&& emit, Proj proj = {}) {
  if (mode == LeafKernel::kNaive) {
    KernelCounters c;
    c.invocations = 1;
    const size_t na = entries_a.size();
    const size_t nb = entries_b.size();
    if (na != 0 && nb != 0) {
      c.candidates = static_cast<uint64_t>(na) * nb;
      c.computed = c.candidates;
      for (const auto& elem_a : entries_a) {
        const Entry<D>& e1 = proj(elem_a);
        for (const auto& elem_b : entries_b) {
          const Entry<D>& e2 = proj(elem_b);
          if (SquaredDistance(e1.point, e2.point) <= eps2) {
            ++c.hits;
            emit(e1, e2);
          }
        }
      }
    }
    kernel_internal::Account(s, c);
    return c;
  }
  s.a.Load(entries_a, proj);
  s.b.Load(entries_b, proj);
  return BlockJoinTileKernel(s, s.a, s.b, eps2, mode,
                             static_cast<Emit&&>(emit));
}

}  // namespace csj

#endif  // CSJ_GEOM_KERNELS_H_
