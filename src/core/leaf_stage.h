#ifndef CSJ_CORE_LEAF_STAGE_H_
#define CSJ_CORE_LEAF_STAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/group.h"
#include "core/join_work.h"
#include "geom/kernels.h"
#include "util/exec_context.h"
#include "util/metrics.h"

/// \file
/// The leaf stage of the tree join driver (core/similarity_join.h) and the
/// EGO join (core/ego.h): joins a leaf (an EGO range) with itself, or two
/// leaves, the moment the traversal reaches them, as the paper's Figure 3
/// does, and writes every qualifying link to the driver's CSJ(g) window.
///
/// Under `sweep` the kernels run on SoA tiles (geom/kernels.h) from a
/// per-driver cache keyed by a driver-chosen 64-bit leaf key, so a leaf that
/// pairs with many neighbours is transposed once, not once per pair. The
/// cache holds at most kCacheTiles tiles and is cleared whole when a visit
/// needs room; a pair visit makes room for both of its tiles before loading
/// either. A leaf's entries are fetched only on a miss, so a hit on a
/// PagedTree skips the block fetch as well. Reusing a tile cannot change
/// the output: sweep bounds and prune decisions depend only on coordinate
/// values, whatever sort state an earlier kernel call left behind, and the
/// kernels replay hits in canonical order. `naive` is the uncached
/// reference: it runs the span kernels on the raw entries, with no tiles.
///
/// Memory: the cached tiles (each slot at the largest leaf it has held) and
/// the hit buffers answer to the context's MemoryBudget through one
/// high-water ScopedCharge. A fetch or a charge that trips the context
/// leaves nothing cached.

namespace csj {

template <int D>
class LeafStage {
 public:
  /// Tiles cached at most: as many as a 64-event batch of leaf pairs holds,
  /// which bounds the stage's memory as the deferred batch it replaced did.
  static constexpr size_t kCacheTiles = 128;

  /// \param window receives every qualifying link. Not owned.
  /// \param work receives the kernel work counters. Not owned.
  /// \param ctx is charged for the tiles and tripped on a denial. Not owned.
  LeafStage(LeafKernel mode, double epsilon, GroupWindow<BoxShape<D>>* window,
            JoinWork* work, const ExecContext* ctx)
      : mode_(mode),
        eps2_(epsilon * epsilon),
        window_(window),
        work_(work),
        ctx_(ctx) {
    index_.reserve(kCacheTiles);
  }

  /// Joins one leaf with itself. `fetch()` returns its entries: anything
  /// the kernels accept whose elements `proj` maps to Entry<D>. It is called
  /// under `naive` and when `key` misses the cache, never otherwise.
  template <typename Fetch, typename Proj = kernel_internal::IdentityProj>
  void Self(uint64_t key, Fetch&& fetch, Proj proj = {}) {
    if (mode_ == LeafKernel::kNaive) {
      AddWork(
          SelfJoinKernel(scratch_, fetch(), eps2_, mode_, Emitter(), proj));
      return;
    }
    MakeRoom(key, key);
    LeafTile<D>* tile = Lookup(key, fetch, proj);
    if (tile == nullptr || !Charge(tile->size())) return;
    AddWork(SelfJoinTileKernel(scratch_, *tile, eps2_, Emitter()));
  }

  /// Joins two distinct leaves: their cross pairs, each written with the
  /// endpoint from leaf A first. Fetches as Self does.
  template <typename FetchA, typename FetchB,
            typename Proj = kernel_internal::IdentityProj>
  void Pair(uint64_t key_a, FetchA&& fetch_a, uint64_t key_b,
            FetchB&& fetch_b, Proj proj = {}) {
    if (mode_ == LeafKernel::kNaive) {
      const auto& entries_a = fetch_a();
      const auto& entries_b = fetch_b();
      AddWork(BlockJoinKernel(scratch_, entries_a, entries_b, eps2_, mode_,
                              Emitter(), proj));
      return;
    }
    MakeRoom(key_a, key_b);
    LeafTile<D>* a = Lookup(key_a, fetch_a, proj);
    LeafTile<D>* b = a != nullptr ? Lookup(key_b, fetch_b, proj) : nullptr;
    if (b == nullptr || !Charge(a->size() + b->size())) return;
    AddWork(BlockJoinTileKernel(scratch_, *a, *b, eps2_, Emitter()));
  }

  /// Tiles cached right now.
  size_t cached_tiles() const { return in_use_; }

 private:
  /// Budget model of one cached tile entry: coordinates, id and original
  /// index, doubled for the sort scratch, plus the permutation.
  static constexpr uint64_t kTileEntryBytes =
      2 * (D * sizeof(double) + sizeof(PointId) + sizeof(uint32_t)) +
      sizeof(uint32_t);
  /// Budget model of one entry of a visit: the hit buffer, its sort copy and
  /// the counting-sort slots.
  static constexpr uint64_t kHitEntryBytes =
      2 * sizeof(KernelHit) + sizeof(uint32_t);

  /// A cache slot. Its tile keeps the capacity of the largest leaf it held.
  struct Slot {
    LeafTile<D> tile;
    size_t capacity = 0;
  };

  auto Emitter() {
    return [this](const Entry<D>& a, const Entry<D>& b) {
      window_->Link(a.id, a.point, b.id, b.point);
    };
  }

  void AddWork(const KernelCounters& kc) {
    work_->distance_computations += kc.computed;
    work_->kernel_candidates += kc.candidates;
    work_->kernel_pruned += kc.pruned;
    work_->kernel_hits += kc.hits;
  }

  /// Clears the cache if loading the visit's missing tiles would overflow it.
  void MakeRoom(uint64_t key_a, uint64_t key_b) {
    if (in_use_ + 2 <= kCacheTiles) return;
    const size_t missing = (index_.contains(key_a) ? 0 : 1) +
                           (key_b == key_a || index_.contains(key_b) ? 0 : 1);
    if (in_use_ + missing <= kCacheTiles) return;
    Forget();
    CSJ_METRIC_COUNT("kernel.tile_cache_clears", 1);
  }

  /// The cached tile of `key`, loaded from `fetch()` on a miss; null when
  /// the load tripped the context (a read fault, or any other stop).
  template <typename Fetch, typename Proj>
  LeafTile<D>* Lookup(uint64_t key, Fetch& fetch, Proj& proj) {
    const auto [it, fresh] =
        index_.try_emplace(key, static_cast<uint32_t>(in_use_));
    if (!fresh) return &slots_[it->second]->tile;
    if (in_use_ == slots_.size()) slots_.push_back(std::make_unique<Slot>());
    Slot& slot = *slots_[in_use_++];
    slot.tile.Load(fetch(), proj);
    if (ctx_->ShouldStop()) {
      Forget();
      return nullptr;
    }
    if (slot.tile.size() > slot.capacity) {
      tile_entries_ += slot.tile.size() - slot.capacity;
      slot.capacity = slot.tile.size();
    }
    return &slot.tile;
  }

  /// Raises the high-water charge to cover the cached tiles and a visit of
  /// `visit_entries`. A denial trips the context and forgets the cache.
  bool Charge(size_t visit_entries) {
    max_visit_ = std::max(max_visit_, visit_entries);
    const uint64_t bytes =
        tile_entries_ * kTileEntryBytes + max_visit_ * kHitEntryBytes;
    if (bytes <= charged_) return true;
    charged_ = bytes;
    const bool ok = charge_.budget() != nullptr
                        ? charge_.Resize(bytes)
                        : charge_.Acquire(ctx_->memory_budget(), bytes);
    if (ok) return true;
    ctx_->Trip(Status::ResourceExhausted(
        "memory budget exhausted growing the leaf-tile cache"));
    Forget();
    return false;
  }

  void Forget() {
    index_.clear();
    in_use_ = 0;
  }

  LeafKernel mode_;
  double eps2_;
  GroupWindow<BoxShape<D>>* window_;
  JoinWork* work_;
  const ExecContext* ctx_;
  LeafJoinScratch<D> scratch_;  ///< the tile kernels' hit buffers
  /// unique_ptr slab: a tile keeps its address while the slab grows.
  std::vector<std::unique_ptr<Slot>> slots_;
  size_t in_use_ = 0;
  std::unordered_map<uint64_t, uint32_t> index_;  ///< key -> slot
  uint64_t tile_entries_ = 0;  ///< sum of the slots' capacities
  size_t max_visit_ = 0;
  uint64_t charged_ = 0;
  ScopedCharge charge_;
};

}  // namespace csj

#endif  // CSJ_CORE_LEAF_STAGE_H_
