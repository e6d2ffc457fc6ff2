#ifndef CSJ_CORE_LEAF_BATCH_H_
#define CSJ_CORE_LEAF_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "geom/kernels.h"

/// \file
/// The batched leaf-tile pipeline: a bounded queue of deferred leaf-level
/// work shared by the tree join drivers (core/similarity_join.h) and the EGO
/// join (core/ego.h).
///
/// Without batching, a driver joins each leaf (or leaf pair) the moment the
/// traversal reaches it: transpose the entries into SoA tiles, run the
/// kernel, emit. Two costs hide in that step ordering:
///
///  1. a leaf adjacent to many partners is re-transposed once per partner —
///     a real setup cost on dense data, where one leaf pairs with every
///     neighbor;
///  2. kernel invocations interleave with traversal work (shape tests, child
///     ordering), so tiles and kernel state leave cache between leaves.
///
/// The pipeline instead *defers*: tree descent enqueues LeafEvents — leaf
/// self-joins, leaf-pair joins, and (crucially) the early-stop group
/// emissions that interleave with them — into a bounded batch. Each distinct
/// leaf, identified by a driver-chosen 64-bit key, is transposed into a
/// cached LeafTile once per batch no matter how many pair events reference
/// it. When the batch fills (LeafBatch::kCapacity events) or the driver
/// reaches a barrier (end of run, end of checkpoint task), the executor
/// drains: all kernel work runs back to back over the resident tiles. The
/// tree and EGO drivers batch under every kernel but kNaive, which stays
/// the undeferred baseline.
///
/// **Output equivalence.** Events drain in enqueue order, which is exactly
/// traversal order; group events ride the same queue, so sinks and the
/// CSJ(g) merge window see links and groups in the same sequence as the
/// undeferred driver; and the kernels replay hits canonically
/// (geom/kernels.h). Output is therefore byte-identical with batching on or
/// off, for every algorithm and kernel mode. Reusing one tile across many
/// pair events is safe for the same reason: sweep bounds and prune
/// decisions are value-determined, whatever sort state a previous kernel
/// call left behind.
///
/// **Memory.** Resident tiles and the event queue answer to the driver's
/// MemoryBudget through the usual high-water ScopedCharge pattern: the
/// driver charges BytesResident() growth on every enqueue, and the bounded
/// event capacity caps how much can accumulate between drains.

namespace csj {

/// One deferred unit of leaf-level work. Leaf events reference batch tile
/// slots; group events carry driver-defined subtree identities (tree
/// NodeIds, EGO range keys) because their member collections are deferred to
/// drain time along with everything else.
struct LeafEvent {
  enum class Kind : uint8_t {
    kSelfLeaf,   ///< self-join of one leaf tile
    kPairLeaf,   ///< cross-join of two leaf tiles
    kGroup,      ///< early-stop group over one subtree / range
    kGroupPair,  ///< early-stop group over a pair of subtrees / ranges
  };
  Kind kind = Kind::kSelfLeaf;
  uint32_t tile_a = 0;
  uint32_t tile_b = 0;
  uint64_t id_a = 0;
  uint64_t id_b = 0;
};

/// The bounded batch: an event queue plus a per-batch tile cache. Owned by a
/// driver and reused across batches — Clear() recycles tile capacity, so
/// steady-state batches allocate nothing new.
template <int D>
class LeafBatch {
 public:
  /// Budget model of one resident tile entry: coordinate SoA + ids +
  /// original indices, doubled for the sort scratch, plus the permutation.
  static constexpr uint64_t kTileEntryBytes =
      2 * (D * sizeof(double) + sizeof(PointId) + sizeof(uint32_t)) +
      sizeof(uint32_t);

  /// Events buffered before the driver must drain. Output does not depend
  /// on it; 64 amortizes the transposes without holding many tiles.
  static constexpr size_t kCapacity = 64;

  /// Slot of the tile caching leaf `key`, invoking `load(tile)` only on the
  /// first reference this batch.
  template <typename LoadFn>
  uint32_t TileSlot(uint64_t key, LoadFn&& load) {
    auto [it, fresh] =
        slots_.try_emplace(key, static_cast<uint32_t>(tiles_in_use_));
    if (fresh) {
      if (tiles_in_use_ == tiles_.size()) {
        tiles_.push_back(std::make_unique<LeafTile<D>>());
      }
      load(*tiles_[tiles_in_use_]);
      tile_entries_ += tiles_[tiles_in_use_]->size();
      ++tiles_in_use_;
    }
    return it->second;
  }

  LeafTile<D>& Tile(uint32_t slot) { return *tiles_[slot]; }

  void PushSelf(uint32_t tile) {
    events_.push_back({LeafEvent::Kind::kSelfLeaf, tile, 0, 0, 0});
  }
  void PushPair(uint32_t tile_a, uint32_t tile_b) {
    events_.push_back({LeafEvent::Kind::kPairLeaf, tile_a, tile_b, 0, 0});
  }
  void PushGroup(uint64_t id) {
    events_.push_back({LeafEvent::Kind::kGroup, 0, 0, id, 0});
  }
  void PushGroupPair(uint64_t id_a, uint64_t id_b) {
    events_.push_back({LeafEvent::Kind::kGroupPair, 0, 0, id_a, id_b});
  }

  bool Full() const { return events_.size() >= kCapacity; }
  bool empty() const { return events_.empty(); }
  const std::vector<LeafEvent>& events() const { return events_; }

  /// Approximate bytes held right now, for high-water budget charging.
  uint64_t BytesResident() const {
    return tile_entries_ * kTileEntryBytes +
           events_.capacity() * sizeof(LeafEvent);
  }

  /// Forgets all events and tile keys; keeps tile + queue capacity.
  void Clear() {
    events_.clear();
    slots_.clear();
    tiles_in_use_ = 0;
    tile_entries_ = 0;
  }

 private:
  std::vector<LeafEvent> events_;
  /// unique_ptr slab: tiles keep stable addresses and their internal
  /// capacity as the vector grows.
  std::vector<std::unique_ptr<LeafTile<D>>> tiles_;
  size_t tiles_in_use_ = 0;
  uint64_t tile_entries_ = 0;
  std::unordered_map<uint64_t, uint32_t> slots_;
};

}  // namespace csj

#endif  // CSJ_CORE_LEAF_BATCH_H_
