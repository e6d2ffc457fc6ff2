#ifndef CSJ_SERVE_REGISTRY_H_
#define CSJ_SERVE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/paged_tree.h"
#include "plan/estimator.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file
/// Named dataset registry: the shared state csj_serve reads on every query,
/// organized as refcounted immutable *epochs* so datasets can be replaced
/// while queries are in flight.
///
/// Each registered name maps to one epoch: an immutable, fully-validated
/// `Dataset` (a disk-resident PagedTree plus the planner's sketch) held by
/// `shared_ptr`. A query pins the epoch it starts on via `Find()` and keeps
/// that pin for its whole run, so the bytes it streams are decided entirely
/// by its own epoch — a concurrent `Reload` swapping in epoch N+1 is
/// invisible to a query that started on epoch N, which completes
/// byte-identically to a one-shot run over the old image.
///
/// Admin lifecycle:
///
///   * `Load`   — register a new name. The replacement is built and
///     validated *fully* (open, header/CRC checks, and a governed full leaf
///     walk that doubles as the sketch sample) before it becomes visible.
///   * `Reload` — replace an existing name. Validation happens on the new
///     epoch while the old one keeps serving; only after the new epoch is
///     good is the map entry atomically swapped. A failed reload changes
///     nothing — the old epoch serves on.
///   * `Unload` — drop a name. In-flight queries still hold their pins; the
///     epoch's memory (block cache charges against the registry budget) is
///     released only when the last pin drops.
///
/// A CSJTREE1/2 index (what `csj_tool build` writes) is served in place:
/// PagedTree::Open reads it once to check it and keep its directory, and no
/// copy is made, so a load needs neither memory for the whole tree nor write
/// access to the index's directory. Served and one-shot joins read the same
/// file, node ids and child order, which is why a served join writes the
/// bytes of `csj_tool join --index` over that file. The epoch's descriptor
/// pins the inode it opened: replace a served index by rename, then reload.
/// A point text file is bulk-loaded, saved as a temporary index next to the
/// source, opened, and the temporary is unlinked at once (also on every
/// failure path), so the open descriptor is its only reference.
///
/// All block caches charge one registry-wide MemoryBudget, which the server
/// also parents every per-query budget under — a single ceiling governs the
/// whole process.
///
/// Thread safety: every method is safe from any thread (admin ops arrive on
/// server workers while queries look names up). Epoch construction and
/// validation run outside the registry lock; only the final map swap holds
/// it.

namespace csj::serve {

/// The server is 2-D, like csj_tool (the common GIS case); the underlying
/// library is dimension-generic.
inline constexpr int kServeDim = 2;

/// One dataset to load or reload.
struct DatasetSpec {
  std::string name;
  /// A CSJTREE1/2 index, or a point text file (anything that does not
  /// begin with a tree magic).
  std::string path;
  size_t cache_blocks = 1024;   ///< per-dataset block cache capacity
};

/// Number of live `Dataset` epochs in the process (every construction
/// increments, every destruction decrements; also exported as the
/// `serve.live_epochs` gauge). The chaos harness asserts this returns to
/// its baseline once reload churn stops — the epoch-leak check.
int64_t LiveEpochCount();

/// One immutable epoch of a dataset: the shared read-only tree plus display
/// facts and the planner's sketch. Never mutated after registration.
struct Dataset {
  std::string name;
  std::string source_path;
  uint64_t epoch = 0;  ///< registry-wide monotonic generation number
  uint64_t num_points = 0;
  int id_width = 0;
  PagedTree<kServeDim> tree;

  /// plan::SketchTree(tree), built once at load time; read-only afterwards,
  /// so "algo":"auto" queries plan concurrently without touching the disk
  /// image, and plan as csj_tool does over the same index.
  plan::DatasetSketch sketch;

  explicit Dataset(PagedTree<kServeDim> t);
  ~Dataset();
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
};

class DatasetRegistry {
 public:
  /// `memory_budget_bytes` caps block caches *and* (via the server) every
  /// per-query reservation; 0 = unlimited.
  explicit DatasetRegistry(uint64_t memory_budget_bytes = 0)
      : budget_(memory_budget_bytes) {}

  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// Builds, validates and registers a new dataset. Duplicate names are an
  /// error (use Reload to replace). On failure nothing is registered and no
  /// temp files remain.
  Status Load(const DatasetSpec& spec);

  /// Replaces an existing dataset with a freshly built and validated epoch.
  /// The swap is atomic: until the new epoch has passed every check the old
  /// one keeps serving, and a failure leaves the registry untouched.
  /// In-flight queries keep streaming from the epoch they pinned.
  Status Reload(const DatasetSpec& spec);

  /// Unregisters `name`. Queries that already pinned the epoch finish
  /// normally; its memory is released when the last pin drops.
  Status Unload(const std::string& name);

  /// Pins and returns the current epoch of `name`, or nullptr when the name
  /// is unknown. Hold the returned pointer for the whole query: it is the
  /// epoch pin.
  std::shared_ptr<const Dataset> Find(const std::string& name) const;

  /// Pins of all current epochs, sorted by name.
  std::vector<std::shared_ptr<const Dataset>> All() const;

  /// Registered names (current epochs only), for logs and tests.
  size_t size() const;

  /// The registry-wide budget (thread-safe; shared with the server).
  MemoryBudget* budget() { return &budget_; }

 private:
  /// Builds and fully validates one epoch outside the lock. The temporary
  /// index of a point file never survives this call, success or failure.
  Result<std::shared_ptr<Dataset>> BuildEpoch(const DatasetSpec& spec);

  MemoryBudget budget_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Dataset>> datasets_;
  std::atomic<uint64_t> next_epoch_{1};
  std::atomic<uint64_t> temp_seq_{0};  ///< unique temp names under concurrency
};

}  // namespace csj::serve

#endif  // CSJ_SERVE_REGISTRY_H_
