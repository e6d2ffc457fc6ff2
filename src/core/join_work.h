#ifndef CSJ_CORE_JOIN_WORK_H_
#define CSJ_CORE_JOIN_WORK_H_

#include <cstdint>

/// \file
/// The work a join did: its ten work counters and two timings, listed once.
/// JoinStats (core/join_stats.h) derives from JoinWork, and the checkpoint
/// manifest (storage/checkpoint.h) stores one, so adding up a run's tasks,
/// the stats JSON and the manifest codec all walk ForEachField. The header
/// depends on nothing, so the storage layer can include it.

namespace csj {

struct JoinWork {
  uint64_t distance_computations = 0;
  /// Leaf-kernel accounting (geom/kernels.h): raw leaf pair space, pairs the
  /// plane sweep discarded on the 1-D bound alone, and in-range pairs.
  /// distance_computations == kernel_candidates - kernel_pruned + any
  /// non-leaf distance work. Zero for drivers that bypass the kernel layer.
  uint64_t kernel_candidates = 0;
  uint64_t kernel_pruned = 0;
  uint64_t kernel_hits = 0;
  uint64_t node_accesses = 0;   ///< node visits (0 if no tracker installed)
  uint64_t page_requests = 0;   ///< simulated page requests
  uint64_t page_disk_reads = 0; ///< simulated LRU misses
  uint64_t early_stops = 0;     ///< subtree groups from the stopping rule
  uint64_t merge_attempts = 0;  ///< link-into-group trials (CSJ)
  uint64_t merges = 0;          ///< successful merges (CSJ)

  double elapsed_seconds = 0.0;  ///< total join wall time (includes writes)
  double write_seconds = 0.0;    ///< sink time, if measure_write_time was set

  /// The field list: calls f(name, &JoinWork::field) for every field, the
  /// counters first, in the order the manifest stores them. `name` is the
  /// field's key in the stats JSON.
  template <typename F>
  static void ForEachField(F&& f) {
    f("distance_computations", &JoinWork::distance_computations);
    f("kernel_candidates", &JoinWork::kernel_candidates);
    f("kernel_pruned", &JoinWork::kernel_pruned);
    f("kernel_hits", &JoinWork::kernel_hits);
    f("node_accesses", &JoinWork::node_accesses);
    f("page_requests", &JoinWork::page_requests);
    f("page_disk_reads", &JoinWork::page_disk_reads);
    f("early_stops", &JoinWork::early_stops);
    f("merge_attempts", &JoinWork::merge_attempts);
    f("merges", &JoinWork::merges);
    f("elapsed_seconds", &JoinWork::elapsed_seconds);
    f("write_seconds", &JoinWork::write_seconds);
  }

  JoinWork& operator+=(const JoinWork& other) {
    ForEachField(
        [&](const char*, auto field) { this->*field += other.*field; });
    return *this;
  }

  friend bool operator==(const JoinWork&, const JoinWork&) = default;
};

}  // namespace csj

#endif  // CSJ_CORE_JOIN_WORK_H_
