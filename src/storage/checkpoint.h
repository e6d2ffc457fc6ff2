#ifndef CSJ_STORAGE_CHECKPOINT_H_
#define CSJ_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

/// \file
/// Durable checkpoint manifests for long-running joins ("CSJK" format v2).
///
/// A checkpointed join (core/checkpoint_join.h) periodically snapshots
/// everything needed to continue after a crash, kill or deadline:
///
///  * the committed task prefix — the index of the first task of the
///    deterministic task list whose output is not yet in the sink (every
///    task flushes its own CSJ(g) window, so no window state is pending);
///  * cumulative JoinStats work counters and curated metric counters, so a
///    resumed run reports exactly what an uninterrupted run would;
///  * the sink position — a durable byte offset at a committed CSJ2 block
///    boundary (binary) or record boundary (text), plus the payload of the
///    still-open block, so resumed block sealing stays byte-identical.
///
/// The manifest is written via OutputFile's atomic temp+rename commit with
/// fsync (file and directory), so at every instant the manifest on disk is
/// either the previous complete checkpoint or the new complete checkpoint.
/// A version header, explicit payload length and a CRC-32 over the payload
/// make truncation, bit rot and trailing garbage detectable: Parse() returns
/// a clean Status for any corruption, never crashes, and a resumed run
/// refuses to silently restart from zero.
///
/// Layout (little-endian):
///
///   Manifest := magic "CSJK" | version u32 | payload_len u64
///             | crc32(payload) u32 | payload
///
/// The payload is a fixed field sequence of varints (LEB128, shared with the
/// CSJ2 format) and fixed64 bit patterns for doubles; see Serialize() for
/// the order. docs/ROBUSTNESS.md ("Checkpoint & resume") is the normative
/// description. Version 1 (which also carried a thread count and the
/// pending window groups) is rejected by the version check.

namespace csj::checkpoint {

inline constexpr char kMagic[4] = {'C', 'S', 'J', 'K'};
inline constexpr uint32_t kVersion = 2;
/// magic + version + payload_len + payload crc.
inline constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4;

/// Cumulative JoinStats state (work counters + implied links + timing).
/// Output counters live in SinkState — the sink is their source of truth.
struct StatsState {
  uint64_t distance_computations = 0;
  uint64_t kernel_candidates = 0;
  uint64_t kernel_pruned = 0;
  uint64_t kernel_hits = 0;
  uint64_t node_accesses = 0;
  uint64_t page_requests = 0;
  uint64_t page_disk_reads = 0;
  uint64_t early_stops = 0;
  uint64_t merge_attempts = 0;
  uint64_t merges = 0;
  uint64_t implied_links = 0;
  double elapsed_seconds = 0.0;
  double write_seconds = 0.0;

  friend bool operator==(const StatsState&, const StatsState&) = default;
};

/// Everything needed to rebuild a sink mid-stream.
struct SinkState {
  uint8_t format = 0;  ///< OutputFormat as an integer
  uint32_t id_width = 0;
  /// Durable file offset of the last committed boundary; resume truncates
  /// the output file to exactly this many bytes.
  uint64_t committed_bytes = 0;
  /// JoinSink's format-aware byte accounting at the checkpoint.
  uint64_t accounted_bytes = 0;
  /// Open-block fill of the binary *size model* (0 under text accounting).
  /// Equals partial_payload.size() for a materializing binary sink, but is
  /// carried separately so counting sinks checkpoint exactly too.
  uint64_t model_fill = 0;
  uint64_t num_links = 0;
  uint64_t num_groups = 0;
  uint64_t group_member_total = 0;
  /// Binary format: footer id_total so far.
  uint64_t id_total = 0;
  /// Binary format: records in the still-open block.
  uint64_t partial_records = 0;
  /// Binary format: payload bytes of the still-open block (not yet sealed,
  /// not on disk; replayed into the resumed sink's block buffer).
  std::string partial_payload;

  friend bool operator==(const SinkState&, const SinkState&) = default;
};

/// The full checkpoint.
struct Manifest {
  /// Hash of every output-affecting configuration knob (algorithm, epsilon,
  /// window, ablations, format, tree shape). Resume refuses to continue
  /// under a different configuration.
  uint64_t config_fingerprint = 0;
  uint32_t dims = 0;
  uint64_t total_tasks = 0;
  /// Hash of the deterministic task list; a resume rebuilds the list and
  /// cross-checks before trusting next_task.
  uint64_t task_list_hash = 0;
  /// First task index not yet reflected in the sink position.
  uint64_t next_task = 0;
  StatsState stats;
  SinkState sink;
  /// Curated cumulative metric counters (join.*, sink.*, ... — see
  /// core/checkpoint_join.h), merged into the registry on resume.
  std::vector<std::pair<std::string, uint64_t>> metric_counters;

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

/// Serializes to the on-disk byte layout (header + CRC'd payload).
std::string Serialize(const Manifest& manifest);

/// Exact inverse of Serialize. Any truncation, checksum mismatch, version
/// skew or trailing garbage yields a descriptive non-OK Status.
Status Parse(const std::string& bytes, Manifest* manifest);

/// Atomically commits `manifest` to `path` (temp + rename, file and
/// directory fsync), so the path always holds a complete manifest.
Status Save(const std::string& path, const Manifest& manifest);

/// Loads and validates the manifest at `path`.
Result<Manifest> Load(const std::string& path);

/// Order-dependent 64-bit hash combiner (used for config fingerprints and
/// task-list hashes).
inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  // SplitMix64-style mixing of the accumulated state with the new value.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= (h >> 30);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= (h >> 27);
  return h;
}

}  // namespace csj::checkpoint

#endif  // CSJ_STORAGE_CHECKPOINT_H_
