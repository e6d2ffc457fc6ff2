#ifndef CSJ_INDEX_PAGED_TREE_H_
#define CSJ_INDEX_PAGED_TREE_H_

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/box.h"
#include "geom/point.h"
#include "index/spatial_index.h"
#include "storage/buffer_pool.h"
#include "storage/output_file.h"
#include "util/exec_context.h"
#include "util/failpoint.h"
#include "util/format.h"
#include "util/status.h"

/// \file
/// Disk-resident read path: a similarity join running straight off a tree
/// file through a real block cache.
///
/// The paper's experiments measure joins over disk-resident R*-trees. The
/// in-memory trees plus the NodeAccessTracker *simulate* that; PagedTree
/// makes it real: WritePagedTree lays an R-tree/R*-tree out into fixed-size
/// blocks in a file, and PagedTree::Open serves the SpatialIndex interface
/// by reading blocks on demand (pread) through a shared, thread-safe
/// BufferPool (storage/buffer_pool.h), counting actual reads. All join
/// algorithms run unmodified on it — Children() and Entries() return by
/// value so cached blocks may be evicted mid-traversal.
///
/// Concurrency: reads go through `pread` on a plain file descriptor (no
/// shared seek position) and the pool pins blocks while they are being
/// decoded, so **concurrent reads are safe** (`kThreadSafeReads = true`) —
/// one PagedTree may back all workers of a parallel join.
///
/// Error handling: an IO failure (short pread, injected fault) is reported
/// through the ExecContext the *operation* passes in — the read trips that
/// context and returns an empty node, so a governed join unwinds with a
/// clean Status at its next boundary instead of crashing. The context is a
/// per-call parameter (`Children(n, exec)` / `Entries(n, exec)`), never
/// tree state: one PagedTree is shared read-only by many concurrent
/// queries, each with its own deadline and cancel flag, and a tree-level
/// context would trip one query's governance into a neighbor's reads (or
/// dangle once that query finishes). Without a context the historical
/// behavior (CSJ_CHECK abort) is kept, since the SpatialIndex read API has
/// no error channel.
///
/// Directory information (per-node MBR + leaf flag) is kept in memory after
/// Open, mirroring how a real R-tree obtains child MBRs from the parent
/// node it has already read; only node payloads (entry coordinates, child
/// lists) go through the block cache.
///
/// File format "CSJPAGE1" (little-endian):
///   magic | u32 dim | u32 block_size | u64 entries | u32 node_count
///   | u32 root
///   node table: per node { u64 offset, u32 length, u8 is_leaf,
///                          2*D f64 mbr }
///   blob area: node payloads, each fully contained in as few blocks as
///   alignment allows; leaf payload = u32 count + count * (u32 id, D f64),
///   internal payload = u32 count + count * u32 child-index.

namespace csj {

/// Tuning knobs for the paged read path.
struct PagedTreeOptions {
  uint32_t block_size = 4096;   ///< write-time layout / read-time IO unit
  size_t cache_blocks = 256;    ///< capacity of the block cache, in blocks
  /// Optional memory budget cached blocks are charged against (not owned;
  /// thread-safe). Under pressure the pool sheds clean blocks before a read
  /// fails with kResourceExhausted.
  MemoryBudget* budget = nullptr;
};

/// Real IO counters of a PagedTree.
struct PagedIoStats {
  uint64_t block_requests = 0;
  uint64_t block_cache_hits = 0;
  uint64_t disk_reads = 0;      ///< actual pread calls (block misses)
  uint64_t node_decodes = 0;

  std::string ToString() const {
    return StrFormat(
        "block_requests=%llu hits=%llu disk_reads=%llu node_decodes=%llu",
        static_cast<unsigned long long>(block_requests),
        static_cast<unsigned long long>(block_cache_hits),
        static_cast<unsigned long long>(disk_reads),
        static_cast<unsigned long long>(node_decodes));
  }
};

/// Serializes any box tree (public API only) into the paged layout.
template <typename Tree>
Status WritePagedTree(const Tree& tree, const std::string& path,
                      const PagedTreeOptions& options = PagedTreeOptions());

/// Read-only disk-resident tree satisfying SpatialIndex.
template <int D>
class PagedTree {
 public:
  static constexpr int kDim = D;
  /// pread + pinned pool blocks: safe for concurrent readers.
  static constexpr bool kThreadSafeReads = true;
  using PointT = Point<D>;
  using BoxT = Box<D>;
  using EntryT = Entry<D>;
  using ShapeT = BoxT;

  /// Opens a file written by WritePagedTree.
  static Result<PagedTree> Open(const std::string& path,
                                const PagedTreeOptions& options =
                                    PagedTreeOptions());

  PagedTree(PagedTree&& other) noexcept { *this = std::move(other); }
  PagedTree& operator=(PagedTree&& other) noexcept {
    if (this == &other) return *this;
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    options_ = other.options_;
    blob_start_ = other.blob_start_;
    size_ = other.size_;
    root_ = other.root_;
    directory_ = std::move(other.directory_);
    pool_ = std::move(other.pool_);
    node_decodes_.store(other.node_decodes_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    baseline_ = other.baseline_;
    decode_baseline_ = other.decode_baseline_;
    return *this;
  }
  PagedTree(const PagedTree&) = delete;
  PagedTree& operator=(const PagedTree&) = delete;
  ~PagedTree() {
    pool_.reset();  // release budget charges before the fd goes away
    if (fd_ >= 0) ::close(fd_);
  }

  // --- SpatialIndex concept ---------------------------------------------------

  NodeId Root() const { return root_; }
  bool IsLeaf(NodeId n) const { return directory_[n].is_leaf; }

  /// Child ids, by value: safe across block-cache evictions. The ungoverned
  /// form aborts on an IO failure (the concept has no error channel); pass
  /// the calling query's context to turn read faults into a clean trip.
  std::vector<NodeId> Children(NodeId n) const { return Children(n, nullptr); }
  std::vector<NodeId> Children(NodeId n, const ExecContext* exec) const;

  /// Leaf entries, by value; same governance contract as Children.
  std::vector<EntryT> Entries(NodeId n) const { return Entries(n, nullptr); }
  std::vector<EntryT> Entries(NodeId n, const ExecContext* exec) const;

  double MaxDiameter(NodeId n) const { return directory_[n].mbr.Diagonal(); }
  double MaxDiameter(NodeId a, NodeId b) const {
    return BoxT::Union(directory_[a].mbr, directory_[b].mbr).Diagonal();
  }
  double MinDistance(NodeId a, NodeId b) const {
    return csj::MinDistance(directory_[a].mbr, directory_[b].mbr);
  }
  const BoxT& Shape(NodeId n) const { return directory_[n].mbr; }

  uint64_t size() const { return size_; }
  uint64_t NodeCount() const { return directory_.size(); }
  bool empty() const { return directory_.empty(); }

  /// Real IO statistics since Open/ResetIoStats. Snapshot by value (the
  /// counters are concurrently updated).
  PagedIoStats io_stats() const {
    const BufferPool::StatsSnapshot s = pool_->stats();
    PagedIoStats io;
    io.block_requests = s.requests - baseline_.requests;
    io.block_cache_hits = s.hits - baseline_.hits;
    io.disk_reads = s.misses - baseline_.misses;
    io.node_decodes =
        node_decodes_.load(std::memory_order_relaxed) - decode_baseline_;
    return io;
  }
  void ResetIoStats() {
    baseline_ = pool_->stats();
    decode_baseline_ = node_decodes_.load(std::memory_order_relaxed);
  }

  /// The underlying block cache (e.g. to ShedClean between phases).
  BufferPool& pool() const { return *pool_; }

 private:
  struct DirectoryEntry {
    uint64_t offset = 0;
    uint32_t length = 0;
    bool is_leaf = true;
    BoxT mbr;
  };

  PagedTree() = default;

  /// Fetches the raw payload bytes of a node through the block cache.
  Status FetchNodeBytes(NodeId n, std::vector<char>* out) const;

  /// Reads one block from disk (the pool's loader).
  Status LoadBlock(uint64_t block_index, std::vector<char>* out) const;

  /// Reports a read failure: trips the caller's context when given, else
  /// aborts.
  void HandleReadError(NodeId n, const Status& status,
                       const ExecContext* exec) const;

  int fd_ = -1;
  std::string path_;
  PagedTreeOptions options_;
  uint64_t blob_start_ = 0;
  uint64_t size_ = 0;
  NodeId root_ = kInvalidNode;
  std::vector<DirectoryEntry> directory_;

  mutable std::unique_ptr<BufferPool> pool_;
  mutable std::atomic<uint64_t> node_decodes_{0};
  // ResetIoStats baselines (the pool's counters are monotonic).
  mutable BufferPool::StatsSnapshot baseline_{};
  mutable uint64_t decode_baseline_ = 0;
};

// --- Implementation ---------------------------------------------------------------

namespace paged_internal {

inline constexpr char kMagic[8] = {'C', 'S', 'J', 'P', 'A', 'G', 'E', '1'};

inline bool ReadRaw(std::FILE* f, void* data, size_t size) {
  return std::fread(data, 1, size, f) == size;
}

template <typename T>
void AppendPod(std::vector<char>* out, const T& value) {
  const char* raw = reinterpret_cast<const char*>(&value);
  out->insert(out->end(), raw, raw + sizeof(T));
}

template <typename T>
bool ReadPod(const std::vector<char>& in, size_t* pos, T* value) {
  if (*pos + sizeof(T) > in.size()) return false;
  std::memcpy(value, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace paged_internal

template <typename Tree>
Status WritePagedTree(const Tree& tree, const std::string& path,
                      const PagedTreeOptions& options) {
  namespace pi = paged_internal;
  constexpr int D = Tree::kDim;
  if (options.block_size < 256) {
    return Status::InvalidArgument("block_size too small");
  }

  // Pre-order enumeration via the public API.
  std::vector<NodeId> order;
  std::unordered_map<NodeId, uint32_t> remap;
  if (tree.Root() != kInvalidNode) {
    std::vector<NodeId> stack = {tree.Root()};
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      remap[n] = static_cast<uint32_t>(order.size());
      order.push_back(n);
      if (!tree.IsLeaf(n)) {
        for (NodeId c : tree.Children(n)) stack.push_back(c);
      }
    }
  }

  // Encode payloads and assign block-aligned offsets: a payload never spans
  // a block boundary unless it is bigger than one block.
  std::vector<std::vector<char>> payloads(order.size());
  std::vector<uint64_t> offsets(order.size());
  uint64_t cursor = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    std::vector<char>& payload = payloads[i];
    const NodeId n = order[i];
    if (tree.IsLeaf(n)) {
      const auto entries = tree.Entries(n);
      pi::AppendPod(&payload, static_cast<uint32_t>(entries.size()));
      for (const auto& e : entries) {
        pi::AppendPod(&payload, static_cast<uint32_t>(e.id));
        for (int d = 0; d < D; ++d) pi::AppendPod(&payload, e.point[d]);
      }
    } else {
      const auto children = tree.Children(n);
      pi::AppendPod(&payload, static_cast<uint32_t>(children.size()));
      for (NodeId c : children) pi::AppendPod(&payload, remap.at(c));
    }
    const uint64_t block = options.block_size;
    if (cursor / block != (cursor + payload.size() - 1) / block &&
        payload.size() <= block) {
      cursor = (cursor / block + 1) * block;  // bump to next block boundary
    }
    offsets[i] = cursor;
    cursor += payload.size();
  }

  // Header and node table; the payloads already sit in memory and are
  // appended from there.
  std::vector<char> head;
  const uint32_t dim = D;
  const uint32_t block_size = options.block_size;
  const uint64_t entries = tree.size();
  const uint32_t node_count = static_cast<uint32_t>(order.size());
  const uint32_t root = 0;  // pre-order: the root is always first
  head.insert(head.end(), pi::kMagic, pi::kMagic + 8);
  pi::AppendPod(&head, dim);
  pi::AppendPod(&head, block_size);
  pi::AppendPod(&head, entries);
  pi::AppendPod(&head, node_count);
  pi::AppendPod(&head, root);
  for (size_t i = 0; i < order.size(); ++i) {
    const NodeId n = order[i];
    const auto& mbr = tree.NodeBox(n);
    pi::AppendPod(&head, offsets[i]);
    pi::AppendPod(&head, static_cast<uint32_t>(payloads[i].size()));
    pi::AppendPod(&head, static_cast<uint8_t>(tree.IsLeaf(n) ? 1 : 0));
    for (int d = 0; d < D; ++d) pi::AppendPod(&head, mbr.lo[d]);
    for (int d = 0; d < D; ++d) pi::AppendPod(&head, mbr.hi[d]);
  }

  // Atomic commit: a failed or killed write leaves the previous image at
  // `path` untouched.
  OutputFile file;
  CSJ_RETURN_IF_ERROR(file.Open(path, OutputFile::Options{.atomic = true}));
  CSJ_RETURN_IF_ERROR(AppendInChunks(&file, head.data(), head.size()));
  // Blob area, zero-padded to honor the assigned offsets.
  const std::vector<char> zeros(4096, 0);
  uint64_t written = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    while (written < offsets[i]) {
      const size_t pad = static_cast<size_t>(
          std::min<uint64_t>(offsets[i] - written, zeros.size()));
      CSJ_RETURN_IF_ERROR(file.Append(zeros.data(), pad));
      written += pad;
    }
    CSJ_RETURN_IF_ERROR(
        AppendInChunks(&file, payloads[i].data(), payloads[i].size()));
    written += payloads[i].size();
  }
  return file.Close();
}

template <int D>
Result<PagedTree<D>> PagedTree<D>::Open(const std::string& path,
                                        const PagedTreeOptions& options) {
  namespace pi = paged_internal;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);

  PagedTree tree;
  tree.path_ = path;
  tree.options_ = options;

  char magic[8];
  uint32_t dim = 0, block_size = 0, node_count = 0, root = 0;
  uint64_t entries = 0;
  if (!pi::ReadRaw(f, magic, 8) || std::memcmp(magic, pi::kMagic, 8) != 0) {
    std::fclose(f);
    return Status::InvalidArgument("not a CSJPAGE1 file: " + path);
  }
  if (!pi::ReadRaw(f, &dim, 4) || !pi::ReadRaw(f, &block_size, 4) ||
      !pi::ReadRaw(f, &entries, 8) || !pi::ReadRaw(f, &node_count, 4) ||
      !pi::ReadRaw(f, &root, 4)) {
    std::fclose(f);
    return Status::IoError("truncated header: " + path);
  }
  if (dim != static_cast<uint32_t>(D)) {
    std::fclose(f);
    return Status::InvalidArgument(
        StrFormat("dimension mismatch: file %u, tree %d", dim, D));
  }
  tree.options_.block_size = block_size;
  if (tree.options_.cache_blocks < 1) tree.options_.cache_blocks = 1;
  tree.size_ = entries;
  tree.directory_.resize(node_count);
  for (auto& entry : tree.directory_) {
    uint8_t is_leaf = 0;
    if (!pi::ReadRaw(f, &entry.offset, 8) ||
        !pi::ReadRaw(f, &entry.length, 4) || !pi::ReadRaw(f, &is_leaf, 1) ||
        !pi::ReadRaw(f, entry.mbr.lo.data(), sizeof(double) * D) ||
        !pi::ReadRaw(f, entry.mbr.hi.data(), sizeof(double) * D)) {
      std::fclose(f);
      return Status::IoError("truncated node table: " + path);
    }
    entry.is_leaf = is_leaf != 0;
  }
  tree.blob_start_ = static_cast<uint64_t>(std::ftell(f));
  std::fclose(f);
  tree.root_ = node_count == 0 ? kInvalidNode : root;

  // Reopen as a plain descriptor: pread has no shared seek position, which
  // is what makes concurrent reads safe.
  tree.fd_ = ::open(path.c_str(), O_RDONLY);
  if (tree.fd_ < 0) return Status::IoError("cannot reopen: " + path);

  BufferPool::Options pool_options;
  pool_options.capacity_pages = tree.options_.cache_blocks;
  pool_options.budget = tree.options_.budget;
  tree.pool_ = std::make_unique<BufferPool>(pool_options);
  return tree;
}

template <int D>
Status PagedTree<D>::LoadBlock(uint64_t block_index,
                               std::vector<char>* out) const {
  if (CSJ_FAILPOINT("paged_tree.read")) {
    return Status::IoError(
        StrFormat("injected read fault at block %llu of %s",
                  static_cast<unsigned long long>(block_index),
                  path_.c_str()));
  }
  out->resize(options_.block_size);
  const uint64_t file_offset =
      blob_start_ + block_index * options_.block_size;
  size_t got = 0;
  while (got < out->size()) {
    const ssize_t n =
        ::pread(fd_, out->data() + got, out->size() - got,
                static_cast<off_t>(file_offset + got));
    if (n < 0) return Status::IoError("pread failed: " + path_);
    if (n == 0) break;  // EOF: the last block may be short
    got += static_cast<size_t>(n);
  }
  out->resize(got);
  return Status::OK();
}

template <int D>
Status PagedTree<D>::FetchNodeBytes(NodeId n, std::vector<char>* out) const {
  const DirectoryEntry& entry = directory_[n];
  out->clear();
  out->reserve(entry.length);
  uint64_t remaining = entry.length;
  uint64_t position = entry.offset;
  while (remaining > 0) {
    const uint64_t block_index = position / options_.block_size;
    const uint64_t within = position % options_.block_size;
    CSJ_ASSIGN_OR_RETURN(
        BufferPool::PageRef block,
        pool_->Fetch(block_index, [this](uint64_t index,
                                         std::vector<char>* bytes) {
          return LoadBlock(index, bytes);
        }));
    const std::vector<char>& data = block.data();
    if (within >= data.size()) {
      return Status::IoError("node payload past end of file: " + path_);
    }
    const uint64_t take = std::min<uint64_t>(remaining, data.size() - within);
    out->insert(out->end(), data.data() + within,
                data.data() + within + take);
    remaining -= take;
    position += take;
  }
  node_decodes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

template <int D>
void PagedTree<D>::HandleReadError(NodeId n, const Status& status,
                                   const ExecContext* exec) const {
  if (exec != nullptr) {
    exec->Trip(status);
    return;
  }
  CSJ_CHECK(false) << "IO error reading node " << n << ": "
                   << status.ToString();
}

template <int D>
std::vector<NodeId> PagedTree<D>::Children(NodeId n,
                                           const ExecContext* exec) const {
  CSJ_DCHECK(!directory_[n].is_leaf);
  std::vector<char> bytes;
  const Status fetched = FetchNodeBytes(n, &bytes);
  if (!fetched.ok()) {
    HandleReadError(n, fetched, exec);
    return {};
  }
  size_t pos = 0;
  uint32_t count = 0;
  CSJ_CHECK(paged_internal::ReadPod(bytes, &pos, &count));
  std::vector<NodeId> children(count);
  for (auto& child : children) {
    uint32_t idx = 0;
    CSJ_CHECK(paged_internal::ReadPod(bytes, &pos, &idx));
    CSJ_CHECK(idx < directory_.size()) << "corrupt child index";
    child = idx;
  }
  return children;
}

template <int D>
std::vector<Entry<D>> PagedTree<D>::Entries(NodeId n,
                                            const ExecContext* exec) const {
  CSJ_DCHECK(directory_[n].is_leaf);
  std::vector<char> bytes;
  const Status fetched = FetchNodeBytes(n, &bytes);
  if (!fetched.ok()) {
    HandleReadError(n, fetched, exec);
    return {};
  }
  size_t pos = 0;
  uint32_t count = 0;
  CSJ_CHECK(paged_internal::ReadPod(bytes, &pos, &count));
  std::vector<EntryT> entries(count);
  for (auto& e : entries) {
    uint32_t id = 0;
    CSJ_CHECK(paged_internal::ReadPod(bytes, &pos, &id));
    e.id = id;
    for (int d = 0; d < D; ++d) {
      CSJ_CHECK(paged_internal::ReadPod(bytes, &pos, &e.point[d]));
    }
  }
  return entries;
}

}  // namespace csj

#endif  // CSJ_INDEX_PAGED_TREE_H_
