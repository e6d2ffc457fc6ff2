#ifndef CSJ_INDEX_PAGED_TREE_H_
#define CSJ_INDEX_PAGED_TREE_H_

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geom/box.h"
#include "geom/point.h"
#include "index/spatial_index.h"
#include "index/tree_io.h"
#include "storage/buffer_pool.h"
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
/// makes it real: Open reads the CSJTREE1/2 file SaveTree (and so
/// `csj_tool build`) writes once, through WalkTreeFile (index/tree_io.h),
/// and keeps each node's leaf flag, MBR and payload span in memory —
/// mirroring how a real R-tree obtains child MBRs from the parent node it
/// has already read. Payloads are then read in place, on demand, through a
/// shared, thread-safe BufferPool (storage/buffer_pool.h) that counts actual
/// reads; block i covers file bytes [i * block_size, (i + 1) * block_size).
/// All join algorithms run unmodified on it — Children() and Entries()
/// return by value so cached blocks may be evicted mid-traversal — and, as
/// node ids and child order are the file's, write the bytes LoadTree's
/// in-memory tree of the same file writes. The descriptor pins the inode
/// Open validated, so replacing the file by rename changes nothing an open
/// tree reads; a payload rewritten in place that no longer decodes is
/// reported as kDataLoss.
///
/// Concurrency: reads go through `pread` on a plain file descriptor (no
/// shared seek position) and the pool pins blocks while they are being
/// decoded, so **concurrent reads are safe** (`kThreadSafeReads = true`) —
/// one PagedTree may back all workers of a parallel join.
///
/// Error handling: a read failure (short pread, injected fault) or a payload
/// that fails to decode is reported through the ExecContext the *operation*
/// passes in — the read trips that context and returns an empty node, so a
/// governed join unwinds with a clean Status at its next boundary instead of
/// crashing. The context is a per-call parameter (`Children(n, exec)` /
/// `Entries(n, exec)`), never tree state: one PagedTree is shared read-only
/// by many concurrent queries, each with its own deadline and cancel flag,
/// and a tree-level context would trip one query's governance into a
/// neighbor's reads (or dangle once that query finishes). Without a context
/// the historical behavior (CSJ_CHECK abort) is kept, since the SpatialIndex
/// read API has no error channel.

namespace csj {

/// Tuning knobs for the paged read path.
struct PagedTreeOptions {
  uint32_t block_size = 4096;   ///< read unit, in bytes (at least 256)
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

  /// Opens a CSJTREE1/2 file in place. The statuses are WalkTreeFile's
  /// (index/tree_io.h), except that a CSJTREE2 file failing a structure
  /// check is kDataLoss; a missing file is kNotFound and a block_size below
  /// 256 is kInvalidArgument.
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

 private:
  /// A node's leaf flag, MBR and payload span in the file.
  struct DirectoryEntry {
    uint64_t offset = 0;
    uint64_t length = 0;
    bool is_leaf = true;
    BoxT mbr;
  };

  PagedTree() = default;

  /// Fetches the raw payload bytes of a node through the block cache.
  Status FetchNodeBytes(NodeId n, std::vector<char>* out) const;

  /// Reads one block from disk (the pool's loader).
  Status LoadBlock(uint64_t block_index, std::vector<char>* out) const;

  /// Reports a read or decode failure: trips the caller's context when
  /// given, else aborts.
  void HandleReadError(NodeId n, const Status& status,
                       const ExecContext* exec) const;

  /// The decode failure of node `n`: a count that does not fill its span,
  /// or a child index past the node count.
  Status ChangedSinceOpen(NodeId n) const {
    return Status::DataLoss(StrFormat(
        "node %u of %s no longer decodes: the file changed since it was "
        "opened",
        n, path_.c_str()));
  }

  /// Fetches node `n`'s payload and item count, checking that `count` items
  /// of `item_bytes` fill the span Open recorded; false after reporting.
  bool FetchPayload(NodeId n, size_t item_bytes, const ExecContext* exec,
                    std::vector<char>* bytes, uint32_t* count) const;

  int fd_ = -1;
  std::string path_;
  PagedTreeOptions options_;
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

template <int D>
Result<PagedTree<D>> PagedTree<D>::Open(const std::string& path,
                                        const PagedTreeOptions& options) {
  if (options.block_size < 256) {
    return Status::InvalidArgument("block_size too small");
  }
  PagedTree tree;
  // One descriptor serves the validating walk and every later read, so the
  // tree reads exactly the inode it validated.
  tree.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (tree.fd_ < 0) return Status::NotFound("cannot open: " + path);
  tree.path_ = path;
  tree.options_ = options;
  if (tree.options_.cache_blocks < 1) tree.options_.cache_blocks = 1;

  TreeFileInfo info;
  Status walked = WalkTreeFile<D>(
      tree.fd_,
      [&](const TreeFileInfo& header) {
        info = header;
        return Status::OK();
      },
      [&](const TreeFileNode<D>& node) {
        tree.directory_.push_back({node.payload_offset, node.payload_bytes,
                                   node.is_leaf, node.mbr});
        return Status::OK();
      });
  // `info` is set only once the dimension matched, so an InvalidArgument
  // from a checksummed file here is a failed structure check: damage.
  if (info.checksummed && walked.code() == StatusCode::kInvalidArgument) {
    walked = Status::DataLoss(walked.message());
  }
  CSJ_RETURN_IF_ERROR(walked);
  tree.size_ = info.entries;
  tree.root_ = info.node_count == 0 ? kInvalidNode : info.root_index;

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
  const uint64_t file_offset = block_index * options_.block_size;
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
  CSJ_CHECK(false) << "cannot read node " << n << ": " << status.ToString();
}

template <int D>
bool PagedTree<D>::FetchPayload(NodeId n, size_t item_bytes,
                                const ExecContext* exec,
                                std::vector<char>* bytes,
                                uint32_t* count) const {
  const Status fetched = FetchNodeBytes(n, bytes);
  if (!fetched.ok()) {
    HandleReadError(n, fetched, exec);
    return false;
  }
  std::memcpy(count, bytes->data(), sizeof(*count));
  if (sizeof(*count) + uint64_t{*count} * item_bytes != bytes->size()) {
    HandleReadError(n, ChangedSinceOpen(n), exec);
    return false;
  }
  return true;
}

template <int D>
std::vector<NodeId> PagedTree<D>::Children(NodeId n,
                                           const ExecContext* exec) const {
  CSJ_DCHECK(!directory_[n].is_leaf);
  std::vector<char> bytes;
  uint32_t count = 0;
  if (!FetchPayload(n, sizeof(uint32_t), exec, &bytes, &count)) return {};
  std::vector<NodeId> children(count);
  const char* cursor = bytes.data() + sizeof(count);
  for (NodeId& child : children) {
    std::memcpy(&child, cursor, sizeof(child));
    cursor += sizeof(child);
    if (child >= directory_.size()) {
      HandleReadError(n, ChangedSinceOpen(n), exec);
      return {};
    }
  }
  return children;
}

template <int D>
std::vector<Entry<D>> PagedTree<D>::Entries(NodeId n,
                                            const ExecContext* exec) const {
  CSJ_DCHECK(directory_[n].is_leaf);
  constexpr size_t kCoordBytes = sizeof(double) * D;
  std::vector<char> bytes;
  uint32_t count = 0;
  if (!FetchPayload(n, sizeof(uint32_t) + kCoordBytes, exec, &bytes, &count)) {
    return {};
  }
  std::vector<EntryT> entries(count);
  const char* cursor = bytes.data() + sizeof(count);
  for (EntryT& e : entries) {
    std::memcpy(&e.id, cursor, sizeof(uint32_t));
    std::memcpy(e.point.coords.data(), cursor + sizeof(uint32_t), kCoordBytes);
    cursor += sizeof(uint32_t) + kCoordBytes;
  }
  return entries;
}

}  // namespace csj

#endif  // CSJ_INDEX_PAGED_TREE_H_
