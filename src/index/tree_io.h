#ifndef CSJ_INDEX_TREE_IO_H_
#define CSJ_INDEX_TREE_IO_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "geom/box.h"
#include "geom/point.h"
#include "index/box_tree.h"
#include "storage/binary_format.h"
#include "storage/output_file.h"
#include "util/format.h"
#include "util/status.h"

/// \file
/// Binary serialization of the MBR trees (RTree / RStarTree): the exact node
/// structure round-trips, so a server can build an index once, persist it,
/// and answer later join queries without rebuilding (the paper's Discussion
/// notes that tree creation is expensive in computation time and memory).
///
/// Format "CSJTREE2" (little-endian):
///   magic "CSJTREE2" | u32 crc32(body) | body
///   body := u32 dim | u32 max_fanout | u32 min_fanout
///           | u64 entry_count | u32 node_count | u32 root_index
///           | nodes in pre-order: u8 is_leaf | i32 level | 2*D f64 mbr |
///             u32 fanout | children (u32 pre-order indexes) or entries
///             (u32 id + D f64 coords)
///
/// The CRC (storage/binary_format.h's reflected CRC-32) covers everything
/// after the magic, so any truncation or bit flip is reported as a clean
/// `kDataLoss`. Version 1 files ("CSJTREE1", same body with no checksum)
/// remain readable; Save always writes v2.
///
/// WalkTreeFile is the one reader of this layout: LoadTree builds a tree from
/// its node records, PagedTree::Open (index/paged_tree.h) keeps each node's
/// MBR and payload span (the fanout field on) and reads payloads in place.

namespace csj {

namespace tree_io_internal {

inline bool ReadRaw(std::FILE* f, void* data, size_t size) {
  return std::fread(data, 1, size, f) == size;
}

inline constexpr char kMagicV1[8] = {'C', 'S', 'J', 'T', 'R', 'E', 'E', '1'};
inline constexpr char kMagicV2[8] = {'C', 'S', 'J', 'T', 'R', 'E', 'E', '2'};

/// Reads an 8-byte magic: true for a tree magic, with `*v2` telling which.
inline bool ReadTreeMagic(std::FILE* f, bool* v2) {
  char magic[8];
  if (!ReadRaw(f, magic, sizeof(magic))) return false;
  *v2 = std::memcmp(magic, kMagicV2, 8) == 0;
  return *v2 || std::memcmp(magic, kMagicV1, 8) == 0;
}

template <typename T>
void AppendPod(std::vector<char>* out, const T& value) {
  const char* raw = reinterpret_cast<const char*>(&value);
  out->insert(out->end(), raw, raw + sizeof(T));
}

inline void AppendBytes(std::vector<char>* out, const void* data,
                        size_t size) {
  const char* raw = static_cast<const char*>(data);
  out->insert(out->end(), raw, raw + size);
}

/// Reads a descriptor front to back in 64 KiB chunks with pread (no seek
/// position moves). After StartChecksum() every byte from the read position
/// on is folded into a CRC-32 as its chunk arrives.
class ChunkReader {
 public:
  explicit ChunkReader(int fd) : fd_(fd), chunk_(64 * 1024) {
    struct stat st;
    size_ = ::fstat(fd, &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
  }

  /// Copies the next `size` bytes; false at end of file or on a read error.
  bool Read(void* out, size_t size) {
    for (char* dst = static_cast<char*>(out); size > 0;) {
      if (pos_ == end_ && !Refill()) return false;
      const size_t take = std::min(size, end_ - pos_);
      std::memcpy(dst, chunk_.data() + pos_, take);
      pos_ += take;
      dst += take;
      size -= take;
    }
    return true;
  }
  template <typename T>
  bool ReadPod(T* out) {
    return Read(out, sizeof(T));
  }

  void StartChecksum() {
    checksumming_ = true;
    crc_ = binfmt::Crc32(chunk_.data() + pos_, end_ - pos_);
  }
  /// Reads to the end of the file, so the checksum covers every byte.
  void Drain() {
    while (Refill()) {
    }
  }

  /// File offset of the next unread byte, and the bytes after it.
  uint64_t offset() const { return read_ - (end_ - pos_); }
  uint64_t remaining() const { return size_ > offset() ? size_ - offset() : 0; }
  uint32_t crc() const { return crc_; }
  bool failed() const { return failed_; }

 private:
  bool Refill() {
    const ssize_t got =
        failed_ ? -1
                : ::pread(fd_, chunk_.data(), chunk_.size(),
                          static_cast<off_t>(read_));
    failed_ = got < 0;
    pos_ = 0;
    end_ = failed_ ? 0 : static_cast<size_t>(got);
    read_ += end_;
    if (checksumming_) crc_ = binfmt::Crc32(chunk_.data(), end_, crc_);
    return end_ > 0;
  }

  int fd_;
  std::vector<char> chunk_;
  size_t pos_ = 0, end_ = 0;
  uint64_t read_ = 0, size_ = 0;
  bool checksumming_ = false, failed_ = false;
  uint32_t crc_ = 0;
};

}  // namespace tree_io_internal

/// Header fields of a serialized tree.
struct TreeFileInfo {
  uint32_t dim = 0;
  uint32_t max_fanout = 0;
  uint32_t min_fanout = 0;
  uint64_t entries = 0;
  uint32_t node_count = 0;
  uint32_t root_index = 0;
  bool checksummed = false;  ///< CSJTREE2 (CSJTREE1 has no checksum)
};

/// One node record; `index`, its position in the file's pre-order, is its
/// node id. The payload spans [payload_offset, +payload_bytes): the u32
/// fanout, then the child indexes or entries, decoded into `children` or
/// `entries` (a visitor may move them out).
template <int D>
struct TreeFileNode {
  uint32_t index = 0;
  bool is_leaf = true;
  int32_t level = 0;
  Box<D> mbr;
  uint64_t payload_offset = 0;
  uint64_t payload_bytes = 0;
  std::vector<uint32_t> children;
  std::vector<Entry<D>> entries;
};

/// Reads the CSJTREE1/2 file open at `fd` once, front to back: calls
/// `on_header(const TreeFileInfo&)` once the dimension matched D, then
/// `on_node(TreeFileNode<D>&)` per node; an error from either ends the walk.
/// kDataLoss: shorter than the magic, a truncated checksum word, a short v2
/// body, or a checksum mismatch, which outranks any other verdict (the rest
/// of the file is read first). kInvalidArgument: a foreign magic, a
/// dimension mismatch, an index out of range or a fanout above the header's
/// maximum. kIoError: a short v1 body or a failed read.
template <int D, typename OnHeader, typename OnNode>
Status WalkTreeFile(int fd, OnHeader&& on_header, OnNode&& on_node) {
  namespace ti = tree_io_internal;
  ti::ChunkReader reader(fd);
  char magic[8];
  if (!reader.Read(magic, sizeof(magic))) {
    return Status::DataLoss("tree file shorter than its magic");
  }
  TreeFileInfo info;
  const bool v2 = info.checksummed = std::memcmp(magic, ti::kMagicV2, 8) == 0;
  if (!v2 && std::memcmp(magic, ti::kMagicV1, 8) != 0) {
    return Status::InvalidArgument("not a CSJTREE1/CSJTREE2 file");
  }
  uint32_t expected_crc = 0;
  if (v2) {
    if (!reader.ReadPod(&expected_crc)) {
      return Status::DataLoss("truncated CSJTREE2 checksum");
    }
    reader.StartChecksum();
  }
  auto finish = [&](Status parsed) {
    if (v2) reader.Drain();
    if (reader.failed()) return Status::IoError("read failed");
    if (v2 && reader.crc() != expected_crc) {
      return Status::DataLoss(StrFormat(
          "tree file checksum mismatch (stored %08x, computed %08x): the "
          "file is truncated or corrupt",
          expected_crc, reader.crc()));
    }
    return parsed;
  };
  // A short body: for v2 the checksum vouched for the bytes, so this is an
  // internal inconsistency; for v1 it is the historical truncation.
  auto malformed = [&] {
    return finish(v2 ? Status::DataLoss("malformed CSJTREE2 body")
                     : Status::IoError("truncated tree file"));
  };

  if (!reader.ReadPod(&info.dim) || !reader.ReadPod(&info.max_fanout) ||
      !reader.ReadPod(&info.min_fanout) || !reader.ReadPod(&info.entries) ||
      !reader.ReadPod(&info.node_count) || !reader.ReadPod(&info.root_index)) {
    return malformed();
  }
  if (info.dim != static_cast<uint32_t>(D)) {
    return finish(Status::InvalidArgument(
        StrFormat("dimension mismatch: file %u, tree %d", info.dim, D)));
  }
  if (Status s = on_header(info); !s.ok()) return finish(s);
  if (info.node_count == 0) return finish(Status::OK());
  if (info.root_index >= info.node_count) {
    return finish(Status::InvalidArgument("root index out of range"));
  }

  TreeFileNode<D> node;
  for (node.index = 0; node.index < info.node_count; ++node.index) {
    uint8_t is_leaf = 0;
    uint32_t fanout = 0;
    if (!reader.ReadPod(&is_leaf) || !reader.ReadPod(&node.level) ||
        !reader.Read(node.mbr.lo.data(), sizeof(double) * D) ||
        !reader.Read(node.mbr.hi.data(), sizeof(double) * D)) {
      return malformed();
    }
    node.is_leaf = is_leaf != 0;
    node.payload_offset = reader.offset();
    if (!reader.ReadPod(&fanout)) return malformed();
    if (fanout > info.max_fanout) {
      return finish(Status::InvalidArgument("node fanout exceeds max"));
    }
    // The header is not vouched for yet: a fanout the rest of the file
    // cannot hold is a short body, found before anything is allocated.
    const uint64_t item_bytes =
        node.is_leaf ? sizeof(uint32_t) + sizeof(double) * D : sizeof(uint32_t);
    if (fanout * item_bytes > reader.remaining()) return malformed();
    node.children.resize(node.is_leaf ? 0 : fanout);
    node.entries.resize(node.is_leaf ? fanout : 0);
    for (Entry<D>& e : node.entries) {
      if (!reader.ReadPod(&e.id) ||
          !reader.Read(e.point.coords.data(), sizeof(double) * D)) {
        return malformed();
      }
    }
    for (uint32_t& child : node.children) {
      if (!reader.ReadPod(&child)) return malformed();
      if (child >= info.node_count) {
        return finish(Status::InvalidArgument("child index out of range"));
      }
    }
    node.payload_bytes = reader.offset() - node.payload_offset;
    if (Status s = on_node(node); !s.ok()) return finish(s);
  }
  return finish(Status::OK());
}

/// Serializer with friend access to the tree internals.
template <typename Tree>
class TreeSerializer {
 public:
  static constexpr int D = Tree::kDim;
  using Node = typename Tree::Node;

  /// Writes through OutputFile's atomic commit: a failed or killed save
  /// leaves the previous file at `path` untouched.
  static Status Save(const Tree& tree, const std::string& path) {
    namespace ti = tree_io_internal;
    const std::vector<char> body = EncodeBody(tree);
    const uint32_t crc = binfmt::Crc32(body.data(), body.size());
    std::string header(ti::kMagicV2, sizeof(ti::kMagicV2));
    header.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    OutputFile file;
    CSJ_RETURN_IF_ERROR(file.Open(path, OutputFile::Options{.atomic = true}));
    CSJ_RETURN_IF_ERROR(file.Append(header));
    CSJ_RETURN_IF_ERROR(AppendInChunks(&file, body.data(), body.size()));
    return file.Close();
  }

  static Status Load(Tree* tree, const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::NotFound("cannot open: " + path);
    Status status = LoadFrom(tree, fd);
    ::close(fd);
    return status;
  }

 private:
  /// The checksummed body: everything after the magic and the CRC.
  static std::vector<char> EncodeBody(const Tree& tree) {
    namespace ti = tree_io_internal;
    // Collect live nodes in pre-order and build the id remap.
    std::vector<NodeId> order;
    std::vector<uint32_t> remap(tree.arena_.size(), 0);
    if (!tree.empty()) {
      std::vector<NodeId> stack = {tree.root_};
      while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        remap[id] = static_cast<uint32_t>(order.size());
        order.push_back(id);
        const Node& nd = tree.arena_[id];
        if (!nd.is_leaf) {
          for (NodeId child : nd.children) stack.push_back(child);
        }
      }
    }

    // Serialize to memory so the checksum can cover all of it.
    std::vector<char> body;
    const uint32_t dim = D;
    const uint32_t max_fanout = static_cast<uint32_t>(tree.max_fanout_);
    const uint32_t min_fanout = static_cast<uint32_t>(tree.min_fanout_);
    const uint64_t entries = tree.size_;
    const uint32_t node_count = static_cast<uint32_t>(order.size());
    const uint32_t root_index = order.empty() ? 0 : remap[tree.root_];
    ti::AppendPod(&body, dim);
    ti::AppendPod(&body, max_fanout);
    ti::AppendPod(&body, min_fanout);
    ti::AppendPod(&body, entries);
    ti::AppendPod(&body, node_count);
    ti::AppendPod(&body, root_index);

    for (const NodeId id : order) {
      const Node& nd = tree.arena_[id];
      ti::AppendPod(&body, static_cast<uint8_t>(nd.is_leaf ? 1 : 0));
      ti::AppendPod(&body, static_cast<int32_t>(nd.level));
      ti::AppendBytes(&body, nd.mbr.lo.data(), sizeof(double) * D);
      ti::AppendBytes(&body, nd.mbr.hi.data(), sizeof(double) * D);
      ti::AppendPod(&body, static_cast<uint32_t>(nd.fanout()));
      if (nd.is_leaf) {
        for (const auto& e : nd.entries) {
          ti::AppendPod(&body, static_cast<uint32_t>(e.id));
          ti::AppendBytes(&body, e.point.coords.data(), sizeof(double) * D);
        }
      } else {
        for (NodeId child : nd.children) {
          ti::AppendPod(&body, remap[child]);
        }
      }
    }

    return body;
  }

  static Status LoadFrom(Tree* tree, int fd) {
    if (!tree->empty()) {
      return Status::FailedPrecondition("Load requires an empty tree");
    }
    TreeFileInfo info;
    CSJ_RETURN_IF_ERROR(WalkTreeFile<D>(
        fd,
        [&](const TreeFileInfo& header) {
          info = header;
          if (header.max_fanout != tree->max_fanout_ ||
              header.min_fanout != tree->min_fanout_) {
            return Status::InvalidArgument(StrFormat(
                "fanout mismatch: file (%u, %u), tree (%zu, %zu)",
                header.max_fanout, header.min_fanout, tree->max_fanout_,
                tree->min_fanout_));
          }
          return Status::OK();
        },
        [&](TreeFileNode<D>& record) {
          const NodeId id = tree->AllocNode(record.is_leaf, record.level);
          Node& nd = tree->arena_[id];
          nd.mbr = record.mbr;
          nd.children.swap(record.children);
          nd.entries.swap(record.entries);
          return Status::OK();
        }));
    if (info.node_count == 0) return Status::OK();

    // Wire parents.
    for (uint32_t i = 0; i < info.node_count; ++i) {
      Node& nd = tree->arena_[i];
      if (nd.is_leaf) continue;
      for (NodeId child : nd.children) {
        tree->arena_[child].parent = i;
      }
    }
    tree->root_ = info.root_index;
    tree->arena_[info.root_index].parent = kInvalidNode;
    tree->size_ = info.entries;
    return Status::OK();
  }
};

/// Reads a tree file's header without loading it (used to configure a tree
/// object with matching fanout before LoadTree).
inline Result<TreeFileInfo> PeekTreeFile(const std::string& path) {
  namespace ti = tree_io_internal;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  TreeFileInfo info;
  uint32_t crc = 0;  // skipped: Peek reads the header only
  const bool ok =
      ti::ReadTreeMagic(f, &info.checksummed) &&
      (!info.checksummed || ti::ReadRaw(f, &crc, 4)) &&
      ti::ReadRaw(f, &info.dim, 4) && ti::ReadRaw(f, &info.max_fanout, 4) &&
      ti::ReadRaw(f, &info.min_fanout, 4) && ti::ReadRaw(f, &info.entries, 8);
  std::fclose(f);
  if (!ok) return Status::InvalidArgument("not a CSJTREE1/CSJTREE2 file: " + path);
  return info;
}

/// Whether `path` begins with a CSJTREE1/CSJTREE2 magic; kNotFound when it
/// cannot be opened.
inline Result<bool> IsTreeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  bool v2 = false;
  const bool tree = tree_io_internal::ReadTreeMagic(f, &v2);
  std::fclose(f);
  return tree;
}

/// Saves an MBR tree to `path` (always the checksummed v2 format).
template <typename Tree>
Status SaveTree(const Tree& tree, const std::string& path) {
  return TreeSerializer<Tree>::Save(tree, path);
}

/// Loads into an empty, identically-configured tree.
template <typename Tree>
Status LoadTree(Tree* tree, const std::string& path) {
  return TreeSerializer<Tree>::Load(tree, path);
}

}  // namespace csj

#endif  // CSJ_INDEX_TREE_IO_H_
