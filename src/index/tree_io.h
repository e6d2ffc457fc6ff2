#ifndef CSJ_INDEX_TREE_IO_H_
#define CSJ_INDEX_TREE_IO_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

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
/// `kDataLoss` before a single node is parsed. Version 1 files ("CSJTREE1",
/// same body with no checksum) remain readable; Save always writes v2.

namespace csj {

namespace tree_io_internal {

inline bool ReadRaw(std::FILE* f, void* data, size_t size) {
  return std::fread(data, 1, size, f) == size;
}

inline constexpr char kMagicV1[8] = {'C', 'S', 'J', 'T', 'R', 'E', 'E', '1'};
inline constexpr char kMagicV2[8] = {'C', 'S', 'J', 'T', 'R', 'E', 'E', '2'};

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

/// Bounds-checked cursor over an in-memory body.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool Read(void* out, size_t size) {
    if (pos_ + size > size_) return false;
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }

  template <typename T>
  bool ReadPod(T* out) {
    return Read(out, sizeof(T));
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Reads the remainder of `f` (from the current position) into `out`.
inline bool ReadRest(std::FILE* f, std::vector<char>* out) {
  out->clear();
  char chunk[16384];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out->insert(out->end(), chunk, chunk + got);
  }
  return std::ferror(f) == 0;
}

}  // namespace tree_io_internal

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
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return Status::NotFound("cannot open: " + path);
    Status status = LoadFrom(tree, f);
    std::fclose(f);
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

  static Status LoadFrom(Tree* tree, std::FILE* f) {
    namespace ti = tree_io_internal;
    if (!tree->empty()) {
      return Status::FailedPrecondition("Load requires an empty tree");
    }

    char magic[8];
    if (!ti::ReadRaw(f, magic, 8)) {
      return Status::DataLoss("tree file shorter than its magic");
    }
    const bool v2 = std::memcmp(magic, ti::kMagicV2, 8) == 0;
    if (!v2 && std::memcmp(magic, ti::kMagicV1, 8) != 0) {
      return Status::InvalidArgument("not a CSJTREE1/CSJTREE2 file");
    }

    uint32_t expected_crc = 0;
    if (v2 && !ti::ReadRaw(f, &expected_crc, 4)) {
      return Status::DataLoss("truncated CSJTREE2 checksum");
    }
    std::vector<char> body;
    if (!ti::ReadRest(f, &body)) {
      return Status::IoError("read failed");
    }
    if (v2) {
      const uint32_t actual = binfmt::Crc32(body.data(), body.size());
      if (actual != expected_crc) {
        return Status::DataLoss(StrFormat(
            "tree file checksum mismatch (stored %08x, computed %08x): the "
            "file is truncated or corrupt",
            expected_crc, actual));
      }
    }

    // From here on every short read means a malformed body. For a v2 file
    // the checksum already vouched for the bytes, so a parse error can only
    // be an internal inconsistency; for v1 it is the historical truncation.
    auto fail = [v2] {
      return v2 ? Status::DataLoss("malformed CSJTREE2 body")
                : Status::IoError("truncated tree file");
    };
    ti::ByteReader reader(body.data(), body.size());

    uint32_t dim = 0, max_fanout = 0, min_fanout = 0, node_count = 0,
             root_index = 0;
    uint64_t entries = 0;
    if (!reader.ReadPod(&dim) || !reader.ReadPod(&max_fanout) ||
        !reader.ReadPod(&min_fanout) || !reader.ReadPod(&entries) ||
        !reader.ReadPod(&node_count) || !reader.ReadPod(&root_index)) {
      return fail();
    }
    if (dim != static_cast<uint32_t>(D)) {
      return Status::InvalidArgument(
          StrFormat("dimension mismatch: file %u, tree %d", dim, D));
    }
    if (max_fanout != tree->max_fanout_ || min_fanout != tree->min_fanout_) {
      return Status::InvalidArgument(StrFormat(
          "fanout mismatch: file (%u, %u), tree (%zu, %zu)", max_fanout,
          min_fanout, tree->max_fanout_, tree->min_fanout_));
    }
    if (node_count == 0) return Status::OK();
    if (root_index >= node_count) {
      return Status::InvalidArgument("root index out of range");
    }

    for (uint32_t i = 0; i < node_count; ++i) {
      uint8_t is_leaf = 0;
      int32_t level = 0;
      const NodeId id = tree->AllocNode(false, 0);
      Node& nd = tree->arena_[id];
      if (!reader.ReadPod(&is_leaf) || !reader.ReadPod(&level) ||
          !reader.Read(nd.mbr.lo.data(), sizeof(double) * D) ||
          !reader.Read(nd.mbr.hi.data(), sizeof(double) * D)) {
        return fail();
      }
      nd.is_leaf = is_leaf != 0;
      nd.level = level;
      uint32_t fanout = 0;
      if (!reader.ReadPod(&fanout)) return fail();
      if (fanout > max_fanout) {
        return Status::InvalidArgument("node fanout exceeds max");
      }
      if (nd.is_leaf) {
        nd.entries.resize(fanout);
        for (auto& e : nd.entries) {
          uint32_t id32 = 0;
          if (!reader.ReadPod(&id32) ||
              !reader.Read(e.point.coords.data(), sizeof(double) * D)) {
            return fail();
          }
          e.id = id32;
        }
      } else {
        nd.children.resize(fanout);
        for (auto& child : nd.children) {
          uint32_t idx = 0;
          if (!reader.ReadPod(&idx)) return fail();
          if (idx >= node_count) {
            return Status::InvalidArgument("child index out of range");
          }
          child = idx;
        }
      }
    }

    // Wire parents and validate child links.
    for (uint32_t i = 0; i < node_count; ++i) {
      Node& nd = tree->arena_[i];
      if (nd.is_leaf) continue;
      for (NodeId child : nd.children) {
        tree->arena_[child].parent = i;
      }
    }
    tree->root_ = root_index;
    tree->arena_[root_index].parent = kInvalidNode;
    tree->size_ = entries;
    return Status::OK();
  }
};

/// Header fields of a serialized tree, readable without loading it (used to
/// configure a tree object with matching fanout before LoadTree).
struct TreeFileInfo {
  uint32_t dim = 0;
  uint32_t max_fanout = 0;
  uint32_t min_fanout = 0;
  uint64_t entries = 0;
};

inline Result<TreeFileInfo> PeekTreeFile(const std::string& path) {
  namespace ti = tree_io_internal;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  char magic[8];
  TreeFileInfo info;
  bool ok = ti::ReadRaw(f, magic, 8);
  if (ok && std::memcmp(magic, ti::kMagicV2, 8) == 0) {
    uint32_t crc = 0;  // skipped: Peek reads the header only
    ok = ti::ReadRaw(f, &crc, 4);
  } else if (ok) {
    ok = std::memcmp(magic, ti::kMagicV1, 8) == 0;
  }
  ok = ok && ti::ReadRaw(f, &info.dim, 4) &&
       ti::ReadRaw(f, &info.max_fanout, 4) &&
       ti::ReadRaw(f, &info.min_fanout, 4) && ti::ReadRaw(f, &info.entries, 8);
  std::fclose(f);
  if (!ok) return Status::InvalidArgument("not a CSJTREE1/CSJTREE2 file: " + path);
  return info;
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
