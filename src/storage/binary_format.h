#ifndef CSJ_STORAGE_BINARY_FORMAT_H_
#define CSJ_STORAGE_BINARY_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "geom/point.h"
#include "util/status.h"

/// \file
/// Compact join-output binary format v2 ("CSJ2").
///
/// The paper's headline metric is output *bytes*; the text format spends
/// id_width+1 bytes per id regardless of how clustered the ids are. The v2
/// binary format exploits the locality the compact join produces (group
/// members usually sit in one subtree, so their ids are near each other):
/// ids are varint-coded and, within a record, delta-coded, which shrinks a
/// dense-clump result by 3-5x. See docs/OUTPUT_FORMAT.md for the normative
/// layout description.
///
/// Layout summary (all integers little-endian):
///
///   File    := FileHeader Block* EofMarker Footer
///   FileHeader (8 bytes)  := magic "CSJ2" | version u8 = 2 | id_width u8
///                            | reserved u16 = 0
///   Block   := BlockHeader payload
///   BlockHeader (12 bytes):= payload_bytes u32 (>0) | record_count u32 (>0)
///                            | crc32(payload) u32
///   EofMarker (12 bytes)  := a BlockHeader of all zeros
///   Footer (28 bytes)     := num_links u64 | num_groups u64 | id_total u64
///                            | crc32(first 24 bytes) u32
///
///   Record  := tag varint | id[0] varint | zigzag(id[i]-id[i-1]) varint ...
///     tag 0      -> link (exactly 2 ids)
///     tag k >= 2 -> group of k ids (emission order preserved, so decoding
///                   back to the text format is byte-exact)
///     tag 1      -> invalid
///
/// Records never span blocks; a block is sealed when appending the next
/// record would push its payload past the target size (an oversized record
/// gets a block of its own). Per-block record counts and checksums let a
/// reader validate or skip whole blocks, and the footer distinguishes a
/// complete file from a truncated one.
///
/// This header also defines the *size model*: the exact byte cost of a
/// record stream, shared by the binary writer and the counting sink so a
/// CountingSink in binary mode predicts the final file size exactly.

namespace csj::binfmt {

inline constexpr char kMagic[4] = {'C', 'S', 'J', '2'};
inline constexpr uint8_t kFormatVersion = 2;
inline constexpr size_t kFileHeaderBytes = 8;
inline constexpr size_t kBlockHeaderBytes = 12;
inline constexpr size_t kFooterBytes = 28;
/// Default sealed-block payload target. Large enough to amortize the header
/// and keep the background writer's appends chunky; small enough that a
/// reader validating checksums works in cache-sized pieces.
inline constexpr size_t kDefaultBlockPayloadBytes = 64 * 1024;

/// CRC-32 (reflected polynomial 0xEDB88320, the zlib/PNG one).
/// Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Fixed-width little-endian integers. The readers take exactly 4 or 8
/// bytes at `data`; callers check the bounds.
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
uint32_t ReadU32(const char* data);
uint64_t ReadU64(const char* data);

/// LEB128 varint (low 7 bits first).
size_t VarintBytes(uint64_t value);
void AppendVarint(std::string* out, uint64_t value);
/// Parses one varint from [data, data+size). Returns bytes consumed, or 0 if
/// the buffer ends mid-varint or the value exceeds 64 bits.
size_t ParseVarint(const char* data, size_t size, uint64_t* value);

/// ZigZag signed<->unsigned mapping for delta-coded ids.
inline uint64_t ZigZag(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}
inline int64_t UnZigZag(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

/// Record encoders and their exact encoded sizes (the per-record size model).
size_t EncodedLinkBytes(PointId a, PointId b);
size_t EncodedGroupBytes(std::span<const PointId> members);
void AppendLinkRecord(std::string* out, PointId a, PointId b);
void AppendGroupRecord(std::string* out, std::span<const PointId> members);

/// The block-sealing rule, shared verbatim by the writer and the size model:
/// seal before appending `record_bytes` iff the block already holds payload
/// and this record would push it past the target.
inline bool WouldSealBlock(size_t fill, size_t record_bytes, size_t target) {
  return fill > 0 && fill + record_bytes > target;
}

/// File header / block header / footer serialization.
void AppendFileHeader(std::string* out, int id_width);
/// Validates an 8-byte header; fills id_width.
Status ParseFileHeader(const char* data, size_t size, int* id_width);
/// True if the first bytes of a file look like a CSJ2 header (magic match).
bool LooksLikeBinary(const char* data, size_t size);

struct BlockHeader {
  uint32_t payload_bytes = 0;
  uint32_t record_count = 0;
  uint32_t crc32 = 0;

  bool IsEofMarker() const {
    return payload_bytes == 0 && record_count == 0 && crc32 == 0;
  }
};
void AppendBlockHeader(std::string* out, const BlockHeader& header);
/// Parses exactly kBlockHeaderBytes.
BlockHeader ParseBlockHeader(const char* data);
/// Patches a header in place at `out[pos..pos+12)` (the writer reserves the
/// header slot up front and fills it when the block seals).
void PatchBlockHeader(std::string* out, size_t pos, const BlockHeader& header);

struct Footer {
  uint64_t num_links = 0;
  uint64_t num_groups = 0;
  uint64_t id_total = 0;  ///< total ids across all records
};
void AppendFooter(std::string* out, const Footer& footer);
/// Validates the trailing CRC; fills `footer`.
Status ParseFooter(const char* data, size_t size, Footer* footer);

/// Exact byte accounting for a record stream, mirroring the writer's sealing
/// decisions. Feed it the same encoded record sizes in the same order and
/// `total + CloseBytes()` equals the final file size to the byte.
class BinarySizeModel {
 public:
  explicit BinarySizeModel(size_t block_payload_target = kDefaultBlockPayloadBytes)
      : target_(block_payload_target) {}

  /// Accounts one record of `record_bytes` encoded payload. Returns the
  /// bytes this record adds to the file, including the header of any block
  /// it seals.
  uint64_t AddRecord(size_t record_bytes) {
    uint64_t delta = record_bytes;
    if (WouldSealBlock(fill_, record_bytes, target_)) {
      delta += kBlockHeaderBytes;  // header of the block just sealed
      fill_ = 0;
    }
    fill_ += record_bytes;
    return delta;
  }

  /// Bytes Finish() appends from this state: the header of the final partial
  /// block (if any), the EOF marker, and the footer.
  uint64_t CloseBytes() const {
    return (fill_ > 0 ? kBlockHeaderBytes : 0) + kBlockHeaderBytes +
           kFooterBytes;
  }

  size_t fill() const { return fill_; }
  size_t block_payload_target() const { return target_; }

  /// Checkpoint support: restores the open-block fill recorded in a
  /// manifest, so a resumed sink's size model continues sealing at exactly
  /// the byte positions the uninterrupted run would have.
  void RestoreFill(size_t fill) { fill_ = fill; }

 private:
  size_t target_;
  size_t fill_ = 0;
};

}  // namespace csj::binfmt

#endif  // CSJ_STORAGE_BINARY_FORMAT_H_
