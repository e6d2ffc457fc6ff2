#include "storage/binary_format.h"

#include <array>
#include <cstring>

#include "util/format.h"

namespace csj::binfmt {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

}  // namespace

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t ReadU32(const char* data) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(data[i]);
  }
  return v;
}

uint64_t ReadU64(const char* data) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(data[i]);
  }
  return v;
}

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    c = kTable[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

size_t VarintBytes(uint64_t value) {
  size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

size_t ParseVarint(const char* data, size_t size, uint64_t* value) {
  uint64_t v = 0;
  for (size_t i = 0; i < size && i < 10; ++i) {
    const uint8_t byte = static_cast<uint8_t>(data[i]);
    if (i == 9 && byte > 1) return 0;  // would overflow 64 bits
    v |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      *value = v;
      return i + 1;
    }
  }
  return 0;  // ran off the buffer (or past 10 bytes) mid-varint
}

size_t EncodedLinkBytes(PointId a, PointId b) {
  return 1 /* tag 0 */ + VarintBytes(a) +
         VarintBytes(ZigZag(static_cast<int64_t>(b) - static_cast<int64_t>(a)));
}

size_t EncodedGroupBytes(std::span<const PointId> members) {
  size_t n = VarintBytes(members.size()) + VarintBytes(members[0]);
  for (size_t i = 1; i < members.size(); ++i) {
    n += VarintBytes(ZigZag(static_cast<int64_t>(members[i]) -
                            static_cast<int64_t>(members[i - 1])));
  }
  return n;
}

void AppendLinkRecord(std::string* out, PointId a, PointId b) {
  out->push_back('\0');  // tag 0 = link
  AppendVarint(out, a);
  AppendVarint(out,
               ZigZag(static_cast<int64_t>(b) - static_cast<int64_t>(a)));
}

void AppendGroupRecord(std::string* out, std::span<const PointId> members) {
  AppendVarint(out, members.size());
  AppendVarint(out, members[0]);
  for (size_t i = 1; i < members.size(); ++i) {
    AppendVarint(out, ZigZag(static_cast<int64_t>(members[i]) -
                             static_cast<int64_t>(members[i - 1])));
  }
}

void AppendFileHeader(std::string* out, int id_width) {
  out->append(kMagic, sizeof(kMagic));
  out->push_back(static_cast<char>(kFormatVersion));
  out->push_back(static_cast<char>(id_width));
  AppendU16(out, 0);
}

Status ParseFileHeader(const char* data, size_t size, int* id_width) {
  if (size < kFileHeaderBytes) {
    return Status::InvalidArgument("binary result truncated in file header");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a CSJ2 binary result (bad magic)");
  }
  const uint8_t version = static_cast<uint8_t>(data[4]);
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported CSJ2 version %u", version));
  }
  const uint8_t width = static_cast<uint8_t>(data[5]);
  if (width < 1) {
    return Status::InvalidArgument("CSJ2 header has id_width 0");
  }
  *id_width = width;
  return Status::OK();
}

bool LooksLikeBinary(const char* data, size_t size) {
  return size >= sizeof(kMagic) &&
         std::memcmp(data, kMagic, sizeof(kMagic)) == 0;
}

void AppendBlockHeader(std::string* out, const BlockHeader& header) {
  AppendU32(out, header.payload_bytes);
  AppendU32(out, header.record_count);
  AppendU32(out, header.crc32);
}

BlockHeader ParseBlockHeader(const char* data) {
  BlockHeader header;
  header.payload_bytes = ReadU32(data);
  header.record_count = ReadU32(data + 4);
  header.crc32 = ReadU32(data + 8);
  return header;
}

void PatchBlockHeader(std::string* out, size_t pos, const BlockHeader& header) {
  std::string tmp;
  tmp.reserve(kBlockHeaderBytes);
  AppendBlockHeader(&tmp, header);
  out->replace(pos, kBlockHeaderBytes, tmp);
}

void AppendFooter(std::string* out, const Footer& footer) {
  const size_t start = out->size();
  AppendU64(out, footer.num_links);
  AppendU64(out, footer.num_groups);
  AppendU64(out, footer.id_total);
  AppendU32(out, Crc32(out->data() + start, 24));
}

Status ParseFooter(const char* data, size_t size, Footer* footer) {
  if (size < kFooterBytes) {
    return Status::InvalidArgument("binary result truncated in footer");
  }
  const uint32_t expected = Crc32(data, 24);
  const uint32_t actual = ReadU32(data + 24);
  if (expected != actual) {
    return Status::InvalidArgument(
        StrFormat("footer checksum mismatch (stored %08x, computed %08x)",
                  actual, expected));
  }
  footer->num_links = ReadU64(data);
  footer->num_groups = ReadU64(data + 8);
  footer->id_total = ReadU64(data + 16);
  return Status::OK();
}

}  // namespace csj::binfmt
