#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/result_cursor.h"
#include "core/sink.h"
#include "storage/binary_format.h"
#include "util/random.h"

namespace csj {
namespace {

using binfmt::AppendVarint;
using binfmt::Crc32;
using binfmt::ParseVarint;
using binfmt::UnZigZag;
using binfmt::VarintBytes;
using binfmt::ZigZag;

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

void WriteWholeFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  std::fclose(f);
}

TEST(VarintTest, RoundTripsBoundaryValues) {
  const std::vector<uint64_t> values = {
      0,       1,          127,        128,        16383,
      16384,   2097151,    2097152,    268435455,  268435456,
      1ull << 35, 1ull << 56, ~uint64_t{0}};
  for (const uint64_t v : values) {
    std::string buf;
    AppendVarint(&buf, v);
    EXPECT_EQ(buf.size(), VarintBytes(v)) << v;
    uint64_t parsed = 0;
    EXPECT_EQ(ParseVarint(buf.data(), buf.size(), &parsed), buf.size()) << v;
    EXPECT_EQ(parsed, v);
    // Short buffers must not parse.
    EXPECT_EQ(ParseVarint(buf.data(), buf.size() - 1, &parsed), 0u) << v;
  }
}

TEST(VarintTest, RejectsOverlongEncoding) {
  // 11 continuation bytes: more than any uint64 needs.
  std::string buf(11, '\x80');
  uint64_t parsed = 0;
  EXPECT_EQ(ParseVarint(buf.data(), buf.size(), &parsed), 0u);
}

TEST(ZigZagTest, MapsSignsToAlternatingCodes) {
  EXPECT_EQ(ZigZag(0), 0u);
  EXPECT_EQ(ZigZag(-1), 1u);
  EXPECT_EQ(ZigZag(1), 2u);
  EXPECT_EQ(ZigZag(-2), 3u);
  for (const int64_t v : {int64_t{0}, int64_t{-1}, int64_t{123456789},
                          int64_t{-123456789}, int64_t{1} << 40}) {
    EXPECT_EQ(UnZigZag(ZigZag(v)), v);
  }
}

TEST(Crc32Test, MatchesReferenceVector) {
  // The canonical CRC-32 (IEEE 802.3, reflected 0xEDB88320) check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(SizeModelTest, MirrorsBlockSealing) {
  // Target 10: records of 4 bytes. Fill 4, 8 -> next seals a block.
  binfmt::BinarySizeModel model(10);
  EXPECT_EQ(model.AddRecord(4), 4u);
  EXPECT_EQ(model.AddRecord(4), 4u);
  // 8 + 4 > 10: seal costs one extra block header.
  EXPECT_EQ(model.AddRecord(4), 4u + binfmt::kBlockHeaderBytes);
  // Oversized record: sealed into its own block.
  EXPECT_EQ(model.AddRecord(100), 100u + binfmt::kBlockHeaderBytes);
  // Close: open block header + EOF marker + footer.
  EXPECT_EQ(model.CloseBytes(), binfmt::kBlockHeaderBytes +
                                    binfmt::kBlockHeaderBytes +
                                    binfmt::kFooterBytes);
}

TEST(SizeModelTest, EmptyOutputIsHeaderEofFooter) {
  binfmt::BinarySizeModel model;
  EXPECT_EQ(binfmt::kFileHeaderBytes + model.CloseBytes(),
            binfmt::kFileHeaderBytes + binfmt::kBlockHeaderBytes +
                binfmt::kFooterBytes);
}

TEST(FileHeaderTest, RoundTripsAndValidates) {
  std::string buf;
  binfmt::AppendFileHeader(&buf, 7);
  ASSERT_EQ(buf.size(), binfmt::kFileHeaderBytes);
  EXPECT_TRUE(binfmt::LooksLikeBinary(buf.data(), buf.size()));
  int width = 0;
  EXPECT_TRUE(binfmt::ParseFileHeader(buf.data(), buf.size(), &width).ok());
  EXPECT_EQ(width, 7);

  std::string bad = buf;
  bad[0] = 'X';
  EXPECT_FALSE(binfmt::LooksLikeBinary(bad.data(), bad.size()));
  EXPECT_FALSE(binfmt::ParseFileHeader(bad.data(), bad.size(), &width).ok());
  EXPECT_FALSE(binfmt::ParseFileHeader(buf.data(), 3, &width).ok());
}

/// End-to-end: write with a binary FileSink, read back with a cursor, compare
/// against what a MemorySink captured from the same emission sequence.
class BinaryRoundTrip : public ::testing::Test {
 protected:
  std::string path_ = testing::TempDir() + "/csj_binfmt_roundtrip.bin";

  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(BinaryRoundTrip, PreservesRecordsOrderAndKinds) {
  // 64-byte blocks force many small blocks.
  FileSink sink(5, path_, OutputFormat::kBinary, /*block_payload_bytes=*/64);
  MemorySink expected(5);
  Rng rng(7);
  std::vector<std::vector<PointId>> emitted;
  for (int i = 0; i < 500; ++i) {
    const size_t k = 2 + rng.UniformInt(9);
    std::vector<PointId> ids(k);
    for (size_t j = 0; j < k; ++j) {
      ids[j] = static_cast<PointId>(rng.UniformInt(100000));
    }
    if (k == 2 && rng.UniformInt(2) == 0) {
      sink.Link(ids[0], ids[1]);
      expected.Link(ids[0], ids[1]);
      emitted.push_back({});
    } else {
      sink.Group(ids);
      expected.Group(ids);
      emitted.push_back(ids);
    }
  }
  const uint64_t predicted = sink.bytes();
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(ReadWholeFile(path_).size(), predicted);

  auto cursor = OpenResultCursor(path_);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ((*cursor)->format(), OutputFormat::kBinary);
  EXPECT_EQ((*cursor)->declared_id_width(), 5);

  size_t links = 0, groups = 0;
  while ((*cursor)->Next()) {
    const ResultRecord& record = (*cursor)->record();
    if (record.is_group) {
      ASSERT_LT(groups, expected.groups().size());
      EXPECT_EQ(std::vector<PointId>(record.ids.begin(), record.ids.end()),
                expected.groups()[groups]);
      ++groups;
    } else {
      ASSERT_LT(links, expected.links().size());
      EXPECT_EQ(record.ids[0], expected.links()[links].first);
      EXPECT_EQ(record.ids[1], expected.links()[links].second);
      ++links;
    }
  }
  EXPECT_TRUE((*cursor)->status().ok()) << (*cursor)->status().ToString();
  EXPECT_EQ(links, expected.links().size());
  EXPECT_EQ(groups, expected.groups().size());
}

TEST_F(BinaryRoundTrip, GroupOfTwoStaysAGroup) {
  FileSink sink(3, path_, OutputFormat::kBinary);
  const std::vector<PointId> pair = {4, 9};
  sink.Group(pair);
  sink.Link(1, 2);
  ASSERT_TRUE(sink.Finish().ok());

  auto cursor = OpenResultCursor(path_);
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE((*cursor)->Next());
  EXPECT_TRUE((*cursor)->record().is_group);
  ASSERT_TRUE((*cursor)->Next());
  EXPECT_FALSE((*cursor)->record().is_group);
  EXPECT_FALSE((*cursor)->Next());
  EXPECT_TRUE((*cursor)->status().ok());
}

TEST_F(BinaryRoundTrip, EmptyResultRoundTrips) {
  FileSink sink(2, path_, OutputFormat::kBinary);
  const uint64_t predicted = sink.bytes();
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(ReadWholeFile(path_).size(), predicted);

  auto cursor = OpenResultCursor(path_);
  ASSERT_TRUE(cursor.ok());
  EXPECT_FALSE((*cursor)->Next());
  EXPECT_TRUE((*cursor)->status().ok());
}

TEST_F(BinaryRoundTrip, TruncationAtEveryOffsetIsDetected) {
  FileSink sink(4, path_, OutputFormat::kBinary, /*block_payload_bytes=*/32);
  for (PointId i = 0; i < 40; ++i) sink.Link(i * 3, i * 3 + 1);
  const std::vector<PointId> group = {1, 5, 9, 2};
  sink.Group(group);
  ASSERT_TRUE(sink.Finish().ok());
  const std::string whole = ReadWholeFile(path_);

  const std::string cut_path = testing::TempDir() + "/csj_binfmt_cut.bin";
  for (size_t cut = 0; cut < whole.size(); cut += 7) {
    WriteWholeFile(cut_path, whole.substr(0, cut));
    auto cursor = OpenResultCursor(cut_path, OutputFormat::kBinary);
    bool failed = false;
    if (!cursor.ok()) {
      failed = true;
    } else {
      while ((*cursor)->Next()) {
      }
      failed = !(*cursor)->status().ok();
    }
    EXPECT_TRUE(failed) << "truncation at byte " << cut << " not detected";
  }
  std::remove(cut_path.c_str());
}

TEST_F(BinaryRoundTrip, CorruptPayloadFailsChecksum) {
  FileSink sink(4, path_, OutputFormat::kBinary);
  for (PointId i = 0; i < 100; ++i) sink.Link(i, i + 1);
  ASSERT_TRUE(sink.Finish().ok());
  std::string whole = ReadWholeFile(path_);

  // Flip one payload byte (inside the first block, after file + block
  // headers).
  whole[binfmt::kFileHeaderBytes + binfmt::kBlockHeaderBytes + 5] ^= 0x40;
  WriteWholeFile(path_, whole);

  auto cursor = OpenResultCursor(path_);
  ASSERT_TRUE(cursor.ok());
  while ((*cursor)->Next()) {
  }
  const Status status = (*cursor)->status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checksum"), std::string::npos)
      << status.ToString();
}

TEST_F(BinaryRoundTrip, CorruptFooterTotalsAreDetected) {
  FileSink sink(4, path_, OutputFormat::kBinary);
  sink.Link(1, 2);
  sink.Link(3, 4);
  ASSERT_TRUE(sink.Finish().ok());
  std::string whole = ReadWholeFile(path_);

  // num_links lives in the first 8 footer bytes; its CRC guards it.
  whole[whole.size() - binfmt::kFooterBytes] ^= 0x01;
  WriteWholeFile(path_, whole);

  auto cursor = OpenResultCursor(path_);
  ASSERT_TRUE(cursor.ok());
  while ((*cursor)->Next()) {
  }
  EXPECT_FALSE((*cursor)->status().ok());
}

TEST_F(BinaryRoundTrip, TrailingGarbageAfterFooterIsRejected) {
  FileSink sink(4, path_, OutputFormat::kBinary);
  sink.Link(1, 2);
  ASSERT_TRUE(sink.Finish().ok());
  std::string whole = ReadWholeFile(path_);
  whole.push_back('x');
  WriteWholeFile(path_, whole);

  auto cursor = OpenResultCursor(path_);
  ASSERT_TRUE(cursor.ok());
  while ((*cursor)->Next()) {
  }
  EXPECT_FALSE((*cursor)->status().ok());
}

}  // namespace
}  // namespace csj
