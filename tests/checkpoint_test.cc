#include "storage/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/format.h"
#include "util/random.h"

/// \file
/// Checkpoint manifest format: serialization round-trips, atomic save/load,
/// and the corruption matrix — truncation at every offset, a bit flip at
/// every offset, trailing garbage, and random-bytes fuzzing. Every corrupt
/// input must come back as a clean non-OK Status; none may crash, and none
/// may parse as a valid (silently wrong) manifest.

namespace csj::checkpoint {
namespace {

/// A manifest with every field exercised: partial binary payload, metric
/// counters, non-trivial doubles.
Manifest SampleManifest() {
  Manifest m;
  m.config_fingerprint = 0x1234'5678'9abc'def0ULL;
  m.dims = 2;
  m.total_tasks = 553;
  m.task_list_hash = 0xfeed'face'cafe'beefULL;
  m.next_task = 42;
  m.stats.distance_computations = 2'878'927;
  m.stats.kernel_candidates = 9'000'001;
  m.stats.kernel_pruned = 5'000'000;
  m.stats.kernel_hits = 1'430'998;
  m.stats.node_accesses = 77;
  m.stats.page_requests = 11;
  m.stats.page_disk_reads = 3;
  m.stats.early_stops = 19;
  m.stats.merge_attempts = 5'165'485;
  m.stats.merges = 1'430'998;
  m.stats.elapsed_seconds = 1.5;
  m.stats.write_seconds = 0.0625;
  m.sink.format = 2;
  m.sink.id_width = 5;
  m.sink.committed_bytes = 1'310'640;
  m.sink.accounted_bytes = 1'350'000;
  m.sink.model_fill = 1234;
  m.sink.num_links = 17;
  m.sink.num_groups = 174'922;
  m.sink.group_member_total = 1'000'000;
  m.sink.implied_links = 123'456'789;
  m.sink.id_total = 999'999;
  m.sink.partial_records = 7;
  m.sink.partial_payload = std::string("\x01\x02\x00\xff partial block", 19);
  m.metric_counters.emplace_back("join.distance_computations", 2'878'927);
  m.metric_counters.emplace_back("sink.groups", 174'922);
  return m;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(CheckpointManifest, SerializeParseRoundTrip) {
  const Manifest m = SampleManifest();
  const std::string bytes = Serialize(m);
  ASSERT_GE(bytes.size(), kHeaderBytes);
  EXPECT_EQ(bytes.substr(0, 4), std::string(kMagic, 4));

  Manifest back;
  ASSERT_TRUE(Parse(bytes, &back).ok());
  EXPECT_EQ(back, m);
}

TEST(CheckpointManifest, V2BytesArePinned) {
  // The sample manifest as version 2 has always written it. A round trip
  // alone would accept a reordered field list, which would misread every
  // manifest an older build left behind.
  const std::string golden =
      "43534a4b020000009a00000000000000"
      "be47593af0debc9a7856341202a904ef"
      "befecacefaedfe2acfdbaf01c1a8a504"
      "c096b102d6ab574d0b0313ada3bb02d6"
      "ab57959aef3a000000000000f83f0000"
      "00000000b03f0205b0ff4ff0b252d209"
      "11cad60ac0843dbf843d0713010200ff"
      "207061727469616c20626c6f636b0002"
      "1a6a6f696e2e64697374616e63655f63"
      "6f6d7075746174696f6e73cfdbaf010b"
      "73696e6b2e67726f757073cad60a";
  std::string hex;
  for (const unsigned char byte : Serialize(SampleManifest())) {
    hex += StrFormat("%02x", byte);
  }
  EXPECT_EQ(hex, golden);
}

TEST(CheckpointManifest, MinimalManifestRoundTrips) {
  // dims is sanity-checked on parse, so the minimal manifest still needs a
  // plausible dimensionality; a zero-dims manifest is rejected.
  Manifest minimal;
  minimal.dims = 1;
  Manifest back;
  ASSERT_TRUE(Parse(Serialize(minimal), &back).ok());
  EXPECT_EQ(back, minimal);
  EXPECT_FALSE(Parse(Serialize(Manifest{}), &back).ok());
}

TEST(CheckpointManifest, SaveLoadRoundTrip) {
  const Manifest m = SampleManifest();
  const std::string path = TempPath("ckpt_roundtrip.ckpt");
  ASSERT_TRUE(Save(path, m).ok());

  auto loaded = Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, m);
  std::remove(path.c_str());
}

TEST(CheckpointManifest, LoadMissingFileIsNotFound) {
  auto loaded = Load(TempPath("ckpt_does_not_exist.ckpt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointManifest, SaveOverwritesAtomically) {
  const std::string path = TempPath("ckpt_overwrite.ckpt");
  Manifest first = SampleManifest();
  ASSERT_TRUE(Save(path, first).ok());
  Manifest second = SampleManifest();
  second.next_task = 99;
  ASSERT_TRUE(Save(path, second).ok());

  auto loaded = Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->next_task, 99u);
  std::remove(path.c_str());
}

// --- Corruption matrix -------------------------------------------------------

TEST(CheckpointCorruption, TruncationAtEveryOffsetFailsCleanly) {
  const std::string bytes = Serialize(SampleManifest());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Manifest m;
    const Status status = Parse(bytes.substr(0, len), &m);
    EXPECT_FALSE(status.ok()) << "parsed a manifest truncated to " << len
                              << " of " << bytes.size() << " bytes";
  }
}

TEST(CheckpointCorruption, BitFlipAtEveryOffsetFailsCleanly) {
  const std::string bytes = Serialize(SampleManifest());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ mask);
      Manifest m;
      const Status status = Parse(corrupt, &m);
      EXPECT_FALSE(status.ok())
          << "bit flip at offset " << i << " (mask " << int(mask)
          << ") parsed as a valid manifest";
    }
  }
}

TEST(CheckpointCorruption, FlippedCrcIsRejected) {
  std::string bytes = Serialize(SampleManifest());
  // The CRC lives after magic (4), version (4) and payload_len (8).
  const size_t crc_offset = 4 + 4 + 8;
  bytes[crc_offset] = static_cast<char>(bytes[crc_offset] ^ 0xff);
  Manifest m;
  const Status status = Parse(bytes, &m);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointCorruption, TrailingGarbageIsRejected) {
  const std::string bytes = Serialize(SampleManifest());
  for (const std::string& tail :
       {std::string("x"), std::string(1, '\0'), std::string(1000, 'Z')}) {
    Manifest m;
    const Status status = Parse(bytes + tail, &m);
    EXPECT_FALSE(status.ok())
        << "accepted " << tail.size() << " bytes of trailing garbage";
  }
}

TEST(CheckpointCorruption, WrongMagicAndVersionAreRejected) {
  std::string wrong_magic = Serialize(SampleManifest());
  wrong_magic[0] = 'X';
  Manifest m;
  EXPECT_FALSE(Parse(wrong_magic, &m).ok());

  std::string wrong_version = Serialize(SampleManifest());
  wrong_version[4] = static_cast<char>(kVersion + 1);
  EXPECT_FALSE(Parse(wrong_version, &m).ok());

  // Version 1 manifests (with a thread count and window groups) are refused
  // by name, not misparsed.
  std::string version_one = Serialize(SampleManifest());
  version_one[4] = 1;
  const Status status = Parse(version_one, &m);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version 1 "), std::string::npos)
      << status.ToString();
}

TEST(CheckpointCorruption, CorruptFileOnDiskLoadsAsCleanError) {
  // End to end through Load(): a truncated manifest file must produce a
  // descriptive Status, never a crash and never a silent fresh start.
  const std::string path = TempPath("ckpt_truncated.ckpt");
  const std::string bytes = Serialize(SampleManifest());
  for (const size_t keep : {size_t{0}, size_t{3}, size_t{17},
                            bytes.size() / 2, bytes.size() - 1}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(bytes.data(), 1, keep, f);
    std::fclose(f);
    auto loaded = Load(path);
    EXPECT_FALSE(loaded.ok()) << "loaded a manifest truncated to " << keep;
  }
  std::remove(path.c_str());
}

TEST(CheckpointCorruption, RandomBytesNeverCrashTheParser) {
  Rng rng(20260807);
  Manifest valid = SampleManifest();
  const std::string real = Serialize(valid);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t len = rng.UniformInt(uint64_t{512});
    std::string bytes(len, '\0');
    for (auto& c : bytes) {
      c = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    // Half the trials start from a valid prefix so the fuzzer reaches deep
    // into the payload decoder instead of dying on the magic check.
    if (rng.Bernoulli(0.5) && !real.empty()) {
      const size_t prefix = rng.UniformInt(uint64_t{real.size()});
      bytes = real.substr(0, prefix) + bytes;
    }
    Manifest m;
    if (Parse(bytes, &m).ok()) ++parsed_ok;
  }
  // Random bytes essentially never carry a valid CRC'd payload.
  EXPECT_EQ(parsed_ok, 0);
}

TEST(CheckpointCorruption, MutatedValidManifestNeverCrashes) {
  Rng rng(777);
  const std::string real = Serialize(SampleManifest());
  for (int trial = 0; trial < 3000; ++trial) {
    std::string bytes = real;
    const int edits = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    for (int e = 0; e < edits; ++e) {
      const size_t at = rng.UniformInt(uint64_t{bytes.size()});
      bytes[at] = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    Manifest m;
    Parse(bytes, &m).ok();  // must not crash; result status irrelevant
  }
}

TEST(CheckpointManifest, HashCombineOrderMatters) {
  const uint64_t a = HashCombine(HashCombine(0, 1), 2);
  const uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
  EXPECT_NE(HashCombine(0, 0), 0u);
}

}  // namespace
}  // namespace csj::checkpoint
