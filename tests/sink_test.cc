#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/sink.h"
#include "util/random.h"

namespace csj {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

TEST(SinkTest, IdWidthFor) {
  EXPECT_EQ(IdWidthFor(0), 1);
  EXPECT_EQ(IdWidthFor(1), 1);
  EXPECT_EQ(IdWidthFor(10), 1);   // ids 0..9
  EXPECT_EQ(IdWidthFor(11), 2);   // ids 0..10
  EXPECT_EQ(IdWidthFor(27000), 5);
  EXPECT_EQ(IdWidthFor(1500000), 7);
}

TEST(CountingSinkTest, CountsLinksGroupsBytes) {
  CountingSink sink(4);
  sink.Link(1, 2);
  sink.Link(3, 4);
  const std::vector<PointId> group = {1, 2, 3};
  sink.Group(group);
  EXPECT_EQ(sink.num_links(), 2u);
  EXPECT_EQ(sink.num_groups(), 1u);
  EXPECT_EQ(sink.group_member_total(), 3u);
  // Each id costs width+1 bytes ("0001 " or "0001\n"): 2 links x 2 ids x 5
  // + 1 group x 3 ids x 5 = 35.
  EXPECT_EQ(sink.bytes(), 35u);
  EXPECT_TRUE(sink.Finish().ok());
}

TEST(FileSinkTest, WritesPaperFormat) {
  const std::string path = testing::TempDir() + "/csj_sink_test.txt";
  FileSink sink(4, path);
  ASSERT_TRUE(sink.open_status().ok());
  sink.Link(1, 2);
  const std::vector<PointId> group = {1, 2, 3};
  sink.Group(group);
  sink.Link(12345, 6);  // wider than the pad width: printed in full
  ASSERT_TRUE(sink.Finish().ok());

  EXPECT_EQ(ReadWholeFile(path), "0001 0002\n0001 0002 0003\n12345 0006\n");
}

TEST(FileSinkTest, FileBytesMatchAccountingForPaddedIds) {
  const std::string path = testing::TempDir() + "/csj_sink_bytes.txt";
  FileSink sink(4, path);
  sink.Link(7, 8);
  const std::vector<PointId> group = {10, 20, 30, 40};
  sink.Group(group);
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(sink.materialized_bytes(), sink.bytes());
  EXPECT_EQ(ReadWholeFile(path).size(), sink.bytes());
}

TEST(FileSinkTest, OpenFailureSurfacesInFinish) {
  FileSink sink(4, "/nonexistent-dir-xyz/out.txt");
  EXPECT_FALSE(sink.open_status().ok());
  sink.Link(1, 2);  // must not crash
  EXPECT_FALSE(sink.Finish().ok());
}

TEST(FileSinkTest, OpenFailureIsStickyAndShortCircuitsAppends) {
  // Regression: a failed Open used to let DoLink/DoGroup keep "appending"
  // into a closed file (counting bytes that were never writable) and only
  // report the problem at Finish. The error must be sticky and immediate.
  FileSink sink(4, "/nonexistent-dir-xyz/sub/out.txt");
  ASSERT_FALSE(sink.open_status().ok());
  EXPECT_FALSE(sink.error().ok());
  EXPECT_EQ(sink.error(), sink.open_status());

  sink.Link(1, 2);
  const std::vector<PointId> group = {1, 2, 3};
  sink.Group(group);

  // Nothing was accepted: the counters describe real output only.
  EXPECT_EQ(sink.num_links(), 0u);
  EXPECT_EQ(sink.num_groups(), 0u);
  EXPECT_EQ(sink.bytes(), 0u);
  EXPECT_EQ(sink.materialized_bytes(), 0u);

  const Status finish = sink.Finish();
  EXPECT_FALSE(finish.ok());
  EXPECT_EQ(finish, sink.open_status());  // first error wins
}

TEST(FileSinkTest, AtomicCommitHidesFileUntilFinish) {
  const std::string path = testing::TempDir() + "/csj_sink_atomic.txt";
  std::remove(path.c_str());
  FileSink sink(4, path);
  sink.Link(1, 2);
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr)
      << "destination visible before Finish";
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(ReadWholeFile(path), "0001 0002\n");
  std::remove(path.c_str());
}

TEST(FileSinkTest, AbandonedSinkLeavesNoFile) {
  const std::string path = testing::TempDir() + "/csj_sink_abandoned.txt";
  std::remove(path.c_str());
  {
    FileSink sink(4, path);
    sink.Link(1, 2);
    // Destroyed without Finish(): the interrupted-join case.
  }
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr)
      << "abandoned sink left output at " << path;
}

TEST(MemorySinkTest, RetainsOutput) {
  MemorySink sink(3);
  sink.Link(5, 6);
  const std::vector<PointId> group = {7, 8, 9};
  sink.Group(group);
  ASSERT_EQ(sink.links().size(), 1u);
  EXPECT_EQ(sink.links()[0], (std::pair<PointId, PointId>{5, 6}));
  ASSERT_EQ(sink.groups().size(), 1u);
  EXPECT_EQ(sink.groups()[0], (std::vector<PointId>{7, 8, 9}));
}

TEST(SinkTest, ByteAccountingFormula) {
  // bytes = (#ids emitted) * (width + 1) for any mix of links and groups.
  CountingSink sink(7);
  sink.Link(0, 1);
  std::vector<PointId> group(10);
  for (size_t i = 0; i < group.size(); ++i) group[i] = static_cast<PointId>(i);
  sink.Group(group);
  sink.Group(group);
  const uint64_t ids = 2 + 10 + 10;
  EXPECT_EQ(sink.bytes(), ids * 8);
}

uint64_t FileSize(const std::string& path) {
  return ReadWholeFile(path).size();
}

/// A fixed sequence of 2000 records: a link is a two-id record with
/// is_link set, anything else a group.
struct SampleRecord {
  bool is_link;
  std::vector<PointId> ids;
};

std::vector<SampleRecord> SampleRecords() {
  Rng rng(11);
  std::vector<SampleRecord> records;
  for (int i = 0; i < 2000; ++i) {
    const bool is_link = rng.Bernoulli(0.5);
    std::vector<PointId> ids(is_link ? 2 : 2 + rng.UniformInt(uint64_t{12}));
    for (auto& id : ids) {
      id = static_cast<PointId>(rng.UniformInt(uint64_t{90000}));
    }
    records.push_back({is_link, std::move(ids)});
  }
  return records;
}

/// Drives records [begin, end) of the same sequence into any sink.
void EmitSample(JoinSink* sink, size_t begin = 0, size_t end = 2000) {
  const std::vector<SampleRecord> records = SampleRecords();
  for (size_t i = begin; i < end; ++i) {
    if (records[i].is_link) {
      sink->Link(records[i].ids[0], records[i].ids[1]);
    } else {
      sink->Group(records[i].ids);
    }
  }
}

TEST(ByteAccountingTest, CountedBytesEqualFileSizeForBothFormats) {
  // Regression for the format-aware size model: for text AND binary, the
  // sink's pre-Finish bytes() must equal the committed file's stat() size.
  for (const OutputFormat format :
       {OutputFormat::kText, OutputFormat::kBinary}) {
    const std::string path = testing::TempDir() + "/csj_acct." +
                             OutputFormatName(format);
    auto sink = MakeSinkOrDie(OutputSpec::File(path, 90000, format));
    EmitSample(sink.get());
    const uint64_t predicted = sink->bytes();
    ASSERT_TRUE(sink->Finish().ok());
    EXPECT_EQ(predicted, FileSize(path)) << OutputFormatName(format);
    // Finish() must not change the accounting.
    EXPECT_EQ(sink->bytes(), predicted);
    std::remove(path.c_str());
  }
}

TEST(ByteAccountingTest, CountingSinkPredictsBinaryFileExactly) {
  const std::string path = testing::TempDir() + "/csj_acct_predict.bin";
  auto file_sink =
      MakeSinkOrDie(OutputSpec::File(path, 90000, OutputFormat::kBinary));
  auto counting = MakeSinkOrDie(
      OutputSpec::Counting(90000, OutputFormat::kBinary));
  EmitSample(file_sink.get());
  EmitSample(counting.get());
  EXPECT_EQ(counting->bytes(), file_sink->bytes());
  ASSERT_TRUE(file_sink->Finish().ok());
  EXPECT_EQ(counting->bytes(), FileSize(path));
  ASSERT_TRUE(counting->Finish().ok());
  std::remove(path.c_str());
}

TEST(ByteAccountingTest, EmptyBinaryFileSizeIsPredicted) {
  const std::string path = testing::TempDir() + "/csj_acct_empty.bin";
  auto sink =
      MakeSinkOrDie(OutputSpec::File(path, 10, OutputFormat::kBinary));
  const uint64_t predicted = sink->bytes();
  EXPECT_GT(predicted, 0u);  // header + EOF marker + footer
  ASSERT_TRUE(sink->Finish().ok());
  EXPECT_EQ(predicted, FileSize(path));
  std::remove(path.c_str());
}

TEST(MakeSinkTest, BuildsEveryFormat) {
  const std::string dir = testing::TempDir();
  {
    auto sink = MakeSink(OutputSpec::Counting(100));
    ASSERT_TRUE(sink.ok());
    EXPECT_EQ((*sink)->id_width(), 2);
    EXPECT_EQ((*sink)->accounting(), OutputFormat::kText);
  }
  {
    auto sink = MakeSink(OutputSpec::Counting(100, OutputFormat::kBinary));
    ASSERT_TRUE(sink.ok());
    EXPECT_EQ((*sink)->accounting(), OutputFormat::kBinary);
  }
  for (const OutputFormat format :
       {OutputFormat::kText, OutputFormat::kBinary}) {
    const std::string path = dir + "/csj_factory." + OutputFormatName(format);
    auto sink = MakeSink(OutputSpec::File(path, 1000, format));
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    EXPECT_EQ((*sink)->id_width(), 3);
    (*sink)->Link(1, 2);
    ASSERT_TRUE((*sink)->Finish().ok());
    std::remove(path.c_str());
  }
}

TEST(MakeSinkTest, RejectsInvalidSpecs) {
  {
    OutputSpec spec;  // text with no path
    spec.format = OutputFormat::kText;
    EXPECT_FALSE(MakeSink(spec).ok());
  }
  {
    OutputSpec spec;
    spec.format = OutputFormat::kBinary;
    EXPECT_FALSE(MakeSink(spec).ok());  // binary with no path
  }
  {
    OutputSpec spec = OutputSpec::File(
        testing::TempDir() + "/csj_factory_cap.bin", 10,
        OutputFormat::kBinary);
    spec.cap_bytes = 1000;  // caps are text-only
    EXPECT_FALSE(MakeSink(spec).ok());
  }
  {
    OutputSpec spec = OutputSpec::Counting(10);
    spec.count_model = OutputFormat::kNone;  // not a byte model
    EXPECT_FALSE(MakeSink(spec).ok());
  }
  {
    OutputSpec spec = OutputSpec::Counting(10);
    spec.id_width = 0;
    EXPECT_FALSE(MakeSink(spec).ok());
  }
  // Unopenable paths fail at MakeSink, not at the first write.
  EXPECT_FALSE(
      MakeSink(OutputSpec::File("/nonexistent-dir-xyz/r.txt", 10)).ok());
  EXPECT_FALSE(MakeSink(OutputSpec::File("/nonexistent-dir-xyz/r.bin", 10,
                                         OutputFormat::kBinary))
                   .ok());
}

TEST(MakeSinkTest, CheckpointedOutputRefusesAFifo) {
  // A resume truncates its output, which a FIFO cannot take. Both refusals
  // come before the open, so no reader is needed.
  const std::string path =
      StrFormat("%s/%d_csj_sink_fifo", testing::TempDir().c_str(), getpid());
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  OutputSpec spec = OutputSpec::File(path, 100);
  spec.checkpointable = true;
  EXPECT_EQ(MakeSink(spec).status().code(), StatusCode::kInvalidArgument);
  checkpoint::SinkState state;
  state.id_width = static_cast<uint32_t>(spec.id_width);
  state.format = static_cast<uint8_t>(OutputFormat::kText);
  EXPECT_EQ(ResumeSink(spec, state).status().code(),
            StatusCode::kInvalidArgument);
  struct stat st;
  ASSERT_EQ(::lstat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  std::remove(path.c_str());
}

TEST(MakeSinkTest, FileSinksChargeTheirOpenBlock) {
  // Text and CSJ2 sinks hold one block each: the payload target, plus the
  // block header slot for CSJ2.
  for (const OutputFormat format :
       {OutputFormat::kText, OutputFormat::kBinary}) {
    const uint64_t block =
        binfmt::kDefaultBlockPayloadBytes +
        (format == OutputFormat::kBinary ? binfmt::kBlockHeaderBytes : 0);
    OutputSpec spec = OutputSpec::File(
        testing::TempDir() + "/csj_budget." + OutputFormatName(format), 100,
        format);
    MemoryBudget tight(block - 1);
    spec.budget = &tight;
    auto denied = MakeSink(spec);
    ASSERT_FALSE(denied.ok());
    EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(tight.used(), 0u);

    MemoryBudget enough(block);
    spec.budget = &enough;
    {
      auto sink = MakeSink(spec);
      ASSERT_TRUE(sink.ok()) << sink.status().ToString();
      EXPECT_EQ(enough.used(), block);
      (*sink)->Link(1, 2);
      ASSERT_TRUE((*sink)->Finish().ok());
    }
    EXPECT_EQ(enough.used(), 0u);
    std::remove(spec.path.c_str());
  }
}

TEST(FileSinkTest, CapStopsWritingButKeepsCounting) {
  const std::string path = testing::TempDir() + "/csj_sink_capped.txt";
  OutputSpec spec = OutputSpec::File(path, 10000);
  spec.cap_bytes = 30;  // room for three 10-byte link lines
  auto sink = MakeSinkOrDie(spec);
  for (PointId i = 0; i < 10; ++i) sink->Link(i, i + 1);
  EXPECT_TRUE(sink->truncated());
  EXPECT_EQ(sink->num_links(), 10u);   // all counted
  EXPECT_EQ(sink->bytes(), 100u);      // full (uncapped) size
  EXPECT_EQ(sink->materialized_bytes(), 30u);
  ASSERT_TRUE(sink->Finish().ok());
  EXPECT_EQ(FileSize(path), 30u);
  std::remove(path.c_str());
}

TEST(FileSinkTest, TextResumeContinuesFromEitherManifestShape) {
  // A text checkpoint carries the open block's payload. A manifest from a
  // text sink that appended every record has committed every byte and
  // carries none. Both must resume to the bytes of an uninterrupted run.
  const std::string dir = testing::TempDir();
  const std::string ref_path = dir + "/csj_resume_ref.txt";
  {
    auto sink = MakeSinkOrDie(OutputSpec::File(ref_path, 90000));
    EmitSample(sink.get());
    ASSERT_TRUE(sink->Finish().ok());
  }
  const std::string reference = ReadWholeFile(ref_path);

  OutputSpec spec = OutputSpec::File(dir + "/csj_resume_text.txt", 90000);
  spec.checkpointable = true;
  checkpoint::SinkState state;
  {
    auto sink = MakeSinkOrDie(spec);
    EmitSample(sink.get(), 0, 1000);
    ASSERT_TRUE(sink->Checkpoint(&state).ok());
    ASSERT_TRUE(sink->Finish().ok());  // leaves the whole first half on disk
  }
  ASSERT_FALSE(state.partial_payload.empty());
  checkpoint::SinkState committed_all = state;
  committed_all.committed_bytes += state.partial_payload.size();
  committed_all.partial_payload.clear();
  committed_all.partial_records = 0;
  committed_all.id_total = 0;

  for (const checkpoint::SinkState& resume : {state, committed_all}) {
    auto sink = ResumeSink(spec, resume);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    EmitSample(sink->get(), 1000, 2000);
    const uint64_t predicted = (*sink)->bytes();
    ASSERT_TRUE((*sink)->Finish().ok());
    EXPECT_EQ(ReadWholeFile(spec.path), reference)
        << "partial payload " << resume.partial_payload.size() << " bytes";
    EXPECT_EQ(predicted, reference.size());
  }
  std::remove(ref_path.c_str());
  std::remove(spec.path.c_str());
}

TEST(BinaryFileSinkTest, AbandonedSinkLeavesNoFile) {
  const std::string path = testing::TempDir() + "/csj_bin_abandoned.bin";
  std::remove(path.c_str());
  {
    auto sink =
        MakeSinkOrDie(OutputSpec::File(path, 100, OutputFormat::kBinary));
    sink->Link(1, 2);
    // Destroyed without Finish(): the interrupted-join case.
  }
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr)
      << "abandoned binary sink left output at " << path;
}

TEST(BinaryFileSinkTest, AtomicCommitHidesFileUntilFinish) {
  const std::string path = testing::TempDir() + "/csj_bin_atomic.bin";
  std::remove(path.c_str());
  auto sink =
      MakeSinkOrDie(OutputSpec::File(path, 100, OutputFormat::kBinary));
  sink->Link(1, 2);
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr)
      << "destination visible before Finish";
  ASSERT_TRUE(sink->Finish().ok());
  EXPECT_GT(FileSize(path), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csj
