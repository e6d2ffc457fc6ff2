#include "storage/output_file.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>

#include "util/failpoint.h"
#include "util/format.h"

namespace csj {
namespace {

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

std::string TempPathFor(const std::string& path) {
  return StrFormat("%s.tmp.%d", path.c_str(), getpid());
}

bool IsFifo(const std::string& path) {
  struct stat st;
  return ::lstat(path.c_str(), &st) == 0 && S_ISFIFO(st.st_mode);
}

/// A fresh FIFO in the test's temp dir, removed on destruction.
class ScopedFifo {
 public:
  explicit ScopedFifo(const std::string& name)
      : path_(StrFormat("%s/%d_%s", testing::TempDir().c_str(), getpid(),
                        name.c_str())) {
    std::remove(path_.c_str());
    EXPECT_EQ(::mkfifo(path_.c_str(), 0600), 0) << path_;
  }
  ~ScopedFifo() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Reads a FIFO to EOF on its own thread.
class FifoReader {
 public:
  explicit FifoReader(const std::string& path)
      : path_(path), thread_([this] { got_ = ReadWholeFile(path_); }) {}
  ~FifoReader() {
    if (!thread_.joinable()) return;
    // Releases a reader still waiting for a writer to open the FIFO.
    const int fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);
    if (fd >= 0) ::close(fd);
    thread_.join();
  }
  /// Waits for the writer's end of file; returns what arrived.
  std::string Finish() {
    thread_.join();
    return got_;
  }

 private:
  std::string path_;
  std::string got_;
  std::thread thread_;
};

class OutputFileTest : public testing::Test {
 protected:
  void TearDown() override { failpoint::DisableAll(); }
};

TEST_F(OutputFileTest, WritesAndCountsBytes) {
  const std::string path = testing::TempDir() + "/csj_of_basic.txt";
  OutputFile file;
  ASSERT_TRUE(file.Open(path).ok());
  EXPECT_TRUE(file.is_open());
  EXPECT_TRUE(file.Append("hello ").ok());
  EXPECT_TRUE(file.Append("world\n").ok());
  EXPECT_EQ(file.bytes_written(), 12u);
  ASSERT_TRUE(file.Close().ok());
  EXPECT_FALSE(file.is_open());
  EXPECT_EQ(ReadWholeFile(path), "hello world\n");
  std::remove(path.c_str());
}

TEST_F(OutputFileTest, DoubleCloseIsSafe) {
  const std::string path = testing::TempDir() + "/csj_of_dclose.txt";
  OutputFile file;
  ASSERT_TRUE(file.Open(path).ok());
  ASSERT_TRUE(file.Append("x\n").ok());
  EXPECT_TRUE(file.Close().ok());
  EXPECT_TRUE(file.Close().ok());  // second close: no-op, still OK
  EXPECT_EQ(ReadWholeFile(path), "x\n");
  std::remove(path.c_str());
}

TEST_F(OutputFileTest, AppendAfterCloseFailsWithoutCorruption) {
  const std::string path = testing::TempDir() + "/csj_of_late.txt";
  OutputFile file;
  ASSERT_TRUE(file.Open(path).ok());
  ASSERT_TRUE(file.Append("committed\n").ok());
  ASSERT_TRUE(file.Close().ok());

  const Status late = file.Append("too late\n");
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(file.status().ok());  // the committed file is not retro-poisoned
  EXPECT_EQ(file.bytes_written(), 10u);
  EXPECT_EQ(ReadWholeFile(path), "committed\n");
  std::remove(path.c_str());
}

TEST_F(OutputFileTest, AppendWithoutOpenFails) {
  OutputFile file;
  EXPECT_FALSE(file.Append("nope").ok());
  EXPECT_EQ(file.bytes_written(), 0u);
}

TEST_F(OutputFileTest, OpenFailureIsSticky) {
  OutputFile file;
  const Status open = file.Open("/nonexistent-dir-xyz/out.txt");
  EXPECT_FALSE(open.ok());
  EXPECT_EQ(file.status(), open);
  EXPECT_EQ(file.Append("data"), open);  // sticky
  EXPECT_EQ(file.Close(), open);
}

#ifndef CSJ_NO_FAILPOINTS

TEST_F(OutputFileTest, FailedWriteIsStickyAndRemovesPartialFile) {
  const std::string path = testing::TempDir() + "/csj_of_shortwrite.txt";
  OutputFile file;
  ASSERT_TRUE(file.Open(path).ok());
  ASSERT_TRUE(file.Append("0123456789").ok());
  EXPECT_EQ(file.bytes_written(), 10u);

  failpoint::ScopedFailpoint fp("output_file.append",
                                failpoint::Spec::Always());
  const Status failed = file.Append("abcdefgh");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // bytes_written reflects what actually reached the stream: the simulated
  // device accepted half the payload before dying.
  EXPECT_EQ(file.bytes_written(), 14u);
  EXPECT_FALSE(file.is_open());
  EXPECT_FALSE(FileExists(path)) << "partial file survived a failed write";

  // Sticky: later operations return the original error.
  EXPECT_EQ(file.Append("more"), failed);
  EXPECT_EQ(file.Close(), failed);
}

TEST_F(OutputFileTest, FifoFaultKeepsTheFifo) {
  ScopedFifo fifo("csj_of_fifo_fault");
  FifoReader reader(fifo.path());
  OutputFile file;
  ASSERT_TRUE(file.Open(fifo.path()).ok());
  ASSERT_TRUE(file.Append("0123456789").ok());
  failpoint::ScopedFailpoint fp("output_file.append",
                                failpoint::Spec::Always());
  EXPECT_EQ(file.Append("abcdefgh").code(), StatusCode::kIoError);
  EXPECT_FALSE(file.is_open());
  // The reader saw the bytes that landed, then the writer's close.
  EXPECT_EQ(reader.Finish(), "0123456789abcd");
  EXPECT_TRUE(IsFifo(fifo.path())) << "a failed write removed the FIFO";
}

#endif  // CSJ_NO_FAILPOINTS

TEST_F(OutputFileTest, FifoIsWrittenInPlace) {
  ScopedFifo fifo("csj_of_fifo");
  {
    // Atomic and durable options do not apply: no temp file, no rename, no
    // fsync of a pipe.
    FifoReader reader(fifo.path());
    OutputFile file;
    ASSERT_TRUE(file.Open(fifo.path(), OutputFile::Options{
                                           .atomic = true,
                                           .sync_on_close = true})
                    .ok());
    EXPECT_FALSE(FileExists(TempPathFor(fifo.path())));
    ASSERT_TRUE(file.Append("hello fifo\n").ok());
    ASSERT_TRUE(file.Close().ok());
    EXPECT_EQ(reader.Finish(), "hello fifo\n");
    EXPECT_TRUE(IsFifo(fifo.path())) << "Close replaced the FIFO";
  }
  {
    // An abandoned writer leaves the FIFO in place too.
    FifoReader reader(fifo.path());
    {
      OutputFile file;
      ASSERT_TRUE(file.Open(fifo.path()).ok());
      ASSERT_TRUE(file.Append("partial").ok());
    }
    EXPECT_EQ(reader.Finish(), "partial");
    EXPECT_TRUE(IsFifo(fifo.path())) << "abandonment removed the FIFO";
  }
}

TEST_F(OutputFileTest, AtomicCommitOnlyAppearsAfterClose) {
  const std::string path = testing::TempDir() + "/csj_of_atomic.txt";
  std::remove(path.c_str());
  OutputFile file;
  ASSERT_TRUE(file.Open(path, OutputFile::Options{.atomic = true}).ok());
  ASSERT_TRUE(file.Append("atomic content\n").ok());
  EXPECT_FALSE(FileExists(path)) << "destination visible before commit";
  EXPECT_TRUE(FileExists(TempPathFor(path)));
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(ReadWholeFile(path), "atomic content\n");
  EXPECT_FALSE(FileExists(TempPathFor(path)));
  std::remove(path.c_str());
}

TEST_F(OutputFileTest, AbandonedAtomicWriterLeavesNothingBehind) {
  const std::string path = testing::TempDir() + "/csj_of_abandon.txt";
  std::remove(path.c_str());
  {
    OutputFile file;
    ASSERT_TRUE(file.Open(path, OutputFile::Options{.atomic = true}).ok());
    ASSERT_TRUE(file.Append("never committed").ok());
    // Destroyed without Close(): the simulated "interrupted join".
  }
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(TempPathFor(path)));
}

TEST_F(OutputFileTest, AbandonedPlainWriterRemovesPartialFile) {
  const std::string path = testing::TempDir() + "/csj_of_abandon2.txt";
  {
    OutputFile file;
    ASSERT_TRUE(file.Open(path).ok());
    ASSERT_TRUE(file.Append("partial").ok());
  }
  EXPECT_FALSE(FileExists(path));
}

#ifndef CSJ_NO_FAILPOINTS

TEST_F(OutputFileTest, AtomicRenameFaultPreservesExistingDestination) {
  const std::string path = testing::TempDir() + "/csj_of_rename.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("old\n", f);
    std::fclose(f);
  }
  failpoint::ScopedFailpoint fp("output_file.rename",
                                failpoint::Spec::Always());
  OutputFile file;
  ASSERT_TRUE(file.Open(path, OutputFile::Options{.atomic = true}).ok());
  ASSERT_TRUE(file.Append("new\n").ok());
  EXPECT_FALSE(file.Close().ok());
  EXPECT_EQ(ReadWholeFile(path), "old\n");  // old result untouched
  EXPECT_FALSE(FileExists(TempPathFor(path)));
  std::remove(path.c_str());
}

#endif  // CSJ_NO_FAILPOINTS

TEST_F(OutputFileTest, SyncOnCloseSucceedsOnHealthyFile) {
  const std::string path = testing::TempDir() + "/csj_of_sync.txt";
  OutputFile file;
  ASSERT_TRUE(
      file.Open(path, OutputFile::Options{.atomic = true, .sync_on_close = true})
          .ok());
  ASSERT_TRUE(file.Append("durable\n").ok());
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(ReadWholeFile(path), "durable\n");
  std::remove(path.c_str());
}

#ifndef CSJ_NO_FAILPOINTS

TEST_F(OutputFileTest, SyncFaultIsReportedAndCleansUp) {
  const std::string path = testing::TempDir() + "/csj_of_syncfault.txt";
  std::remove(path.c_str());
  failpoint::ScopedFailpoint fp("output_file.sync", failpoint::Spec::Always());
  OutputFile file;
  ASSERT_TRUE(
      file.Open(path, OutputFile::Options{.atomic = true, .sync_on_close = true})
          .ok());
  ASSERT_TRUE(file.Append("x").ok());
  EXPECT_FALSE(file.Close().ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(TempPathFor(path)));
}

#endif  // CSJ_NO_FAILPOINTS

TEST_F(OutputFileTest, OpenForResumeTruncatesAndContinues) {
  const std::string path = testing::TempDir() + "/csj_of_resume.txt";
  {
    OutputFile file;
    ASSERT_TRUE(file.Open(path).ok());
    ASSERT_TRUE(file.Append("0123456789").ok());
    ASSERT_TRUE(file.Close().ok());
  }
  // Keep the first 4 bytes (the "checkpointed" position); the tail written
  // after the checkpoint is discarded and rewriting continues from there.
  OutputFile file;
  ASSERT_TRUE(file.OpenForResume(path, 4, OutputFile::Options()).ok());
  EXPECT_EQ(file.bytes_written(), 4u);  // absolute output position
  ASSERT_TRUE(file.Append("ABCD").ok());
  EXPECT_EQ(file.bytes_written(), 8u);
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(ReadWholeFile(path), "0123ABCD");
  std::remove(path.c_str());
}

TEST_F(OutputFileTest, OpenForResumeValidatesTheExistingFile) {
  const std::string missing = testing::TempDir() + "/csj_of_no_such.txt";
  OutputFile file;
  const Status not_found =
      file.OpenForResume(missing, 0, OutputFile::Options());
  EXPECT_EQ(not_found.code(), StatusCode::kNotFound);

  // A file shorter than the checkpointed position means the durable prefix
  // is gone — resuming would corrupt the output.
  const std::string path = testing::TempDir() + "/csj_of_short.txt";
  {
    OutputFile writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append("abc").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  OutputFile resumer;
  const Status too_short =
      resumer.OpenForResume(path, 100, OutputFile::Options());
  EXPECT_EQ(too_short.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ReadWholeFile(path), "abc") << "validation must not truncate";
  std::remove(path.c_str());
}

#ifndef CSJ_NO_FAILPOINTS

TEST_F(OutputFileTest, DirSyncFaultOnDurableCloseIsReportedKeepingTheFile) {
  // Satellite of the durability gap fix: a committed rename is only durable
  // once the parent directory is fsynced, and a failure of that fsync must
  // surface as a Status — while the (complete, renamed) file stays put.
  const std::string path = testing::TempDir() + "/csj_of_dirsync.txt";
  OutputFile file;
  OutputFile::Options options;
  options.atomic = true;
  options.sync_on_close = true;
  ASSERT_TRUE(file.Open(path, options).ok());
  ASSERT_TRUE(file.Append("durable payload\n").ok());

  failpoint::ScopedFailpoint fp("output_file.dirsync",
                                failpoint::Spec::Always());
  const Status close = file.Close();
  EXPECT_FALSE(close.ok());
  EXPECT_EQ(close.code(), StatusCode::kIoError);
  EXPECT_TRUE(FileExists(path))
      << "a dirsync failure must not delete the committed file";
  EXPECT_EQ(ReadWholeFile(path), "durable payload\n");
  std::remove(path.c_str());
}

TEST_F(OutputFileTest, SyncContainingDirFailpointFires) {
  const std::string path = testing::TempDir() + "/csj_of_dirprobe.txt";
  EXPECT_TRUE(OutputFile::SyncContainingDir(path).ok());
  failpoint::ScopedFailpoint fp("output_file.dirsync",
                                failpoint::Spec::Always());
  EXPECT_FALSE(OutputFile::SyncContainingDir(path).ok());
}

TEST_F(OutputFileTest, TransientAppendFaultIsRetriedToSuccess) {
  const std::string path = testing::TempDir() + "/csj_of_transient.txt";
  OutputFile file;
  ASSERT_TRUE(file.Open(path).ok());

  // One simulated EINTR-style short write: the retry loop must re-append the
  // missing suffix and succeed without surfacing an error.
  failpoint::ScopedFailpoint fp("output_file.append_transient",
                                failpoint::Spec::Once());
  ASSERT_TRUE(file.Append("retry me please\n").ok());
  EXPECT_TRUE(file.status().ok());
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(ReadWholeFile(path), "retry me please\n");
  std::remove(path.c_str());
}

TEST_F(OutputFileTest, PersistentTransientFaultExhaustsRetriesAndSticks) {
  const std::string path = testing::TempDir() + "/csj_of_exhaust.txt";
  OutputFile file;
  OutputFile::Options options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 0.01;  // keep the test fast
  options.retry.max_backoff_ms = 0.02;
  ASSERT_TRUE(file.Open(path, options).ok());

  // The fault never clears, so after max_attempts the error must stick.
  failpoint::ScopedFailpoint fp("output_file.append_transient",
                                failpoint::Spec::Always());
  const Status failed = file.Append("doomed\n");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(file.Append("more"), failed) << "exhausted retry must be sticky";
}

TEST_F(OutputFileTest, RetryDisabledFailsOnFirstTransientFault) {
  const std::string path = testing::TempDir() + "/csj_of_noretry.txt";
  OutputFile file;
  OutputFile::Options options;
  options.retry.max_attempts = 1;
  ASSERT_TRUE(file.Open(path, options).ok());
  failpoint::ScopedFailpoint fp("output_file.append_transient",
                                failpoint::Spec::Once());
  EXPECT_FALSE(file.Append("no second chance\n").ok());
}

#endif  // CSJ_NO_FAILPOINTS

TEST_F(OutputFileTest, ReusableAfterClose) {
  const std::string path_a = testing::TempDir() + "/csj_of_reuse_a.txt";
  const std::string path_b = testing::TempDir() + "/csj_of_reuse_b.txt";
  OutputFile file;
  ASSERT_TRUE(file.Open(path_a).ok());
  ASSERT_TRUE(file.Append("a").ok());
  ASSERT_TRUE(file.Close().ok());
  ASSERT_TRUE(file.Open(path_b).ok());
  ASSERT_TRUE(file.Append("bb").ok());
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(ReadWholeFile(path_a), "a");
  EXPECT_EQ(ReadWholeFile(path_b), "bb");
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace csj
