#ifndef CSJ_STORAGE_OUTPUT_FILE_H_
#define CSJ_STORAGE_OUTPUT_FILE_H_

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/retry.h"
#include "util/status.h"

/// \file
/// Buffered append-only file behind the join-output sink and the index and
/// point writers.
///
/// The paper measures output size as "the size in bytes of the resulting
/// output text file" and includes the write time in the reported runtime, so
/// the file sink performs real buffered writes and counts every byte.
///
/// Failure semantics: every I/O error (short write, flush, fsync, close,
/// rename) is captured in a *sticky* Status — the first error wins, later
/// operations short-circuit and return it. On the first error, and on
/// destruction without a successful Close(), the partially written file is
/// deleted, so a failed or interrupted writer never leaves partial output
/// behind — unless `Options::preserve_on_error` is set, which checkpointed
/// runs use so the partial file stays available for `--resume`. With
/// `Options::atomic`, data goes to a temporary sibling file that is renamed
/// over the destination only after a fully successful Close(), making the
/// write crash-safe as well. With `Options::sync_on_close`, the file *and
/// its parent directory* are fsynced, so the committed rename survives power
/// loss (a file fsync alone does not persist the directory entry).
/// An existing FIFO or device destination is written in place instead: no
/// temporary, no rename, no fsync, and it is never removed.
///
/// Transient faults: short writes whose errno is transient (EINTR, EAGAIN,
/// ...; util/retry.h) are retried with bounded exponential backoff before
/// the error sticks, writing only the not-yet-landed suffix on each attempt.
/// Retries are visible through the `retry.*` metrics.
///
/// Failpoints (see util/failpoint.h): `output_file.open`,
/// `output_file.append` (simulated hard short write),
/// `output_file.append_transient` (simulated retryable short write),
/// `output_file.flush`, `output_file.sync`, `output_file.dirsync`,
/// `output_file.close`, `output_file.rename`.

namespace csj {

/// Append-only buffered writer. Not thread safe.
class OutputFile {
 public:
  struct Options {
    /// Write to `<path>.tmp.<pid>` and rename onto `path` in Close(): the
    /// destination either keeps its previous content or appears complete.
    bool atomic = false;
    /// fsync() the file and its parent directory before/after closing, so a
    /// successful Close() survives power loss.
    bool sync_on_close = false;
    /// Keep the partial file on error and on abandonment instead of deleting
    /// it. Checkpointed runs set this: the bytes up to the last checkpoint
    /// are exactly what --resume needs. Forced on by OpenForResume().
    bool preserve_on_error = false;
    /// Backoff schedule for transient append faults (max_attempts = 1
    /// disables retrying).
    RetryPolicy retry = {};
  };

  OutputFile() = default;
  ~OutputFile();

  OutputFile(const OutputFile&) = delete;
  OutputFile& operator=(const OutputFile&) = delete;

  /// Opens the file at `path` for writing (truncating it immediately in
  /// non-atomic mode; on successful Close() in atomic mode). An existing
  /// non-regular `path` (a FIFO, a device) is written in place like a
  /// stream: never renamed over, fsynced or removed, whatever the options.
  Status Open(const std::string& path, const Options& options);
  Status Open(const std::string& path) { return Open(path, Options()); }

  /// Streams to an already-open descriptor (socket, pipe, stdout). The fd is
  /// dup()ed — the caller keeps ownership of the original. Atomic mode is
  /// meaningless for a stream (checked), nothing is ever deleted on error,
  /// and Close() flushes and closes only the duplicate. A peer that hangs up
  /// mid-stream surfaces as EPIPE, which Append maps to a sticky kCancelled
  /// (see below).
  Status OpenFd(int fd, const Options& options);
  Status OpenFd(int fd) { return OpenFd(fd, Options()); }

  /// Opens an existing file for a resumed run: keeps the first `keep_bytes`
  /// bytes (the last checkpoint's durable position), truncates everything
  /// after them, and appends from there. Requires non-atomic options;
  /// forces preserve_on_error (a resumable file must never be auto-deleted).
  /// bytes_written() continues from `keep_bytes`, i.e. it always reports the
  /// absolute output position.
  Status OpenForResume(const std::string& path, uint64_t keep_bytes,
                       const Options& options);

  /// Appends raw bytes. Returns the sticky error state: once any append
  /// fails (after transient retries are exhausted), the file is closed,
  /// partial output is deleted (unless preserved), and every later Append
  /// returns the original error. Appending to a file that was never opened,
  /// or after Close(), returns (but does not stick) a FailedPrecondition.
  /// EPIPE — the reader closed its end (`csj_tool join | head`, a client
  /// disconnect) — is not an I/O fault and not transient: it becomes a
  /// sticky kCancelled with no retry, so the producing join unwinds cleanly.
  Status Append(const char* data, size_t size);
  Status Append(const std::string& text) {
    return Append(text.data(), text.size());
  }

  /// Flushes stdio buffers to the OS. Errors stick.
  Status Flush();

  /// Durable mid-stream commit: flush + fsync. After an OK Sync(), every
  /// byte appended so far survives a crash of this process (checkpoints
  /// record bytes_written() immediately after a Sync). Errors stick.
  Status Sync();

  /// Flushes (and optionally fsyncs) buffers, closes, and — in atomic mode —
  /// renames the temporary onto the destination. Safe to call twice: the
  /// second call returns the sticky status of the first.
  Status Close();

  /// True when `path` exists and is not a regular file (a FIFO, a device).
  static bool IsNonRegular(const std::string& path);

  /// fsyncs the directory containing `path`, making a just-created or
  /// just-renamed directory entry durable. Failpoint: `output_file.dirsync`.
  static Status SyncContainingDir(const std::string& path);

  /// Sticky error state; OK while the writer is healthy.
  const Status& status() const { return status_; }

  bool is_open() const { return file_ != nullptr; }
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  /// Records the first error, closes the stream, and deletes the partial
  /// file (unless preserve_on_error). Returns the sticky status for
  /// tail-calling.
  Status Fail(Status status);

  /// Deletes the file being written unless options say to keep it.
  void RemoveWritePath();

  std::FILE* file_ = nullptr;
  std::string path_;        ///< destination path
  std::string write_path_;  ///< file actually being written (tmp if atomic)
  Options options_;
  Status status_;
  uint64_t bytes_written_ = 0;
};

/// Largest single append of the whole-file writers (tree index, paged
/// image, point file): the size of a join sink's block.
inline constexpr size_t kAppendChunkBytes = 64 * 1024;

/// Appends `size` bytes to `file` in appends of at most kAppendChunkBytes.
/// Returns the file's sticky status.
inline Status AppendInChunks(OutputFile* file, const void* data, size_t size) {
  const char* bytes = static_cast<const char*>(data);
  for (size_t done = 0; done < size; done += kAppendChunkBytes) {
    CSJ_RETURN_IF_ERROR(
        file->Append(bytes + done, std::min(kAppendChunkBytes, size - done)));
  }
  return file->status();
}

/// Adds `bytes` to the pending `block` and appends each whole
/// kAppendChunkBytes of it to `file`, so a writer of few-byte records makes
/// one append per chunk. Append the rest of `block` with AppendInChunks when
/// done. Returns the file's sticky status.
inline Status AppendToBlock(OutputFile* file, std::string* block,
                            std::string_view bytes) {
  block->append(bytes);
  const size_t whole = block->size() - block->size() % kAppendChunkBytes;
  if (whole == 0) return file->status();
  CSJ_RETURN_IF_ERROR(AppendInChunks(file, block->data(), whole));
  block->erase(0, whole);
  return Status::OK();
}

}  // namespace csj

#endif  // CSJ_STORAGE_OUTPUT_FILE_H_
