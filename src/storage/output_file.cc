#include "storage/output_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/check.h"
#include "util/failpoint.h"
#include "util/format.h"
#include "util/metrics.h"

namespace csj {

namespace {

std::string ErrnoSuffix() {
  return errno != 0 ? std::string(": ") + std::strerror(errno) : std::string();
}

}  // namespace

OutputFile::~OutputFile() {
  // Destruction without a successful Close() means the writer was abandoned
  // (error path or early exit): discard the partial file rather than leaving
  // truncated output that looks like a complete result — except for
  // checkpointed files, whose committed prefix a resume will reclaim.
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    RemoveWritePath();
  }
}

void OutputFile::RemoveWritePath() {
  if (!options_.preserve_on_error) std::remove(write_path_.c_str());
}

bool OutputFile::IsNonRegular(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
}

Status OutputFile::Open(const std::string& path, const Options& options) {
  CSJ_CHECK(file_ == nullptr) << "OutputFile already open: " << path_;
  path_ = path;
  options_ = options;
  if (IsNonRegular(path)) {
    // A FIFO or device is written in place, like a stream: a rename would
    // replace it with a regular file, an unlink would remove it, and it has
    // no contents to fsync.
    options_.atomic = false;
    options_.sync_on_close = false;
    options_.preserve_on_error = true;
  }
  write_path_ = options_.atomic
                    ? StrFormat("%s.tmp.%d", path.c_str(), getpid())
                    : path;
  status_ = Status::OK();
  bytes_written_ = 0;
  errno = 0;
  if (CSJ_FAILPOINT("output_file.open")) {
    return Fail(Status::IoError("injected open fault: " + write_path_));
  }
  file_ = std::fopen(write_path_.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open for write: " + write_path_ +
                              ErrnoSuffix());
    return status_;
  }
  // A generous stdio buffer keeps write syscalls off the join's hot path,
  // matching what a tuned DB output writer would do.
  std::setvbuf(file_, nullptr, _IOFBF, 1 << 20);
  return Status::OK();
}

Status OutputFile::OpenFd(int fd, const Options& options) {
  CSJ_CHECK(file_ == nullptr) << "OutputFile already open: " << path_;
  CSJ_CHECK(!options.atomic)
      << "atomic commit is a rename; a stream descriptor has no name";
  path_ = StrFormat("<fd:%d>", fd);
  options_ = options;
  options_.preserve_on_error = true;  // nothing on disk to delete
  write_path_ = path_;
  status_ = Status::OK();
  bytes_written_ = 0;
  errno = 0;
  if (CSJ_FAILPOINT("output_file.open")) {
    return Fail(Status::IoError("injected open fault: " + write_path_));
  }
  const int owned = ::dup(fd);
  if (owned < 0) {
    status_ = Status::IoError("cannot dup descriptor: " + path_ +
                              ErrnoSuffix());
    return status_;
  }
  file_ = ::fdopen(owned, "wb");
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot fdopen: " + path_ + ErrnoSuffix());
    ::close(owned);
    return status_;
  }
  std::setvbuf(file_, nullptr, _IOFBF, 1 << 20);
  return Status::OK();
}

Status OutputFile::OpenForResume(const std::string& path, uint64_t keep_bytes,
                                 const Options& options) {
  CSJ_CHECK(file_ == nullptr) << "OutputFile already open: " << path_;
  CSJ_CHECK(!options.atomic)
      << "resume writes directly to the destination; atomic mode would "
         "start a fresh temporary and orphan the checkpointed bytes";
  path_ = path;
  options_ = options;
  options_.preserve_on_error = true;  // resumable output is never auto-deleted
  write_path_ = path;
  status_ = Status::OK();
  bytes_written_ = 0;
  errno = 0;
  if (CSJ_FAILPOINT("output_file.open")) {
    return Fail(Status::IoError("injected open fault: " + write_path_));
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    status_ = Status::NotFound("cannot resume: output file missing: " + path +
                               ErrnoSuffix());
    return status_;
  }
  if (static_cast<uint64_t>(st.st_size) < keep_bytes) {
    // The checkpoint claims more durable bytes than the file holds — the
    // manifest and the output are out of step; resuming would corrupt.
    status_ = Status::FailedPrecondition(StrFormat(
        "cannot resume: %s holds %lld bytes but the checkpoint committed "
        "%llu",
        path.c_str(), static_cast<long long>(st.st_size),
        static_cast<unsigned long long>(keep_bytes)));
    return status_;
  }
  if (::truncate(path.c_str(), static_cast<off_t>(keep_bytes)) != 0) {
    status_ = Status::IoError("cannot truncate for resume: " + path +
                              ErrnoSuffix());
    return status_;
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open for resume: " + path +
                              ErrnoSuffix());
    return status_;
  }
  std::setvbuf(file_, nullptr, _IOFBF, 1 << 20);
  bytes_written_ = keep_bytes;
  CSJ_METRIC_COUNT("output_file.resumes", 1);
  return Status::OK();
}

Status OutputFile::Append(const char* data, size_t size) {
  if (file_ == nullptr) {
    if (!status_.ok()) return status_;  // sticky error from Open/Append/Close
    return Status::FailedPrecondition("append to closed file: " + path_);
  }
  CSJ_METRIC_SCOPED_TIMER("output_file.append_ns");
  RetryController retry(options_.retry);
  size_t done = 0;
  for (;;) {
    const size_t want = size - done;
    errno = 0;
    size_t written;
    bool injected_hard = false;
    bool injected_transient = false;
    if (CSJ_FAILPOINT("output_file.append")) {
      // Simulated hard short write: half the payload lands, then the device
      // fails permanently. Never retried.
      injected_hard = true;
      written = std::fwrite(data + done, 1, want / 2, file_);
    } else if (CSJ_FAILPOINT("output_file.append_transient")) {
      // Simulated transient short write: half lands, the rest is retried by
      // the backoff policy (arm with prob:P to model a flaky device).
      injected_transient = true;
      written = std::fwrite(data + done, 1, want / 2, file_);
    } else {
      written = std::fwrite(data + done, 1, want, file_);
    }
    const int write_errno = errno;
    bytes_written_ += written;
    done += written;
    CSJ_METRIC_COUNT("output_file.appends", 1);
    CSJ_METRIC_COUNT("output_file.bytes", written);
    // An injected fault writes a strict prefix (want/2 < want), so reaching
    // `size` means every byte genuinely landed.
    if (done == size) return Status::OK();
    if (!injected_hard && !injected_transient && write_errno == EPIPE) {
      // The reader hung up (`| head`, a client disconnect). That is a
      // consumer decision, not a device fault: no retry (the pipe stays
      // broken), no IoError — a clean sticky kCancelled the join unwinds on.
      CSJ_METRIC_COUNT("output_file.epipe_cancels", 1);
      return Fail(Status::Cancelled(StrFormat(
          "output consumer closed the stream: %s (%zu of %zu bytes)",
          write_path_.c_str(), done, size)));
    }
    if (injected_transient ||
        (!injected_hard && IsTransientErrno(write_errno))) {
      // Retry only the not-yet-landed suffix after a jittered backoff.
      std::clearerr(file_);
      if (retry.BackoffBeforeRetry()) continue;
      return Fail(Status::Unavailable(StrFormat(
          "write to %s still failing after %d retries (%zu of %zu bytes)",
          write_path_.c_str(), retry.retries(), done, size)));
    }
    return Fail(Status::IoError(
        StrFormat("short write to %s (%zu of %zu bytes)%s",
                  write_path_.c_str(), done, size,
                  std::ferror(file_) != 0 ? ErrnoSuffix().c_str() : "")));
  }
}

Status OutputFile::Flush() {
  if (file_ == nullptr) {
    if (!status_.ok()) return status_;
    return Status::FailedPrecondition("flush of closed file: " + path_);
  }
  errno = 0;
  if (CSJ_FAILPOINT("output_file.flush") || std::fflush(file_) != 0) {
    if (errno == EPIPE) {
      CSJ_METRIC_COUNT("output_file.epipe_cancels", 1);
      return Fail(Status::Cancelled("output consumer closed the stream: " +
                                    write_path_));
    }
    return Fail(Status::IoError("flush failed: " + write_path_ +
                                ErrnoSuffix()));
  }
  return Status::OK();
}

Status OutputFile::Sync() {
  CSJ_RETURN_IF_ERROR(Flush());
  errno = 0;
  if (CSJ_FAILPOINT("output_file.sync") || ::fsync(fileno(file_)) != 0) {
    return Fail(Status::IoError("fsync failed: " + write_path_ +
                                ErrnoSuffix()));
  }
  return Status::OK();
}

Status OutputFile::SyncContainingDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  errno = 0;
  if (CSJ_FAILPOINT("output_file.dirsync")) {
    return Status::IoError("injected directory fsync fault: " + dir);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory for fsync: " + dir +
                           ErrnoSuffix());
  }
  Status status;
  if (::fsync(fd) != 0) {
    status = Status::IoError("directory fsync failed: " + dir + ErrnoSuffix());
  }
  ::close(fd);
  return status;
}

Status OutputFile::Close() {
  if (file_ == nullptr) return status_;  // never opened, failed, or closed
  errno = 0;
  if (CSJ_FAILPOINT("output_file.flush") || std::fflush(file_) != 0) {
    if (errno == EPIPE) {
      CSJ_METRIC_COUNT("output_file.epipe_cancels", 1);
      return Fail(Status::Cancelled("output consumer closed the stream: " +
                                    write_path_));
    }
    return Fail(Status::IoError("flush failed: " + write_path_ +
                                ErrnoSuffix()));
  }
  if (options_.sync_on_close) {
    if (CSJ_FAILPOINT("output_file.sync") || ::fsync(fileno(file_)) != 0) {
      return Fail(Status::IoError("fsync failed: " + write_path_ +
                                  ErrnoSuffix()));
    }
  }
  const int close_rc = std::fclose(file_);
  file_ = nullptr;
  if (CSJ_FAILPOINT("output_file.close") || close_rc != 0) {
    status_ = Status::IoError("close failed: " + write_path_ + ErrnoSuffix());
    RemoveWritePath();
    return status_;
  }
  if (options_.atomic) {
    if (CSJ_FAILPOINT("output_file.rename") ||
        std::rename(write_path_.c_str(), path_.c_str()) != 0) {
      status_ = Status::IoError("rename failed: " + write_path_ + " -> " +
                                path_ + ErrnoSuffix());
      RemoveWritePath();
      return status_;
    }
  }
  if (options_.sync_on_close) {
    // The file's own fsync persisted its *contents*; the new directory entry
    // (created by open in non-atomic mode, by the commit rename in atomic
    // mode) lives in the parent directory and needs its own fsync, or an
    // atomically committed file can vanish on power loss. The destination is
    // already in place, so a dirsync failure reports reduced durability but
    // deletes nothing.
    const Status dir_status = SyncContainingDir(path_);
    if (!dir_status.ok()) {
      CSJ_METRIC_COUNT("output_file.errors", 1);
      status_ = dir_status;
      return status_;
    }
  }
  return Status::OK();
}

Status OutputFile::Fail(Status status) {
  if (status_.ok()) {
    CSJ_METRIC_COUNT("output_file.errors", 1);
    status_ = std::move(status);
  }
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  RemoveWritePath();
  return status_;
}

}  // namespace csj
