#ifndef CSJ_CORE_SINK_H_
#define CSJ_CORE_SINK_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "storage/binary_format.h"
#include "storage/block_writer.h"
#include "storage/checkpoint.h"
#include "storage/output_file.h"
#include "util/exec_context.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/status.h"

/// \file
/// Join-output sinks and the OutputSpec/MakeSink factory.
///
/// Two materialized formats share one sink interface:
///  * text — the paper's format: every point id zero-padded to a fixed
///    width, a link is a line "0001 0002", a group a line "0001 0002 0003".
///  * binary — the CSJ2 compact format (storage/binary_format.h): varint +
///    delta-coded ids in checksummed blocks, written by a background thread.
///
/// Byte accounting is format-aware: bytes() always reports the exact size
/// the finished output file will have in the sink's format, so a
/// CountingSink configured for either format predicts the materialized size
/// to the byte without writing anything.
///
/// Sinks are obtained through MakeSink(OutputSpec); only core/, storage/ and
/// tests construct concrete sink classes directly.

namespace csj {

/// Materialized output formats (kNone counts without materializing).
enum class OutputFormat {
  kNone,
  kText,
  kBinary,
};

/// "none", "text" or "binary".
const char* OutputFormatName(OutputFormat format);
/// Inverse of OutputFormatName. Returns false on unknown names.
bool ParseOutputFormat(const std::string& name, OutputFormat* format);

/// Receives the join output. Counting of links/groups/bytes happens here in
/// the base class; subclasses only materialize.
///
/// Failure model: a sink that can no longer materialize output (e.g. a file
/// sink whose disk filled up) records a *sticky* error. From that moment
/// Link/Group become no-ops — nothing further is counted, so the counters
/// always describe what the sink actually accepted — and drivers poll
/// error() to abort the traversal early instead of emitting into a dead
/// sink. The first error wins and is also returned by Finish().
class JoinSink {
 public:
  /// \param id_width zero-padding width; use IdWidthFor(n) for n points.
  /// \param accounting the byte model bytes() reports in; kText or kBinary.
  JoinSink(int id_width, OutputFormat accounting)
      : JoinSink(id_width, accounting, binfmt::kDefaultBlockPayloadBytes) {}

  /// \param binary_block_target sealed-block payload target the binary size
  /// model mirrors; must match the writing sink's sealing rule.
  JoinSink(int id_width, OutputFormat accounting, size_t binary_block_target)
      : id_width_(id_width),
        accounting_(accounting),
        binary_model_(binary_block_target),
        bytes_(accounting == OutputFormat::kBinary ? binfmt::kFileHeaderBytes
                                                   : 0) {
    CSJ_CHECK(id_width >= 1);
    CSJ_CHECK(accounting == OutputFormat::kText ||
              accounting == OutputFormat::kBinary)
        << "accounting model must be a materializable format";
  }
  explicit JoinSink(int id_width) : JoinSink(id_width, OutputFormat::kText) {}
  virtual ~JoinSink() = default;

  JoinSink(const JoinSink&) = delete;
  JoinSink& operator=(const JoinSink&) = delete;

  /// Emits one individual link. No-op once the sink is in error.
  void Link(PointId a, PointId b) {
    if (!error_.ok()) return;
    ++num_links_;
    const uint64_t delta =
        accounting_ == OutputFormat::kBinary
            ? binary_model_.AddRecord(binfmt::EncodedLinkBytes(a, b))
            : 2 * static_cast<uint64_t>(id_width_ + 1);
    bytes_ += delta;
    if (record_metrics_) {
      CSJ_METRIC_COUNT("sink.links", 1);
      CSJ_METRIC_COUNT("sink.bytes", delta);
    }
    DoLink(a, b);
  }

  /// Emits one group of mutually-qualifying points (k >= 2). No-op once the
  /// sink is in error.
  void Group(std::span<const PointId> members) {
    CSJ_DCHECK(members.size() >= 2);
    if (!error_.ok()) return;
    ++num_groups_;
    group_member_total_ += members.size();
    const uint64_t delta =
        accounting_ == OutputFormat::kBinary
            ? binary_model_.AddRecord(binfmt::EncodedGroupBytes(members))
            : members.size() * static_cast<uint64_t>(id_width_ + 1);
    bytes_ += delta;
    if (record_metrics_) {
      CSJ_METRIC_COUNT("sink.groups", 1);
      CSJ_METRIC_COUNT("sink.bytes", delta);
    }
    DoGroup(members);
  }

  /// Completes the output (flushes files). Must be called exactly once.
  virtual Status Finish() { return error_; }

  /// Checkpoint support: makes everything emitted so far durable and fills
  /// `state` with the sink's exact mid-stream position (committed byte
  /// offset, open-block payload, counters). The base implementation covers
  /// sinks with no storage (counting/memory): committed_bytes stays 0.
  /// File sinks must be constructed checkpointable (see their Options) for
  /// this to define a resumable position.
  virtual Status Checkpoint(checkpoint::SinkState* state) {
    if (!error_.ok()) return error_;
    ExportAccounting(state);
    return Status::OK();
  }

  /// Checkpoint support: restores the base-class accounting recorded in a
  /// manifest. Only valid on a sink that has not emitted anything yet;
  /// subclass resume constructors call this.
  void RestoreAccounting(const checkpoint::SinkState& state) {
    CSJ_CHECK(num_links_ == 0 && num_groups_ == 0)
        << "RestoreAccounting on a sink that already emitted output";
    num_links_ = state.num_links;
    num_groups_ = state.num_groups;
    group_member_total_ = state.group_member_total;
    bytes_ = state.accounted_bytes;
    binary_model_.RestoreFill(state.model_fill);
  }

  /// Sticky error state; OK while the sink is accepting output.
  const Status& error() const { return error_; }

  int id_width() const { return id_width_; }
  /// The byte model bytes() reports in (kText or kBinary).
  OutputFormat accounting() const { return accounting_; }
  uint64_t num_links() const { return num_links_; }
  uint64_t num_groups() const { return num_groups_; }
  uint64_t group_member_total() const { return group_member_total_; }

  /// Exact size in bytes the finished output file has in this sink's
  /// accounting format, for everything emitted so far — i.e. the size
  /// Finish() would commit right now. Text: each id takes id_width chars
  /// plus a separator/newline. Binary: varint records plus block, header
  /// and footer overhead (see docs/OUTPUT_FORMAT.md for the size model).
  uint64_t bytes() const {
    return accounting_ == OutputFormat::kBinary
               ? bytes_ + binary_model_.CloseBytes()
               : bytes_;
  }

  /// Bytes actually written to storage so far (0 for counting and memory
  /// sinks; may trail bytes() while a background writer catches up).
  virtual uint64_t materialized_bytes() const { return 0; }

  /// True if a capped file sink hit its cap and stopped writing (it keeps
  /// counting; see FileSink::Options::cap_bytes).
  virtual bool truncated() const { return false; }

 protected:
  virtual void DoLink(PointId a, PointId b) = 0;
  virtual void DoGroup(std::span<const PointId> members) = 0;

  /// For a sink whose records are re-emitted into another sink later (the
  /// task loop's task buffers): its records stay out of the
  /// process-wide sink.* counters, so each record is counted once, by the
  /// sink that finally accepts it.
  void DisableRecordMetrics() { record_metrics_ = false; }

  /// Records the sink's first error; later calls keep the original.
  void SetError(const Status& status) {
    if (error_.ok() && !status.ok()) error_ = status;
  }

  /// Fills the base-class accounting fields of a SinkState (the inverse of
  /// RestoreAccounting). Subclass Checkpoint() overrides call this and add
  /// their storage position on top.
  void ExportAccounting(checkpoint::SinkState* state) const {
    state->format = static_cast<uint8_t>(OutputFormat::kNone);
    state->id_width = static_cast<uint32_t>(id_width_);
    state->committed_bytes = 0;
    state->accounted_bytes = bytes_;
    state->model_fill = binary_model_.fill();
    state->num_links = num_links_;
    state->num_groups = num_groups_;
    state->group_member_total = group_member_total_;
    state->id_total = 0;
    state->partial_records = 0;
    state->partial_payload.clear();
  }

 private:
  int id_width_;
  OutputFormat accounting_;
  binfmt::BinarySizeModel binary_model_;
  Status error_;
  uint64_t num_links_ = 0;
  uint64_t num_groups_ = 0;
  uint64_t group_member_total_ = 0;
  uint64_t bytes_ = 0;
  bool record_metrics_ = true;
};

/// Convenience: zero-pad width for ids in [0, n).
inline int IdWidthFor(uint64_t n) {
  return DecimalWidth(n == 0 ? 0 : n - 1);
}

/// Counts links/groups/bytes without materializing anything. The default
/// sink for timing experiments where write time must be excluded; with a
/// kBinary model it predicts the exact CSJ2 file size of a run.
class CountingSink final : public JoinSink {
 public:
  CountingSink(int id_width, OutputFormat model)
      : JoinSink(id_width, model) {}
  explicit CountingSink(int id_width)
      : CountingSink(id_width, OutputFormat::kText) {}

 protected:
  void DoLink(PointId, PointId) override {}
  void DoGroup(std::span<const PointId>) override {}
};

/// Writes the paper's text format to a file through a buffered OutputFile.
///
/// Robust by default: the file is written atomically (temp + rename in
/// Finish), every I/O error — including a failed Open — becomes the sink's
/// sticky error, and a failed or abandoned sink leaves no partial file at
/// `path` (the destination keeps whatever it held before).
class FileSink final : public JoinSink {
 public:
  struct Options {
    /// Temp-file + rename commit in Finish(). Disable to stream directly to
    /// `path` (the pre-hardening behavior; partial output is still deleted
    /// on error).
    bool atomic = true;
    /// fsync before the commit rename; for output that must survive crashes.
    bool sync_on_close = false;
    /// If nonzero, stop *writing* once the file reaches this many bytes but
    /// keep counting — truncated() flips true. Lets benchmarks measure real
    /// write costs on explosive outputs without filling the disk.
    uint64_t cap_bytes = 0;
    /// Checkpointed run: stream straight to `path` (no temp + rename) and
    /// preserve the partial file on error/abandonment so `--resume` can
    /// truncate it back to the last checkpoint. Overrides `atomic`;
    /// incompatible with cap_bytes (enforced by MakeSink).
    bool checkpointable = false;
    /// >= 0: stream to this already-open descriptor (dup()ed; the caller
    /// keeps the original) instead of opening `path` — how a server points
    /// the sink at a client socket. Forces non-atomic; `path` becomes a
    /// display label only.
    int fd = -1;
  };

  FileSink(int id_width, std::string path, const Options& options);
  FileSink(int id_width, std::string path)
      : FileSink(id_width, std::move(path), Options()) {}
  /// Resumes a checkpointable sink mid-stream: truncates `path` to the
  /// manifest's committed byte offset and restores the counters.
  FileSink(int id_width, std::string path, const Options& options,
           const checkpoint::SinkState& resume);

  /// Commits the file. Returns the sink's sticky error if any write failed,
  /// otherwise the close/rename status.
  Status Finish() override;

  /// Flush + fsync, then records the durable record-boundary offset.
  Status Checkpoint(checkpoint::SinkState* state) override;

  const std::string& path() const { return path_; }
  /// Bytes actually written so far (matches bytes() after Finish() unless
  /// capped).
  uint64_t file_bytes() const { return file_.bytes_written(); }
  uint64_t materialized_bytes() const override {
    return file_.bytes_written();
  }
  bool truncated() const override { return truncated_; }
  /// Status of the Open performed by the constructor (also sets error()).
  const Status& open_status() const { return open_status_; }

 protected:
  void DoLink(PointId a, PointId b) override;
  void DoGroup(std::span<const PointId> members) override;

 private:
  void AppendId(PointId id, char terminator);
  bool ShouldWrite(size_t ids);

  std::string path_;
  Options options_;
  OutputFile file_;
  Status open_status_;
  bool truncated_ = false;
  std::string scratch_;
};

/// Writes the CSJ2 compact binary format (storage/binary_format.h) through
/// an asynchronous double-buffered block writer: the join thread encodes
/// records into a block buffer; sealed blocks (checksummed, length-prefixed)
/// are flushed by a background thread, overlapping encode with disk I/O.
///
/// Same robustness contract as FileSink: atomic temp+rename commit by
/// default, every I/O error (the background thread's included) becomes the
/// sink's sticky error so drivers cancel the traversal early, and a failed
/// or abandoned sink leaves no partial file behind. The `output_file.*`
/// failpoints fire on the writer thread and surface here.
class BinaryFileSink final : public JoinSink {
 public:
  struct Options {
    /// Temp-file + rename commit in Finish().
    bool atomic = true;
    /// fsync before the commit rename.
    bool sync_on_close = false;
    /// Sealed-block payload target (records never span blocks).
    size_t block_payload_bytes = binfmt::kDefaultBlockPayloadBytes;
    /// Checkpointed run: stream straight to `path` and preserve the partial
    /// file on error/abandonment for `--resume`. Overrides `atomic`.
    bool checkpointable = false;
    /// Charge the sink's block buffers — the open block plus the async
    /// writer's queue and free list — against this budget at construction.
    /// Denial becomes the sink's sticky open error (ResourceExhausted), so
    /// MakeSink fails fast before the join starts. Not owned; may be null.
    MemoryBudget* budget = nullptr;
    /// >= 0: stream CSJ2 to this already-open descriptor (dup()ed) instead
    /// of opening `path`. Forces non-atomic; `path` is a label only.
    int fd = -1;
  };

  BinaryFileSink(int id_width, std::string path, const Options& options);
  BinaryFileSink(int id_width, std::string path)
      : BinaryFileSink(id_width, std::move(path), Options()) {}
  /// Resumes a checkpointable sink mid-stream: truncates `path` to the last
  /// sealed-block boundary and reloads the open block's payload, so block
  /// sealing continues at exactly the byte positions an uninterrupted run
  /// would have produced.
  BinaryFileSink(int id_width, std::string path, const Options& options,
                 const checkpoint::SinkState& resume);
  ~BinaryFileSink() override;

  /// Seals the final block, appends the EOF marker + footer, joins the
  /// writer thread and commits the file.
  Status Finish() override;

  /// Drains the background writer, fsyncs, and records the durable
  /// sealed-block offset plus the open block's payload.
  Status Checkpoint(checkpoint::SinkState* state) override;

  const std::string& path() const { return path_; }
  uint64_t materialized_bytes() const override {
    return writer_ != nullptr ? writer_->bytes_submitted() : 0;
  }
  /// Status of the Open performed by the constructor (also sets error()).
  const Status& open_status() const { return open_status_; }

 protected:
  void DoLink(PointId a, PointId b) override;
  void DoGroup(std::span<const PointId> members) override;

 private:
  /// Reserves the block-buffer footprint against options_.budget (no-op
  /// without one). On denial sets the sticky ResourceExhausted open error.
  bool ChargeBuffers();
  /// Pulls a background write error into the sink's sticky error.
  void PollWriter() {
    if (writer_ != nullptr && !writer_->ok()) SetError(writer_->status());
  }
  size_t PayloadFill() const {
    return block_.size() - binfmt::kBlockHeaderBytes;
  }
  void StartBlock();
  void SealBlock();

  std::string path_;
  Options options_;
  OutputFile file_;
  Status open_status_;
  ScopedCharge buffer_charge_;  ///< block buffers held against the budget
  std::unique_ptr<AsyncBlockWriter> writer_;
  std::string block_;  ///< header slot + payload of the block being filled
  uint32_t record_count_ = 0;
  uint64_t id_total_ = 0;
  bool finished_ = false;
};

/// Retains every link and group in memory, for tests and expansion.
class MemorySink final : public JoinSink {
 public:
  explicit MemorySink(int id_width) : JoinSink(id_width) {}

  const std::vector<std::pair<PointId, PointId>>& links() const {
    return links_;
  }
  const std::vector<std::vector<PointId>>& groups() const { return groups_; }

 protected:
  void DoLink(PointId a, PointId b) override { links_.emplace_back(a, b); }
  void DoGroup(std::span<const PointId> members) override {
    groups_.emplace_back(members.begin(), members.end());
  }

 private:
  std::vector<std::pair<PointId, PointId>> links_;
  std::vector<std::vector<PointId>> groups_;
};

/// Declarative description of where and how a join's output goes. The one
/// way user code (tools, benches, examples) obtains a sink.
struct OutputSpec {
  /// kNone counts only; kText/kBinary materialize to `path`.
  OutputFormat format = OutputFormat::kText;
  std::string path;
  /// Zero-pad width of the ids; use IdWidthFor(n) (the helpers below do).
  int id_width = 1;
  /// Temp-file + rename commit (file formats).
  bool atomic = true;
  /// fsync before the commit rename (file formats).
  bool sync_on_close = false;
  /// Nonzero: stop writing at this size but keep counting (text files only).
  uint64_t cap_bytes = 0;
  /// Checkpointed run: stream straight to `path` and preserve partial output
  /// for `--resume` (see FileSink/BinaryFileSink options). Overrides
  /// `atomic`; incompatible with cap_bytes.
  bool checkpointable = false;
  /// Byte model a kNone (counting) sink reports in.
  OutputFormat count_model = OutputFormat::kText;
  /// Memory budget the sink's buffers are charged against (binary sinks
  /// hold several block-sized buffers). Denial fails MakeSink with
  /// ResourceExhausted instead of letting the join start. Not owned.
  MemoryBudget* budget = nullptr;
  /// >= 0: stream to this already-open descriptor (socket, pipe) instead of
  /// opening `path`. The fd is dup()ed — the caller keeps ownership. Only
  /// text/binary formats; atomic commit, checkpointing and cap_bytes do not
  /// apply to a stream (enforced by MakeSink). A peer hang-up mid-stream
  /// becomes the sink's sticky kCancelled (EPIPE mapping in OutputFile).
  int fd = -1;

  /// Streaming sink over an open descriptor, over ids in [0, num_points).
  static OutputSpec Stream(int fd, uint64_t num_points,
                           OutputFormat format = OutputFormat::kText) {
    OutputSpec spec;
    spec.format = format;
    spec.fd = fd;
    spec.id_width = IdWidthFor(num_points);
    spec.atomic = false;
    return spec;
  }

  /// Counting sink over ids in [0, num_points), in the given byte model.
  static OutputSpec Counting(uint64_t num_points,
                             OutputFormat model = OutputFormat::kText) {
    OutputSpec spec;
    spec.format = OutputFormat::kNone;
    spec.id_width = IdWidthFor(num_points);
    spec.count_model = model;
    return spec;
  }

  /// File sink at `path` over ids in [0, num_points).
  static OutputSpec File(std::string path, uint64_t num_points,
                         OutputFormat format = OutputFormat::kText) {
    OutputSpec spec;
    spec.format = format;
    spec.path = std::move(path);
    spec.id_width = IdWidthFor(num_points);
    return spec;
  }
};

/// Builds the sink an OutputSpec describes. Fails fast: an unopenable file
/// is reported here, not deferred to the first write. kNone ignores `path`.
Result<std::unique_ptr<JoinSink>> MakeSink(const OutputSpec& spec);

/// MakeSink for contexts without error plumbing (benches): aborts with the
/// status message on failure.
std::unique_ptr<JoinSink> MakeSinkOrDie(const OutputSpec& spec);

/// Rebuilds a checkpointable sink mid-stream from a manifest's sink state:
/// validates that `spec` matches the state (format, id width), truncates the
/// output back to the committed boundary and restores every counter, so
/// emission continues exactly where the checkpoint left off. `spec` must
/// have checkpointable set for materializing formats.
Result<std::unique_ptr<JoinSink>> ResumeSink(const OutputSpec& spec,
                                             const checkpoint::SinkState& state);

}  // namespace csj

#endif  // CSJ_CORE_SINK_H_
