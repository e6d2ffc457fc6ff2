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
///    delta-coded ids in checksummed blocks.
///
/// One FileSink writes both: it encodes records into an open 64 KiB block
/// and appends each full block to its OutputFile on the calling thread.
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

/// Receives the join output. Counting of links/groups/bytes and of the links
/// the output implies happens here in the base class, the only place a
/// join's output is counted; subclasses only materialize. The sink adds its
/// counts to the process-wide sink.links, sink.groups and sink.bytes in
/// bulk, at Checkpoint(), Finish() and destruction: each add is what it
/// accepted since its last one.
///
/// Failure model: a sink that can no longer materialize output (e.g. a file
/// sink whose disk filled up) records a *sticky* error. From that moment
/// Link/Group become no-ops — nothing further is counted, so the counters
/// always describe what the sink actually accepted — and drivers poll
/// error() to abort the traversal early instead of emitting into a dead
/// sink. The first error wins and is also returned by Finish(). The implied
/// links count a record only if the sink is still healthy after writing
/// it, and a file sink subtracts those of records it loses afterwards, so
/// implied_links() describes what the output holds.
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
                                                   : 0),
        published_bytes_(bytes_) {
    CSJ_CHECK(id_width >= 1);
    CSJ_CHECK(accounting == OutputFormat::kText ||
              accounting == OutputFormat::kBinary)
        << "accounting model must be a materializable format";
  }
  explicit JoinSink(int id_width) : JoinSink(id_width, OutputFormat::kText) {}
  /// Publishes what the sink accepted since its last publish, also when it
  /// was never finished (a failed or abandoned join).
  virtual ~JoinSink() { PublishCounters(); }

  JoinSink(const JoinSink&) = delete;
  JoinSink& operator=(const JoinSink&) = delete;

  /// Emits one individual link. No-op once the sink is in error.
  void Link(PointId a, PointId b) {
    if (!error_.ok()) return;
    ++num_links_;
    bytes_ += accounting_ == OutputFormat::kBinary
                  ? binary_model_.AddRecord(binfmt::EncodedLinkBytes(a, b))
                  : 2 * static_cast<uint64_t>(id_width_ + 1);
    DoLink(a, b);
    if (error_.ok()) ++implied_links_;
  }

  /// Emits one group of mutually-qualifying points (k >= 2). No-op once the
  /// sink is in error.
  void Group(std::span<const PointId> members) {
    CSJ_DCHECK(members.size() >= 2);
    if (!error_.ok()) return;
    ++num_groups_;
    group_member_total_ += members.size();
    bytes_ += accounting_ == OutputFormat::kBinary
                  ? binary_model_.AddRecord(binfmt::EncodedGroupBytes(members))
                  : members.size() * static_cast<uint64_t>(id_width_ + 1);
    DoGroup(members);
    const uint64_t k = members.size();
    if (error_.ok()) implied_links_ += k * (k - 1) / 2;
  }

  /// Takes records counted for this sink elsewhere, as if each had been
  /// emitted here: the task loop's id-less buffers (core/similarity_join.h)
  /// commit this way. Only for a sink that takes_counts(); `tally` counts at
  /// this sink's id width in the text model. No-op once the sink is in
  /// error.
  void AddCounts(const JoinSink& tally);

  /// True for a sink whose counters follow from another sink's counters
  /// alone, without the records' ids: a CountingSink in the text model. The
  /// task loop buffers only counts for it.
  virtual bool takes_counts() const { return false; }

  /// Completes the output (flushes files). Must be called exactly once.
  virtual Status Finish() {
    PublishCounters();
    return error_;
  }

  /// Checkpoint support: makes everything emitted so far durable and fills
  /// `state` with the sink's exact mid-stream position (committed byte
  /// offset, open-block payload, counters). The base implementation covers
  /// sinks with no storage (counting/memory): committed_bytes stays 0.
  /// File sinks must be built from a checkpointable OutputSpec for this to
  /// define a resumable position.
  virtual Status Checkpoint(checkpoint::SinkState* state) {
    PublishCounters();
    if (!error_.ok()) return error_;
    ExportAccounting(state);
    return Status::OK();
  }

  /// Checkpoint support: restores the base-class accounting recorded in a
  /// manifest. Only valid on a sink that has not emitted anything yet;
  /// subclass resume constructors call this. The restored counts count as
  /// published: a resume re-seeds the registry from the manifest.
  void RestoreAccounting(const checkpoint::SinkState& state) {
    CSJ_CHECK(num_links_ == 0 && num_groups_ == 0)
        << "RestoreAccounting on a sink that already emitted output";
    num_links_ = state.num_links;
    num_groups_ = state.num_groups;
    group_member_total_ = state.group_member_total;
    implied_links_ = state.implied_links;
    bytes_ = state.accounted_bytes;
    binary_model_.RestoreFill(state.model_fill);
    published_links_ = num_links_;
    published_groups_ = num_groups_;
    published_bytes_ = bytes_;
  }

  /// Sticky error state; OK while the sink is accepting output.
  const Status& error() const { return error_; }

  int id_width() const { return id_width_; }
  /// The byte model bytes() reports in (kText or kBinary).
  OutputFormat accounting() const { return accounting_; }
  uint64_t num_links() const { return num_links_; }
  uint64_t num_groups() const { return num_groups_; }
  uint64_t group_member_total() const { return group_member_total_; }
  /// Links implied by the records the output holds: one per link, k(k-1)/2
  /// per group of k.
  uint64_t implied_links() const { return implied_links_; }

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

  /// Bytes a file sink has encoded so far: appended to its file plus held
  /// in its open block (0 for counting and memory sinks).
  virtual uint64_t materialized_bytes() const { return 0; }

  /// True if a capped file sink hit its cap and stopped writing (it keeps
  /// counting; see OutputSpec::cap_bytes).
  virtual bool truncated() const { return false; }

 protected:
  virtual void DoLink(PointId a, PointId b) = 0;
  virtual void DoGroup(std::span<const PointId> members) = 0;

  /// Adds what the sink accepted since its last publish to the process-wide
  /// sink.* counters.
  void PublishCounters();

  /// For a sink whose records are committed into another sink later (the
  /// task loop's task buffers): it publishes nothing, so each record is
  /// counted once, by the sink that finally accepts it.
  void DisablePublishing() { publish_ = false; }

  /// Records the sink's first error; later calls keep the original.
  void SetError(const Status& status) {
    if (error_.ok() && !status.ok()) error_ = status;
  }

  /// Drops the links implied by records the sink counted but then lost.
  void DropImpliedLinks(uint64_t lost) { implied_links_ -= lost; }

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
    state->implied_links = implied_links_;
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
  uint64_t implied_links_ = 0;
  uint64_t bytes_ = 0;
  /// The counts the last publish reached.
  uint64_t published_links_ = 0;
  uint64_t published_groups_ = 0;
  uint64_t published_bytes_ = 0;
  bool publish_ = true;
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

  bool takes_counts() const override {
    return accounting() == OutputFormat::kText;
  }

 protected:
  void DoLink(PointId, PointId) override {}
  void DoGroup(std::span<const PointId>) override {}
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
  /// fsync before closing (and, for a path, before the commit rename).
  bool sync_on_close = false;
  /// Nonzero: stop writing at this size but keep counting (text files only).
  uint64_t cap_bytes = 0;
  /// A path output commits by temp-file + rename in Finish(). A checkpointed
  /// run instead streams straight to `path` and keeps the partial file on
  /// error or abandonment, so `--resume` can truncate it back to the last
  /// checkpoint. Incompatible with cap_bytes.
  bool checkpointable = false;
  /// Byte model a kNone (counting) sink reports in.
  OutputFormat count_model = OutputFormat::kText;
  /// Memory budget a file sink's open block is charged against. Denial
  /// fails MakeSink with ResourceExhausted instead of letting the join
  /// start. Not owned.
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

/// Writes the text or CSJ2 format of an OutputSpec to a file or descriptor.
///
/// Records are encoded into an open block of `block_payload_bytes` (64 KiB
/// by default). A record that would overflow the block first seals it (CSJ2
/// adds the block header and checksum; text adds nothing) and appends it to
/// the OutputFile on the calling thread. Finish() appends the last block,
/// plus CSJ2's EOF marker and footer, and commits the file.
///
/// Robust by default: a path output is written atomically (temp + rename in
/// Finish), every I/O error, a failed open included, becomes the sink's
/// sticky error so drivers stop early, and a failed or abandoned sink
/// leaves no partial file at the path (the destination keeps whatever it
/// held before). A checkpointable sink keeps its partial file for
/// `--resume` instead.
class FileSink final : public JoinSink {
 public:
  /// Opens what `spec` describes (format kText or kBinary; MakeSink
  /// validates the rest). With `resume`, continues a checkpointed file:
  /// truncates `spec.path` to the committed offset and reloads the open
  /// block and the counters, so blocks seal at exactly the byte positions
  /// an uninterrupted run would have produced.
  explicit FileSink(
      const OutputSpec& spec, const checkpoint::SinkState* resume = nullptr,
      size_t block_payload_bytes = binfmt::kDefaultBlockPayloadBytes);
  /// A fresh file at `path`, committed by rename in Finish().
  FileSink(int id_width, std::string path,
           OutputFormat format = OutputFormat::kText,
           size_t block_payload_bytes = binfmt::kDefaultBlockPayloadBytes);

  /// An abandoned checkpointable sink keeps its file for `--resume`: it
  /// appends its open block first, so the file holds every record the sink
  /// accepted (a resume truncates back to the manifest's offset anyway).
  ~FileSink() override;

  /// Appends the open block (and CSJ2's EOF marker and footer) and commits
  /// the file. Returns the sink's sticky error if any write failed,
  /// otherwise the close/rename status.
  Status Finish() override;

  /// Flush + fsync, then records the durable offset of the appended blocks
  /// plus the open block's payload.
  Status Checkpoint(checkpoint::SinkState* state) override;

  uint64_t materialized_bytes() const override {
    return file_.bytes_written() + PayloadFill();
  }
  bool truncated() const override { return truncated_; }
  /// Status of the open performed by the constructor (also sets error()).
  const Status& open_status() const { return open_status_; }

 protected:
  void DoLink(PointId a, PointId b) override;
  void DoGroup(std::span<const PointId> members) override;

 private:
  /// Decides whether a record of `record_bytes` is written: false past the
  /// cap (the record is still counted) or once the sink is in error. Seals
  /// the open block first if the record would overflow it.
  bool Admit(size_t record_bytes);
  /// Appends the open block to the file (CSJ2: after patching its header)
  /// and starts an empty one. If the append fails, the block's records
  /// that did not land whole are lost, and so are the links they imply.
  void SealBlock();
  /// Appends `bytes` to the file; an error becomes the sticky error.
  void Write(const std::string& bytes);
  size_t PayloadFill() const { return block_.size() - header_bytes_; }

  const bool binary_;
  const size_t header_bytes_;  ///< block header slot: 12 for CSJ2, 0 for text
  const size_t block_payload_bytes_;
  const uint64_t cap_bytes_;
  const bool checkpointable_;
  std::string path_;
  OutputFile file_;
  Status open_status_;
  ScopedCharge block_charge_;  ///< the open block, held against the budget
  std::string block_;  ///< header slot + payload of the block being filled
  uint32_t record_count_ = 0;
  uint64_t id_total_ = 0;
  bool truncated_ = false;
  bool finished_ = false;
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
