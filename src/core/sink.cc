#include "core/sink.h"

#include "core/join_stats.h"

namespace csj {

const char* OutputFormatName(OutputFormat format) {
  switch (format) {
    case OutputFormat::kNone:
      return "none";
    case OutputFormat::kText:
      return "text";
    case OutputFormat::kBinary:
      return "binary";
  }
  return "unknown";
}

bool ParseOutputFormat(const std::string& name, OutputFormat* format) {
  if (name == "none") {
    *format = OutputFormat::kNone;
  } else if (name == "text") {
    *format = OutputFormat::kText;
  } else if (name == "binary") {
    *format = OutputFormat::kBinary;
  } else {
    return false;
  }
  return true;
}

void JoinSink::AddCounts(const JoinSink& tally) {
  CSJ_CHECK(takes_counts()) << "AddCounts on a sink that needs the records";
  CSJ_CHECK(tally.accounting_ == OutputFormat::kText &&
            tally.id_width_ == id_width_);
  if (!error_.ok()) return;
  num_links_ += tally.num_links_;
  num_groups_ += tally.num_groups_;
  group_member_total_ += tally.group_member_total_;
  implied_links_ += tally.implied_links_;
  bytes_ += tally.bytes_;
}

void JoinSink::PublishCounters() {
  if (!publish_) return;
  // A counter appears once a sink has accepted a record of its kind.
  if (num_links_ != published_links_) {
    CSJ_METRIC_COUNT("sink.links", num_links_ - published_links_);
  }
  if (num_groups_ != published_groups_) {
    CSJ_METRIC_COUNT("sink.groups", num_groups_ - published_groups_);
  }
  if (bytes_ != published_bytes_) {
    CSJ_METRIC_COUNT("sink.bytes", bytes_ - published_bytes_);
  }
  published_links_ = num_links_;
  published_groups_ = num_groups_;
  published_bytes_ = bytes_;
}

namespace {

/// Appends `id` zero-padded to `width` digits (a wider id in full), then
/// `terminator`.
void AppendTextId(std::string* out, PointId id, int width, char terminator) {
  char buf[24];
  int pos = 24;
  uint64_t v = id;
  do {
    buf[--pos] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  const int digits = 24 - pos;
  if (digits < width) out->append(static_cast<size_t>(width - digits), '0');
  out->append(buf + pos, static_cast<size_t>(digits));
  out->push_back(terminator);
}

/// Links implied by the complete text lines in [data, data + size): a line
/// of k ids implies k(k-1)/2.
uint64_t ImpliedByTextLines(const char* data, size_t size) {
  uint64_t implied = 0;
  uint64_t ids = 1;
  for (size_t i = 0; i < size; ++i) {
    if (data[i] == ' ') {
      ++ids;
    } else if (data[i] == '\n') {
      implied += ids * (ids - 1) / 2;
      ids = 1;
    }
  }
  return implied;
}

/// Links implied by the CSJ2 records in [data, data + size): a link, or a
/// group of k ids implying k(k-1)/2.
uint64_t ImpliedByCsj2Records(const char* data, size_t size) {
  uint64_t implied = 0;
  size_t pos = 0;
  auto next = [&](uint64_t* value) {
    const size_t n = binfmt::ParseVarint(data + pos, size - pos, value);
    pos += n;
    return n > 0;
  };
  uint64_t tag = 0;
  uint64_t id = 0;
  while (pos < size && next(&tag)) {
    const uint64_t k = tag == 0 ? 2 : tag;
    implied += k * (k - 1) / 2;
    for (uint64_t i = 0; i < k; ++i) {
      if (!next(&id)) return implied;
    }
  }
  return implied;
}

}  // namespace

FileSink::FileSink(const OutputSpec& spec,
                   const checkpoint::SinkState* resume,
                   size_t block_payload_bytes)
    : JoinSink(spec.id_width, spec.format, block_payload_bytes),
      binary_(spec.format == OutputFormat::kBinary),
      header_bytes_(binary_ ? binfmt::kBlockHeaderBytes : 0),
      block_payload_bytes_(block_payload_bytes),
      cap_bytes_(spec.cap_bytes),
      checkpointable_(spec.checkpointable),
      path_(spec.path) {
  OutputFile::Options file_options;
  // A path commits by rename unless checkpointed: checkpointable output
  // streams straight to the destination and survives errors and kills, its
  // bytes up to the last checkpoint being the resume state.
  file_options.atomic = !spec.checkpointable && spec.fd < 0;
  file_options.sync_on_close = spec.sync_on_close;
  file_options.preserve_on_error = spec.checkpointable;
  if (resume != nullptr) {
    CSJ_CHECK(spec.checkpointable)
        << "resuming requires a checkpointable sink: " << path_;
    CSJ_CHECK(!binary_ ||
              resume->model_fill == resume->partial_payload.size())
        << "manifest sink state inconsistent: model fill "
        << resume->model_fill << " vs " << resume->partial_payload.size()
        << " partial payload bytes";
    open_status_ =
        file_.OpenForResume(path_, resume->committed_bytes, file_options);
  } else if (spec.fd >= 0) {
    open_status_ = file_.OpenFd(spec.fd, file_options);
  } else {
    open_status_ = file_.Open(path_, file_options);
  }
  const uint64_t block_bytes = header_bytes_ + block_payload_bytes;
  if (open_status_.ok() && spec.budget != nullptr &&
      !block_charge_.Acquire(spec.budget, block_bytes)) {
    open_status_ = Status::ResourceExhausted(StrFormat(
        "memory budget exhausted reserving the %llu-byte output block for %s",
        static_cast<unsigned long long>(block_bytes), path_.c_str()));
  }
  SetError(open_status_);
  if (!open_status_.ok()) return;
  block_.reserve(block_bytes);
  block_.assign(header_bytes_, '\0');  // header slot, patched on seal
  if (resume != nullptr) {
    // The committed prefix holds the file header and every appended block;
    // only the open block needs reconstructing.
    RestoreAccounting(*resume);
    block_ += resume->partial_payload;
    record_count_ = static_cast<uint32_t>(resume->partial_records);
    id_total_ = resume->id_total;
  } else if (binary_) {
    std::string header;
    binfmt::AppendFileHeader(&header, id_width());
    Write(header);
  }
}

FileSink::FileSink(int id_width, std::string path, OutputFormat format,
                   size_t block_payload_bytes)
    : FileSink(OutputSpec{.format = format,
                          .path = std::move(path),
                          .id_width = id_width},
               nullptr, block_payload_bytes) {}

FileSink::~FileSink() {
  if (!finished_ && checkpointable_ && error().ok() && PayloadFill() > 0) {
    SealBlock();
  }
}

void FileSink::Write(const std::string& bytes) {
  SetError(file_.Append(bytes));
  if (binary_ && error().ok()) {
    CSJ_METRIC_COUNT("block_writer.flushed_bytes", bytes.size());
  }
}

void FileSink::SealBlock() {
  if (binary_) {
    binfmt::BlockHeader header;
    header.payload_bytes = static_cast<uint32_t>(PayloadFill());
    header.record_count = record_count_;
    header.crc32 =
        binfmt::Crc32(block_.data() + header_bytes_, PayloadFill());
    binfmt::PatchBlockHeader(&block_, 0, header);
    CSJ_METRIC_COUNT("sink.binary_blocks", 1);
  }
  const uint64_t offset = file_.bytes_written();
  Write(block_);
  if (!error().ok()) {
    // The block's records are lost, except whole text lines that landed
    // before the failure; a torn CSJ2 block holds none.
    const char* payload = block_.data() + header_bytes_;
    const size_t landed = static_cast<size_t>(file_.bytes_written() - offset);
    DropImpliedLinks(binary_ ? ImpliedByCsj2Records(payload, PayloadFill())
                             : ImpliedByTextLines(payload, PayloadFill()) -
                                   ImpliedByTextLines(payload, landed));
  }
  block_.resize(header_bytes_);
  record_count_ = 0;
}

bool FileSink::Admit(size_t record_bytes) {
  if (cap_bytes_ != 0 && materialized_bytes() + record_bytes > cap_bytes_) {
    truncated_ = true;
    return false;
  }
  if (binfmt::WouldSealBlock(PayloadFill(), record_bytes,
                             block_payload_bytes_)) {
    SealBlock();
  }
  return error().ok();
}

void FileSink::DoLink(PointId a, PointId b) {
  if (binary_) {
    if (!Admit(binfmt::EncodedLinkBytes(a, b))) return;
    binfmt::AppendLinkRecord(&block_, a, b);
  } else {
    if (!Admit(2 * static_cast<size_t>(id_width() + 1))) return;
    AppendTextId(&block_, a, id_width(), ' ');
    AppendTextId(&block_, b, id_width(), '\n');
  }
  ++record_count_;
  id_total_ += 2;
}

void FileSink::DoGroup(std::span<const PointId> members) {
  if (binary_) {
    if (!Admit(binfmt::EncodedGroupBytes(members))) return;
    binfmt::AppendGroupRecord(&block_, members);
  } else {
    if (!Admit(members.size() * static_cast<size_t>(id_width() + 1))) return;
    for (size_t i = 0; i < members.size(); ++i) {
      AppendTextId(&block_, members[i], id_width(),
                   i + 1 == members.size() ? '\n' : ' ');
    }
  }
  ++record_count_;
  id_total_ += members.size();
}

Status FileSink::Finish() {
  CSJ_CHECK(!finished_) << "FileSink::Finish called twice: " << path_;
  finished_ = true;
  PublishCounters();
  if (error().ok() && PayloadFill() > 0) SealBlock();
  if (error().ok() && binary_) {
    std::string trailer;
    binfmt::AppendBlockHeader(&trailer, binfmt::BlockHeader{});  // EOF marker
    binfmt::Footer footer;
    footer.num_links = num_links();
    footer.num_groups = num_groups();
    footer.id_total = id_total_;
    binfmt::AppendFooter(&trailer, footer);
    Write(trailer);
  }
  // On error the OutputFile already removed its partial file (or its
  // destructor will), unless the sink is checkpointable.
  if (!error().ok()) return error();
  const Status close_status = file_.Close();
  SetError(close_status);
  return close_status;
}

Status FileSink::Checkpoint(checkpoint::SinkState* state) {
  CSJ_CHECK(checkpointable_)
      << "Checkpoint on a non-checkpointable file sink: " << path_;
  PublishCounters();
  if (!error().ok()) return error();
  // After the sync every appended block is durable, so bytes_written() is a
  // block boundary; the open block rides in the manifest.
  SetError(file_.Sync());
  if (!error().ok()) return error();
  ExportAccounting(state);
  state->format = static_cast<uint8_t>(binary_ ? OutputFormat::kBinary
                                               : OutputFormat::kText);
  state->committed_bytes = file_.bytes_written();
  state->id_total = id_total_;
  state->partial_records = record_count_;
  state->partial_payload.assign(block_.data() + header_bytes_, PayloadFill());
  CSJ_DCHECK(!binary_ || state->model_fill == state->partial_payload.size());
  return Status::OK();
}

void ReadOutputCounters(const JoinSink& sink, JoinStats* stats) {
  stats->links = sink.num_links();
  stats->groups = sink.num_groups();
  stats->group_member_total = sink.group_member_total();
  stats->output_bytes = sink.bytes();
  stats->implied_links_ = sink.implied_links();
}

namespace {

/// The OutputSpec checks shared by MakeSink and ResumeSink for the
/// materializing formats.
Status ValidateFileSpec(const OutputSpec& spec) {
  if (spec.format != OutputFormat::kText &&
      spec.format != OutputFormat::kBinary) {
    return Status::InvalidArgument("unknown output format");
  }
  if (spec.path.empty() && spec.fd < 0) {
    return Status::InvalidArgument(
        StrFormat("%s output needs OutputSpec.path or OutputSpec.fd",
                  OutputFormatName(spec.format)));
  }
  if (spec.cap_bytes != 0 && spec.format != OutputFormat::kText) {
    return Status::InvalidArgument(
        "cap_bytes is only supported for text output");
  }
  if (spec.checkpointable && spec.cap_bytes != 0) {
    return Status::InvalidArgument(
        "checkpointable output cannot be size-capped");
  }
  if (spec.fd >= 0 && (spec.checkpointable || spec.cap_bytes != 0)) {
    return Status::InvalidArgument(
        "a streamed (fd) sink cannot be checkpointed or size-capped");
  }
  if (spec.checkpointable && OutputFile::IsNonRegular(spec.path)) {
    // A resume truncates the output back to its last checkpoint.
    return Status::InvalidArgument(
        "checkpointed output needs a regular file: " + spec.path);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<JoinSink>> MakeSink(const OutputSpec& spec) {
  if (spec.id_width < 1) {
    return Status::InvalidArgument("OutputSpec.id_width must be >= 1");
  }
  if (spec.format == OutputFormat::kNone) {
    if (spec.count_model == OutputFormat::kNone) {
      return Status::InvalidArgument(
          "OutputSpec.count_model must be text or binary");
    }
    return std::unique_ptr<JoinSink>(
        std::make_unique<CountingSink>(spec.id_width, spec.count_model));
  }
  CSJ_RETURN_IF_ERROR(ValidateFileSpec(spec));
  auto sink = std::make_unique<FileSink>(spec);
  if (!sink->open_status().ok()) return sink->open_status();
  return std::unique_ptr<JoinSink>(std::move(sink));
}

std::unique_ptr<JoinSink> MakeSinkOrDie(const OutputSpec& spec) {
  auto sink = MakeSink(spec);
  CSJ_CHECK(sink.ok()) << sink.status().ToString();
  return std::move(sink).value();
}

Result<std::unique_ptr<JoinSink>> ResumeSink(
    const OutputSpec& spec, const checkpoint::SinkState& state) {
  if (spec.id_width < 1) {
    return Status::InvalidArgument("OutputSpec.id_width must be >= 1");
  }
  if (state.id_width != static_cast<uint32_t>(spec.id_width)) {
    return Status::FailedPrecondition(
        StrFormat("cannot resume: checkpoint used id width %u but the run is "
                  "configured for %d",
                  state.id_width, spec.id_width));
  }
  const auto state_format = static_cast<OutputFormat>(state.format);
  if (state_format != spec.format) {
    return Status::FailedPrecondition(
        StrFormat("cannot resume: checkpoint was written by a %s sink but "
                  "the run is configured for %s output",
                  OutputFormatName(state_format),
                  OutputFormatName(spec.format)));
  }
  if (spec.format == OutputFormat::kNone) {
    auto sink = std::make_unique<CountingSink>(spec.id_width, spec.count_model);
    sink->RestoreAccounting(state);
    return std::unique_ptr<JoinSink>(std::move(sink));
  }
  if (!spec.checkpointable) {
    return Status::InvalidArgument(
        "resuming requires a checkpointable OutputSpec");
  }
  CSJ_RETURN_IF_ERROR(ValidateFileSpec(spec));
  auto sink = std::make_unique<FileSink>(spec, &state);
  if (!sink->open_status().ok()) return sink->open_status();
  return std::unique_ptr<JoinSink>(std::move(sink));
}

}  // namespace csj
