#include "storage/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "storage/binary_format.h"
#include "storage/output_file.h"
#include "util/check.h"
#include "util/format.h"
#include "util/metrics.h"

namespace csj::checkpoint {

namespace {

void AppendFixed32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendFixed64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Bounds-checked sequential reader over the payload. Every primitive sets
/// a sticky error on underrun, so Parse() is a straight-line field list with
/// one error check at the end of each logical section.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  uint64_t Varint(const char* field) {
    if (!status_.ok()) return 0;
    uint64_t value = 0;
    const size_t used = binfmt::ParseVarint(data_ + pos_, size_ - pos_, &value);
    if (used == 0) {
      status_ = Corrupt(field, "varint truncated or overlong");
      return 0;
    }
    pos_ += used;
    return value;
  }

  uint32_t Fixed32(const char* field) {
    if (!status_.ok()) return 0;
    if (size_ - pos_ < 4) {
      status_ = Corrupt(field, "fixed32 truncated");
      return 0;
    }
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]);
    }
    pos_ += 4;
    return v;
  }

  uint64_t Fixed64(const char* field) {
    if (!status_.ok()) return 0;
    if (size_ - pos_ < 8) {
      status_ = Corrupt(field, "fixed64 truncated");
      return 0;
    }
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]);
    }
    pos_ += 8;
    return v;
  }

  std::string Bytes(uint64_t len, const char* field) {
    if (!status_.ok()) return std::string();
    if (size_ - pos_ < len) {
      status_ = Corrupt(field, "byte string truncated");
      return std::string();
    }
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

  /// A varint length immediately validated against the remaining payload,
  /// for container counts: a corrupt huge count fails here instead of
  /// driving a multi-gigabyte reserve.
  uint64_t Count(const char* field) {
    const uint64_t n = Varint(field);
    if (status_.ok() && n > size_ - pos_) {
      status_ = Corrupt(field, "count exceeds remaining payload");
      return 0;
    }
    return n;
  }

  bool AtEnd() const { return pos_ == size_; }
  const Status& status() const { return status_; }

  static Status Corrupt(const char* field, const char* what) {
    return Status::InvalidArgument(
        StrFormat("corrupt checkpoint manifest: %s (%s)", field, what));
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  Status status_;
};

void SerializeStats(std::string* out, const StatsState& s) {
  binfmt::AppendVarint(out, s.distance_computations);
  binfmt::AppendVarint(out, s.kernel_candidates);
  binfmt::AppendVarint(out, s.kernel_pruned);
  binfmt::AppendVarint(out, s.kernel_hits);
  binfmt::AppendVarint(out, s.node_accesses);
  binfmt::AppendVarint(out, s.page_requests);
  binfmt::AppendVarint(out, s.page_disk_reads);
  binfmt::AppendVarint(out, s.early_stops);
  binfmt::AppendVarint(out, s.merge_attempts);
  binfmt::AppendVarint(out, s.merges);
  binfmt::AppendVarint(out, s.implied_links);
  AppendFixed64(out, DoubleBits(s.elapsed_seconds));
  AppendFixed64(out, DoubleBits(s.write_seconds));
}

void ParseStats(Reader* r, StatsState* s) {
  s->distance_computations = r->Varint("stats.distance_computations");
  s->kernel_candidates = r->Varint("stats.kernel_candidates");
  s->kernel_pruned = r->Varint("stats.kernel_pruned");
  s->kernel_hits = r->Varint("stats.kernel_hits");
  s->node_accesses = r->Varint("stats.node_accesses");
  s->page_requests = r->Varint("stats.page_requests");
  s->page_disk_reads = r->Varint("stats.page_disk_reads");
  s->early_stops = r->Varint("stats.early_stops");
  s->merge_attempts = r->Varint("stats.merge_attempts");
  s->merges = r->Varint("stats.merges");
  s->implied_links = r->Varint("stats.implied_links");
  s->elapsed_seconds = BitsToDouble(r->Fixed64("stats.elapsed_seconds"));
  s->write_seconds = BitsToDouble(r->Fixed64("stats.write_seconds"));
}

}  // namespace

std::string Serialize(const Manifest& m) {
  std::string payload;
  AppendFixed64(&payload, m.config_fingerprint);
  binfmt::AppendVarint(&payload, m.dims);
  binfmt::AppendVarint(&payload, m.total_tasks);
  AppendFixed64(&payload, m.task_list_hash);
  binfmt::AppendVarint(&payload, m.next_task);
  SerializeStats(&payload, m.stats);

  binfmt::AppendVarint(&payload, m.sink.format);
  binfmt::AppendVarint(&payload, m.sink.id_width);
  binfmt::AppendVarint(&payload, m.sink.committed_bytes);
  binfmt::AppendVarint(&payload, m.sink.accounted_bytes);
  binfmt::AppendVarint(&payload, m.sink.model_fill);
  binfmt::AppendVarint(&payload, m.sink.num_links);
  binfmt::AppendVarint(&payload, m.sink.num_groups);
  binfmt::AppendVarint(&payload, m.sink.group_member_total);
  binfmt::AppendVarint(&payload, m.sink.id_total);
  binfmt::AppendVarint(&payload, m.sink.partial_records);
  binfmt::AppendVarint(&payload, m.sink.partial_payload.size());
  payload += m.sink.partial_payload;

  binfmt::AppendVarint(&payload, m.metric_counters.size());
  for (const auto& [name, value] : m.metric_counters) {
    binfmt::AppendVarint(&payload, name.size());
    payload += name;
    binfmt::AppendVarint(&payload, value);
  }

  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic, sizeof(kMagic));
  AppendFixed32(&out, kVersion);
  AppendFixed64(&out, payload.size());
  AppendFixed32(&out, binfmt::Crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

Status Parse(const std::string& bytes, Manifest* manifest) {
  if (bytes.size() < kHeaderBytes) {
    return Status::InvalidArgument(StrFormat(
        "corrupt checkpoint manifest: %zu bytes is shorter than the %zu-byte "
        "header",
        bytes.size(), kHeaderBytes));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "corrupt checkpoint manifest: bad magic (not a CSJK file)");
  }
  Reader header(bytes.data() + sizeof(kMagic), kHeaderBytes - sizeof(kMagic));
  const uint32_t version = header.Fixed32("version");
  const uint64_t payload_len = header.Fixed64("payload_len");
  const uint32_t expected_crc = header.Fixed32("payload_crc");
  if (version != kVersion) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint manifest version %u is not supported (expected %u)",
        version, kVersion));
  }
  if (bytes.size() - kHeaderBytes < payload_len) {
    return Status::InvalidArgument(StrFormat(
        "corrupt checkpoint manifest: truncated payload (%zu of %llu bytes)",
        bytes.size() - kHeaderBytes,
        static_cast<unsigned long long>(payload_len)));
  }
  if (bytes.size() - kHeaderBytes > payload_len) {
    return Status::InvalidArgument(StrFormat(
        "corrupt checkpoint manifest: %zu bytes of trailing garbage",
        bytes.size() - kHeaderBytes - payload_len));
  }
  const char* payload = bytes.data() + kHeaderBytes;
  const uint32_t actual_crc = binfmt::Crc32(payload, payload_len);
  if (actual_crc != expected_crc) {
    return Status::InvalidArgument(StrFormat(
        "corrupt checkpoint manifest: payload CRC mismatch (stored %08x, "
        "computed %08x)",
        expected_crc, actual_crc));
  }

  Manifest m;
  Reader r(payload, payload_len);
  m.config_fingerprint = r.Fixed64("config_fingerprint");
  m.dims = static_cast<uint32_t>(r.Varint("dims"));
  m.total_tasks = r.Varint("total_tasks");
  m.task_list_hash = r.Fixed64("task_list_hash");
  m.next_task = r.Varint("next_task");
  ParseStats(&r, &m.stats);

  m.sink.format = static_cast<uint8_t>(r.Varint("sink.format"));
  m.sink.id_width = static_cast<uint32_t>(r.Varint("sink.id_width"));
  m.sink.committed_bytes = r.Varint("sink.committed_bytes");
  m.sink.accounted_bytes = r.Varint("sink.accounted_bytes");
  m.sink.model_fill = r.Varint("sink.model_fill");
  m.sink.num_links = r.Varint("sink.num_links");
  m.sink.num_groups = r.Varint("sink.num_groups");
  m.sink.group_member_total = r.Varint("sink.group_member_total");
  m.sink.id_total = r.Varint("sink.id_total");
  m.sink.partial_records = r.Varint("sink.partial_records");
  m.sink.partial_payload =
      r.Bytes(r.Count("sink.partial_payload"), "sink.partial_payload");

  if (m.dims == 0 || m.dims > 64) {
    if (r.status().ok()) {
      return Reader::Corrupt("dims", "implausible dimensionality");
    }
  }

  const uint64_t counters = r.Count("metric_counters.size");
  m.metric_counters.reserve(r.status().ok() ? counters : 0);
  for (uint64_t i = 0; r.status().ok() && i < counters; ++i) {
    std::string name =
        r.Bytes(r.Count("metric_counters.name"), "metric_counters.name");
    const uint64_t value = r.Varint("metric_counters.value");
    m.metric_counters.emplace_back(std::move(name), value);
  }

  CSJ_RETURN_IF_ERROR(r.status());
  if (!r.AtEnd()) {
    return Reader::Corrupt("payload", "unconsumed bytes after the last field");
  }
  *manifest = std::move(m);
  return Status::OK();
}

Status Save(const std::string& path, const Manifest& manifest) {
  CSJ_METRIC_SCOPED_TIMER("checkpoint.save_ns");
  const std::string bytes = Serialize(manifest);
  OutputFile file;
  OutputFile::Options options;
  options.atomic = true;        // the path is always a *complete* manifest
  options.sync_on_close = true; // survives power loss (file + directory)
  CSJ_RETURN_IF_ERROR(file.Open(path, options));
  CSJ_RETURN_IF_ERROR(file.Append(bytes));
  CSJ_RETURN_IF_ERROR(file.Close());
  CSJ_METRIC_COUNT("checkpoint.saves", 1);
  CSJ_METRIC_COUNT("checkpoint.bytes", bytes.size());
  return Status::OK();
}

Result<Manifest> Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no checkpoint manifest at " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError("cannot read checkpoint manifest: " + path);
  }
  Manifest manifest;
  CSJ_RETURN_IF_ERROR(Parse(bytes, &manifest));
  CSJ_METRIC_COUNT("checkpoint.loads", 1);
  return manifest;
}

}  // namespace csj::checkpoint
