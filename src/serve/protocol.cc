#include "serve/protocol.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "storage/binary_format.h"
#include "util/failpoint.h"
#include "util/format.h"

namespace csj::serve {

namespace {

/// Status codes travel as their symbolic names so clients never parse
/// message text.
const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kUnavailable:
      return "Unavailable";
    default:
      return "Error";
  }
}

Status FieldError(const std::string& field, const std::string& why) {
  return Status::InvalidArgument("request field '" + field + "': " + why);
}

}  // namespace

Result<Request> ParseRequest(const std::string& line) {
  CSJ_ASSIGN_OR_RETURN(json::Value doc, json::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request req;
  // The protocol envelope owns op/metrics/center; every other key is a
  // QuerySpec field and goes through its strict parser, which also rejects
  // unknown fields (a typo'd knob silently ignored would be worse than an
  // error).
  json::Value spec_doc = json::Object{};
  for (const auto& [key, value] : doc.AsObject()) {
    if (key == "op") {
      if (!value.is_string()) return FieldError(key, "expected a string");
      req.op = value.AsString();
    } else if (key == "metrics") {
      if (!value.is_bool()) return FieldError(key, "expected a bool");
      req.want_metrics = value.AsBool();
    } else if (key == "center") {
      if (!value.is_array()) return FieldError(key, "expected an array");
      for (const auto& c : value.AsArray()) {
        if (!c.is_number()) return FieldError(key, "expected numbers");
        req.center.push_back(c.AsDouble());
      }
    } else if (key == "path") {
      if (!value.is_string()) return FieldError(key, "expected a string");
      req.path = value.AsString();
    } else {
      spec_doc[key] = value;
    }
  }
  CSJ_ASSIGN_OR_RETURN(req.spec, QuerySpec::FromJson(spec_doc));
  if (IsEgoAlgo(req.spec.algo)) {
    // The ego family needs raw points; served datasets are paged trees.
    return FieldError("algo", "must be auto, ssj, ncsj or csj");
  }
  if (req.op.empty()) {
    return Status::InvalidArgument("request is missing 'op'");
  }
  if (req.op != "ping" && req.op != "list" && req.op != "join" &&
      req.op != "range" && !req.is_admin()) {
    return FieldError("op",
                      "must be ping, list, join, range, load, reload or "
                      "unload");
  }
  if (!req.path.empty() && req.op != "load" && req.op != "reload") {
    return FieldError("path", "only meaningful for load/reload");
  }
  if (req.is_admin()) {
    if (req.spec.dataset.empty()) return FieldError("dataset", "required");
    if (req.path.empty() && req.op != "unload") {
      return FieldError("path", "required");
    }
    if (!req.center.empty()) {
      return FieldError("center", "not meaningful for an admin op");
    }
  }
  if (req.op == "join" || req.op == "range") {
    if (req.spec.dataset.empty()) return FieldError("dataset", "required");
    CSJ_RETURN_IF_ERROR(req.spec.Validate());
  }
  if (req.op == "range") {
    if (req.center.empty()) return FieldError("center", "required");
    if (req.spec.algo == QueryAlgo::kAuto) {
      return FieldError("algo", "range queries have nothing to plan");
    }
    if (req.spec.output != OutputFormat::kText) {
      return FieldError("output", "range queries are text-only");
    }
    if (!req.spec.dataset_b.empty()) {
      return FieldError("dataset_b", "not meaningful for a range query");
    }
  }
  return req;
}

std::string ErrorLine(const Status& status) {
  json::Value doc = json::Object{};
  doc["ok"] = false;
  doc["code"] = CodeName(status.code());
  doc["error"] = status.message();
  return json::Write(doc) + "\n";
}

std::string OkLine(const std::string& op, const json::Object& extra) {
  json::Value doc(extra);
  doc["ok"] = true;
  doc["op"] = op;
  return json::Write(doc) + "\n";
}

std::string HeaderLine(const std::string& op, OutputFormat format,
                       int id_width) {
  json::Value doc = json::Object{};
  doc["ok"] = true;
  doc["op"] = op;
  doc["format"] = OutputFormatName(format);
  doc["id_width"] = static_cast<int64_t>(id_width);
  return json::Write(doc) + "\n";
}

std::string TrailerLine(const Status& status, const JoinStats& stats,
                        uint64_t payload_bytes,
                        const metrics::MetricsSnapshot* delta) {
  json::Value doc = json::Object{};
  doc["ok"] = status.ok();
  doc["done"] = true;
  doc["code"] = CodeName(status.code());
  if (!status.ok()) doc["error"] = status.message();
  doc["payload_bytes"] = payload_bytes;
  doc["stats"] = stats.ToJsonValue();
  if (delta != nullptr) doc["metrics"] = delta->ToJsonValue();
  return json::Write(doc) + "\n";
}

Status LineReader::Refill() {
  if (timeout_ms_ >= 0) {
    struct pollfd pfd = {fd_, POLLIN, 0};
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_ms_);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      return Status::IoError(std::string("poll failed: ") +
                             std::strerror(errno));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded(
          StrFormat("peer sent nothing for %d ms", timeout_ms_));
    }
  }
  char chunk[4096];
  ssize_t n;
  do {
    n = ::read(fd_, chunk, sizeof(chunk));
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return Status::IoError(std::string("read failed: ") +
                           std::strerror(errno));
  }
  if (n == 0) return Status::Unavailable("peer closed the connection");
  buffer_.append(chunk, static_cast<size_t>(n));
  return Status::OK();
}

Status LineReader::ReadLine(std::string* line) {
  for (;;) {
    const size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      // Compact occasionally so a long-lived reader does not hold the whole
      // history of the stream.
      if (pos_ > (1 << 16)) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return Status::OK();
    }
    if (buffer_.size() - pos_ > kMaxLine) {
      return Status::InvalidArgument("line exceeds the protocol limit");
    }
    CSJ_RETURN_IF_ERROR(Refill());
  }
}

Status LineReader::ReadExact(char* out, size_t size) {
  size_t done = 0;
  while (done < size) {
    if (pos_ < buffer_.size()) {
      const size_t take = std::min(size - done, buffer_.size() - pos_);
      std::memcpy(out + done, buffer_.data() + pos_, take);
      pos_ += take;
      done += take;
      continue;
    }
    buffer_.clear();
    pos_ = 0;
    CSJ_RETURN_IF_ERROR(Refill());
  }
  return Status::OK();
}

Status StreamFramedPayload(LineReader* reader, OutputFormat format,
                           const std::function<Status(const char*, size_t)>&
                               write,
                           std::string* trailer_line) {
  if (format == OutputFormat::kText) {
    std::string line;
    for (;;) {
      CSJ_RETURN_IF_ERROR(reader->ReadLine(&line));
      if (!line.empty() && line[0] == '{') {
        *trailer_line = line;
        return Status::OK();
      }
      line.push_back('\n');
      CSJ_RETURN_IF_ERROR(write(line.data(), line.size()));
    }
  }
  if (format == OutputFormat::kBinary) {
    // Walk the CSJ2 structure: file header, length-prefixed blocks, the
    // all-zero EOF marker, the fixed-size footer. Everything read is
    // forwarded verbatim so the payload stays byte-identical.
    std::string chunk(binfmt::kFileHeaderBytes, '\0');
    CSJ_RETURN_IF_ERROR(reader->ReadExact(chunk.data(), chunk.size()));
    int id_width = 0;
    CSJ_RETURN_IF_ERROR(
        binfmt::ParseFileHeader(chunk.data(), chunk.size(), &id_width));
    CSJ_RETURN_IF_ERROR(write(chunk.data(), chunk.size()));
    for (;;) {
      chunk.resize(binfmt::kBlockHeaderBytes);
      CSJ_RETURN_IF_ERROR(reader->ReadExact(chunk.data(), chunk.size()));
      const binfmt::BlockHeader header = binfmt::ParseBlockHeader(chunk.data());
      CSJ_RETURN_IF_ERROR(write(chunk.data(), chunk.size()));
      if (header.IsEofMarker()) break;
      chunk.resize(header.payload_bytes);
      CSJ_RETURN_IF_ERROR(reader->ReadExact(chunk.data(), chunk.size()));
      CSJ_RETURN_IF_ERROR(write(chunk.data(), chunk.size()));
    }
    chunk.resize(binfmt::kFooterBytes);
    CSJ_RETURN_IF_ERROR(reader->ReadExact(chunk.data(), chunk.size()));
    CSJ_RETURN_IF_ERROR(write(chunk.data(), chunk.size()));
    return reader->ReadLine(trailer_line);
  }
  // kNone: no payload, the trailer follows the header directly.
  return reader->ReadLine(trailer_line);
}

Status ReadFramedPayload(LineReader* reader, OutputFormat format,
                         std::string* payload, std::string* trailer_line) {
  return StreamFramedPayload(
      reader, format,
      [payload](const char* data, size_t size) {
        payload->append(data, size);
        return Status::OK();
      },
      trailer_line);
}

Status WriteAll(int fd, const char* data, size_t size) {
  if (CSJ_FAILPOINT("serve.write")) {
    return Status::Unavailable("injected write fault");
  }
  size_t done = 0;
  while (done < size) {
    ssize_t n;
    do {
      n = ::write(fd, data + done, size - done);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EPIPE) {
        return Status::Cancelled("peer closed the connection");
      }
      return Status::IoError(std::string("write failed: ") +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace csj::serve
