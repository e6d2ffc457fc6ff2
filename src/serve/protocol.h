#ifndef CSJ_SERVE_PROTOCOL_H_
#define CSJ_SERVE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/join_options.h"
#include "core/join_stats.h"
#include "core/query_spec.h"
#include "core/sink.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/status.h"

/// \file
/// Wire protocol of csj_serve: newline-delimited JSON framing around the
/// engine's native payload formats.
///
/// A connection is a **keep-alive session** carrying any number of
/// request/response exchanges in sequence:
///
///   client -> server   one JSON object on a single line
///   server -> client   header line | payload bytes | trailer line
///   (repeat until either side closes, the idle timeout expires, or the
///    per-connection request cap is reached)
///
/// Every response is self-delimiting (single line, or header + structurally
/// delimited payload + trailer), so the next request can follow immediately.
/// A malformed request line ends the session after the error line — framing
/// is no longer trustworthy; semantic errors (unknown dataset, bad eps) are
/// answered with an error line and the session continues.
///
/// Request fields (all optional unless noted). Everything except `op`,
/// `metrics`, `center` and `path` is a QuerySpec field (core/query_spec.h)
/// and is parsed by `QuerySpec::FromJson` — the wire names ARE the QuerySpec
/// JSON names, so a served query and a one-shot `csj_tool join` run are
/// described by the same document:
///
///   op          (required) "ping" | "list" | "join" | "range" |
///               "load" | "reload" | "unload"  (admin, see below)
///   dataset     (join/range) registered dataset name
///   dataset_b   second dataset: selects a dual (spatial) join
///   algo        "auto" | "ssj" | "ncsj" | "csj"    (default "csj"; "auto"
///               lets the cost-based planner pick the algorithm and g
///               against the dataset's load-time sketch, and the trailer's
///               stats.plan echoes the resolved, explained plan)
///   eps         epsilon > 0 (required for join/range)
///   g           CSJ(g) window size                 (default 10)
///   threads     accepted and ignored: every served query runs serial on a
///               server worker
///   output      "text" | "binary" | "none"         (default "text";
///               range queries are text-only)
///   deadline_ms per-query wall-clock budget; 0 = server default
///   mem_budget  per-query bytes, carved from the server-wide budget
///   metrics     bool: include a per-query metrics delta in the trailer
///   center      (range, required) point coordinates, e.g. [0.5, 0.5]
///   path        (load/reload, required) dataset source file on the server
///
/// g, threads, deadline_ms and mem_budget take integers in their type's
/// range (the last two are unsigned); anything else is InvalidArgument.
///
/// Admin ops drive the registry's epoch lifecycle (serve/registry.h):
/// "load" registers `dataset` from `path`, "reload" replaces it with a
/// freshly validated epoch (a failure leaves the old epoch serving), and
/// "unload" drops it (in-flight queries finish on their pinned epoch).
/// All three answer with a single `{"ok":true,...}` line carrying the
/// resulting epoch number, or an error line.
///
/// Response framing:
///
///   * errors before execution: a single `{"ok":false,...}` line, no payload.
///   * "ping"/"list"/admin ops: a single `{"ok":true,...}` line.
///   * "join"/"range": a header line `{"ok":true,"format":...,"id_width":W}`,
///     the payload in the engine's native format (the same bytes a one-shot
///     `csj_tool join --out` run writes), then one trailer line with
///     `"done":true`, the terminal status, JoinStats, and (on request) the
///     metrics window of the query. The payload of a governed stop
///     (deadline / cancel / budget) is a valid prefix: text ends at a record
///     boundary, binary is sealed with its EOF marker and footer, and the
///     trailer's status code says why the result is partial.
///
/// Text payload lines never start with '{' (fixed-width decimal ids), and a
/// binary payload is structurally self-delimiting, so the trailer line is
/// unambiguous in both formats; ReadFramedPayload implements the client
/// side.

namespace csj::serve {

/// One parsed request line: the protocol envelope (op / metrics / center /
/// path) around the embedded QuerySpec carrying every query knob.
struct Request {
  std::string op;
  bool want_metrics = false;
  std::vector<double> center;
  std::string path;  ///< source file for the load/reload admin ops
  QuerySpec spec;

  bool is_admin() const {
    return op == "load" || op == "reload" || op == "unload";
  }
};

/// Parses and validates one request line. Unknown fields are rejected (a
/// typo'd knob silently ignored would be worse than an error).
Result<Request> ParseRequest(const std::string& line);

/// `{"ok":false,"code":...,"error":...}` — single-line, newline-terminated.
std::string ErrorLine(const Status& status);

/// `{"ok":true,"op":...}` plus `extra`'s fields — single line for ping/list.
std::string OkLine(const std::string& op, const json::Object& extra = {});

/// Header line announcing a payload.
std::string HeaderLine(const std::string& op, OutputFormat format,
                       int id_width);

/// Trailer line: terminal status + stats (+ metrics delta when non-null).
std::string TrailerLine(const Status& status, const JoinStats& stats,
                        uint64_t payload_bytes,
                        const metrics::MetricsSnapshot* delta);

/// Buffered line/byte reader over a descriptor, used by the query client
/// and the tests. `timeout_ms < 0` blocks forever; otherwise each refill
/// poll()s and a quiet peer fails with kDeadlineExceeded.
class LineReader {
 public:
  explicit LineReader(int fd, int timeout_ms = -1)
      : fd_(fd), timeout_ms_(timeout_ms) {}

  /// Changes the per-refill timeout; buffered bytes are unaffected. The
  /// server uses this to give the first request line and keep-alive idle
  /// waits different budgets over one reader.
  void set_timeout_ms(int timeout_ms) { timeout_ms_ = timeout_ms; }

  /// Reads up to and including '\n'; returns the line without it. EOF with
  /// no buffered bytes is kUnavailable ("peer closed").
  Status ReadLine(std::string* line);

  /// Reads exactly `size` bytes (for binary payload scanning).
  Status ReadExact(char* out, size_t size);

  /// Maximum accepted line length; longer requests are a protocol error.
  static constexpr size_t kMaxLine = 1 << 20;

 private:
  Status Refill();

  int fd_;
  int timeout_ms_;
  std::string buffer_;
  size_t pos_ = 0;
};

/// Client-side framing: after the header line has been read, consumes the
/// payload — forwarding each chunk to `write` as it arrives, so a consumer
/// sees bytes before the query finishes — and then the trailer line. Text
/// payloads are delimited by the first line starting with '{'; binary
/// payloads are walked structurally (file header, blocks, EOF marker,
/// footer); `format == kNone` expects an empty payload. A non-OK status
/// from `write` aborts the scan and is returned as-is (e.g. the consumer
/// hung up — close the socket, which cancels the query server-side).
Status StreamFramedPayload(LineReader* reader, OutputFormat format,
                           const std::function<Status(const char*, size_t)>&
                               write,
                           std::string* trailer_line);

/// StreamFramedPayload into a string (tests, small results).
Status ReadFramedPayload(LineReader* reader, OutputFormat format,
                         std::string* payload, std::string* trailer_line);

/// Writes all of `data`, retrying short writes; EPIPE (and any other write
/// failure) returns the error without raising SIGPIPE side effects — the
/// process is expected to ignore SIGPIPE.
Status WriteAll(int fd, const char* data, size_t size);
inline Status WriteAll(int fd, const std::string& s) {
  return WriteAll(fd, s.data(), s.size());
}

}  // namespace csj::serve

#endif  // CSJ_SERVE_PROTOCOL_H_
