/// \file
/// csj_serve — persistent query daemon over prebuilt indexes, plus the
/// matching command-line client (docs/SERVING.md).
///
///   csj_serve serve --datasets pts=index.csjt --socket /tmp/csj.sock
///                   [--workers 4] [--max-pending 16] [--mem-budget BYTES]
///                   [--default-deadline-ms 0] [--max-deadline-ms 0]
///                   [--cache-blocks 1024]
///                   [--request-timeout-ms 10000] [--idle-timeout-ms 10000]
///                   [--max-requests-per-conn 256]
///   csj_serve serve --datasets a=a.csjt,b=b.csjt --port 7707
///
/// Datasets load at startup — CSJTREE1/2 indexes (what `csj_tool build`
/// writes, served in place) and point text files (packed into a temporary
/// index) — and are then shared read-only by every concurrent query. At
/// runtime the load/reload/unload admin ops swap datasets as validated,
/// refcounted epochs without a restart (docs/SERVING.md).
/// SIGTERM/SIGINT drain: in-flight queries finish, then the daemon exits 0.
///
///   csj_serve query --socket /tmp/csj.sock --dataset pts --eps 0.05
///                   [--algo auto|ssj|ncsj|csj] [--g 10]
///                   (--algo auto: the server's cost-based planner picks the
///                   algorithm and g, and the trailer's stats.plan explains
///                   the choice)
///                   [--output-format text|binary|none] [--out result.txt]
///                   [--deadline-ms N] [--mem-budget BYTES] [--metrics 1]
///                   [--dataset-b other]           (dual/spatial join)
///                   [--repeat N]    (keep-alive: N requests, one session)
///                   [--retries N] [--retry-max-elapsed-ms 15000]
///   csj_serve query ... --op range --center 0.5,0.5
///   csj_serve query ... --op ping | --op list
///   csj_serve query ... --op load|reload --dataset pts --path pts.txt
///   csj_serve query ... --op unload --dataset pts
///
/// The client streams the payload to --out (default stdout) as it arrives,
/// prints the trailer JSON to stderr, and exits with csj_tool's governance
/// codes: 0 OK, 2 error, 3 cancelled, 4 deadline exceeded, 5 resource
/// exhausted. Piping into `head` cancels just that query server-side.
///
/// `--repeat N` issues the same request N times over one keep-alive
/// session (reconnecting transparently if the server rotates the
/// connection); with `--out FILE` each response lands in FILE.<i>, and an
/// iteration that does not finish OK removes its partial file so every
/// file that exists is complete. `--retries N` arms bounded
/// full-jitter-backoff retry: a connect failure, or an Unavailable
/// error before any payload byte arrived (admission reject, drain,
/// injected fault), is retried on a fresh connection up to N times and
/// `--retry-max-elapsed-ms` of wall clock. A request whose payload has
/// started streaming is NEVER silently re-run — a retry there could
/// duplicate output bytes.

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sink.h"
#include "flags.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/format.h"
#include "util/json.h"
#include "util/retry.h"

namespace csj::serve_tool {
namespace {

using cli::DieOnError;
using cli::Flags;
using cli::kExitDeadline;
using cli::kExitInterrupted;
using cli::kExitResourceExhausted;

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (;;) {
    const size_t end = text.find(sep, start);
    parts.push_back(text.substr(start, end - start));
    if (end == std::string::npos) return parts;
    start = end + 1;
  }
}

int CmdServe(Flags& flags) {
  const std::string datasets = flags.Require("datasets");
  const std::string socket_path = flags.GetOr("socket", "");
  const long port = flags.GetInt("port", -1);
  const std::string host = flags.GetOr("host", "127.0.0.1");
  const long workers = flags.GetInt("workers", 4);
  const long max_pending = flags.GetInt("max-pending", 16);
  const long mem_budget = flags.GetInt("mem-budget", 0);
  const long default_deadline = flags.GetInt("default-deadline-ms", 0);
  const long max_deadline = flags.GetInt("max-deadline-ms", 0);
  const long cache_blocks = flags.GetInt("cache-blocks", 1024);
  const long request_timeout = flags.GetInt("request-timeout-ms", 10000);
  const long idle_timeout = flags.GetInt("idle-timeout-ms", 10000);
  const long max_requests_per_conn = flags.GetInt("max-requests-per-conn", 256);
  flags.CheckAllUsed();
  if (socket_path.empty() && port < 0) {
    Flags::Die("serve needs --socket PATH or --port N");
  }
  if (mem_budget < 0) Flags::Die("--mem-budget must be non-negative bytes");

  serve::DatasetRegistry registry(static_cast<uint64_t>(mem_budget));
  for (const std::string& item : SplitOn(datasets, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      Flags::Die("--datasets wants name=path[,name=path...], got '" + item +
                 "'");
    }
    serve::DatasetSpec spec;
    spec.name = item.substr(0, eq);
    spec.path = item.substr(eq + 1);
    spec.cache_blocks = static_cast<size_t>(cache_blocks);
    DieOnError(registry.Load(spec));
    const std::shared_ptr<const serve::Dataset> dataset =
        registry.Find(spec.name);
    std::printf("loaded dataset '%s': %s points from %s (epoch %llu)\n",
                dataset->name.c_str(),
                WithThousands(dataset->num_points).c_str(),
                dataset->source_path.c_str(),
                static_cast<unsigned long long>(dataset->epoch));
  }

  serve::ServerOptions options;
  options.unix_socket_path = socket_path;
  options.tcp_host = host;
  options.tcp_port = static_cast<int>(port < 0 ? 0 : port);
  options.workers = static_cast<int>(workers);
  options.max_pending = static_cast<size_t>(max_pending);
  options.default_deadline_ms = static_cast<uint64_t>(default_deadline);
  options.max_deadline_ms = static_cast<uint64_t>(max_deadline);
  options.request_timeout_ms = static_cast<int>(request_timeout);
  options.idle_timeout_ms = static_cast<int>(idle_timeout);
  options.max_requests_per_conn = static_cast<int>(max_requests_per_conn);
  options.admin_cache_blocks = static_cast<size_t>(cache_blocks);

  serve::Server server(&registry, options);
  DieOnError(server.Start());
  if (socket_path.empty()) {
    std::printf("serving on %s:%d (%ld workers, queue %ld)\n", host.c_str(),
                server.tcp_port(), workers, max_pending);
  } else {
    std::printf("serving on %s (%ld workers, queue %ld)\n",
                socket_path.c_str(), workers, max_pending);
  }
  std::fflush(stdout);

  cli::InstallTerminationHandlers();
  while (!cli::g_termination_requested.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Shutdown();
  const serve::ServerCounters counters = server.counters();
  std::printf("drained: served %llu over %llu sessions, rejected %llu\n",
              static_cast<unsigned long long>(counters.served),
              static_cast<unsigned long long>(counters.sessions),
              static_cast<unsigned long long>(counters.rejected));
  return 0;
}

/// Connects to the server. A connect failure is transient from the
/// client's point of view (the daemon may be mid-restart, the listener
/// backlog full): it returns -1 with `*error` set so the retry loop can
/// back off and try again. Configuration mistakes (bad host, oversized
/// path) still die immediately.
int TryConnect(const std::string& socket_path, const std::string& host,
               long port, std::string* error) {
  int fd = -1;
  if (!socket_path.empty()) {
    struct sockaddr_un addr;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      Flags::Die("socket path too long: " + socket_path);
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) Flags::Die(std::string("socket failed: ") + std::strerror(errno));
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      *error = "cannot connect to " + socket_path + ": " +
               std::strerror(errno);
      ::close(fd);
      return -1;
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) Flags::Die(std::string("socket failed: ") + std::strerror(errno));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      Flags::Die("bad host: " + host);
    }
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      *error = StrFormat("cannot connect to %s:%ld: %s", host.c_str(), port,
                         std::strerror(errno));
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

/// Maps a trailer/error `code` name to the tool's exit code.
int ExitCodeFor(const std::string& code) {
  if (code == "OK") return 0;
  if (code == "Cancelled") return kExitInterrupted;
  if (code == "DeadlineExceeded") return kExitDeadline;
  if (code == "ResourceExhausted") return kExitResourceExhausted;
  return 2;
}

int CmdQuery(Flags& flags) {
  const std::string socket_path = flags.GetOr("socket", "");
  const long port = flags.GetInt("port", -1);
  const std::string host = flags.GetOr("host", "127.0.0.1");
  const std::string op = flags.GetOr("op", "join");
  const std::string out_path = flags.GetOr("out", "");
  const long repeat = flags.GetInt("repeat", 1);
  const long retries = flags.GetInt("retries", 0);
  const long retry_elapsed_ms = flags.GetInt("retry-max-elapsed-ms", 15000);

  // Build the request line from flags; the server validates semantics.
  json::Value request = json::Object{};
  request["op"] = op;
  const std::string dataset = flags.GetOr("dataset", "");
  if (!dataset.empty()) request["dataset"] = dataset;
  const std::string dataset_b = flags.GetOr("dataset-b", "");
  if (!dataset_b.empty()) request["dataset_b"] = dataset_b;
  const std::string admin_path = flags.GetOr("path", "");
  if (!admin_path.empty()) request["path"] = admin_path;
  const std::string algo = flags.GetOr("algo", "");
  if (!algo.empty()) request["algo"] = algo;
  const double eps = flags.GetDouble("eps", 0.0);
  if (eps > 0.0) request["eps"] = eps;
  const long g = flags.GetInt("g", -1);
  if (g >= 0) request["g"] = static_cast<int64_t>(g);
  const std::string format_name = flags.GetOr("output-format", "text");
  OutputFormat format = OutputFormat::kText;
  if (!ParseOutputFormat(format_name, &format)) {
    Flags::Die("--output-format must be text, binary or none");
  }
  request["output"] = format_name;
  const long deadline_ms = flags.GetInt("deadline-ms", 0);
  if (deadline_ms > 0) request["deadline_ms"] = static_cast<int64_t>(deadline_ms);
  const long query_budget = flags.GetInt("mem-budget", 0);
  if (query_budget > 0) request["mem_budget"] = static_cast<int64_t>(query_budget);
  if (flags.GetOr("metrics", "0") != "0") request["metrics"] = true;
  const std::string center = flags.GetOr("center", "");
  if (!center.empty()) {
    json::Value coords = json::Array{};
    for (const std::string& c : SplitOn(center, ',')) {
      double coord = 0.0;
      if (!cli::ParseDouble(c, &coord)) {
        Flags::Die("--center wants comma-separated numbers, got '" + center +
                   "'");
      }
      coords.Append(coord);
    }
    request["center"] = coords;
  }
  flags.CheckAllUsed();
  if (socket_path.empty() && port < 0) {
    Flags::Die("query needs --socket PATH or --port N");
  }
  if (repeat < 1) Flags::Die("--repeat must be at least 1");
  if (retries < 0) Flags::Die("--retries must be non-negative");

  const std::string request_line = json::Write(request) + "\n";
  const bool control_op = op == "ping" || op == "list" || op == "load" ||
                          op == "reload" || op == "unload";

  // One keep-alive session carries all --repeat iterations; a broken
  // connection is dropped and the next attempt reconnects (re-entering the
  // server's admission queue, where overload control lives).
  int fd = -1;
  std::unique_ptr<serve::LineReader> reader;
  const auto drop_connection = [&fd, &reader] {
    if (fd >= 0) ::close(fd);
    fd = -1;
    reader.reset();
  };

  for (long iter = 0; iter < repeat; ++iter) {
    const std::string iter_out =
        (!out_path.empty() && repeat > 1)
            ? StrFormat("%s.%ld", out_path.c_str(), iter)
            : out_path;

    // Retry budget is per request: bounded attempts AND bounded wall clock,
    // whichever runs out first. The jitter RNG is deterministic, so a
    // retried run is reproducible under test.
    RetryPolicy policy;
    policy.max_attempts = static_cast<int>(retries) + 1;
    policy.initial_backoff_ms = 10.0;
    policy.max_backoff_ms = 250.0;
    policy.max_elapsed_ms =
        static_cast<uint64_t>(retry_elapsed_ms < 0 ? 0 : retry_elapsed_ms);
    RetryController retry(policy);

    for (;;) {
      std::string transient;  // set = this attempt failed retriably
      int exit_code = -1;     // >= 0 = the request reached a terminal answer

      do {
        if (fd < 0) {
          fd = TryConnect(socket_path, host, port, &transient);
          if (fd < 0) break;
          reader = std::make_unique<serve::LineReader>(fd);
        }
        const Status sent = serve::WriteAll(fd, request_line);
        if (!sent.ok()) {
          // Nothing of the response was consumed — safe to re-issue on a
          // fresh connection (the server also rotates sessions at its
          // request cap, which surfaces here as a dead socket).
          transient = sent.ToString();
          drop_connection();
          break;
        }
        std::string line;
        const Status head_read = reader->ReadLine(&line);
        if (!head_read.ok()) {
          transient = head_read.ToString();  // zero payload bytes: retriable
          drop_connection();
          break;
        }
        auto head = json::Parse(line);
        DieOnError(head.status());
        const json::Value* ok = head->Find("ok");
        if (ok == nullptr || !ok->is_bool()) {
          Flags::Die("malformed response: " + line);
        }
        if (!ok->AsBool()) {
          const json::Value* code = head->Find("code");
          const std::string code_name =
              code != nullptr && code->is_string() ? code->AsString() : "";
          const json::Value* error = head->Find("error");
          const std::string message = error != nullptr && error->is_string()
                                          ? error->AsString()
                                          : line;
          if (code_name == "Unavailable") {
            // Admission reject, drain, injected fault: the query never
            // ran. The server closes these sessions, so reconnect.
            transient = "server unavailable: " + message;
            drop_connection();
            break;
          }
          std::fprintf(stderr, "csj_serve: server error: %s\n",
                       message.c_str());
          const int rc = code_name.empty() ? 2 : ExitCodeFor(code_name);
          exit_code = rc == 0 ? 2 : rc;
          break;  // semantic error: the session itself stays usable
        }
        if (control_op) {
          std::printf("%s\n", line.c_str());
          std::fflush(stdout);
          exit_code = 0;
          break;
        }

        // Stream the payload to --out (or stdout) as it arrives. If our own
        // consumer hangs up (`csj_serve query ... | head`), close the
        // socket — the server's disconnect watcher cancels the query — and
        // exit 3.
        std::FILE* out = stdout;
        if (!iter_out.empty()) {
          out = std::fopen(iter_out.c_str(), "wb");
          if (out == nullptr) {
            Flags::Die("cannot open for write: " + iter_out);
          }
        }
        uint64_t payload_bytes = 0;
        const auto write_out = [out, &payload_bytes](const char* data,
                                                     size_t size) {
          if (std::fwrite(data, 1, size, out) != size) {
            if (errno == EPIPE) {
              return Status::Cancelled("output consumer closed the stream");
            }
            return Status::IoError(std::string("write failed: ") +
                                   std::strerror(errno));
          }
          payload_bytes += size;
          return Status::OK();
        };
        std::string trailer_line;
        errno = 0;
        Status streamed = serve::StreamFramedPayload(reader.get(), format,
                                                     write_out, &trailer_line);
        if (streamed.ok() && std::fflush(out) != 0 && errno == EPIPE) {
          streamed = Status::Cancelled("output consumer closed the stream");
        }
        if (out != stdout) std::fclose(out);
        if (!streamed.ok()) {
          if (!iter_out.empty()) std::remove(iter_out.c_str());
          drop_connection();
          if (streamed.code() == StatusCode::kCancelled) {
            std::fprintf(stderr, "csj_serve: %s\n",
                         streamed.ToString().c_str());
            exit_code = kExitInterrupted;
            break;
          }
          if (payload_bytes == 0) {
            // The response died before its first payload byte (peer closed,
            // injected write fault on the header): re-running cannot
            // duplicate output.
            transient = streamed.ToString();
            break;
          }
          // Payload already started: NEVER silently re-run the query.
          std::fprintf(stderr, "csj_serve: %s\n", streamed.ToString().c_str());
          exit_code = 2;
          break;
        }
        auto trailer = json::Parse(trailer_line);
        DieOnError(trailer.status());
        const json::Value* code = trailer->Find("code");
        const std::string code_name =
            code != nullptr && code->is_string() ? code->AsString() : "";
        if (code_name == "Unavailable" && payload_bytes == 0) {
          if (!iter_out.empty()) std::remove(iter_out.c_str());
          transient = "server unavailable: " + trailer_line;
          break;  // clean trailer: the session can carry the retry
        }
        std::fprintf(stderr, "%s\n", trailer_line.c_str());
        exit_code = code_name.empty() ? 2 : ExitCodeFor(code_name);
        if (exit_code != 0 && !iter_out.empty() && repeat > 1) {
          // Keep the per-iteration file set comparable: under --repeat a
          // file exists iff its response completed OK.
          std::remove(iter_out.c_str());
        }
      } while (false);

      if (exit_code == 0) {
        if (retry.retries() > 0) {
          std::fprintf(stderr, "csj_serve: recovered after %d retries\n",
                       retry.retries());
        }
        break;  // iteration answered OK; next --repeat round
      }
      if (exit_code > 0) {
        drop_connection();
        return exit_code;
      }
      if (!retry.BackoffBeforeRetry()) {
        std::fprintf(stderr, "csj_serve: %s (gave up after %d retries)\n",
                     transient.c_str(), retry.retries());
        drop_connection();
        return 2;
      }
    }
  }
  drop_connection();
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: csj_serve <serve|query> [--flag value ...]\n"
               "see the header comment of tools/csj_serve.cc and "
               "docs/SERVING.md\n");
  return 2;
}

int Main(int argc, char** argv) {
  // A consumer or client hanging up must surface as EPIPE, not kill the
  // process (the daemon streams to sockets; the client streams to pipes).
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags("csj_serve", argc, argv, 2);
  if (command == "serve") return CmdServe(flags);
  if (command == "query") return CmdQuery(flags);
  return Usage();
}

}  // namespace
}  // namespace csj::serve_tool

int main(int argc, char** argv) { return csj::serve_tool::Main(argc, argv); }
