#ifndef CSJ_SERVE_SERVER_H_
#define CSJ_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.h"
#include "util/status.h"

/// \file
/// The csj_serve daemon core: one listener, a bounded admission queue, a
/// fixed worker pool, keep-alive sessions, and per-query resource
/// governance.
///
/// Life of a session:
///
///   accept -> admission queue -> worker -> [parse -> execute -> respond]*
///
/// The acceptor never blocks on a client: a connection either enters the
/// bounded queue or is refused on the spot with a kResourceExhausted error
/// line — under overload the server degrades by rejecting, never by
/// growing. An admitted connection is a **session**: it may issue any
/// number of framed requests back to back, each governed independently
/// (per-request ExecContext, deadline, cancel flag, child MemoryBudget).
/// Two guards keep slow peers from pinning workers: an idle timeout between
/// requests (`idle_timeout_ms`; the first request gets
/// `request_timeout_ms`) and a per-connection request cap
/// (`max_requests_per_conn`), after which the session is closed and the
/// client must reconnect — re-entering admission, where overload control
/// lives. Queries never share mutable state — each pins the refcounted
/// dataset epoch it started on (serve/registry.h), per-query metrics come
/// from snapshot deltas (metrics::DiffSnapshots), and one query tripping
/// its deadline or budget is invisible to its neighbors.
///
/// The admin ops (`load`/`reload`/`unload`) run on the same workers and
/// drive the registry's epoch lifecycle; a reload validates the new epoch
/// fully before the atomic swap, so queries racing a reload either pin the
/// old epoch or the new one — never a broken in-between.
///
/// Shutdown() (SIGTERM in the daemon) drains: the listener closes, queued
/// connections and the in-flight request of every session run to
/// completion, then the session is closed (an idle keep-alive session is
/// told `Unavailable` and closed — clients retry against the next
/// incarnation). It never cancels admitted work — a client that wants out
/// disconnects, which cancels just that query.

namespace csj::serve {

struct Request;
class LineReader;

struct ServerOptions {
  /// Listener: a Unix-domain socket path, or a TCP port on `tcp_host` when
  /// the path is empty (port 0 binds an ephemeral port; see tcp_port()).
  std::string unix_socket_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = 0;

  int workers = 4;            ///< concurrent query executors
  size_t max_pending = 16;    ///< admission queue bound (beyond = reject)
  uint64_t default_deadline_ms = 0;  ///< applied when a request sets none
  uint64_t max_deadline_ms = 0;      ///< clamp on requested deadlines; 0 = off
  int watch_interval_ms = 20;        ///< disconnect poll cadence
  /// A connected client must send its first request line within this
  /// window, so a silent connection cannot pin a worker (and cannot stall a
  /// drain).
  int request_timeout_ms = 10000;
  /// Keep-alive: how long a session may sit idle between requests before
  /// the server closes it. 0 = no keep-alive (one request per connection).
  int idle_timeout_ms = 10000;
  /// Keep-alive: requests served on one connection before it is closed and
  /// the client must reconnect (re-entering admission). 0 = unlimited.
  int max_requests_per_conn = 256;
  /// Block cache capacity of datasets registered through the load/reload
  /// admin ops (startup loads carry their own DatasetSpec).
  size_t admin_cache_blocks = 1024;
};

/// Monotonic counters for tests and the smoke script.
struct ServerCounters {
  uint64_t accepted = 0;   ///< connections admitted to the queue
  uint64_t rejected = 0;   ///< connections refused at admission
  uint64_t sessions = 0;   ///< connections fully handled by a worker
  uint64_t served = 0;     ///< requests answered (any terminal status)
};

class Server {
 public:
  /// The registry outlives the server. Its budget becomes the parent of
  /// every per-query budget.
  Server(DatasetRegistry* registry, ServerOptions options);
  ~Server();  ///< implies Shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor, workers and watcher. Also
  /// ignores SIGPIPE process-wide: response streaming relies on hangups
  /// surfacing as EPIPE.
  Status Start();

  /// Stops accepting, drains queued and in-flight queries, joins all
  /// threads, and removes the Unix socket file. Idempotent.
  void Shutdown();

  /// The bound TCP port (resolves port 0), or -1 on a Unix listener.
  int tcp_port() const { return bound_tcp_port_; }

  ServerCounters counters() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void WatchLoop();
  /// Serves one keep-alive session; returns the number of requests
  /// answered.
  uint64_t HandleConnection(int fd);
  /// Serves one parsed request. Returns true when the session may carry
  /// another request, false when it must close (control-plane write
  /// failure, or a payload stream died).
  bool HandleRequest(int fd, const Request& req);
  bool HandleAdminOp(int fd, const Request& req);
  /// Waits for the next request line: `timeout_ms` overall, polled in short
  /// slices so a drain is noticed within one slice. `respect_drain` makes a
  /// drain end the wait with kUnavailable (idle keep-alive sessions);
  /// the first request of an admitted connection waits the full window even
  /// while draining, preserving drain-serves-queued-work semantics.
  Status ReadRequestLine(LineReader* reader, int timeout_ms,
                         bool respect_drain, std::string* line);
  /// Checked control-plane write: on failure records
  /// `serve.ctrl_write_errors` and returns false so the caller closes the
  /// session instead of continuing against a dead peer.
  bool WriteCtrl(int fd, const std::string& line);
  /// Registers `flag` to be raised if `fd`'s peer disconnects; returns a
  /// ticket for Unwatch.
  uint64_t Watch(int fd, std::atomic<bool>* flag);
  void Unwatch(uint64_t ticket);

  DatasetRegistry* const registry_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int bound_tcp_port_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> watch_stop_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::thread watcher_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< accepted, not yet claimed by a worker
  ServerCounters counters_;

  struct WatchEntry {
    uint64_t ticket;
    int fd;
    std::atomic<bool>* flag;
  };
  std::mutex watch_mu_;
  std::vector<WatchEntry> watches_;
  uint64_t next_ticket_ = 1;
};

}  // namespace csj::serve

#endif  // CSJ_SERVE_SERVER_H_
