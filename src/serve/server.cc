#include "serve/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <optional>

#include "core/similarity_join.h"
#include "core/sink.h"
#include "plan/planner.h"
#include "serve/protocol.h"
#include "storage/output_file.h"
#include "util/failpoint.h"
#include "util/format.h"
#include "util/metrics.h"

namespace csj::serve {

namespace {

/// Runs a governed range query (all points within eps of a center) over the
/// shared tree, streaming fixed-width ids in tree order. Counts land in the
/// JoinStats `links` / `output_bytes` fields so the trailer shape matches
/// joins.
Status RunRangeQuery(int fd, const Request& req, const Dataset& dataset,
                     const ExecContext& exec, JoinStats* stats) {
  if (req.center.size() != static_cast<size_t>(kServeDim)) {
    return Status::InvalidArgument(StrFormat(
        "center has %zu coordinates, the dataset is %d-dimensional",
        req.center.size(), kServeDim));
  }
  Point<kServeDim> center;
  for (int d = 0; d < kServeDim; ++d) center[d] = req.center[d];

  OutputFile out;
  CSJ_RETURN_IF_ERROR(out.OpenFd(fd, OutputFile::Options{.atomic = false}));

  const auto& tree = dataset.tree;
  Status result;
  std::vector<NodeId> stack;
  if (tree.Root() != kInvalidNode) stack.push_back(tree.Root());
  while (!stack.empty()) {
    if (exec.ShouldStop()) {
      result = exec.status();
      break;
    }
    const NodeId n = stack.back();
    stack.pop_back();
    if (tree.IsLeaf(n)) {
      for (const auto& entry : tree.Entries(n, &exec)) {
        if (Distance(center, entry.point) > req.spec.eps) continue;
        ++stats->links;
        result = out.Append(
            StrFormat("%0*u\n", dataset.id_width, entry.id));
        if (!result.ok()) break;
      }
      if (!result.ok()) break;
    } else {
      for (const NodeId child : tree.Children(n, &exec)) {
        if (MinDistance(center, tree.Shape(child)) <= req.spec.eps) {
          stack.push_back(child);
        }
      }
    }
  }
  stats->output_bytes = out.bytes_written();
  const Status closed = out.Close();
  return result.ok() ? closed : result;
}

json::Value DatasetInfo(const Dataset& dataset) {
  json::Value info = json::Object{};
  info["name"] = dataset.name;
  info["points"] = dataset.num_points;
  info["id_width"] = static_cast<int64_t>(dataset.id_width);
  info["source"] = dataset.source_path;
  info["epoch"] = dataset.epoch;
  return info;
}

}  // namespace

Server::Server(DatasetRegistry* registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  CSJ_CHECK(!started_) << "Server::Start called twice";
  // Streaming responses rely on a hangup surfacing as EPIPE in the sink
  // (clean per-query kCancelled), never as a process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);

  if (!options_.unix_socket_path.empty()) {
    struct sockaddr_un addr;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("socket path too long: " +
                                     options_.unix_socket_path);
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IoError(std::string("socket failed: ") +
                             std::strerror(errno));
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_socket_path.c_str());  // stale socket from a crash
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const Status status =
          Status::IoError("bind failed: " + options_.unix_socket_path + ": " +
                          std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IoError(std::string("socket failed: ") +
                             std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::InvalidArgument("bad listen host: " + options_.tcp_host);
    }
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const Status status = Status::IoError(
          StrFormat("bind failed: %s:%d: %s", options_.tcp_host.c_str(),
                    options_.tcp_port, std::strerror(errno)));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    struct sockaddr_in bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                      &bound_len) == 0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status status = Status::IoError(std::string("listen failed: ") +
                                          std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  started_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  const int workers = options_.workers < 1 ? 1 : options_.workers;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  watcher_ = std::thread([this] { WatchLoop(); });
  return Status::OK();
}

void Server::Shutdown() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Drain, not abort: stop admitting, then let every accepted query finish.
  draining_.store(true, std::memory_order_release);
  acceptor_.join();
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  watch_stop_.store(true, std::memory_order_release);
  watcher_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
}

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    // Poll with a timeout instead of blocking in accept: Shutdown() only
    // has to flip `draining_` and the loop exits within one tick.
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (CSJ_FAILPOINT("serve.accept")) {
      // Chaos: the connection dies between accept and admission. The client
      // sees a bare hangup (no error line) and is expected to retry.
      CSJ_METRIC_COUNT("serve.accept_faults", 1);
      ::close(fd);
      continue;
    }
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!draining_.load(std::memory_order_relaxed) &&
          pending_.size() < options_.max_pending) {
        pending_.push_back(fd);
        ++counters_.accepted;
        admitted = true;
      } else {
        ++counters_.rejected;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      // Reject at the door with a well-formed error — bounded memory under
      // overload, and the client learns why instead of seeing a hangup.
      CSJ_METRIC_COUNT("serve.admission_rejects", 1);
      WriteAll(fd, ErrorLine(Status::ResourceExhausted(
                       "admission queue is full, try again later")))
          .ok();
      ::close(fd);
    }
  }
}

void Server::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() || draining_.load(std::memory_order_relaxed);
      });
      if (pending_.empty()) {
        // Draining and nothing left: the queue can only shrink now.
        if (draining_.load(std::memory_order_relaxed)) return;
        continue;
      }
      fd = pending_.front();
      pending_.pop_front();
    }
    const uint64_t answered = HandleConnection(fd);
    ::close(fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.sessions;
      counters_.served += answered;
    }
    CSJ_METRIC_COUNT("serve.sessions", 1);
  }
}

void Server::WatchLoop() {
  // Drain semantics: Shutdown() raises watch_stop_ only after every worker
  // has joined, so in-flight queries stay cancellable to the very end.
  while (!watch_stop_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      for (const WatchEntry& watch : watches_) {
        char byte;
        ssize_t rc;
        do {
          rc = ::recv(watch.fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
        } while (rc < 0 && errno == EINTR);
        // 0 = orderly hangup; an error other than "no data yet" (a reset,
        // a bad descriptor) also means the client is gone. Pending request
        // bytes (rc == 1) mean the peer is alive.
        if (rc == 0 ||
            (rc < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
          watch.flag->store(true, std::memory_order_relaxed);
          CSJ_METRIC_COUNT("serve.disconnect_cancels", 1);
        }
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.watch_interval_ms));
  }
}

uint64_t Server::Watch(int fd, std::atomic<bool>* flag) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  const uint64_t ticket = next_ticket_++;
  watches_.push_back(WatchEntry{ticket, fd, flag});
  return ticket;
}

void Server::Unwatch(uint64_t ticket) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  for (size_t i = 0; i < watches_.size(); ++i) {
    if (watches_[i].ticket == ticket) {
      watches_[i] = watches_.back();
      watches_.pop_back();
      return;
    }
  }
}

Status Server::ReadRequestLine(LineReader* reader, int timeout_ms,
                               bool respect_drain, std::string* line) {
  // Short poll slices instead of one long poll: a drain is noticed within a
  // slice even when the peer is silent, so idle keep-alive sessions cannot
  // stall a shutdown. Bytes buffered across slices (a slow peer mid-line)
  // stay in the reader.
  constexpr int kSliceMs = 50;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    if (respect_drain && draining_.load(std::memory_order_acquire)) {
      return Status::Unavailable("server is draining");
    }
    const int elapsed = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (timeout_ms >= 0 && elapsed >= timeout_ms) {
      return Status::DeadlineExceeded(
          StrFormat("peer sent nothing for %d ms", timeout_ms));
    }
    int slice = kSliceMs;
    if (timeout_ms >= 0) slice = std::min(slice, timeout_ms - elapsed);
    reader->set_timeout_ms(slice);
    const Status status = reader->ReadLine(line);
    if (status.code() == StatusCode::kDeadlineExceeded) continue;
    return status;
  }
}

bool Server::WriteCtrl(int fd, const std::string& line) {
  const Status status = WriteAll(fd, line);
  if (!status.ok()) {
    // A control-plane line (ok/error/header/trailer) the peer never saw:
    // the session's framing is gone, so the caller must close it. Silently
    // carrying on would leave the client waiting on a response that will
    // never arrive.
    CSJ_METRIC_COUNT("serve.ctrl_write_errors", 1);
  }
  return status.ok();
}

uint64_t Server::HandleConnection(int fd) {
  LineReader reader(fd, options_.request_timeout_ms);
  uint64_t served = 0;
  for (;;) {
    const int timeout_ms =
        served == 0 ? options_.request_timeout_ms : options_.idle_timeout_ms;
    std::string line;
    // The first request of an admitted connection ignores the drain flag:
    // drain means "finish admitted work", and an admitted connection that
    // has not spoken yet is still admitted work.
    const Status read_status =
        ReadRequestLine(&reader, timeout_ms, /*respect_drain=*/served > 0,
                        &line);
    if (!read_status.ok()) {
      // A served session whose peer hung up between requests is a normal
      // session end. Everything else (first-request timeout, drain, idle
      // expiry) gets a best-effort farewell line — the peer may already be
      // gone, and we are closing either way, so the result is discarded on
      // purpose.
      const bool peer_gone =
          served > 0 && read_status.code() == StatusCode::kUnavailable &&
          !draining_.load(std::memory_order_acquire);
      if (!peer_gone) WriteAll(fd, ErrorLine(read_status)).ok();
      return served;
    }
    auto parsed = ParseRequest(line);
    if (!parsed.ok()) {
      // A malformed line means the framing is no longer trustworthy: answer
      // and close (best effort, the session is over either way).
      WriteAll(fd, ErrorLine(parsed.status())).ok();
      return served;
    }
    ++served;
    CSJ_METRIC_COUNT("serve.requests", 1);
    if (!HandleRequest(fd, *parsed)) return served;
    if (options_.max_requests_per_conn > 0 &&
        served >= static_cast<uint64_t>(options_.max_requests_per_conn)) {
      return served;  // cap reached: the client reconnects through admission
    }
    if (options_.idle_timeout_ms == 0) return served;  // keep-alive disabled
  }
}

bool Server::HandleAdminOp(int fd, const Request& req) {
  DatasetSpec spec;
  spec.name = req.spec.dataset;
  spec.path = req.path;
  spec.block_size = options_.admin_block_size;
  spec.cache_blocks = options_.admin_cache_blocks;
  Status status;
  if (req.op == "load") {
    status = registry_->Load(spec);
  } else if (req.op == "reload") {
    status = registry_->Reload(spec);
  } else {
    status = registry_->Unload(spec.name);
  }
  if (!status.ok()) return WriteCtrl(fd, ErrorLine(status));
  json::Object extra;
  extra["dataset"] = spec.name;
  if (req.op != "unload") {
    if (auto dataset = registry_->Find(spec.name)) {
      extra["epoch"] = dataset->epoch;
      extra["points"] = dataset->num_points;
    }
  }
  extra["live_epochs"] = LiveEpochCount();
  return WriteCtrl(fd, OkLine(req.op, extra));
}

bool Server::HandleRequest(int fd, const Request& req) {
  if (req.op == "ping") {
    return WriteCtrl(fd, OkLine("ping"));
  }
  if (req.op == "list") {
    json::Value datasets = json::Array{};
    for (const auto& dataset : registry_->All()) {
      datasets.Append(DatasetInfo(*dataset));
    }
    json::Object extra;
    extra["datasets"] = datasets;
    // Registered epochs plus any pinned by in-flight queries or still
    // draining after an unload — the chaos harness asserts this returns to
    // baseline once load stops.
    extra["live_epochs"] = LiveEpochCount();
    return WriteCtrl(fd, OkLine("list", extra));
  }
  if (req.is_admin()) {
    return HandleAdminOp(fd, req);
  }

  // Pinning the epoch: this shared_ptr keeps the dataset (tree, block cache,
  // budget charge) alive for the whole query even if a reload swaps the
  // registry entry or an unload drops it mid-flight — the query completes
  // byte-identically on the epoch it started on.
  const std::shared_ptr<const Dataset> dataset =
      registry_->Find(req.spec.dataset);
  if (dataset == nullptr) {
    return WriteCtrl(fd, ErrorLine(Status::NotFound("unknown dataset: " +
                                                    req.spec.dataset)));
  }
  std::shared_ptr<const Dataset> dataset_b;
  if (!req.spec.dataset_b.empty()) {
    dataset_b = registry_->Find(req.spec.dataset_b);
    if (dataset_b == nullptr) {
      return WriteCtrl(fd, ErrorLine(Status::NotFound("unknown dataset: " +
                                                      req.spec.dataset_b)));
    }
  }

  // Per-query governance, all of it private to this request: a deadline
  // (request value, server default, clamped by the server maximum), a
  // cancel flag raised by the disconnect watcher, and a memory budget
  // carved from the server-wide budget the block caches also charge.
  uint64_t deadline_ms = req.spec.deadline_ms != 0
                             ? req.spec.deadline_ms
                             : options_.default_deadline_ms;
  if (options_.max_deadline_ms != 0 &&
      (deadline_ms == 0 || deadline_ms > options_.max_deadline_ms)) {
    deadline_ms = options_.max_deadline_ms;
  }
  std::atomic<bool> disconnected{false};
  const uint64_t ticket = Watch(fd, &disconnected);
  MemoryBudget query_budget(req.spec.mem_budget, registry_->budget());
  ExecContext exec;
  exec.SetCancelFlag(&disconnected);
  exec.SetMemoryBudget(&query_budget);

  // The process-wide registry smears concurrent queries together; the
  // begin/end delta is this query's attributable window (see
  // metrics::DiffSnapshots — approximate under concurrency; alone, counts
  // and sums are exact and a histogram's min/max are exact for one sample
  // and bucket bounds otherwise).
  metrics::MetricsSnapshot begin;
  if (req.want_metrics) begin = metrics::Snapshot();

  const int id_width =
      dataset_b == nullptr
          ? dataset->id_width
          : std::max(dataset->id_width, dataset_b->id_width);
  if (!WriteCtrl(fd, HeaderLine(req.op, req.spec.output, id_width))) {
    Unwatch(ticket);
    return false;
  }

  JoinStats stats;
  Status status;
  if (req.op == "range") {
    exec.SetDeadlineAfterMs(deadline_ms);
    status = RunRangeQuery(fd, req, *dataset, exec, &stats);
  } else {
    OutputSpec spec;
    spec.format = req.spec.output;
    if (req.spec.output != OutputFormat::kNone) spec.fd = fd;
    spec.id_width = id_width;
    spec.atomic = false;
    spec.budget = &query_budget;
    auto sink_result = MakeSink(spec);
    if (!sink_result.ok()) {
      Unwatch(ticket);
      return WriteCtrl(fd,
                       TrailerLine(sink_result.status(), stats, 0, nullptr));
    }
    std::unique_ptr<JoinSink> sink = std::move(sink_result).value();

    // "algo":"auto" — resolve against the dataset's load-time sketch. The
    // resolved plan drives execution and is echoed (with its predictions)
    // in the trailer's stats.plan. Dual joins plan against the left side.
    QuerySpec run_spec = req.spec;
    std::optional<plan::QueryPlan> query_plan;
    if (run_spec.algo == QueryAlgo::kAuto) {
      query_plan = plan::PlanQuery(run_spec, dataset->sketch, id_width);
      run_spec = query_plan->resolved;
    }

    JoinOptions options = plan::DeriveJoinOptions(run_spec);
    options.deadline_ms = deadline_ms;
    options.exec = &exec;
    const JoinAlgorithm algorithm = TreeAlgorithmFor(run_spec.algo);
    if (dataset_b != nullptr) {
      switch (algorithm) {
        case JoinAlgorithm::kSSJ:
          stats = StandardSpatialJoin(dataset->tree, dataset_b->tree, options,
                                      sink.get());
          break;
        case JoinAlgorithm::kNCSJ:
          stats = NaiveCompactSpatialJoin(dataset->tree, dataset_b->tree,
                                          options, sink.get());
          break;
        case JoinAlgorithm::kCSJ:
          stats = CompactSpatialJoin(dataset->tree, dataset_b->tree, options,
                                     sink.get());
          break;
      }
    } else {
      stats = RunSelfJoin(algorithm, dataset->tree, options, sink.get());
    }
    if (query_plan) {
      plan::AttachPlan(*query_plan, &stats);
      if (stats.status.ok()) plan::RecordPlanAccuracy(stats);
    }
    status = stats.status;
    // Unlike a one-shot file sink (where a governed stop discards the
    // artifact), a stream has no artifact to discard: always seal it, so a
    // partial binary payload still carries its EOF marker and footer and
    // the client-side structural scan terminates. The trailer's status says
    // the result is partial.
    const Status sealed = sink->Finish();
    if (status.ok()) status = sealed;
  }
  Unwatch(ticket);

  metrics::MetricsSnapshot delta;
  if (req.want_metrics) delta = DiffSnapshots(begin, metrics::Snapshot());
  // A payload stream that died (peer hangup, injected fault) usually
  // surfaces here too: the trailer write fails, WriteCtrl records it, and
  // the session closes instead of trying to frame another response on a
  // broken stream.
  return WriteCtrl(fd, TrailerLine(status, stats, stats.output_bytes,
                                   req.want_metrics ? &delta : nullptr));
}

}  // namespace csj::serve
