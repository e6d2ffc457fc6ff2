/// \file
/// The serve-mix workload: an in-process csj_serve Server (2 workers, Unix
/// socket) over two registered datasets — the MG stand-in, which fits its
/// block pool, and the Pacific-NW stand-in at 10%, which does not — driven
/// by a closed loop of 2 keep-alive client connections built on
/// serve::LineReader / StreamFramedPayload, as `csj_serve query` is.
///
/// Each client runs its own seeded request sequence:
///   ~35% range probes on pnw (eps 2^-8, centres drawn from pnw's points),
///   ~60% self-joins on mg over algo x eps x output,
///   ~5%  self-joins on pnw at eps 2^-12.
/// Every payload is checked after the timed loop: joins against an
/// in-process one-shot run of the same QuerySpec over the same index file,
/// ranges against a scan of the points.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include "common.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using csj::OutputFormat;
using csj::QueryAlgo;
using csj::QuerySpec;
using csj::Status;
using Tree = csj::RStarTree<2>;

constexpr int kSetupPasses = 3;
constexpr int kClients = 2;
constexpr size_t kMinRequests = 1000;
constexpr const char* kSocket = "serve.sock";
constexpr double kRangeEps = 0x1p-8;
constexpr double kMgEps[] = {0x1p-10, 0x1p-9};
constexpr double kPnwEps = 0x1p-12;
constexpr QueryAlgo kMgAlgos[] = {QueryAlgo::kSSJ, QueryAlgo::kNCSJ,
                                  QueryAlgo::kCSJ, QueryAlgo::kAuto};
constexpr OutputFormat kOutputs[] = {OutputFormat::kText, OutputFormat::kBinary,
                                     OutputFormat::kNone};
constexpr const char* kClassNames[] = {"range", "mg_join", "pnw_join"};
enum Class { kRange = 0, kMgJoin = 1, kPnwJoin = 2 };

/// One request of a client's sequence.
struct Request {
  Class cls = kRange;
  QuerySpec spec;          ///< joins
  size_t center = 0;       ///< ranges: index into pnw's points
  std::string line;        ///< the wire request
  std::string key;         ///< joins: dataset/algo/eps/output
};

/// What the client observed for one request.
struct Reply {
  Request request;
  bool ok = false;
  std::string why;
  bool traced = false;
  double latency_s = 0.0;
  double header_s = 0.0;
  double stream_s = 0.0;
  double server_join_s = 0.0;
  uint64_t payload_bytes = 0;
  uint64_t payload_hash = 0;
  uint64_t links = 0, groups = 0, output_bytes = 0;
};

std::string EpsLabel(double eps) {
  return csj::StrFormat("2^%d", std::ilogb(eps));
}

std::string KeyOf(const QuerySpec& spec) {
  return csj::StrFormat("%s/%s/%s/%s", spec.dataset.c_str(),
                        csj::QueryAlgoName(spec.algo), EpsLabel(spec.eps).c_str(),
                        csj::OutputFormatName(spec.output));
}

Request MakeJoin(Class cls, const std::string& dataset, QueryAlgo algo,
                 double eps, OutputFormat output) {
  Request r;
  r.cls = cls;
  r.spec.dataset = dataset;
  r.spec.algo = algo;
  r.spec.eps = eps;
  r.spec.output = output;
  csj::json::Value doc = r.spec.ToJsonValue();
  doc["op"] = "join";
  r.line = csj::json::Write(doc) + "\n";
  r.key = KeyOf(r.spec);
  return r;
}

Request MakeRange(const std::vector<csj::Point2>& pnw, size_t center) {
  Request r;
  r.cls = kRange;
  r.center = center;
  csj::json::Value doc = csj::json::Object{};
  doc["op"] = "range";
  doc["dataset"] = "pnw";
  doc["eps"] = kRangeEps;
  csj::json::Value c = csj::json::Array{};
  c.Append(pnw[center][0]);
  c.Append(pnw[center][1]);
  doc["center"] = std::move(c);
  r.line = csj::json::Write(doc) + "\n";
  return r;
}

/// A client's seeded request sequence.
class Sequence {
 public:
  Sequence(uint64_t seed, int client, const std::vector<csj::Point2>* pnw)
      : rng_(seed * 1000003ULL + static_cast<uint64_t>(client) + 1), pnw_(pnw) {}

  Request Next() {
    const double u = Uniform();
    if (u < 0.35) return MakeRange(*pnw_, rng_() % pnw_->size());
    if (u < 0.95) {
      const QueryAlgo algo = kMgAlgos[rng_() % 4];
      const double eps = kMgEps[rng_() % 2];
      const OutputFormat output = kOutputs[rng_() % 3];
      return MakeJoin(kMgJoin, "mg", algo, eps, output);
    }
    return MakeJoin(kPnwJoin, "pnw", QueryAlgo::kCSJ, kPnwEps,
                    OutputFormat::kText);
  }

 private:
  double Uniform() { return static_cast<double>(rng_() >> 11) * 0x1p-53; }

  std::mt19937_64 rng_;
  const std::vector<csj::Point2>* pnw_;
};

/// One keep-alive connection. Reconnects before the server's per-session
/// request cap so an orderly rotation is never mistaken for a drop.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request and reads its reply. With a tracer, records the
  /// request's spans and `counters()` snapshots taken just outside the
  /// timed interval.
  Reply Send(const Request& request, Tracer* tracer,
             const std::function<csj::json::Value()>& counters = nullptr) {
    Reply reply;
    reply.request = request;
    reply.traced = tracer != nullptr;
    if (fd_ < 0 || on_connection_ >= per_session_) {
      Close();
      if (const Status s = Connect(); !s.ok()) {
        reply.why = s.ToString();
        return reply;
      }
    }
    ++on_connection_;
    const uint64_t trace_id = tracer ? tracer->NewTrace() : 0;
    csj::json::Value counters_begin;
    if (tracer && counters) counters_begin = counters();
    payload_.clear();
    const double t0 = Now();
    ScopedSpan root(tracer, "request", Tracer::kNoSpan, trace_id);
    std::string header;
    Status status;
    {
      ScopedSpan span(tracer, "request.send", root.id(), trace_id);
      status = csj::serve::WriteAll(fd_, request.line);
    }
    if (status.ok()) {
      ScopedSpan span(tracer, "request.header", root.id(), trace_id);
      status = reader_->ReadLine(&header);
    }
    const double t1 = Now();
    std::string trailer;
    OutputFormat format = request.cls == kRange ? OutputFormat::kText
                                                : request.spec.output;
    if (status.ok()) {
      auto head = csj::json::Parse(header);
      const csj::json::Value* ok = head.ok() ? head->Find("ok") : nullptr;
      if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
        status = Status::Internal("rejected: " + header);
      }
    }
    if (status.ok()) {
      ScopedSpan span(tracer, "request.stream", root.id(), trace_id);
      status = csj::serve::StreamFramedPayload(
          reader_.get(), format,
          [this](const char* data, size_t size) {
            payload_.append(data, size);
            return Status::OK();
          },
          &trailer);
    }
    root.Close();
    const double t2 = Now();
    if (tracer && counters) {
      tracer->Snapshot(root.id(), "request.begin", std::move(counters_begin));
      tracer->Snapshot(root.id(), "request.end", counters());
    }
    reply.latency_s = t2 - t0;
    reply.header_s = t1 - t0;
    reply.stream_s = t2 - t1;
    if (!status.ok()) {
      reply.why = status.ToString();
      Close();  // framing is no longer trustworthy
      return reply;
    }
    reply.payload_bytes = payload_.size();
    reply.payload_hash = Hash64(payload_);
    auto doc = csj::json::Parse(trailer);
    const csj::json::Value* ok = doc.ok() ? doc->Find("ok") : nullptr;
    const csj::json::Value* stats = doc.ok() ? doc->Find("stats") : nullptr;
    if (ok == nullptr || !ok->is_bool() || !ok->AsBool() || stats == nullptr) {
      reply.why = "bad trailer: " + trailer;
      return reply;
    }
    auto field = [&](const char* name) -> uint64_t {
      const csj::json::Value* v = stats->Find(name);
      return v != nullptr && v->is_number() ? v->AsUint() : 0;
    };
    reply.links = field("links");
    reply.groups = field("groups");
    reply.output_bytes = field("output_bytes");
    if (const csj::json::Value* e = stats->Find("elapsed_seconds");
        e != nullptr && e->is_number()) {
      reply.server_join_s = e->AsDouble();
    }
    if (request.cls == kRange) reply.payload_hash = RangeHash(payload_);
    reply.ok = true;
    return reply;
  }

  /// Sorted-id hash of a range reply (the reply order is the tree's).
  static uint64_t RangeHash(const std::string& payload) {
    std::vector<uint32_t> ids;
    uint64_t v = 0;
    bool in_number = false;
    for (const char c : payload) {
      if (c >= '0' && c <= '9') {
        v = v * 10 + static_cast<uint64_t>(c - '0');
        in_number = true;
      } else if (in_number) {
        ids.push_back(static_cast<uint32_t>(v));
        v = 0;
        in_number = false;
      }
    }
    if (in_number) ids.push_back(static_cast<uint32_t>(v));
    return IdsHash(&ids);
  }

  static uint64_t IdsHash(std::vector<uint32_t>* ids) {
    std::sort(ids->begin(), ids->end());
    return Hash64(std::string_view(reinterpret_cast<const char*>(ids->data()),
                                   ids->size() * sizeof(uint32_t)));
  }

 private:
  Status Connect() {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IoError("socket failed");
    struct sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
      return Status::Unavailable("cannot connect");
    }
    reader_ = std::make_unique<csj::serve::LineReader>(fd_);
    on_connection_ = 0;
    return Status::OK();
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    reader_.reset();
  }

  const int per_session_ = csj::serve::ServerOptions{}.max_requests_per_conn;
  int fd_ = -1;
  int on_connection_ = 0;
  std::unique_ptr<csj::serve::LineReader> reader_;
  std::string payload_;
};

struct SetupPass {
  double total = 0.0;
  double scaled = 0.0;  ///< total at the reference speed
  double load_points = 0.0, pack = 0.0, save = 0.0, registry_load = 0.0;
};

/// A running server with its registry.
struct Service {
  std::unique_ptr<csj::serve::DatasetRegistry> registry;
  std::unique_ptr<csj::serve::Server> server;
  ~Service() {
    if (server) server->Shutdown();
    server.reset();
    registry.reset();
  }
};

/// Both index builds -> DatasetRegistry::Load x2 -> Server::Start -> one
/// warm-up request per class.
std::unique_ptr<Service> SetUp(const std::vector<csj::Point2>& pnw_points,
                               Tracer* tracer, SetupPass* pass,
                               Ledger* ledger) {
  const uint64_t trace_id = tracer ? tracer->NewTrace() : 0;
  const double t0 = Now();
  ScopedSpan root(tracer, "setup", Tracer::kNoSpan, trace_id);
  auto service = std::make_unique<Service>();
  double mark = Now();
  auto step = [&](double* field) {
    const double now = Now();
    *field = now - mark;
    mark = now;
  };
  std::vector<csj::Point2> points[2];
  const char* names[2] = {"mg", "pnw"};
  {
    ScopedSpan span(tracer, "setup.load_points", root.id(), trace_id);
    for (int i = 0; i < 2; ++i) {
      auto loaded = csj::LoadPoints<2>(std::string(names[i]) + ".txt");
      ledger->Op(loaded.ok(), "LoadPoints: " + loaded.status().ToString());
      if (!loaded.ok()) return nullptr;
      points[i] = std::move(loaded).value();
    }
  }
  step(&pass->load_points);
  Tree trees[2];
  {
    ScopedSpan span(tracer, "setup.pack", root.id(), trace_id);
    for (int i = 0; i < 2; ++i) csj::PackStr(&trees[i], csj::ToEntries(points[i]));
  }
  step(&pass->pack);
  {
    ScopedSpan span(tracer, "setup.save", root.id(), trace_id);
    for (int i = 0; i < 2; ++i) {
      const Status s = csj::SaveTree(trees[i], std::string(names[i]) + ".csjt");
      ledger->Op(s.ok(), "SaveTree: " + s.ToString());
      if (!s.ok()) return nullptr;
    }
  }
  step(&pass->save);
  {
    ScopedSpan span(tracer, "setup.registry_load", root.id(), trace_id);
    service->registry = std::make_unique<csj::serve::DatasetRegistry>();
    csj::serve::DatasetSpec mg;
    mg.name = "mg";
    mg.path = "mg.csjt";
    csj::serve::DatasetSpec pnw;
    pnw.name = "pnw";
    pnw.path = "pnw.csjt";
    pnw.cache_blocks = 256;
    for (const auto* spec : {&mg, &pnw}) {
      const Status s = service->registry->Load(*spec);
      ledger->Op(s.ok(), "registry load: " + s.ToString());
      if (!s.ok()) return nullptr;
    }
  }
  step(&pass->registry_load);
  {
    ScopedSpan span(tracer, "setup.server_start", root.id(), trace_id);
    csj::serve::ServerOptions options;
    options.unix_socket_path = kSocket;
    options.workers = 2;
    service->server = std::make_unique<csj::serve::Server>(
        service->registry.get(), options);
    const Status s = service->server->Start();
    ledger->Op(s.ok(), "server start: " + s.ToString());
    if (!s.ok()) return nullptr;
  }
  {
    ScopedSpan span(tracer, "setup.warmup", root.id(), trace_id);
    Client client;
    for (const Request& r :
         {MakeRange(pnw_points, 0),
          MakeJoin(kMgJoin, "mg", QueryAlgo::kCSJ, kMgEps[0], OutputFormat::kText),
          MakeJoin(kPnwJoin, "pnw", QueryAlgo::kCSJ, kPnwEps,
                   OutputFormat::kText)}) {
      const Reply reply = client.Send(r, nullptr);
      ledger->Op(reply.ok, "warm-up: " + reply.why);
    }
  }
  root.Close();
  pass->total = Now() - t0;
  return service;
}

/// The one-shot reference for a join key.
struct Reference {
  uint64_t payload_bytes = 0;
  uint64_t payload_hash = 0;
  csj::JoinStats stats;
  double finish_s = 0.0;
  double evictions = 0.0;
};

/// `csj_tool join --index` over the same index file, in process: the auto
/// algorithm is resolved against the registered sketch, as the server does.
Reference OneShot(const Tree& tree, const csj::serve::Dataset& dataset,
                  QuerySpec spec, Ledger* ledger) {
  Reference ref;
  if (spec.algo == QueryAlgo::kAuto) {
    spec = csj::plan::PlanQuery(spec, dataset.sketch, dataset.id_width).resolved;
  }
  csj::JoinOptions options = csj::plan::DeriveJoinOptions(spec);
  csj::NodeAccessTracker tracker(1, 1024);
  options.tracker = &tracker;
  options.measure_write_time = true;
  csj::OutputSpec out;
  out.format = spec.output;
  out.path = "ref.out";
  out.id_width = csj::IdWidthFor(tree.size());
  auto sink = csj::MakeSink(out);
  if (!sink.ok()) {
    ledger->Op(false, "reference MakeSink: " + sink.status().ToString());
    return ref;
  }
  const auto before = csj::metrics::Snapshot();
  ref.stats = csj::RunSelfJoin(csj::TreeAlgorithmFor(spec.algo), tree, options,
                               sink->get());
  const double f0 = Now();
  const Status finished = ref.stats.status.ok() ? (*sink)->Finish()
                                                : ref.stats.status;
  ref.finish_s = Now() - f0;
  const auto after = csj::metrics::Snapshot();
  ref.evictions = Delta(before, after, "window.evictions");
  ledger->Op(finished.ok(), "reference join: " + finished.ToString());
  if (spec.output != OutputFormat::kNone) {
    const std::string bytes = ReadFile("ref.out");
    ref.payload_bytes = bytes.size();
    ref.payload_hash = Hash64(bytes);
    std::remove("ref.out");
  } else {
    ref.payload_hash = Hash64("");
  }
  return ref;
}

}  // namespace

void RunServeMix(const Args& args, Tracer* tracer, Ledger* ledger) {
  std::signal(SIGPIPE, SIG_IGN);
  for (const auto& [options, path] :
       {std::pair{MgOptions(), "mg.txt"}, std::pair{PnwOptions(), "pnw.txt"}}) {
    const Status written = WritePoints(options, args.seed, path);
    ledger->Op(written.ok(), "generate: " + written.ToString());
    if (!written.ok()) return;
  }
  // Range centres and the scan check use the points as the program reads
  // them.
  auto pnw_loaded = csj::LoadPoints<2>("pnw.txt");
  if (!pnw_loaded.ok()) {
    ledger->Op(false, "LoadPoints: " + pnw_loaded.status().ToString());
    return;
  }
  const std::vector<csj::Point2> pnw_points = std::move(pnw_loaded).value();

  std::vector<SetupPass> setups[2];  // [traced]
  std::unique_ptr<Service> service;
  for (int i = 0; i < kSetupPasses; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    service.reset();  // the previous pass's server and registry
    SetupPass pass;
    const double reference = ReferenceSeconds();
    service = SetUp(pnw_points, traced ? tracer : nullptr, &pass, ledger);
    if (service == nullptr) return;
    pass.scaled = pass.total * kReferenceNominalS / reference;
    setups[traced ? 1 : 0].push_back(pass);
  }
  const auto mg_dataset = service->registry->Find("mg");
  const auto pnw_dataset = service->registry->Find("pnw");
  const csj::PagedIoStats io_begin[2] = {mg_dataset->tree.io_stats(),
                                         pnw_dataset->tree.io_stats()};
  const csj::serve::ServerCounters counters_begin = service->server->counters();
  const csj::metrics::MetricsSnapshot metrics_begin = csj::metrics::Snapshot();
  // Counter snapshot at each traced request's boundaries.
  const auto counters = [&] {
    csj::json::Value v = csj::json::Object{};
    for (const auto& [name, dataset] :
         {std::pair{"mg", mg_dataset}, std::pair{"pnw", pnw_dataset}}) {
      const csj::PagedIoStats io = dataset->tree.io_stats();
      const std::string p = name;
      v[p + ".block_requests"] = io.block_requests;
      v[p + ".block_cache_hits"] = io.block_cache_hits;
      v[p + ".disk_reads"] = io.disk_reads;
      v[p + ".node_decodes"] = io.node_decodes;
    }
    const csj::serve::ServerCounters c = service->server->counters();
    v["server.sessions"] = c.sessions;
    v["server.served"] = c.served;
    v["server.rejected"] = c.rejected;
    return v;
  };

  // ---- The closed loop: 2 clients, each waits for its reply before it
  // sends the next request. It runs for --seconds and at least
  // kMinRequests requests (capped at 3x --seconds).
  std::vector<Reply> replies[kClients];
  std::vector<double> reference;
  std::atomic<size_t> completed{0};
  std::atomic<int> clients_done{0};
  const double start = Now();
  const double soft_end = start + args.seconds;
  const double hard_end = start + 3 * args.seconds;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Sequence sequence(args.seed, c, &pnw_points);
        Client client;
        for (size_t i = 0;; ++i) {
          const double now = Now();
          if (now >= hard_end ||
              (now >= soft_end && completed.load() >= kMinRequests)) {
            break;
          }
          const bool traced = args.trace && i % 2 == 1;
          replies[c].push_back(client.Send(
              sequence.Next(), traced ? tracer : nullptr, counters));
          completed.fetch_add(1);
        }
        clients_done.fetch_add(1);
      });
    }
    // The host-speed reference, sampled on this thread while the clients
    // run (about 9% of one CPU).
    while (clients_done.load() < kClients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      reference.push_back(ReferenceSeconds());
    }
    for (std::thread& t : threads) t.join();
  }
  const double loop_s = Now() - start;
  const double peak_rss = PeakRssMb();
  const csj::PagedIoStats io_end[2] = {mg_dataset->tree.io_stats(),
                                       pnw_dataset->tree.io_stats()};
  const csj::serve::ServerCounters counters_end = service->server->counters();
  const csj::metrics::MetricsSnapshot metrics_end = csj::metrics::Snapshot();

  // ---- Checks, outside the timed loop.
  // One-shot references over the same index files, per distinct join key,
  // plus every (algo, eps) text cell the metrics need.
  std::unique_ptr<Tree> trees[2];
  double index_load_s = 0.0;
  for (int i = 0; i < 2; ++i) {
    const std::string path = i == 0 ? "mg.csjt" : "pnw.csjt";
    const double t0 = Now();
    auto info = csj::PeekTreeFile(path);
    csj::RStarOptions options;
    if (info.ok()) {
      options.max_fanout = info->max_fanout;
      options.min_fanout = info->min_fanout;
    }
    trees[i] = std::make_unique<Tree>(options);
    const Status s =
        info.ok() ? csj::LoadTree(trees[i].get(), path) : info.status();
    index_load_s += Now() - t0;
    ledger->Op(s.ok(), "reference LoadTree: " + s.ToString());
    if (!s.ok()) return;
  }
  std::map<std::string, QuerySpec> wanted;
  for (const auto& per_client : replies) {
    for (const Reply& r : per_client) {
      if (r.request.cls != kRange) wanted[r.request.key] = r.request.spec;
    }
  }
  for (const AlgoInfo& a : kAlgos) {
    for (const double eps : kMgEps) {
      const Request r = MakeJoin(kMgJoin, "mg", a.algo, eps, OutputFormat::kText);
      wanted[r.key] = r.spec;
    }
  }
  std::map<std::string, Reference> refs;
  for (const auto& [key, spec] : wanted) {
    const bool mg = spec.dataset == "mg";
    refs[key] = OneShot(*trees[mg ? 0 : 1], mg ? *mg_dataset : *pnw_dataset,
                        spec, ledger);
  }
  // Planner time on each auto spec against the registered sketch.
  std::vector<double> plan_ms;
  for (const auto& [key, spec] : wanted) {
    if (spec.algo != QueryAlgo::kAuto) continue;
    const auto& dataset = spec.dataset == "mg" ? *mg_dataset : *pnw_dataset;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = Now();
      const auto plan = csj::plan::PlanQuery(spec, dataset.sketch,
                                             dataset.id_width);
      plan_ms.push_back((Now() - t0) * 1e3);
    }
  }

  // Judge every reply. A failed request counts as +inf latency.
  std::map<size_t, std::vector<uint32_t>> range_expected;
  std::vector<Reply> all;
  for (auto& per_client : replies) {
    for (Reply& r : per_client) all.push_back(std::move(r));
  }
  for (Reply& r : all) {
    if (r.ok && r.request.cls == kRange) {
      auto it = range_expected.find(r.request.center);
      if (it == range_expected.end()) {
        std::vector<uint32_t> ids;
        const csj::Point2& c = pnw_points[r.request.center];
        for (size_t i = 0; i < pnw_points.size(); ++i) {
          if (csj::Distance(c, pnw_points[i]) <= kRangeEps) {
            ids.push_back(static_cast<uint32_t>(i));
          }
        }
        it = range_expected.emplace(r.request.center, std::move(ids)).first;
      }
      std::vector<uint32_t> ids = it->second;
      if (Client::IdsHash(&ids) != r.payload_hash || ids.size() != r.links) {
        r.ok = false;
        r.why = "range reply differs from a scan";
      }
    } else if (r.ok) {
      const Reference& ref = refs[r.request.key];
      if (r.payload_bytes != ref.payload_bytes ||
          r.payload_hash != ref.payload_hash ||
          r.links != ref.stats.links || r.groups != ref.stats.groups ||
          r.output_bytes != ref.stats.output_bytes) {
        r.ok = false;
        r.why = r.request.key + ": served payload differs from one-shot";
      }
    }
    ledger->Op(r.ok, r.why);
  }

  // ---- Metrics from one subset of requests (traced or untraced).
  const auto mg_pairs = [&](double eps) {
    return static_cast<double>(
        refs[MakeJoin(kMgJoin, "mg", QueryAlgo::kSSJ, eps, OutputFormat::kText)
                 .key]
            .stats.links);
  };
  // Every time is multiplied by `scale`: kReferenceNominalS over the
  // run's median reference time, or 1 for the values as measured.
  auto end_to_end = [&](bool traced, double scale,
                        std::map<std::string, double>* out) {
    std::vector<double> latencies;
    size_t ok_count = 0;
    std::map<std::string, std::vector<double>> by_key;
    for (const Reply& r : all) {
      if (r.traced != traced) continue;
      latencies.push_back(r.ok ? r.latency_s * scale * 1e3
                               : std::numeric_limits<double>::infinity());
      if (!r.ok) continue;
      ++ok_count;
      if (r.request.cls == kMgJoin) by_key[r.request.key].push_back(r.latency_s);
    }
    if (latencies.empty()) return false;
    for (const AlgoInfo& a : kAlgos) {
      std::vector<double> rates;
      double bytes = 0.0, pairs = 0.0;
      for (const double eps : kMgEps) {
        for (const OutputFormat output : kOutputs) {
          const Request r = MakeJoin(kMgJoin, "mg", a.algo, eps, output);
          const auto it = by_key.find(r.key);
          if (it == by_key.end()) return false;
          rates.push_back(mg_pairs(eps) / (Median(it->second) * scale));
        }
        bytes += static_cast<double>(
            refs[MakeJoin(kMgJoin, "mg", a.algo, eps, OutputFormat::kText).key]
                .stats.output_bytes);
        pairs += mg_pairs(eps);
      }
      (*out)[std::string(a.name) + "_pairs_per_s"] = GeometricMean(rates);
      if (a.algo != QueryAlgo::kSSJ) {
        (*out)[std::string(a.name) + "_bytes_per_pair"] = bytes / pairs;
      }
    }
    (*out)["req_p50_ms"] = NearestRank(latencies, 50).value;
    const Percentile tail = TailPercentile(latencies, 99, 10);
    (*out)["req_p99_ms"] = tail.value;
    (*out)["req_tail_percent"] = tail.percent;
    (*out)["req_count"] = static_cast<double>(latencies.size());
    // Each subset is half the traffic when tracing alternates.
    (*out)["req_per_s"] = static_cast<double>(ok_count) / (loop_s * scale);
    std::vector<double> setup;
    for (const SetupPass& p : setups[traced ? 1 : 0]) {
      setup.push_back(scale == 1.0 ? p.total : p.scaled);
    }
    (*out)["setup_s"] = Median(setup);
    (*out)["peak_rss_mb"] = peak_rss;
    return true;
  };

  ledger->details["requests"] = static_cast<int64_t>(all.size());
  ledger->details["loop_s"] = loop_s;
  const double scale =
      reference.empty() ? 1.0 : kReferenceNominalS / Median(reference);
  std::map<std::string, double> untraced, raw;
  if (!end_to_end(false, scale, &untraced) || !end_to_end(false, 1.0, &raw)) {
    ledger->Fail("a served cell has no untraced sample");
    return;
  }
  csj::json::Value raw_doc = csj::json::Object{};
  for (const auto& [name, unit] : EndToEndMetrics()) raw_doc[name] = raw[name];
  ledger->details["raw"] = std::move(raw_doc);
  ledger->details["reference_s"] =
      reference.empty() ? 0.0 : Median(reference);
  ledger->details["tail_percent"] = untraced["req_tail_percent"];
  ledger->details["latency_samples"] = untraced["req_count"];
  if (!args.trace) {
    for (const auto& [name, unit] : EndToEndMetrics()) {
      ledger->Set(name, untraced.at(name), unit);
    }
    return;
  }

  // ---- Traced run.
  std::map<std::string, double> traced;
  if (!end_to_end(true, scale, &traced)) {
    ledger->Fail("a served cell has no traced sample");
    return;
  }
  for (const auto& [name, unit] : EndToEndMetrics()) {
    ledger->Set("overhead." + name, traced.at(name) - untraced.at(name), unit);
  }
  auto setup_median = [&](double SetupPass::*field) {
    std::vector<double> v;
    for (const SetupPass& p : setups[1]) v.push_back(p.*field);
    return Median(v);
  };
  ledger->Set("data.load_points_s", setup_median(&SetupPass::load_points), "s");
  ledger->Set("index.pack_s", setup_median(&SetupPass::pack), "s");
  ledger->Set("index.save_s", setup_median(&SetupPass::save), "s");
  ledger->Set("index.registry_load_s", setup_median(&SetupPass::registry_load),
              "s");
  ledger->Set("index.load_s", index_load_s, "s");

  size_t per_dataset[2] = {0, 0};
  size_t auto_requests = 0;
  for (const Reply& r : all) {
    if (r.request.cls == kMgJoin) ++per_dataset[0];
    else ++per_dataset[1];
    if (r.request.cls == kMgJoin && r.request.spec.algo == QueryAlgo::kAuto) {
      ++auto_requests;
    }
  }
  for (int i = 0; i < 2; ++i) {
    const std::string prefix = i == 0 ? "index.paged.mg." : "index.paged.pnw.";
    const double n = static_cast<double>(per_dataset[i]);
    const double requests =
        static_cast<double>(io_end[i].block_requests - io_begin[i].block_requests);
    const double hits = static_cast<double>(io_end[i].block_cache_hits -
                                            io_begin[i].block_cache_hits);
    ledger->Set(prefix + "block_requests", Ratio(requests, n), "count/req");
    ledger->Set(prefix + "hit_ratio", Ratio(hits, requests), "ratio");
    ledger->Set(prefix + "disk_reads",
                Ratio(static_cast<double>(io_end[i].disk_reads -
                                          io_begin[i].disk_reads), n),
                "count/req");
    ledger->Set(prefix + "node_decodes",
                Ratio(static_cast<double>(io_end[i].node_decodes -
                                          io_begin[i].node_decodes), n),
                "count/req");
  }

  // Join layers per algorithm: the one-shot references of the mg text
  // cells (served payloads are checked identical to them); server-side
  // join time from the traced replies' trailers.
  double finish_s = 0.0;
  for (const AlgoInfo& a : kAlgos) {
    JoinLayer layer;
    for (const double eps : kMgEps) {
      const Reference& ref =
          refs[MakeJoin(kMgJoin, "mg", a.algo, eps, OutputFormat::kText).key];
      layer.Add(ref.stats);
      layer.sink_s += ref.stats.write_seconds;
      layer.evictions += ref.evictions;
      finish_s += ref.finish_s;
      std::vector<double> server;
      for (const Reply& r : all) {
        if (r.traced && r.ok && r.request.cls == kMgJoin &&
            r.request.spec.algo == a.algo && r.request.spec.eps == eps) {
          server.push_back(r.server_join_s);
        }
      }
      if (!server.empty()) layer.join_s += Median(server);
    }
    SetJoinLayerMetrics(a, layer, ledger);
  }

  // Storage and planner: process-wide deltas over the timed loop (the
  // server runs in this process), per request.
  const double requests = static_cast<double>(all.size());
  const double appends = Delta(metrics_begin, metrics_end, "output_file.appends");
  const double blocks = Delta(metrics_begin, metrics_end, "sink.binary_blocks");
  ledger->Set("storage.finish_s", finish_s, "s");
  ledger->Set("storage.appends", Ratio(appends, requests), "count");
  ledger->Set("storage.bytes_per_append",
              Ratio(Delta(metrics_begin, metrics_end, "output_file.bytes"),
                    appends),
              "B");
  ledger->Set("storage.blocks", Ratio(blocks, requests), "count");
  ledger->Set("storage.block_bytes",
              Ratio(Delta(metrics_begin, metrics_end,
                          "block_writer.flushed_bytes"),
                    blocks),
              "B");
  ledger->Set("plan.plan_ms", plan_ms.empty() ? 0.0 : Median(plan_ms), "ms");
  for (const AlgoInfo& a : kAlgos) {
    ledger->Set(std::string("plan.picks.") + a.name,
                Ratio(Delta(metrics_begin, metrics_end,
                            std::string("plan.picks.") + a.name),
                      static_cast<double>(auto_requests)),
                "ratio");
  }

  // Serve framing per class, from the traced replies.
  for (int cls = 0; cls < 3; ++cls) {
    std::vector<double> header, stream, server, overhead, payload;
    for (const Reply& r : all) {
      if (!r.traced || !r.ok || r.request.cls != cls) continue;
      header.push_back(r.header_s * 1e3);
      stream.push_back(r.stream_s * 1e3);
      server.push_back(r.server_join_s * 1e3);
      overhead.push_back((r.latency_s - r.server_join_s) * 1e3);
      payload.push_back(static_cast<double>(r.payload_bytes) / (1 << 20));
    }
    const std::string prefix = std::string("serve.") + kClassNames[cls] + ".";
    const auto median_or_zero = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : Median(v);
    };
    ledger->Set(prefix + "header_ms", median_or_zero(header), "ms");
    ledger->Set(prefix + "stream_ms", median_or_zero(stream), "ms");
    ledger->Set(prefix + "server_join_ms", median_or_zero(server), "ms");
    ledger->Set(prefix + "overhead_ms", median_or_zero(overhead), "ms");
    ledger->Set(prefix + "payload_mb", median_or_zero(payload), "MiB");
  }
  ledger->Set("serve.sessions",
              static_cast<double>(counters_end.sessions - counters_begin.sessions),
              "count");
  ledger->Set("serve.admission_rejects",
              static_cast<double>(counters_end.rejected - counters_begin.rejected),
              "count");
}

}  // namespace perfbench
