/// \file
/// csj_serve core tests: the shared-registry server under concurrency.
///
/// The load-bearing assertions: (1) every streamed response is byte-
/// identical to the equivalent one-shot run over the same index, (2) one
/// query's deadline, cancel or budget never leaks into a neighbor running
/// on the same shared tree, (3) the bounded admission queue rejects with
/// kResourceExhausted instead of growing, (4) shutdown drains, (5) a
/// keep-alive session carries many governed requests, and (6) the epoch
/// lifecycle holds: a query pins the epoch it started on through reloads
/// and unloads, a failed reload leaves the old epoch serving, and a failed
/// load leaks neither epochs nor conversion temp files. The whole file runs
/// under the CSJ_TSAN job — the server's sharing discipline is a TSan
/// claim, not a comment.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/query_spec.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "geom/point.h"
#include "index/bulk_load.h"
#include "index/rstar_tree.h"
#include "index/tree_io.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/failpoint.h"
#include "util/format.h"
#include "util/json.h"
#include "util/metrics.h"

namespace csj::serve {
namespace {

/// Per-process temp path: ctest runs every case as its own process, in
/// parallel, so a shared name would let one case unlink another's fixture.
std::string TempPath(const std::string& name) {
  return StrFormat("%s/%d_%s", testing::TempDir().c_str(), getpid(),
                   name.c_str());
}

std::vector<Entry<2>> FixtureEntries(size_t n, uint64_t seed) {
  auto points = GenerateUniform<2>(n, seed);
  std::vector<Entry<2>> entries(n);
  for (size_t i = 0; i < n; ++i) {
    entries[i] = Entry<2>{static_cast<PointId>(i), points[i]};
  }
  return entries;
}

/// One shared fixture: a bulk-loaded index saved as CSJTREE2 (exercising
/// the registry's convert-to-paged path) plus the in-memory tree for
/// reference runs.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The gtest binary has no tool main to ignore SIGPIPE for us, and the
    // response stream of an abandoned query writes into a closed socket.
    std::signal(SIGPIPE, SIG_IGN);
    entries_ = new std::vector<Entry<2>>(FixtureEntries(4000, 21));
    tree_ = new RStarTree<2>();
    PackStr(tree_, *entries_);
    index_path_ = new std::string(TempPath("serve_fixture.csjt"));
    ASSERT_TRUE(SaveTree(*tree_, *index_path_).ok());
  }
  static void TearDownTestSuite() {
    delete entries_;
    delete tree_;
    ::unlink(index_path_->c_str());
    delete index_path_;
  }

  /// Registry + server on a fresh Unix socket. Returns the socket path.
  std::string StartServer(DatasetRegistry* registry, ServerOptions options,
                          std::unique_ptr<Server>* server) {
    const std::string socket_path =
        TempPath(StrFormat("serve_%d_%d.sock", getpid(), socket_seq_++));
    options.unix_socket_path = socket_path;
    server->reset(new Server(registry, options));
    EXPECT_TRUE((*server)->Start().ok());
    return socket_path;
  }

  static int ConnectTo(const std::string& socket_path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)),
        0)
        << std::strerror(errno);
    return fd;
  }

  struct Response {
    Status transport;       ///< framing-level failure, if any
    std::string first_line; ///< header (payload ops) or the single line
    std::string payload;
    std::string trailer;    ///< empty for single-line responses
    /// The trailer's (or error line's) "code" field; "" when unparseable.
    std::string code;
  };

  /// Sends one request line and reads the whole response.
  static Response RoundTrip(const std::string& socket_path,
                            const std::string& request,
                            OutputFormat format = OutputFormat::kText) {
    Response response;
    const int fd = ConnectTo(socket_path);
    // An admission reject writes its error line and closes before reading,
    // so this write can land on a closed socket (EPIPE). The response is
    // already in the socket buffer — the read below is what matters.
    WriteAll(fd, request + "\n").ok();
    LineReader reader(fd, /*timeout_ms=*/30000);
    response.transport = reader.ReadLine(&response.first_line);
    if (response.transport.ok()) {
      auto head = json::Parse(response.first_line);
      const json::Value* ok = head.ok() ? head->Find("ok") : nullptr;
      const bool has_payload = ok != nullptr && ok->is_bool() &&
                               ok->AsBool() &&
                               head->Find("format") != nullptr;
      if (has_payload) {
        response.transport = ReadFramedPayload(
            &reader, format, &response.payload, &response.trailer);
      }
    }
    ::close(fd);
    const std::string& coded =
        response.trailer.empty() ? response.first_line : response.trailer;
    auto doc = json::Parse(coded);
    if (doc.ok()) {
      const json::Value* code = doc->Find("code");
      if (code != nullptr && code->is_string()) response.code = code->AsString();
    }
    return response;
  }

  /// The bytes a one-shot csj_tool-style run writes for these parameters.
  static std::string OneShotPayload(JoinAlgorithm algorithm, double eps,
                                    int g, OutputFormat format) {
    const std::string path = TempPath(StrFormat(
        "serve_ref_%d_%g_%d_%d.out", static_cast<int>(algorithm), eps, g,
        static_cast<int>(format)));
    OutputSpec spec;
    spec.format = format;
    spec.path = path;
    spec.id_width = IdWidthFor(tree_->size());
    auto sink = MakeSink(spec);
    EXPECT_TRUE(sink.ok());
    JoinOptions options;
    options.epsilon = eps;
    options.window_size = g;
    const JoinStats stats =
        RunSelfJoin(algorithm, *tree_, options, sink->get());
    EXPECT_TRUE(stats.status.ok());
    EXPECT_TRUE((*sink)->Finish().ok());
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string bytes;
    char chunk[1 << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      bytes.append(chunk, n);
    }
    std::fclose(f);
    ::unlink(path.c_str());
    return bytes;
  }

  static std::string JoinRequest(const std::string& algo, double eps, int g,
                                 const std::string& extra = "") {
    return StrFormat(
        "{\"op\":\"join\",\"dataset\":\"pts\",\"algo\":\"%s\",\"eps\":%g,"
        "\"g\":%d%s}",
        algo.c_str(), eps, g, extra.c_str());
  }

  /// Like OneShotPayload but over an arbitrary tree (an epoch's paged tree,
  /// a second fixture) — the reference for epoch-identity assertions.
  template <typename TreeT>
  static std::string PayloadOver(const TreeT& tree, JoinAlgorithm algorithm,
                                 double eps, int g, int id_width) {
    static int seq = 0;
    const std::string path =
        TempPath(StrFormat("serve_over_%d_%d.out", getpid(), seq++));
    OutputSpec spec;
    spec.format = OutputFormat::kText;
    spec.path = path;
    spec.id_width = id_width;
    auto sink = MakeSink(spec);
    EXPECT_TRUE(sink.ok());
    JoinOptions options;
    options.epsilon = eps;
    options.window_size = g;
    const JoinStats stats = RunSelfJoin(algorithm, tree, options, sink->get());
    EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
    EXPECT_TRUE((*sink)->Finish().ok());
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string bytes;
    char chunk[1 << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      bytes.append(chunk, n);
    }
    std::fclose(f);
    ::unlink(path.c_str());
    return bytes;
  }

  /// Conversion temp files (`*.paged.tmp.<pid>.*`) this process left in
  /// `dir` — a failed load must never leave any. Other test processes
  /// running in parallel may be converting in the same directory.
  static std::vector<std::string> TempDroppings(const std::string& dir) {
    const std::string mine = StrFormat(".paged.tmp.%d.", getpid());
    std::vector<std::string> found;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return found;
    while (struct dirent* entry = ::readdir(d)) {
      if (std::strstr(entry->d_name, mine.c_str()) != nullptr) {
        found.push_back(entry->d_name);
      }
    }
    ::closedir(d);
    return found;
  }

  static uint64_t CounterValue(const std::string& name) {
    for (const auto& [metric, value] : metrics::Snapshot().counters) {
      if (metric == name) return value;
    }
    return 0;
  }

  static std::vector<Entry<2>>* entries_;
  static RStarTree<2>* tree_;
  static std::string* index_path_;
  int socket_seq_ = 0;
};

std::vector<Entry<2>>* ServeTest::entries_ = nullptr;
RStarTree<2>* ServeTest::tree_ = nullptr;
std::string* ServeTest::index_path_ = nullptr;

TEST_F(ServeTest, PingListAndErrors) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  Response ping = RoundTrip(socket_path, "{\"op\":\"ping\"}");
  ASSERT_TRUE(ping.transport.ok()) << ping.transport.ToString();
  EXPECT_NE(ping.first_line.find("\"ok\":true"), std::string::npos);

  Response list = RoundTrip(socket_path, "{\"op\":\"list\"}");
  ASSERT_TRUE(list.transport.ok());
  EXPECT_NE(list.first_line.find("\"pts\""), std::string::npos);
  EXPECT_NE(list.first_line.find("4000"), std::string::npos);

  // Protocol errors are single well-formed lines, not hangups.
  EXPECT_EQ(RoundTrip(socket_path, "not json").code, "InvalidArgument");
  EXPECT_EQ(RoundTrip(socket_path, "{\"op\":\"nope\"}").code,
            "InvalidArgument");
  EXPECT_EQ(RoundTrip(socket_path, "{\"op\":\"join\",\"dataset\":\"nope\","
                                   "\"eps\":0.01}")
                .code,
            "NotFound");
  EXPECT_EQ(RoundTrip(socket_path, JoinRequest("csj", 0.01, 10,
                                               ",\"unknown_knob\":1"))
                .code,
            "InvalidArgument");

  // Malformed integer fields, and an eps that parses to +inf, are answered
  // with an error line; none of them may take the server down, so a fresh
  // connection is still served.
  for (const char* line :
       {R"({"op":"ping","deadline_ms":-1})", R"({"op":"ping","mem_budget":-7})",
        R"({"op":"ping","g":2.5})", R"({"op":"ping","g":18446744073709551615})",
        R"({"op":"ping","g":4294967297})",
        R"({"op":"join","dataset":"pts","algo":"csj","eps":1e999})"}) {
    const Response bad = RoundTrip(socket_path, line);
    ASSERT_TRUE(bad.transport.ok()) << line;
    EXPECT_EQ(bad.code, "InvalidArgument") << line;
    const Response after = RoundTrip(socket_path, "{\"op\":\"ping\"}");
    ASSERT_TRUE(after.transport.ok()) << after.transport.ToString();
    EXPECT_NE(after.first_line.find("\"ok\":true"), std::string::npos)
        << line;
  }
  server->Shutdown();
}

TEST_F(ServeTest, ResponsesByteIdenticalToOneShotRuns) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  for (const std::string algo : {"ssj", "ncsj", "csj"}) {
    JoinAlgorithm algorithm = algo == "ssj"    ? JoinAlgorithm::kSSJ
                              : algo == "ncsj" ? JoinAlgorithm::kNCSJ
                                               : JoinAlgorithm::kCSJ;
    Response response = RoundTrip(socket_path, JoinRequest(algo, 0.01, 10));
    ASSERT_TRUE(response.transport.ok()) << response.transport.ToString();
    EXPECT_EQ(response.code, "OK");
    EXPECT_EQ(response.payload,
              OneShotPayload(algorithm, 0.01, 10, OutputFormat::kText))
        << algo;
  }

  Response binary = RoundTrip(
      socket_path, JoinRequest("csj", 0.01, 10, ",\"output\":\"binary\""),
      OutputFormat::kBinary);
  ASSERT_TRUE(binary.transport.ok()) << binary.transport.ToString();
  EXPECT_EQ(binary.code, "OK");
  EXPECT_EQ(binary.payload,
            OneShotPayload(JoinAlgorithm::kCSJ, 0.01, 10,
                           OutputFormat::kBinary));
  server->Shutdown();
}

TEST_F(ServeTest, AutoAlgoPlansAndMatchesExplicitRun) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  // "algo":"auto": the server plans against the load-time sketch, runs the
  // resolved spec, and echoes the plan in the trailer's stats.
  Response response = RoundTrip(
      socket_path,
      "{\"op\":\"join\",\"dataset\":\"pts\",\"algo\":\"auto\",\"eps\":0.01}");
  ASSERT_TRUE(response.transport.ok()) << response.transport.ToString();
  EXPECT_EQ(response.code, "OK");

  auto trailer = json::Parse(response.trailer);
  ASSERT_TRUE(trailer.ok()) << trailer.status().ToString();
  const json::Value* stats = trailer->Find("stats");
  ASSERT_NE(stats, nullptr);
  const json::Value* echoed_plan = stats->Find("plan");
  ASSERT_NE(echoed_plan, nullptr) << "auto run did not echo its plan";
  const json::Value* knobs = echoed_plan->Find("knobs");
  ASSERT_NE(knobs, nullptr);
  const json::Value* algo = knobs->Find("algo");
  const json::Value* g = knobs->Find("g");
  ASSERT_NE(algo, nullptr);
  ASSERT_NE(g, nullptr);
  EXPECT_NE(algo->AsString(), "auto");
  EXPECT_NE(stats->Find("predicted_links"), nullptr);

  // Re-issuing the resolved knobs explicitly is byte-identical: planning
  // changes how the query runs, never what it returns.
  Response explicit_run = RoundTrip(
      socket_path,
      JoinRequest(algo->AsString(), 0.01, static_cast<int>(g->AsInt())));
  ASSERT_TRUE(explicit_run.transport.ok())
      << explicit_run.transport.ToString();
  EXPECT_EQ(explicit_run.code, "OK");
  EXPECT_EQ(response.payload, explicit_run.payload);

  // The planner refuses to plan what it cannot run: ego under serve, auto
  // under range.
  EXPECT_EQ(RoundTrip(socket_path, JoinRequest("ego", 0.01, 10)).code,
            "InvalidArgument");
  EXPECT_EQ(
      RoundTrip(socket_path,
                "{\"op\":\"range\",\"dataset\":\"pts\",\"algo\":\"auto\","
                "\"eps\":0.01,\"center\":[0.5,0.5]}")
          .code,
      "InvalidArgument");
  server->Shutdown();
}

TEST_F(ServeTest, ThreadsAreHonoredWithoutChangingBytes) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  // "threads" sets the query's workers, clamped to the host's cores; the
  // task list, and so the response, does not depend on it.
  const std::string reference =
      OneShotPayload(JoinAlgorithm::kCSJ, 0.01, 10, OutputFormat::kText);
  const uint64_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  for (const int threads : {4, 64}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const uint64_t workers = CounterValue("parallel.workers");
    Response response = RoundTrip(
        socket_path,
        JoinRequest("csj", 0.01, 10, StrFormat(",\"threads\":%d", threads)));
    ASSERT_TRUE(response.transport.ok()) << response.transport.ToString();
    EXPECT_EQ(response.code, "OK");
    EXPECT_EQ(response.payload, reference);
#ifndef CSJ_NO_METRICS
    const uint64_t added = CounterValue("parallel.workers") - workers;
    EXPECT_GE(added, 1u);
    EXPECT_LE(added, cores);
#else
    (void)workers;
    (void)cores;
#endif
  }
  server->Shutdown();
}

TEST_F(ServeTest, AutoPlanWithThreadsMatchesSerialOneShot) {
  // On a dense dataset "auto" resolves to several threads. The served
  // response still equals a serial one-shot run of the resolved knobs.
  RStarTree<2> dense;
  PackStr(&dense, ToEntries(GenerateGaussianClusters<2>(20000, 8, 0.02, 11)));
  const std::string path = TempPath("serve_dense.csjt");
  ASSERT_TRUE(SaveTree(dense, path).ok());
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "dense", .path = path}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  Response response = RoundTrip(
      socket_path,
      "{\"op\":\"join\",\"dataset\":\"dense\",\"algo\":\"auto\","
      "\"eps\":0.2}");
  ASSERT_TRUE(response.transport.ok()) << response.transport.ToString();
  EXPECT_EQ(response.code, "OK");
  auto trailer = json::Parse(response.trailer);
  ASSERT_TRUE(trailer.ok()) << trailer.status().ToString();
  const json::Value* knobs = trailer->Find("stats")->Find("plan")->Find("knobs");
  ASSERT_NE(knobs, nullptr);
  EXPECT_GT(knobs->Find("threads")->AsInt(), 1);
  QueryAlgo algo;
  ASSERT_TRUE(ParseQueryAlgo(knobs->Find("algo")->AsString(), &algo));
  EXPECT_EQ(response.payload,
            PayloadOver(dense, TreeAlgorithmFor(algo), 0.2,
                        static_cast<int>(knobs->Find("g")->AsInt()),
                        IdWidthFor(dense.size())));
  server->Shutdown();
  ::unlink(path.c_str());
}

TEST_F(ServeTest, DualJoinMatchesOneShotSpatialJoin) {
  // "dataset_b" selects a spatial join of two registered datasets; it runs
  // the same loop as a one-shot CompactSpatialJoin over the two index files.
  std::vector<Entry<2>> entries_b;
  for (const auto& e : FixtureEntries(1000, 33)) {
    entries_b.push_back(Entry<2>{e.id + 4000, e.point});  // disjoint ids
  }
  RStarTree<2> tree_b;
  PackStr(&tree_b, entries_b);
  const std::string path_b = TempPath("serve_dual_b.csjt");
  ASSERT_TRUE(SaveTree(tree_b, path_b).ok());
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  ASSERT_TRUE(registry.Load({.name = "b", .path = path_b}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  for (const OutputFormat format : {OutputFormat::kText, OutputFormat::kBinary}) {
    SCOPED_TRACE(OutputFormatName(format));
    const std::string out_path = TempPath("serve_dual_ref.out");
    OutputSpec spec;
    spec.format = format;
    spec.path = out_path;
    spec.id_width = IdWidthFor(tree_->size());  // the wider of the two
    auto sink = MakeSink(spec);
    ASSERT_TRUE(sink.ok());
    JoinOptions options;
    options.epsilon = 0.03;
    options.window_size = 10;
    ASSERT_TRUE(
        CompactSpatialJoin(*tree_, tree_b, options, sink->get()).status.ok());
    ASSERT_TRUE((*sink)->Finish().ok());
    std::string reference;
    std::FILE* f = std::fopen(out_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char chunk[1 << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      reference.append(chunk, n);
    }
    std::fclose(f);
    ::unlink(out_path.c_str());
    ASSERT_FALSE(reference.empty());

    Response response = RoundTrip(
        socket_path,
        StrFormat("{\"op\":\"join\",\"dataset\":\"pts\",\"dataset_b\":"
                  "\"b\",\"algo\":\"csj\",\"eps\":0.03,\"g\":10,"
                  "\"output\":\"%s\"}",
                  OutputFormatName(format)),
        format);
    ASSERT_TRUE(response.transport.ok()) << response.transport.ToString();
    EXPECT_EQ(response.code, "OK");
    EXPECT_EQ(response.payload, reference);
  }
  server->Shutdown();
  ::unlink(path_b.c_str());
}

TEST_F(ServeTest, RangeQueryMatchesBruteForce) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  const Point<2> center = (*entries_)[17].point;
  const double eps = 0.02;
  Response response = RoundTrip(
      socket_path,
      StrFormat("{\"op\":\"range\",\"dataset\":\"pts\",\"eps\":%g,"
                "\"center\":[%.17g,%.17g]}",
                eps, center[0], center[1]));
  ASSERT_TRUE(response.transport.ok()) << response.transport.ToString();
  EXPECT_EQ(response.code, "OK");

  std::multiset<PointId> got;
  for (size_t start = 0; start < response.payload.size();) {
    const size_t nl = response.payload.find('\n', start);
    got.insert(static_cast<PointId>(
        std::stoul(response.payload.substr(start, nl - start))));
    start = nl + 1;
  }
  std::multiset<PointId> want;
  for (const auto& entry : *entries_) {
    if (Distance(center, entry.point) <= eps) want.insert(entry.id);
  }
  EXPECT_EQ(got, want);
  server->Shutdown();
}

TEST_F(ServeTest, RangeReplyAppendsBlocksAndReportsEpsAndTime) {
  // Every one of 30K points lies within 0.75 of the centre: 180,000 payload
  // bytes, which leave in 64 KiB appends.
  const std::string path = TempPath("serve_range_30k.csjt");
  {
    RStarTree<2> tree;
    PackStr(&tree, FixtureEntries(30000, 5));
    ASSERT_TRUE(SaveTree(tree, path).ok());
  }
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "big", .path = path}).ok());
  ::unlink(path.c_str());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  const double eps = 0.75;
  Response response = RoundTrip(
      socket_path,
      StrFormat("{\"op\":\"range\",\"dataset\":\"big\",\"eps\":%g,"
                "\"center\":[0.5,0.5],\"metrics\":true}",
                eps));
  ASSERT_TRUE(response.transport.ok()) << response.transport.ToString();
  EXPECT_EQ(response.code, "OK");
  const uint64_t bytes = response.payload.size();
  EXPECT_EQ(bytes, 30000u * 6);
  auto trailer = json::Parse(response.trailer);
  ASSERT_TRUE(trailer.ok());
  const json::Value* stats = trailer->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Find("epsilon")->AsDouble(), eps);
  EXPECT_GT(stats->Find("elapsed_seconds")->AsDouble(), 0.0);
  EXPECT_EQ(stats->Find("links")->AsUint(), 30000u);
#ifndef CSJ_NO_METRICS
  const json::Value* appends =
      trailer->Find("metrics")->Find("counters")->Find("output_file.appends");
  ASSERT_NE(appends, nullptr);
  EXPECT_LE(appends->AsUint(), (bytes + 65535) / 65536);
#endif  // CSJ_NO_METRICS
  server->Shutdown();
}

TEST_F(ServeTest, ConcurrentMixedQueriesStayIsolated) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  ServerOptions options;
  options.workers = 8;
  options.max_pending = 64;
  const std::string socket_path = StartServer(&registry, options, &server);

  // References computed up front, single-threaded.
  const std::string ref_ssj =
      OneShotPayload(JoinAlgorithm::kSSJ, 0.01, 10, OutputFormat::kText);
  const std::string ref_ncsj =
      OneShotPayload(JoinAlgorithm::kNCSJ, 0.008, 10, OutputFormat::kText);
  const std::string ref_csj =
      OneShotPayload(JoinAlgorithm::kCSJ, 0.01, 6, OutputFormat::kText);
  const std::string ref_bin =
      OneShotPayload(JoinAlgorithm::kCSJ, 0.01, 10, OutputFormat::kBinary);

  // 12 concurrent queries over the one shared paged tree: normal joins of
  // every algorithm, a binary join, a 1 ms deadline victim, a query whose
  // client disconnects mid-stream, and a budget-starved one. The normal
  // queries must come back byte-identical — their neighbors' trips must be
  // invisible to them.
  struct Task {
    std::string request;
    OutputFormat format = OutputFormat::kText;
    const std::string* expect_payload = nullptr;
    std::string expect_code = "OK";
    bool disconnect_early = false;
  };
  std::vector<Task> tasks = {
      {JoinRequest("ssj", 0.01, 10), OutputFormat::kText, &ref_ssj},
      {JoinRequest("ncsj", 0.008, 10), OutputFormat::kText, &ref_ncsj},
      {JoinRequest("csj", 0.01, 6), OutputFormat::kText, &ref_csj},
      {JoinRequest("csj", 0.01, 10, ",\"output\":\"binary\""),
       OutputFormat::kBinary, &ref_bin},
      {JoinRequest("ssj", 0.01, 10), OutputFormat::kText, &ref_ssj},
      {JoinRequest("csj", 0.01, 6), OutputFormat::kText, &ref_csj},
      {JoinRequest("ssj", 0.02, 10, ",\"deadline_ms\":1"),
       OutputFormat::kText, nullptr, "DeadlineExceeded"},
      {JoinRequest("ssj", 0.02, 10, ",\"deadline_ms\":1"),
       OutputFormat::kText, nullptr, "DeadlineExceeded"},
      {JoinRequest("ssj", 0.02, 10), OutputFormat::kText, nullptr, "",
       /*disconnect_early=*/true},
      {JoinRequest("csj", 0.01, 10, ",\"mem_budget\":1024"),
       OutputFormat::kText, nullptr, "ResourceExhausted"},
      {JoinRequest("ncsj", 0.008, 10), OutputFormat::kText, &ref_ncsj},
      {JoinRequest("csj", 0.01, 10, ",\"output\":\"binary\""),
       OutputFormat::kBinary, &ref_bin},
  };

  std::vector<Response> responses(tasks.size());
  std::vector<std::thread> clients;
  clients.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    clients.emplace_back([&, i] {
      const Task& task = tasks[i];
      if (task.disconnect_early) {
        // Read the header, then hang up mid-stream: the disconnect watcher
        // (or the sink's EPIPE) must cancel this query — and only this one.
        const int fd = ConnectTo(socket_path);
        ASSERT_TRUE(WriteAll(fd, task.request + "\n").ok());
        LineReader reader(fd, 30000);
        std::string header;
        ASSERT_TRUE(reader.ReadLine(&header).ok());
        ::close(fd);
        return;
      }
      responses[i] = RoundTrip(socket_path, task.request, task.format);
    });
  }
  for (std::thread& client : clients) client.join();

  for (size_t i = 0; i < tasks.size(); ++i) {
    const Task& task = tasks[i];
    if (task.disconnect_early) continue;
    ASSERT_TRUE(responses[i].transport.ok())
        << i << ": " << responses[i].transport.ToString();
    EXPECT_EQ(responses[i].code, task.expect_code) << i;
    if (task.expect_payload != nullptr) {
      EXPECT_EQ(responses[i].payload, *task.expect_payload) << i;
    }
  }

  // The server survives the mix and still answers.
  EXPECT_EQ(RoundTrip(socket_path, "{\"op\":\"ping\"}").transport.ok(), true);
  server->Shutdown();
}

TEST_F(ServeTest, AdmissionQueueRejectsWhenFull) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  ServerOptions options;
  options.workers = 1;
  options.max_pending = 1;
  // Generous: the stalled connections are unblocked below by closing their
  // fds (EOF), never by this timeout — it must not expire mid-test on a
  // slow sanitizer run and un-pin the worker early.
  options.request_timeout_ms = 30000;
  const std::string socket_path = StartServer(&registry, options, &server);

  // Pin the single worker with a connection that sends nothing, fill the
  // queue of one with a second silent connection, and watch the third get
  // refused at the door with kResourceExhausted.
  const int pinned = ConnectTo(socket_path);
  for (int spin = 0; spin < 200 && server->counters().accepted < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server->counters().accepted, 1u);
  // Give the worker a beat to claim `pinned` off the queue; only then does
  // `queued` land in the queue slot instead of being rejected itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int queued = ConnectTo(socket_path);
  for (int spin = 0; spin < 200 && server->counters().accepted < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server->counters().accepted, 2u);

  Response rejected = RoundTrip(socket_path, "{\"op\":\"ping\"}");
  ASSERT_TRUE(rejected.transport.ok()) << rejected.transport.ToString();
  EXPECT_EQ(rejected.code, "ResourceExhausted");
  EXPECT_GE(server->counters().rejected, 1u);

  ::close(pinned);
  ::close(queued);
  // Closing the stalled fds surfaces as EOF in the worker; service resumes.
  for (int spin = 0; spin < 200; ++spin) {
    Response ping = RoundTrip(socket_path, "{\"op\":\"ping\"}");
    if (ping.transport.ok() && ping.first_line.find("\"ok\":true") !=
                                   std::string::npos) {
      server->Shutdown();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  FAIL() << "server never recovered from the stalled connections";
}

TEST_F(ServeTest, ShutdownDrainsInFlightQueries) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  ServerOptions options;
  options.workers = 4;
  const std::string socket_path = StartServer(&registry, options, &server);

  const std::string ref_ssj =
      OneShotPayload(JoinAlgorithm::kSSJ, 0.01, 10, OutputFormat::kText);
  const std::string request = JoinRequest("ssj", 0.01, 10) + "\n";
  std::vector<Response> responses(4);
  std::atomic<size_t> connected{0};
  std::vector<std::thread> clients;
  for (size_t i = 0; i < responses.size(); ++i) {
    clients.emplace_back([&, i] {
      // Connect and send before Shutdown is triggered (the main thread
      // waits on `connected`), so every request is in the listener's
      // backlog or beyond when the drain starts.
      const int fd = ConnectTo(socket_path);
      WriteAll(fd, request).ok();
      connected.fetch_add(1);
      LineReader reader(fd, /*timeout_ms=*/30000);
      Response& response = responses[i];
      response.transport = reader.ReadLine(&response.first_line);
      if (response.transport.ok()) {
        response.transport = ReadFramedPayload(
            &reader, OutputFormat::kText, &response.payload,
            &response.trailer);
      }
      ::close(fd);
      auto doc = json::Parse(response.trailer);
      if (doc.ok()) {
        const json::Value* code = doc->Find("code");
        if (code != nullptr && code->is_string()) {
          response.code = code->AsString();
        }
      }
    });
  }
  while (connected.load() < responses.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Shut down while the queries are queued or in flight: drain must finish
  // everything it admitted, not cut it off.
  server->Shutdown();
  for (std::thread& client : clients) client.join();

  for (size_t i = 0; i < responses.size(); ++i) {
    // A request still in the un-accepted backlog when the listener closed
    // legitimately sees a hangup; anything admitted must complete whole.
    if (!responses[i].transport.ok()) continue;
    EXPECT_EQ(responses[i].code, "OK") << i;
    EXPECT_EQ(responses[i].payload, ref_ssj) << i;
  }
  // The socket file is gone; a late client cannot connect.
  struct stat st;
  EXPECT_NE(::stat(socket_path.c_str(), &st), 0);
}

TEST_F(ServeTest, KeepAliveSessionServesManyRequests) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  const std::string ref =
      OneShotPayload(JoinAlgorithm::kCSJ, 0.01, 10, OutputFormat::kText);

  // ping + governed join, twice, then a semantic error, then another ping —
  // six framed exchanges on ONE connection.
  const int fd = ConnectTo(socket_path);
  LineReader reader(fd, /*timeout_ms=*/30000);
  std::string line;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(WriteAll(fd, std::string("{\"op\":\"ping\"}\n")).ok());
    ASSERT_TRUE(reader.ReadLine(&line).ok()) << round;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos);

    ASSERT_TRUE(WriteAll(fd, JoinRequest("csj", 0.01, 10) + "\n").ok());
    ASSERT_TRUE(reader.ReadLine(&line).ok()) << round;
    std::string payload, trailer;
    ASSERT_TRUE(
        ReadFramedPayload(&reader, OutputFormat::kText, &payload, &trailer)
            .ok())
        << round;
    EXPECT_EQ(payload, ref) << "keep-alive round " << round;
    EXPECT_NE(trailer.find("\"code\":\"OK\""), std::string::npos);
  }
  // A semantic error (unknown dataset) answers and KEEPS the session.
  ASSERT_TRUE(
      WriteAll(fd, std::string("{\"op\":\"join\",\"dataset\":\"nope\","
                               "\"eps\":0.01}\n"))
          .ok());
  ASSERT_TRUE(reader.ReadLine(&line).ok());
  EXPECT_NE(line.find("NotFound"), std::string::npos);
  ASSERT_TRUE(WriteAll(fd, std::string("{\"op\":\"ping\"}\n")).ok());
  ASSERT_TRUE(reader.ReadLine(&line).ok());
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  ::close(fd);

  // The six requests rode one worker claim: served counts requests,
  // sessions counts connections.
  for (int spin = 0; spin < 200 && server->counters().sessions < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->counters().sessions, 1u);
  EXPECT_EQ(server->counters().served, 6u);
  server->Shutdown();
}

TEST_F(ServeTest, RequestCapAndIdleTimeoutRotateSessions) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  ServerOptions options;
  options.max_requests_per_conn = 2;
  options.idle_timeout_ms = 300;
  const std::string socket_path = StartServer(&registry, options, &server);

  // Request cap: the session closes after the second answer; the client
  // reconnects through admission.
  const int fd = ConnectTo(socket_path);
  LineReader reader(fd, 30000);
  std::string line;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(WriteAll(fd, std::string("{\"op\":\"ping\"}\n")).ok());
    ASSERT_TRUE(reader.ReadLine(&line).ok()) << i;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << i;
  }
  WriteAll(fd, std::string("{\"op\":\"ping\"}\n")).ok();  // may race the close
  EXPECT_FALSE(reader.ReadLine(&line).ok())
      << "session outlived max_requests_per_conn: " << line;
  ::close(fd);

  // Idle timeout: a session that goes quiet is told why and closed.
  const int idle = ConnectTo(socket_path);
  LineReader idle_reader(idle, 30000);
  ASSERT_TRUE(WriteAll(idle, std::string("{\"op\":\"ping\"}\n")).ok());
  ASSERT_TRUE(idle_reader.ReadLine(&line).ok());
  ASSERT_TRUE(idle_reader.ReadLine(&line).ok());  // the idle farewell line
  EXPECT_NE(line.find("DeadlineExceeded"), std::string::npos) << line;
  EXPECT_FALSE(idle_reader.ReadLine(&line).ok());  // then EOF
  ::close(idle);

  // Fresh connections still served.
  EXPECT_NE(RoundTrip(socket_path, "{\"op\":\"ping\"}")
                .first_line.find("\"ok\":true"),
            std::string::npos);
  server->Shutdown();
}

TEST_F(ServeTest, EpochPinSurvivesReloadAndUnload) {
  // Registry-level epoch lifecycle: a Find() pin keeps the old epoch fully
  // queryable and byte-identical across a reload that swaps in DIFFERENT
  // data, and across an unload; memory (the live-epoch gauge) drains only
  // when the last pin drops.
  const std::string index2 = TempPath("serve_fixture2.csjt");
  auto entries2 = FixtureEntries(3000, 77);
  RStarTree<2> tree2;
  PackStr(&tree2, entries2);
  ASSERT_TRUE(SaveTree(tree2, index2).ok());

  const int64_t live_before = LiveEpochCount();
  {
    DatasetRegistry registry;
    ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
    const std::shared_ptr<const Dataset> pin = registry.Find("pts");
    ASSERT_NE(pin, nullptr);
    EXPECT_EQ(pin->num_points, 4000u);
    EXPECT_EQ(LiveEpochCount(), live_before + 1);

    ASSERT_TRUE(registry.Reload({.name = "pts", .path = index2}).ok());
    const std::shared_ptr<const Dataset> fresh = registry.Find("pts");
    ASSERT_NE(fresh, nullptr);
    EXPECT_GT(fresh->epoch, pin->epoch);
    EXPECT_EQ(fresh->num_points, 3000u);
    EXPECT_EQ(LiveEpochCount(), live_before + 2);  // old epoch pinned alive

    // The pinned old epoch still answers byte-identically to its one-shot
    // reference — the swap is invisible to it.
    EXPECT_EQ(PayloadOver(pin->tree, JoinAlgorithm::kCSJ, 0.01, 10,
                          pin->id_width),
              OneShotPayload(JoinAlgorithm::kCSJ, 0.01, 10,
                             OutputFormat::kText));
    // And the new epoch answers with the new data.
    EXPECT_EQ(PayloadOver(fresh->tree, JoinAlgorithm::kCSJ, 0.01, 10,
                          fresh->id_width),
              PayloadOver(tree2, JoinAlgorithm::kCSJ, 0.01, 10,
                          fresh->id_width));

    ASSERT_TRUE(registry.Unload("pts").ok());
    EXPECT_EQ(registry.Find("pts"), nullptr);
    EXPECT_EQ(registry.Unload("pts").code(), StatusCode::kNotFound);
    // Both pins (`pin`, `fresh`) still hold their epochs.
    EXPECT_EQ(LiveEpochCount(), live_before + 2);
  }
  // Registry and pins gone: every epoch released.
  EXPECT_EQ(LiveEpochCount(), live_before);
  ::unlink(index2.c_str());
}

TEST_F(ServeTest, QueryStartedOnOldEpochCompletesOnItThroughReload) {
  const std::string index2 = TempPath("serve_fixture3.csjt");
  auto entries2 = FixtureEntries(3000, 91);
  RStarTree<2> tree2;
  PackStr(&tree2, entries2);
  ASSERT_TRUE(SaveTree(tree2, index2).ok());
  const std::string ref_old =
      OneShotPayload(JoinAlgorithm::kCSJ, 0.01, 10, OutputFormat::kText);
  const std::string ref_new = PayloadOver(tree2, JoinAlgorithm::kCSJ, 0.01,
                                          10, IdWidthFor(entries2.size()));

  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  ServerOptions options;
  options.workers = 2;  // the in-flight query must not block the reload
  const std::string socket_path = StartServer(&registry, options, &server);
  const int64_t live_baseline = LiveEpochCount();

  // Start a query and read its HEADER: the header is only written after the
  // query pinned its epoch, so everything from here on is deterministic.
  const int fd = ConnectTo(socket_path);
  ASSERT_TRUE(WriteAll(fd, JoinRequest("csj", 0.01, 10) + "\n").ok());
  LineReader reader(fd, 30000);
  std::string header;
  ASSERT_TRUE(reader.ReadLine(&header).ok());
  ASSERT_NE(header.find("\"ok\":true"), std::string::npos);

  // Swap the dataset mid-query — on a second connection, through the admin
  // op, waiting for the server to acknowledge the new epoch.
  Response reload = RoundTrip(
      socket_path, StrFormat("{\"op\":\"reload\",\"dataset\":\"pts\","
                             "\"path\":\"%s\"}",
                             index2.c_str()));
  ASSERT_TRUE(reload.transport.ok()) << reload.transport.ToString();
  EXPECT_NE(reload.first_line.find("\"ok\":true"), std::string::npos)
      << reload.first_line;

  // The in-flight query finishes byte-identical on the epoch it started on.
  std::string payload, trailer;
  ASSERT_TRUE(
      ReadFramedPayload(&reader, OutputFormat::kText, &payload, &trailer)
          .ok());
  EXPECT_NE(trailer.find("\"code\":\"OK\""), std::string::npos);
  EXPECT_EQ(payload, ref_old);
  ::close(fd);

  // New queries run on the new epoch; the old one drains once its last pin
  // (the finished query) is gone.
  Response fresh = RoundTrip(socket_path, JoinRequest("csj", 0.01, 10));
  ASSERT_TRUE(fresh.transport.ok());
  EXPECT_EQ(fresh.code, "OK");
  EXPECT_EQ(fresh.payload, ref_new);
  for (int spin = 0; spin < 200 && LiveEpochCount() != live_baseline;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(LiveEpochCount(), live_baseline) << "old epoch leaked";
  server->Shutdown();
  ::unlink(index2.c_str());
}

TEST_F(ServeTest, AdminOpsValidateAndDriveTheLifecycle) {
  const std::string index2 = TempPath("serve_fixture4.csjt");
  auto entries2 = FixtureEntries(1000, 5);
  RStarTree<2> tree2;
  PackStr(&tree2, entries2);
  ASSERT_TRUE(SaveTree(tree2, index2).ok());

  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  // Validation: the protocol rejects malformed admin requests up front.
  EXPECT_EQ(RoundTrip(socket_path, "{\"op\":\"load\",\"dataset\":\"x\"}").code,
            "InvalidArgument");  // no path
  EXPECT_EQ(RoundTrip(socket_path, "{\"op\":\"reload\",\"path\":\"x\"}").code,
            "InvalidArgument");  // no dataset
  EXPECT_EQ(RoundTrip(socket_path,
                      "{\"op\":\"unload\",\"dataset\":\"x\","
                      "\"center\":[0.5,0.5]}")
                .code,
            "InvalidArgument");  // center is not an admin field
  EXPECT_EQ(RoundTrip(socket_path,
                      "{\"op\":\"ping\",\"path\":\"x\"}")
                .code,
            "InvalidArgument");  // path outside load/reload

  // Lifecycle: load a second dataset, see it in list (with epochs), query
  // it, unload it, and watch the name disappear.
  Response loaded = RoundTrip(
      socket_path, StrFormat("{\"op\":\"load\",\"dataset\":\"pts2\","
                             "\"path\":\"%s\"}",
                             index2.c_str()));
  ASSERT_TRUE(loaded.transport.ok());
  EXPECT_NE(loaded.first_line.find("\"ok\":true"), std::string::npos)
      << loaded.first_line;
  EXPECT_NE(loaded.first_line.find("\"epoch\":"), std::string::npos);
  EXPECT_NE(loaded.first_line.find("\"live_epochs\":"), std::string::npos);

  EXPECT_EQ(RoundTrip(socket_path,
                      StrFormat("{\"op\":\"load\",\"dataset\":\"pts2\","
                                "\"path\":\"%s\"}",
                                index2.c_str()))
                .code,
            "InvalidArgument");  // duplicate: load does not replace
  EXPECT_EQ(RoundTrip(socket_path,
                      "{\"op\":\"reload\",\"dataset\":\"ghost\","
                      "\"path\":\"x\"}")
                .code,
            "NotFound");  // reload does not register

  Response list = RoundTrip(socket_path, "{\"op\":\"list\"}");
  EXPECT_NE(list.first_line.find("\"pts2\""), std::string::npos);
  EXPECT_NE(list.first_line.find("\"live_epochs\":"), std::string::npos);

  Response join = RoundTrip(
      socket_path,
      "{\"op\":\"join\",\"dataset\":\"pts2\",\"algo\":\"csj\",\"eps\":0.01}");
  EXPECT_EQ(join.code, "OK");
  EXPECT_EQ(join.payload, PayloadOver(tree2, JoinAlgorithm::kCSJ, 0.01, 10,
                                      IdWidthFor(entries2.size())));

  EXPECT_NE(RoundTrip(socket_path, "{\"op\":\"unload\","
                                   "\"dataset\":\"pts2\"}")
                .first_line.find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(RoundTrip(socket_path,
                      "{\"op\":\"join\",\"dataset\":\"pts2\",\"eps\":0.01}")
                .code,
            "NotFound");
  EXPECT_EQ(RoundTrip(socket_path, "{\"op\":\"unload\","
                                   "\"dataset\":\"pts2\"}")
                .code,
            "NotFound");
  server->Shutdown();
  ::unlink(index2.c_str());
}

TEST_F(ServeTest, RegistryRejectsCorruptTruncatedAndMissingSources) {
  // Read the good CSJTREE2 fixture once.
  std::FILE* f = std::fopen(index_path_->c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) bytes.append(chunk, n);
  std::fclose(f);
  ASSERT_GT(bytes.size(), 1024u);

  const auto write_file = [](const std::string& path, const std::string& data) {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), out), data.size());
    std::fclose(out);
  };
  std::string corrupt_bytes = bytes;
  for (size_t i = corrupt_bytes.size() / 2; i < corrupt_bytes.size() / 2 + 32;
       ++i) {
    corrupt_bytes[i] = static_cast<char>(~corrupt_bytes[i]);
  }
  const std::string corrupt = TempPath("serve_corrupt.csjt");
  const std::string truncated = TempPath("serve_truncated.csjt");
  write_file(corrupt, corrupt_bytes);
  write_file(truncated, bytes.substr(0, bytes.size() * 3 / 5));

  const int64_t live_before = LiveEpochCount();
  DatasetRegistry registry;
  EXPECT_FALSE(registry.Load({.name = "bad", .path = corrupt}).ok());
  EXPECT_FALSE(registry.Load({.name = "bad2", .path = truncated}).ok());
  EXPECT_EQ(registry.Load({.name = "bad3", .path = TempPath("nope.csjt")})
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Find("bad"), nullptr);
  // No epoch came alive and no conversion temp survived a failed load.
  EXPECT_EQ(LiveEpochCount(), live_before);
  EXPECT_TRUE(TempDroppings(testing::TempDir()).empty());

  // The same registry still accepts a good load afterwards.
  EXPECT_TRUE(registry.Load({.name = "good", .path = *index_path_}).ok());
  EXPECT_EQ(registry.size(), 1u);
  ::unlink(corrupt.c_str());
  ::unlink(truncated.c_str());
}

TEST_F(ServeTest, RegistryBudgetExhaustionFailsLoadCleanly) {
  // A budget smaller than ONE page charge: the validation probe cannot even
  // cache the first block, so the load must fail with kResourceExhausted —
  // before any epoch exists — and leave no temp files behind.
  const int64_t live_before = LiveEpochCount();
  DatasetRegistry registry(/*memory_budget_bytes=*/1024);
  const Status status = registry.Load({.name = "pts", .path = *index_path_});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(LiveEpochCount(), live_before);
  EXPECT_TRUE(TempDroppings(testing::TempDir()).empty());
}

#ifndef CSJ_NO_FAILPOINTS
TEST_F(ServeTest, ReloadFailureLeavesOldEpochServing) {
  const std::string index2 = TempPath("serve_fixture5.csjt");
  auto entries2 = FixtureEntries(1000, 13);
  RStarTree<2> tree2;
  PackStr(&tree2, entries2);
  ASSERT_TRUE(SaveTree(tree2, index2).ok());

  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);
  const std::string ref =
      OneShotPayload(JoinAlgorithm::kCSJ, 0.01, 10, OutputFormat::kText);
  const int64_t live_before = LiveEpochCount();

  const std::string reload_request = StrFormat(
      "{\"op\":\"reload\",\"dataset\":\"pts\",\"path\":\"%s\"}",
      index2.c_str());
  {
    failpoint::ScopedFailpoint fault("serve.reload_validate",
                                     failpoint::Spec::Always());
    Response failed = RoundTrip(socket_path, reload_request);
    ASSERT_TRUE(failed.transport.ok());
    EXPECT_NE(failed.first_line.find("\"ok\":false"), std::string::npos)
        << failed.first_line;
    EXPECT_NE(failed.first_line.find("injected"), std::string::npos);
  }
  // Also exercise a real (non-injected) validation failure: reload from a
  // missing file.
  EXPECT_EQ(RoundTrip(socket_path,
                      "{\"op\":\"reload\",\"dataset\":\"pts\","
                      "\"path\":\"/nonexistent/no.csjt\"}")
                .code,
            "NotFound");

  // Both failures left the old epoch serving, byte-identically, with no
  // extra epoch alive.
  EXPECT_EQ(LiveEpochCount(), live_before);
  Response join = RoundTrip(socket_path, JoinRequest("csj", 0.01, 10));
  EXPECT_EQ(join.code, "OK");
  EXPECT_EQ(join.payload, ref);

  // With the fault gone the same reload succeeds.
  Response reloaded = RoundTrip(socket_path, reload_request);
  EXPECT_NE(reloaded.first_line.find("\"ok\":true"), std::string::npos)
      << reloaded.first_line;
  server->Shutdown();
  ::unlink(index2.c_str());
}

TEST_F(ServeTest, BackToBackReloadsFailNoConcurrentQuery) {
  // Ten back-to-back reloads while a client keeps querying on a keep-alive
  // session: every reload succeeds, at least one query succeeds, and none
  // fails, since each query finishes on the epoch it pinned. A query on a
  // session the server rotated is retried once on a fresh connection; only
  // a query that fails there too counts as failed.
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);
  const std::string request = JoinRequest("csj", 0.01, 10);
  const std::string ref =
      OneShotPayload(JoinAlgorithm::kCSJ, 0.01, 10, OutputFormat::kText);

  std::atomic<bool> stop{false};
  std::atomic<int> ok_queries{0};
  std::atomic<int> failed_queries{0};
  std::thread client([&] {
    int fd = -1;
    std::unique_ptr<LineReader> reader;
    // One query on the current session; true iff it answered `ref`.
    auto on_session = [&]() {
      if (fd < 0) {
        fd = ConnectTo(socket_path);
        reader = std::make_unique<LineReader>(fd, /*timeout_ms=*/30000);
      }
      std::string header, payload, trailer;
      return WriteAll(fd, request + "\n").ok() &&
             reader->ReadLine(&header).ok() &&
             header.find("\"ok\":true") != std::string::npos &&
             ReadFramedPayload(reader.get(), OutputFormat::kText, &payload,
                               &trailer)
                 .ok() &&
             trailer.find("\"code\":\"OK\"") != std::string::npos &&
             payload == ref;
    };
    do {
      if (on_session()) {
        ++ok_queries;
        continue;
      }
      ::close(fd);
      fd = -1;
      const Response retry = RoundTrip(socket_path, request);
      if (retry.transport.ok() && retry.code == "OK" && retry.payload == ref) {
        ++ok_queries;
      } else {
        ++failed_queries;
      }
    } while (!stop.load());
    if (fd >= 0) ::close(fd);
  });

  const std::string reload_request = StrFormat(
      "{\"op\":\"reload\",\"dataset\":\"pts\",\"path\":\"%s\"}",
      index_path_->c_str());
  int reloads_ok = 0;
  for (int r = 0; r < 10; ++r) {
    const Response reload = RoundTrip(socket_path, reload_request);
    if (reload.transport.ok() &&
        reload.first_line.find("\"ok\":true") != std::string::npos) {
      ++reloads_ok;
    }
  }
  stop.store(true);
  client.join();
  EXPECT_EQ(reloads_ok, 10);
  EXPECT_GE(ok_queries.load(), 1);
  EXPECT_EQ(failed_queries.load(), 0);
  server->Shutdown();
}

TEST_F(ServeTest, ControlWriteFaultClosesSessionAndCounts) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  const uint64_t errors_before = CounterValue("serve.ctrl_write_errors");
  const int fd = ConnectTo(socket_path);
  {
    // Once: the server's response write is the first (and only) evaluation
    // — the request below is sent with raw send() so the client side never
    // touches the failpoint.
    failpoint::ScopedFailpoint fault("serve.write", failpoint::Spec::Once());
    const std::string request = "{\"op\":\"ping\"}\n";
    size_t done = 0;
    while (done < request.size()) {
      const ssize_t sent =
          ::send(fd, request.data() + done, request.size() - done, 0);
      ASSERT_GT(sent, 0);
      done += static_cast<size_t>(sent);
    }
    // The injected write fault must close the session, not leave the
    // client hanging on a response that was silently dropped.
    LineReader reader(fd, 30000);
    std::string line;
    EXPECT_FALSE(reader.ReadLine(&line).ok());
  }
  ::close(fd);
#ifndef CSJ_NO_METRICS
  EXPECT_EQ(CounterValue("serve.ctrl_write_errors"), errors_before + 1);
#else
  (void)errors_before;
#endif

  // The failure was scoped to that session; the server still serves.
  EXPECT_NE(RoundTrip(socket_path, "{\"op\":\"ping\"}")
                .first_line.find("\"ok\":true"),
            std::string::npos);
  server->Shutdown();
}
#endif  // CSJ_NO_FAILPOINTS

TEST_F(ServeTest, PerQueryMetricsDeltaInTrailer) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Load({.name = "pts", .path = *index_path_}).ok());
  std::unique_ptr<Server> server;
  const std::string socket_path = StartServer(&registry, {}, &server);

  Response response = RoundTrip(
      socket_path, JoinRequest("csj", 0.01, 10, ",\"metrics\":true"));
  ASSERT_TRUE(response.transport.ok());
  EXPECT_EQ(response.code, "OK");
  auto trailer = json::Parse(response.trailer);
  ASSERT_TRUE(trailer.ok());
  const json::Value* metrics = trailer->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  // The delta window brackets exactly this query, so its sink counters are
  // present and non-smeared.
  EXPECT_NE(metrics->Find("counters"), nullptr);
  server->Shutdown();
}

}  // namespace
}  // namespace csj::serve
