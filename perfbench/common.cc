/// \file
/// The metric catalog and the helpers declared in common.h.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>

#include "common.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"ssj_pairs_per_s", "pairs/s"},
      {"ncsj_pairs_per_s", "pairs/s"},
      {"csj_pairs_per_s", "pairs/s"},
      {"csj_bytes_per_pair", "B/pair"},
      {"ncsj_bytes_per_pair", "B/pair"},
      {"peak_rss_mb", "MiB"},
      {"req_p50_ms", "ms"},
      {"req_p99_ms", "ms"},
      {"req_per_s", "req/s"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"data.load_points_s", "s"},    {"index.pack_s", "s"},
        {"index.save_s", "s"},          {"index.load_s", "s"},
        {"index.registry_load_s", "s"},
    };
    for (const AlgoInfo& a : kAlgos) {
      m.push_back({std::string("index.node_visits.") + a.name, "count"});
    }
    for (const char* ds : {"mg", "pnw"}) {
      const std::string p = std::string("index.paged.") + ds + ".";
      m.push_back({p + "block_requests", "count/req"});
      m.push_back({p + "hit_ratio", "ratio"});
      m.push_back({p + "disk_reads", "count/req"});
      m.push_back({p + "node_decodes", "count/req"});
    }
    for (const AlgoInfo& a : kAlgos) {
      const std::string n = a.name;
      m.push_back({"geom.kernel_candidates." + n, "count"});
      m.push_back({"geom.kernel_pruned." + n, "count"});
      m.push_back({"geom.distance_computations." + n, "count"});
      m.push_back({"geom.kernel_hits." + n, "count"});
      m.push_back({"geom.hit_ratio." + n, "ratio"});
    }
    for (const AlgoInfo& a : kAlgos) {
      m.push_back({std::string("core.join_s.") + a.name, "s"});
    }
    for (const char* n : {"merge_attempts", "merges"}) {
      m.push_back({std::string("core.window.") + n, "count"});
    }
    m.push_back({"core.window.merge_ratio", "ratio"});
    m.push_back({"core.window.evictions", "count"});
    for (const char* n : {"ncsj", "csj"}) {
      m.push_back({std::string("core.groups.") + n, "count"});
      m.push_back({std::string("core.group_members.") + n, "count"});
      m.push_back({std::string("core.early_stops.") + n, "count"});
    }
    for (const AlgoInfo& a : kAlgos) {
      m.push_back({std::string("core.sink_s.") + a.name, "s"});
      m.push_back({std::string("core.sink_bytes.") + a.name, "B"});
    }
    for (const auto& [name, unit] :
         std::vector<std::pair<std::string, std::string>>{
             {"storage.finish_s", "s"},
             {"storage.appends", "count"},
             {"storage.bytes_per_append", "B"},
             {"storage.blocks", "count"},
             {"storage.block_bytes", "B"},
             {"storage.checkpoint_saves", "count"},
             {"storage.checkpoint_s", "s"},
             {"plan.plan_ms", "ms"},
             {"plan.picks.ssj", "ratio"},
             {"plan.picks.ncsj", "ratio"},
             {"plan.picks.csj", "ratio"}}) {
      m.push_back({name, unit});
    }
    for (const char* cls : {"range", "mg_join", "pnw_join"}) {
      const std::string p = std::string("serve.") + cls + ".";
      m.push_back({p + "header_ms", "ms"});
      m.push_back({p + "stream_ms", "ms"});
      m.push_back({p + "server_join_ms", "ms"});
      m.push_back({p + "overhead_ms", "ms"});
      m.push_back({p + "payload_mb", "MiB"});
    }
    m.push_back({"serve.sessions", "count"});
    m.push_back({"serve.admission_rejects", "count"});
    for (const auto& [name, unit] : EndToEndMetrics()) {
      m.push_back({"overhead." + name, unit});
    }
    return m;
  }();
  return kMetrics;
}

std::vector<csj::Point2> PerturbedStandIn(const csj::RoadNetOptions& standin,
                                          uint64_t seed) {
  std::vector<csj::Point2> points = csj::GenerateRoadNetwork(standin);
  if (seed == kStandInSeed) return points;
  std::mt19937_64 rng(seed);
  // Fisher-Yates with an explicit draw, so the order is the same on every
  // standard library.
  for (size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[rng() % i]);
  }
  for (csj::Point2& p : points) {
    for (int d = 0; d < 2; ++d) {
      const double u = static_cast<double>(rng() >> 11) * 0x1p-53;  // [0, 1)
      p[d] += (2.0 * u - 1.0) * 0x1p-16;
    }
  }
  return points;
}

void SetJoinLayerMetrics(const AlgoInfo& algo, const JoinLayer& l,
                         Ledger* ledger) {
  const std::string n = algo.name;
  ledger->Set("index.node_visits." + n, l.node_visits, "count");
  ledger->Set("geom.kernel_candidates." + n, l.candidates, "count");
  ledger->Set("geom.kernel_pruned." + n, l.pruned, "count");
  ledger->Set("geom.distance_computations." + n, l.computed, "count");
  ledger->Set("geom.kernel_hits." + n, l.hits, "count");
  ledger->Set("geom.hit_ratio." + n, Ratio(l.hits, l.computed), "ratio");
  ledger->Set("core.join_s." + n, l.join_s, "s");
  ledger->Set("core.sink_s." + n, l.sink_s, "s");
  ledger->Set("core.sink_bytes." + n, l.sink_bytes, "B");
  if (algo.algo != csj::QueryAlgo::kSSJ) {
    ledger->Set("core.groups." + n, l.groups, "count");
    ledger->Set("core.group_members." + n, l.members, "count");
    ledger->Set("core.early_stops." + n, l.early_stops, "count");
  }
  if (algo.algo == csj::QueryAlgo::kCSJ) {
    ledger->Set("core.window.merge_attempts", l.merge_attempts, "count");
    ledger->Set("core.window.merges", l.merges, "count");
    ledger->Set("core.window.merge_ratio", Ratio(l.merges, l.merge_attempts),
                "ratio");
    ledger->Set("core.window.evictions", l.evictions, "count");
  }
}

double ReferenceSeconds() {
  static const std::vector<double> input = [] {
    std::mt19937_64 rng(12345);
    std::vector<double> v(1 << 16);
    for (double& x : v) x = static_cast<double>(rng() >> 11) * 0x1p-53;
    return v;
  }();
  static std::vector<double> scratch(input.size());
  const double start = Now();
  for (int i = 0; i < 4; ++i) {
    std::copy(input.begin(), input.end(), scratch.begin());
    std::sort(scratch.begin(), scratch.end());
  }
  return Now() - start;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

void PinToCpus(const std::vector<int>& cpus, size_t first, size_t count) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = 0; i < std::min(count, cpus.size()); ++i) {
    CPU_SET(cpus[(first + i) % cpus.size()], &set);
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t CounterValue(const csj::metrics::MetricsSnapshot& snap,
                      const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

uint64_t HistogramSum(const csj::metrics::MetricsSnapshot& snap,
                      const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.sum;
  }
  return 0;
}

csj::json::Value CountersJson(const csj::metrics::MetricsSnapshot& snap) {
  csj::json::Value v = csj::json::Object{};
  for (const auto& [n, value] : snap.counters) v[n] = value;
  for (const auto& h : snap.histograms) v[h.name + ".sum"] = h.sum;
  return v;
}

}  // namespace perfbench
