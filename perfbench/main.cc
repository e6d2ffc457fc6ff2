/// \file
/// csj_perfbench — one benchmark command for the compact-similarity-join
/// library. perfbench/run.py builds it and runs it as
///
///   csj_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 --work <dir> --report <file> --describe <source id>
///
/// It generates the workload's inputs from the seed inside <dir>, measures
/// for about <s> seconds, checks every output, writes a full report (with
/// provenance, per-cell samples and, when traced, every span) to <file>,
/// and prints as its last stdout line one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with every end-to-end metric (--trace 0) or every per-layer metric
/// (--trace 1). perfbench/README.md defines each metric.

#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

#include "common.h"

namespace perfbench {
namespace {

const std::set<std::string> kWorkloads = {"exp1-text", "exp1-count",
                                          "parallel-2t", "serve-mix"};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "csj_perfbench: %s\nusage: csj_perfbench --workload "
               "exp1-text|exp1-count|parallel-2t|serve-mix --seed N "
               "--seconds S --trace 0|1 --work DIR --report FILE "
               "[--describe ID]\n",
               why.c_str());
  std::exit(2);
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: return csj::StrFormat("0x%lx", static_cast<unsigned long>(fs.f_type));
  }
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

csj::json::Value Provenance(const Args& args, const std::string& describe,
                            const std::string& work_dir) {
  csj::json::Value p = csj::json::Object{};
  p["git_describe"] = describe;
  p["compiler"] = PERFBENCH_COMPILER;
  p["flags"] = PERFBENCH_FLAGS;
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["cpu_model"] = CpuModel();
  p["nproc"] = static_cast<int64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  p["kernel_isa"] = csj::KernelIsaName(csj::DispatchedKernelIsa());
  p["scratch_fs"] = FilesystemName(work_dir) + " (" + work_dir + ")";
  p["seed"] = args.seed;
  p["workload"] = args.workload;
  p["seconds"] = args.seconds;
  p["trace"] = args.trace;
  return p;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string work_dir, report_path, describe = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") args.trace = value != "0";
    else if (flag == "--work") work_dir = value;
    else if (flag == "--report") report_path = value;
    else if (flag == "--describe") describe = value;
    else Usage("unknown flag " + flag);
  }
  if (argc % 2 != 1) Usage("every flag takes one value");
  if (kWorkloads.count(args.workload) == 0) Usage("unknown workload");
  if (work_dir.empty() || report_path.empty()) Usage("need --work and --report");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");

  // Every input and output file lives in the work directory.
  char cwd[4096];
  if (report_path.front() != '/' && ::getcwd(cwd, sizeof(cwd)) != nullptr) {
    report_path = std::string(cwd) + "/" + report_path;
  }
  ::mkdir(work_dir.c_str(), 0755);
  if (::chdir(work_dir.c_str()) != 0) Usage("cannot enter " + work_dir);
  const std::string work_abs = ::getcwd(cwd, sizeof(cwd)) ? cwd : work_dir;

  Tracer tracer;
  Ledger ledger;
  if (args.workload == "serve-mix") {
    RunServeMix(args, args.trace ? &tracer : nullptr, &ledger);
  } else {
    RunBatchWorkload(args, args.trace ? &tracer : nullptr, &ledger);
  }

  // Every metric is printed; a per-layer metric a workload does not
  // exercise reads 0 (README.md lists which). A missing end-to-end metric is
  // a harness failure.
  const auto& catalog = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const auto& [name, unit] : catalog) {
    if (ledger.Has(name)) continue;
    if (!args.trace && ledger.failed() == 0) ledger.Fail("missing metric " + name);
    ledger.Set(name, 0.0, unit);
  }
  if (args.trace) {
    const double error = tracer.MaxSelfSumError();
    ledger.Op(error < 1e-9, csj::StrFormat("span self times miss wall time by "
                                           "%.3g", error));
  }

  csj::json::Value metrics = csj::json::Object{};
  for (const auto& [name, unit] : catalog) {
    double value = ledger.Get(name);
    if (!std::isfinite(value)) {
      ledger.Fail("non-finite metric " + name);
      value = 0.0;
    }
    csj::json::Value m = csj::json::Object{};
    m["value"] = value;
    m["unit"] = unit;
    metrics[name] = std::move(m);
  }

  csj::json::Value report = csj::json::Object{};
  report["provenance"] = Provenance(args, describe, work_abs);
  report["attempted"] = ledger.attempted();
  report["failed"] = ledger.failed();
  csj::json::Value failures = csj::json::Array{};
  for (const std::string& f : ledger.failures()) failures.Append(f);
  report["failures"] = std::move(failures);
  report["metrics"] = metrics;
  report["details"] = ledger.details;
  if (args.trace) {
    csj::json::Value spans = csj::json::Object{};
    for (const auto& [name, t] : tracer.TotalsByName()) {
      csj::json::Value v = csj::json::Object{};
      v["count"] = t.count;
      v["mean_ms"] = t.total_s / static_cast<double>(t.count) * 1e3;
      v["mean_self_ms"] = t.self_s / static_cast<double>(t.count) * 1e3;
      spans[name] = std::move(v);
    }
    report["span_self_times"] = spans;
    report["trace"] = tracer.ToJsonValue();
    std::printf("span self times (mean ms per occurrence): %s\n",
                csj::json::Write(spans).c_str());
  }
  {
    std::ofstream out(report_path);
    out << csj::json::Write(report, /*pretty=*/true) << "\n";
    if (!out) ledger.Fail("cannot write the report " + report_path);
  }
  if (const csj::json::Value* raw = ledger.details.Find("raw")) {
    std::printf("end-to-end metrics as measured (not scaled): %s\n",
                csj::json::Write(*raw).c_str());
  }
  std::printf("provenance: %s\n",
              csj::json::Write(report["provenance"]).c_str());
  for (const std::string& f : ledger.failures()) {
    std::fprintf(stderr, "csj_perfbench: failed: %s\n", f.c_str());
  }

  csj::json::Value result = csj::json::Object{};
  result["correct"] = ledger.failed() == 0;
  result["attempted"] = ledger.attempted();
  result["failed"] = ledger.failed();
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", csj::json::Write(result).c_str());
  return 0;
}
