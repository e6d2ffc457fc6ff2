#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file
/// In-memory span recorder for the traced run. Spans are recorded around
/// the benchmark's calls into each layer of the library (not inside it):
/// a name, start and end on one steady clock, the parent span, and a trace
/// id shared by every span of one query or request. Counter snapshots are
/// attached to spans at the same boundaries. Nothing is written until the
/// run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "util/json.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in the process.
inline double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

class Tracer {
 public:
  static constexpr int kNoSpan = -1;

  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = kNoSpan;
    uint64_t trace_id = 0;
  };

  /// Per span name: occurrences, total and self seconds.
  struct NameTotals {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewTrace() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_trace_;
  }

  /// Opens a span now; `parent` is kNoSpan for a root.
  int Begin(const std::string& name, int parent, uint64_t trace_id) {
    const double start = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, start, parent, trace_id});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int span) {
    const double end = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(span)].end = end;
  }

  /// Records a span with explicit times.
  int Add(const std::string& name, int parent, uint64_t trace_id,
          double start, double end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, parent, trace_id});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Attaches a counter snapshot to a span boundary.
  void Snapshot(int span, const std::string& label, csj::json::Value counters) {
    std::lock_guard<std::mutex> lock(mu_);
    snapshots_.push_back({span, label, std::move(counters)});
  }

  /// Self time of every span, indexed like the spans.
  std::vector<double> SelfTimes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != kNoSpan) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
      }
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = SelfTime(spans_[i].start, spans_[i].end, children[i]);
    }
    return self;
  }

  std::map<std::string, NameTotals> TotalsByName() const {
    const std::vector<double> self = SelfTimes();
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, NameTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      NameTotals& t = out[spans_[i].name];
      ++t.count;
      t.total_s += spans_[i].end - spans_[i].start;
      t.self_s += self[i];
    }
    return out;
  }

  /// Largest |sum of self times in a root's tree - root duration| relative
  /// to the root duration, over all roots. Zero when children nest inside
  /// their parents without overlapping each other.
  double MaxSelfSumError() const {
    const std::vector<double> self = SelfTimes();
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> tree_self(spans_.size(), 0.0);
    std::vector<size_t> root_of(spans_.size());
    double worst = 0.0;
    // Parents are always recorded before their children.
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int parent = spans_[i].parent;
      root_of[i] = parent == kNoSpan ? i : root_of[static_cast<size_t>(parent)];
      tree_self[root_of[i]] += self[i];
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != kNoSpan) continue;
      const double wall = spans_[i].end - spans_[i].start;
      if (wall <= 0.0) continue;
      worst = std::max(worst, std::abs(tree_self[i] - wall) / wall);
    }
    return worst;
  }

  csj::json::Value ToJsonValue() const {
    const std::vector<double> self = SelfTimes();
    std::lock_guard<std::mutex> lock(mu_);
    csj::json::Value spans = csj::json::Array{};
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      csj::json::Value v = csj::json::Object{};
      v["id"] = static_cast<int64_t>(i);
      v["name"] = s.name;
      v["start_s"] = s.start;
      v["end_s"] = s.end;
      v["parent"] = static_cast<int64_t>(s.parent);
      v["trace"] = s.trace_id;
      v["self_s"] = self[i];
      spans.Append(std::move(v));
    }
    csj::json::Value snaps = csj::json::Array{};
    for (const auto& snap : snapshots_) {
      csj::json::Value v = csj::json::Object{};
      v["span"] = static_cast<int64_t>(snap.span);
      v["label"] = snap.label;
      v["counters"] = snap.counters;
      snaps.Append(std::move(v));
    }
    csj::json::Value doc = csj::json::Object{};
    doc["spans"] = std::move(spans);
    doc["snapshots"] = std::move(snaps);
    return doc;
  }

 private:
  struct CounterSnapshot {
    int span;
    std::string label;
    csj::json::Value counters;
  };

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<CounterSnapshot> snapshots_;
  uint64_t last_trace_ = 0;
};

/// RAII span; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent,
             uint64_t trace_id)
      : tracer_(tracer),
        id_(tracer == nullptr ? Tracer::kNoSpan
                              : tracer->Begin(name, parent, trace_id)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void Close() {
    if (tracer_ != nullptr && !closed_) tracer_->End(id_);
    closed_ = true;
  }

 private:
  Tracer* tracer_;
  int id_;
  bool closed_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
