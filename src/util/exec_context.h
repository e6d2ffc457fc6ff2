#ifndef CSJ_UTIL_EXEC_CONTEXT_H_
#define CSJ_UTIL_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

#include "util/status.h"

/// \file
/// Resource governance for long-running work: ExecContext and MemoryBudget.
///
/// Every join driver — serial, parallel, ego, metric, checkpointed — can run
/// for hours and allocate gigabytes. An `ExecContext` bundles the three
/// constraints a caller (an operator, a batch scheduler, the future
/// `csj_serve` admission controller) wants enforced on such a run:
///
///   * a **deadline** (monotonic clock, armed as "now + N ms");
///   * an external **cancel flag** (a `std::atomic<bool>` raised by a signal
///     handler or an operator stop);
///   * a **MemoryBudget** — atomic reserve/release accounting that big
///     allocations charge before committing.
///
/// Drivers poll `ShouldStop()` at every task boundary (node visit, task
/// start, EGO range split). The poll is designed to be cheap enough for a
/// hot loop: one relaxed atomic load when nothing has tripped, one more for
/// the cancel flag, and a clock read only every `kDeadlineStride` polls.
/// Once any constraint trips, the context carries a **sticky Status**
/// (`kDeadlineExceeded` / `kCancelled` / `kResourceExhausted` / an injected
/// error such as a paged-tree read fault) that every later poll re-reports;
/// the run unwinds at its next boundary and surfaces the status through
/// `JoinStats::status` — no crash, no runaway, no partial-output artifact.
///
/// Contexts **chain**: a child context (e.g. one per query inside a server)
/// can point at a parent, and `ShouldStop()` consults the parent after the
/// child's own constraints. Budgets chain the same way: a child
/// `MemoryBudget` carves its reservations out of the parent's quota, so a
/// per-query limit and a process-wide limit compose.
///
/// Thread safety: `ShouldStop()`, `Trip()` and every `MemoryBudget` method
/// are safe to call concurrently (parallel-join workers share one context).
/// The setters are not — configure the context before handing it to a run.
///
/// Decisions are observable through the `resource.*` metrics: peak bytes
/// (`resource.peak_bytes`), reservation denials (`resource.denials`), and
/// graceful degradations (`resource.window_degradations`,
/// `resource.pool_sheds`) — see docs/ROBUSTNESS.md.

namespace csj {

/// Hierarchical memory accounting. `TryReserve` either commits the whole
/// reservation (against this budget and every ancestor) or commits nothing.
/// A limit of 0 means "unlimited" — the budget still tracks usage and peak,
/// which is how `resource.peak_bytes` gets recorded on unbounded runs.
class MemoryBudget {
 public:
  explicit MemoryBudget(uint64_t limit_bytes = 0, MemoryBudget* parent = nullptr)
      : limit_(limit_bytes), parent_(parent) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Reserves `bytes` against this budget and its ancestors. Returns false
  /// (and records a `resource.denials` metric) if any level would exceed its
  /// limit; on failure nothing is charged anywhere.
  bool TryReserve(uint64_t bytes);

  /// Returns `bytes` previously reserved. Releasing more than was reserved
  /// is a programming error (checked).
  void Release(uint64_t bytes);

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t limit() const { return limit_; }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t denials() const { return denials_.load(std::memory_order_relaxed); }
  MemoryBudget* parent() const { return parent_; }

  /// True when a bounded budget is above `fraction` of its limit (or any
  /// ancestor is). Degradation hooks (window shrink, buffer-pool shed) use
  /// this to act *before* a reservation is denied.
  bool UnderPressure(double fraction = 0.85) const;

  /// Headroom in bytes; UINT64_MAX when unlimited (at every level).
  uint64_t Available() const;

 private:
  const uint64_t limit_;  // 0 = unlimited
  MemoryBudget* const parent_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> denials_{0};
};

/// RAII reservation against a MemoryBudget. Move-only; releases on
/// destruction. A default-constructed or null-budget charge is a no-op that
/// always succeeds — call sites stay unconditional.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  ~ScopedCharge() { Release(); }

  ScopedCharge(ScopedCharge&& other) noexcept
      : budget_(other.budget_), bytes_(other.bytes_) {
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  ScopedCharge& operator=(ScopedCharge&& other) noexcept {
    if (this != &other) {
      Release();
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      other.budget_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  /// Replaces the current reservation with `bytes` against `budget`.
  /// Returns false (holding nothing) if the budget denies it. A null budget
  /// always succeeds.
  bool Acquire(MemoryBudget* budget, uint64_t bytes);

  /// Grows or shrinks the held reservation to `new_bytes` (same budget).
  /// On denial the original reservation is kept and false is returned.
  bool Resize(uint64_t new_bytes);

  void Release();

  uint64_t bytes() const { return bytes_; }
  MemoryBudget* budget() const { return budget_; }

 private:
  MemoryBudget* budget_ = nullptr;
  uint64_t bytes_ = 0;
};

/// Deadline + cancel + budget, polled at task boundaries. See file comment.
class ExecContext {
 public:
  /// Clock reads are amortized: the deadline is checked once every this
  /// many `ShouldStop()` polls (and always on the first poll).
  static constexpr uint32_t kDeadlineStride = 64;

  ExecContext() = default;

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // -- configuration (before the run; not thread-safe) ---------------------

  /// Arms the deadline at now + `ms`. `ms == 0` leaves the context without
  /// a deadline (the documented meaning of `JoinOptions::deadline_ms = 0`).
  void SetDeadlineAfterMs(uint64_t ms);
  void SetDeadline(std::chrono::steady_clock::time_point deadline);

  /// Installs an external cancel flag (not owned; may be flipped from a
  /// signal handler). Null clears it.
  void SetCancelFlag(const std::atomic<bool>* flag) { cancel_ = flag; }

  /// Installs the memory budget big allocations charge (not owned).
  void SetMemoryBudget(MemoryBudget* budget) { budget_ = budget; }

  /// Chains this context under `parent`: `ShouldStop()` also consults the
  /// parent, and `memory_budget()` falls back to the parent's budget.
  void SetParent(const ExecContext* parent) { parent_ = parent; }

  // -- hot path (thread-safe) ----------------------------------------------

  /// True once any constraint has tripped (sticky). Polling is cheap; see
  /// the file comment for the exact cost.
  bool ShouldStop() const {
    if (stopped_.load(std::memory_order_relaxed)) return true;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      Trip(Status::Cancelled("cancel flag raised"));
      return true;
    }
    if (has_deadline_ && DeadlinePollDue() && DeadlineExpiredNow()) {
      Trip(Status::DeadlineExceeded("deadline expired"));
      return true;
    }
    if (parent_ != nullptr && parent_->ShouldStop()) return true;
    return false;
  }

  /// Like `ShouldStop()`, but always reads the clock when a deadline is
  /// armed. For *infrequent* pollers — a checkpoint runner checking once per
  /// task — where the stride amortization could skip the deadline check for
  /// the whole run. Hot loops should keep using `ShouldStop()`.
  bool ShouldStopNow() const {
    if (has_deadline_ && !stopped_.load(std::memory_order_relaxed) &&
        DeadlineExpiredNow()) {
      Trip(Status::DeadlineExceeded("deadline expired"));
    }
    if (parent_ != nullptr && parent_->ShouldStopNow()) return true;
    return ShouldStop();
  }

  /// Records the first non-OK status; later calls are ignored (first error
  /// wins, matching the sink convention). Safe from any thread. OK statuses
  /// are ignored.
  void Trip(Status status) const;

  /// The sticky status: OK while running, else the first trip (consulting
  /// the parent chain). Does not itself re-evaluate deadline/cancel — call
  /// `ShouldStop()` first at a boundary.
  Status status() const;

  /// This context's budget, or the nearest ancestor's. Null when ungoverned.
  MemoryBudget* memory_budget() const {
    if (budget_ != nullptr) return budget_;
    return parent_ != nullptr ? parent_->memory_budget() : nullptr;
  }

  /// Reserves `bytes` for `what` against `memory_budget()`, tripping the
  /// context with `kResourceExhausted` on denial. With no budget installed
  /// this always succeeds and charges nothing.
  bool TryCharge(uint64_t bytes, const char* what) const;

  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

 private:
  bool DeadlinePollDue() const {
    // Wrapping counter shared by all pollers. Exactness does not matter —
    // only that the clock is read ~1/stride polls — so a load + store
    // (which may lose concurrent increments) beats a fetch_add: no RMW in
    // the hot poll, and the cost shows up directly in bench_governance.
    const uint32_t count = deadline_poll_.load(std::memory_order_relaxed);
    deadline_poll_.store(count + 1, std::memory_order_relaxed);
    return count % kDeadlineStride == 0;
  }
  bool DeadlineExpiredNow() const {
    return std::chrono::steady_clock::now() >= deadline_;
  }

  // Configuration (set before the run).
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  const std::atomic<bool>* cancel_ = nullptr;
  MemoryBudget* budget_ = nullptr;
  const ExecContext* parent_ = nullptr;

  // Sticky trip state (mutable: polling a `const ExecContext*` may trip it).
  mutable std::atomic<bool> stopped_{false};
  mutable std::atomic<uint32_t> deadline_poll_{0};
  mutable std::mutex status_mutex_;
  mutable Status status_;  // guarded by status_mutex_; valid once stopped_
};

}  // namespace csj

#endif  // CSJ_UTIL_EXEC_CONTEXT_H_
