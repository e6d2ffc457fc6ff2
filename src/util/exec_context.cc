#include "util/exec_context.h"

#include "util/check.h"
#include "util/format.h"
#include "util/metrics.h"

namespace csj {

bool MemoryBudget::TryReserve(uint64_t bytes) {
  if (bytes == 0) return true;
  // Commit locally first, then ascend. On a denial anywhere the partial
  // commits are rolled back, so a failed reservation charges nothing.
  uint64_t used = used_.load(std::memory_order_relaxed);
  while (true) {
    if (limit_ != 0 && used + bytes > limit_) {
      denials_.fetch_add(1, std::memory_order_relaxed);
      CSJ_METRIC_COUNT("resource.denials", 1);
      return false;
    }
    if (used_.compare_exchange_weak(used, used + bytes,
                                    std::memory_order_relaxed)) {
      break;
    }
  }
  if (parent_ != nullptr && !parent_->TryReserve(bytes)) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    denials_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Peak tracking: monotonic max, racy-but-convergent under contention. The
  // gauge is only touched when the peak advances, so steady-state churn
  // (e.g. a full CSJ(g) window admitting and evicting around a plateau)
  // costs two relaxed loads here, not a metric write per reservation.
  const uint64_t now_used = used + bytes;
  uint64_t peak = peak_.load(std::memory_order_relaxed);
  if (now_used > peak) {
    while (now_used > peak &&
           !peak_.compare_exchange_weak(peak, now_used,
                                        std::memory_order_relaxed)) {
    }
#ifndef CSJ_NO_METRICS
    // Process-wide high-water mark, advance-only: with one gauge shared by
    // every budget, a plain Set would let a small query's peak overwrite a
    // bigger concurrent one's and the gauge would regress. Per-budget peaks
    // stay exact through peak().
    static metrics::Gauge* peak_gauge =
        metrics::GetGauge("resource.peak_bytes");
    const int64_t observed =
        static_cast<int64_t>(peak_.load(std::memory_order_relaxed));
    if (peak_gauge->value() < observed) peak_gauge->Set(observed);
#endif
  }
  return true;
}

void MemoryBudget::Release(uint64_t bytes) {
  if (bytes == 0) return;
  const uint64_t before = used_.fetch_sub(bytes, std::memory_order_relaxed);
  CSJ_CHECK(before >= bytes) << "MemoryBudget::Release of " << bytes
                             << " bytes exceeds the " << before
                             << " bytes reserved";
  if (parent_ != nullptr) parent_->Release(bytes);
}

uint64_t MemoryBudget::Available() const {
  const uint64_t local =
      limit_ == 0 ? UINT64_MAX
                  : (limit_ > used() ? limit_ - used() : 0);
  if (parent_ == nullptr) return local;
  const uint64_t above = parent_->Available();
  return local < above ? local : above;
}

bool ScopedCharge::Acquire(MemoryBudget* budget, uint64_t bytes) {
  Release();
  if (budget == nullptr) return true;
  if (!budget->TryReserve(bytes)) return false;
  budget_ = budget;
  bytes_ = bytes;
  return true;
}

bool ScopedCharge::Resize(uint64_t new_bytes) {
  if (budget_ == nullptr) return true;
  if (new_bytes > bytes_) {
    if (!budget_->TryReserve(new_bytes - bytes_)) return false;
  } else if (new_bytes < bytes_) {
    budget_->Release(bytes_ - new_bytes);
  }
  bytes_ = new_bytes;
  return true;
}

void ScopedCharge::Release() {
  if (budget_ != nullptr && bytes_ > 0) budget_->Release(bytes_);
  budget_ = nullptr;
  bytes_ = 0;
}

void ExecContext::SetDeadlineAfterMs(uint64_t ms) {
  if (ms == 0) return;
  SetDeadline(std::chrono::steady_clock::now() +
              std::chrono::milliseconds(ms));
}

void ExecContext::SetDeadline(std::chrono::steady_clock::time_point deadline) {
  has_deadline_ = true;
  deadline_ = deadline;
}

void ExecContext::Trip(Status status) const {
  if (status.ok()) return;
  std::lock_guard<std::mutex> lock(status_mutex_);
  if (stopped_.load(std::memory_order_relaxed)) return;  // first error wins
  status_ = std::move(status);
  // Release ordering so a thread that observes stopped_ == true via
  // ShouldStop() and then takes the mutex sees the status write.
  stopped_.store(true, std::memory_order_release);
}

Status ExecContext::status() const {
  if (stopped_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(status_mutex_);
    return status_;
  }
  if (parent_ != nullptr) return parent_->status();
  return Status::OK();
}

bool ExecContext::TryCharge(uint64_t bytes, const char* what) const {
  MemoryBudget* budget = memory_budget();
  if (budget == nullptr || budget->TryReserve(bytes)) return true;
  Trip(Status::ResourceExhausted(
      StrFormat("memory budget exhausted reserving %llu bytes for %s "
                "(used %llu of %llu)",
                static_cast<unsigned long long>(bytes), what,
                static_cast<unsigned long long>(budget->used()),
                static_cast<unsigned long long>(budget->limit()))));
  return false;
}

}  // namespace csj
