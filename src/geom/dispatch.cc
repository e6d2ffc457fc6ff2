#include "geom/dispatch.h"

#include <atomic>
#include <cstdlib>

#include "geom/kernels_isa.h"
#include "util/metrics.h"

/// \file
/// Backend tables and the startup dispatch decision (see dispatch.h).
///
/// The per-ISA TUs are referenced only under CSJ_HAVE_AVX2 / CSJ_HAVE_AVX512
/// — CMake defines those for this file exactly when it compiled the matching
/// kernels_*.cc, so a toolchain that cannot build a backend simply drops it
/// and the dispatcher never sees it.

namespace csj {
namespace {

// --- Scalar backend ----------------------------------------------------------
//
// The reference implementation every SIMD backend must match decision-for-
// decision: per candidate, `acc += (c[d] - center[d])^2` over ascending d,
// one `acc <= eps2` test. Blocked over kScalarBlock candidates so the
// compiler's auto-vectorizer still gets a branch-free inner loop; blocking
// changes neither the per-pair op sequence nor the emission order.

constexpr size_t kScalarBlock = 8;

size_t ScalarWindowHits(const double* const* dims, int dim_count,
                        const double* center, size_t begin, size_t end,
                        double eps2, uint32_t* hits) {
  size_t n = 0;
  size_t j = begin;
  for (; j + kScalarBlock <= end; j += kScalarBlock) {
    double acc[kScalarBlock] = {};
    for (int d = 0; d < dim_count; ++d) {
      const double* c = dims[d];
      const double cd = center[d];
      for (size_t lane = 0; lane < kScalarBlock; ++lane) {
        const double diff = c[j + lane] - cd;
        acc[lane] += diff * diff;
      }
    }
    for (size_t lane = 0; lane < kScalarBlock; ++lane) {
      if (acc[lane] <= eps2) hits[n++] = static_cast<uint32_t>(j + lane);
    }
  }
  for (; j < end; ++j) {
    double acc = 0.0;
    for (int d = 0; d < dim_count; ++d) {
      const double diff = dims[d][j] - center[d];
      acc += diff * diff;
    }
    if (acc <= eps2) hits[n++] = static_cast<uint32_t>(j);
  }
  return n;
}

size_t ScalarSweepBoundFn(const double* x, size_t begin, size_t end,
                          double xi, double eps2) {
  return isa::ScalarSweepBound(x, begin, end, xi, eps2);
}

constexpr KernelBackend kScalarBackend{KernelIsa::kScalar, ScalarWindowHits,
                                       ScalarSweepBoundFn};

#ifdef CSJ_HAVE_AVX2
constexpr KernelBackend kAvx2Backend{KernelIsa::kAvx2, isa::Avx2WindowHits,
                                     isa::Avx2SweepBound};
#endif
#ifdef CSJ_HAVE_AVX512
constexpr KernelBackend kAvx512Backend{
    KernelIsa::kAvx512, isa::Avx512WindowHits, isa::Avx512SweepBound};
#endif

bool CpuSupports(KernelIsa isa) {
#if defined(__x86_64__) || defined(__i386__)
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case KernelIsa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
#endif
  return isa == KernelIsa::kScalar;
}

KernelIsa ComputeDispatchedIsa() {
  if (const char* env = std::getenv("CSJ_KERNEL_ISA")) {
    KernelIsa forced;
    if (ParseKernelIsa(env, &forced) && KernelIsaAvailable(forced)) {
      return forced;
    }
    // Unknown or unavailable override: fall through to best-available so a
    // stale env var can never mis-execute or disable the join.
  }
  if (KernelIsaAvailable(KernelIsa::kAvx512)) return KernelIsa::kAvx512;
  if (KernelIsaAvailable(KernelIsa::kAvx2)) return KernelIsa::kAvx2;
  return KernelIsa::kScalar;
}

/// -1 = undecided; otherwise the cached KernelIsa value. Benign if two
/// threads race the first resolution: both compute the same answer.
std::atomic<int> g_dispatched{-1};

}  // namespace

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

bool ParseKernelIsa(std::string_view name, KernelIsa* out) {
  if (name == "scalar") {
    *out = KernelIsa::kScalar;
  } else if (name == "avx2") {
    *out = KernelIsa::kAvx2;
  } else if (name == "avx512") {
    *out = KernelIsa::kAvx512;
  } else {
    return false;
  }
  return true;
}

bool KernelIsaAvailable(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
#ifdef CSJ_HAVE_AVX2
      return CpuSupports(KernelIsa::kAvx2);
#else
      return false;
#endif
    case KernelIsa::kAvx512:
#ifdef CSJ_HAVE_AVX512
      return CpuSupports(KernelIsa::kAvx512);
#else
      return false;
#endif
  }
  return false;
}

KernelIsa DispatchedKernelIsa() {
  int v = g_dispatched.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(ComputeDispatchedIsa());
    g_dispatched.store(v, std::memory_order_relaxed);
  }
  return static_cast<KernelIsa>(v);
}

const KernelBackend& GetKernelBackend(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      break;
    case KernelIsa::kAvx2:
#ifdef CSJ_HAVE_AVX2
      if (CpuSupports(KernelIsa::kAvx2)) return kAvx2Backend;
#endif
      break;
    case KernelIsa::kAvx512:
#ifdef CSJ_HAVE_AVX512
      if (CpuSupports(KernelIsa::kAvx512)) return kAvx512Backend;
#endif
      break;
  }
  return kScalarBackend;
}

void RecordKernelBackendMetric(KernelIsa isa) {
  CSJ_METRIC_GAUGE_SET("kernel.backend", static_cast<int64_t>(isa));
  // The macros cache their registry entry per call site, so the per-ISA
  // counters need literal names.
  switch (isa) {
    case KernelIsa::kScalar:
      CSJ_METRIC_COUNT("kernel.backend.scalar", 1);
      break;
    case KernelIsa::kAvx2:
      CSJ_METRIC_COUNT("kernel.backend.avx2", 1);
      break;
    case KernelIsa::kAvx512:
      CSJ_METRIC_COUNT("kernel.backend.avx512", 1);
      break;
  }
}

namespace dispatch_internal {
void ResetDispatchForTesting() {
  g_dispatched.store(-1, std::memory_order_relaxed);
}

ScopedKernelIsaOverride::ScopedKernelIsaOverride(const char* value) {
  if (const char* previous = std::getenv("CSJ_KERNEL_ISA")) {
    had_previous_ = true;
    previous_ = previous;
  }
  setenv("CSJ_KERNEL_ISA", value, /*overwrite=*/1);
  ResetDispatchForTesting();
}

ScopedKernelIsaOverride::~ScopedKernelIsaOverride() {
  if (had_previous_) {
    setenv("CSJ_KERNEL_ISA", previous_.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("CSJ_KERNEL_ISA");
  }
  ResetDispatchForTesting();
}
}  // namespace dispatch_internal

}  // namespace csj
