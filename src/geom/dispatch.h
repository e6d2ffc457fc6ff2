#ifndef CSJ_GEOM_DISPATCH_H_
#define CSJ_GEOM_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

/// \file
/// Runtime dispatch for the explicit-SIMD leaf-kernel backends.
///
/// The leaf kernels (geom/kernels.h) reduce every leaf–leaf join to two
/// primitives over SoA coordinate arrays:
///
///  * `sweep_bound`  — on the sorted sweep axis, find the end of the 1-D
///    candidate window of one anchor point;
///  * `window_hits`  — evaluate the full squared distance of every candidate
///    in that window against the anchor and report the in-range ones.
///
/// This header defines the backend table for those primitives and the
/// machinery that picks an implementation at startup:
///
///  * a portable scalar backend, always compiled, always available;
///  * an AVX2 backend (kernels_avx2.cc, compiled with -mavx2 only for that
///    TU) processing 4 doubles per vector;
///  * an AVX-512 backend (kernels_avx512.cc, -mavx512f) processing 8.
///
/// **Determinism contract.** Every backend performs, per candidate pair, the
/// exact floating-point operations of the scalar loop in the exact order:
/// `acc += (c[d] - center[d])^2` over ascending d, then one `acc <= eps2`
/// comparison; the sweep predicate is the same `gap*gap > eps2`. The SIMD
/// TUs are compiled with -ffp-contract=off so no FMA contraction can change
/// rounding. Backends are therefore *decision-identical*: the same pairs
/// pass, the same candidate windows are charged, and — because the kernels
/// replay hits canonically — the join output is byte-identical across ISAs.
/// (kernels_dispatch_test asserts this on every ISA the host can run.)
///
/// **Dispatch rules.** LeafKernel::kSimd resolves to the best available ISA:
/// AVX-512 > AVX2 > scalar, where "available" means the backend was compiled
/// in (CMake drops TUs the toolchain cannot build, and -DCSJ_SIMD=OFF drops
/// all of them) *and* the host CPU advertises the feature. The environment
/// variable CSJ_KERNEL_ISA=scalar|avx2|avx512 overrides the choice (for
/// tests and A/B runs, and the only way to force one backend); naming an
/// unavailable or unknown ISA falls back to the normal best-available rule.

namespace csj {

/// Instruction-set architecture of a kernel backend.
enum class KernelIsa : uint8_t {
  kScalar = 0,  ///< portable C++ blocked lanes (always present)
  kAvx2 = 1,    ///< 256-bit lanes, 4 doubles per vector
  kAvx512 = 2,  ///< 512-bit lanes, 8 doubles per vector
};

/// Display name: "scalar", "avx2", "avx512".
const char* KernelIsaName(KernelIsa isa);

/// Parses a KernelIsaName string (case-sensitive). Returns false on unknown
/// names and leaves *out untouched.
bool ParseKernelIsa(std::string_view name, KernelIsa* out);

/// Function table of one ISA backend. Plain function pointers over raw SoA
/// arrays (dimension count is a runtime argument) so the per-ISA TUs stay
/// template-free and a future accelerator backend can slot in behind the
/// same signatures.
struct KernelBackend {
  KernelIsa isa = KernelIsa::kScalar;

  /// Appends the index j of every candidate in [begin, end) whose squared
  /// L2 distance to `center` is <= eps2 to `hits`, in ascending j, and
  /// returns the number appended. dims[d][j] is coordinate d of candidate
  /// j (dim_count dimensions); `hits` must have room for end - begin
  /// entries.
  size_t (*window_hits)(const double* const* dims, int dim_count,
                        const double* center, size_t begin, size_t end,
                        double eps2, uint32_t* hits) = nullptr;

  /// First index in [begin, end) of the ascending-sorted axis `x` whose 1-D
  /// squared gap from `xi` exceeds eps2 (`end` if none). The predicate
  /// fl((x[j]-xi)^2) > eps2 must be monotone over the window, which every
  /// kernel call site guarantees (see geom/kernels.h).
  size_t (*sweep_bound)(const double* x, size_t begin, size_t end, double xi,
                        double eps2) = nullptr;
};

/// True when the backend is compiled into this binary *and* the host CPU
/// supports its instruction set. kScalar is always available.
bool KernelIsaAvailable(KernelIsa isa);

/// The ISA that LeafKernel::kSimd dispatches to (see "Dispatch rules"
/// above). Resolved once and cached; thereafter a single relaxed load.
KernelIsa DispatchedKernelIsa();

/// Backend table for `isa`, falling back to scalar when `isa` is
/// unavailable. Never returns null function pointers.
const KernelBackend& GetKernelBackend(KernelIsa isa);

/// Records which backend a join run executed with: sets the
/// `kernel.backend` gauge to the KernelIsa value and bumps the per-ISA
/// `kernel.backend.<name>` run counter. Drivers call this once per run,
/// alongside filling JoinStats::kernel_isa.
void RecordKernelBackendMetric(KernelIsa isa);

namespace dispatch_internal {
/// Drops the cached dispatch decision so the next DispatchedKernelIsa()
/// re-reads CSJ_KERNEL_ISA. Test-only: the hot path assumes the cache is
/// written once.
void ResetDispatchForTesting();

/// Sets CSJ_KERNEL_ISA to `value` for the guard's lifetime, then restores
/// the previous setting; the cached dispatch decision is dropped on both
/// edges. How tests and benchmarks run `kSimd` on one chosen backend. Not
/// thread-safe: no join may run concurrently with either edge.
class ScopedKernelIsaOverride {
 public:
  explicit ScopedKernelIsaOverride(const char* value);
  ~ScopedKernelIsaOverride();
  ScopedKernelIsaOverride(const ScopedKernelIsaOverride&) = delete;
  ScopedKernelIsaOverride& operator=(const ScopedKernelIsaOverride&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};
}  // namespace dispatch_internal

}  // namespace csj

#endif  // CSJ_GEOM_DISPATCH_H_
