// Sorted-set intersection kernels. Embedding enumeration in CECI replaces
// per-edge verification with intersections of sorted candidate lists (paper
// §4, Lemma 2); these kernels are the hot path.
//
// The pairwise kernels are vectorized: at first use the process selects the
// best instruction-set tier compiled in and supported by the CPU (AVX2 >
// SSE4 > scalar) and installs it in a function-pointer table; every public
// entry point below routes through it. `CECI_FORCE_SCALAR=1` in the
// environment pins the portable scalar kernels — the differential-test
// oracle — regardless of CPU support (read once, at selection time).
// Heavily skewed size ratios still take the scalar galloping path, which
// beats any linear-scan kernel there. See docs/tuning.md#intersection-kernels.
#ifndef CECI_UTIL_INTERSECTION_H_
#define CECI_UTIL_INTERSECTION_H_

#include <cstdint>
#include <span>
#include <vector>

namespace ceci {

/// out = a ∩ b. Both inputs must be sorted ascending and duplicate-free;
/// the output is too. `out` is cleared first. Uses galloping (exponential
/// search) when one side is much smaller and the dispatched
/// vectorized/merge kernel when the sizes are comparable.
void IntersectSorted(std::span<const std::uint32_t> a,
                     std::span<const std::uint32_t> b,
                     std::vector<std::uint32_t>* out);

/// In-place variant: inout = inout ∩ b.
void IntersectSortedInPlace(std::vector<std::uint32_t>* inout,
                            std::span<const std::uint32_t> b);

/// Intersection of k sorted lists, smallest-first ordering applied
/// internally. `out` is cleared first. k == 0 yields empty; k == 1 copies
/// the single list without touching any scratch.
void IntersectSortedMulti(std::span<const std::span<const std::uint32_t>> lists,
                          std::vector<std::uint32_t>* out);

/// |a ∩ b| without materializing.
std::size_t IntersectionSize(std::span<const std::uint32_t> a,
                             std::span<const std::uint32_t> b);

/// Instruction-set tiers the pairwise kernels exist for.
enum class IntersectionArch { kScalar, kSse4, kAvx2 };

/// Metrics/logging name: "scalar", "sse4", or "avx2".
const char* IntersectionArchName(IntersectionArch arch);

/// The tier process-wide dispatch selected (best available unless
/// CECI_FORCE_SCALAR=1 pinned the scalar fallback). Selection happens on
/// the first intersection call or the first query of this function.
IntersectionArch ActiveIntersectionArch();

/// True when `arch`'s kernels are compiled into this binary and the CPU
/// supports them. kScalar is always available.
bool IntersectionArchAvailable(IntersectionArch arch);

/// Flushes the calling thread's batched `ceci.intersect.*` kernel counters
/// into the metrics registry. Batches also flush automatically every 4096
/// kernel calls and at thread exit; call this before snapshotting the
/// registry on a thread that ran intersections (e.g. end of a query).
void FlushIntersectionThreadStats();

/// Runs one specific tier's pairwise kernel, bypassing both dispatch and
/// the galloping heuristic. For differential tests and microbenchmarks.
/// Returns false (leaving outputs untouched beyond a clear) when the arch
/// is unavailable.
bool IntersectSortedWithArch(IntersectionArch arch,
                             std::span<const std::uint32_t> a,
                             std::span<const std::uint32_t> b,
                             std::vector<std::uint32_t>* out);
bool IntersectionSizeWithArch(IntersectionArch arch,
                              std::span<const std::uint32_t> a,
                              std::span<const std::uint32_t> b,
                              std::size_t* size);

}  // namespace ceci

#endif  // CECI_UTIL_INTERSECTION_H_
