#include "util/intersection.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/check.h"
#include "util/intersection_kernels.h"
#include "util/metrics_registry.h"

namespace ceci {
namespace {

using intersection_internal::CountMergeScalar;
using intersection_internal::CountScalarTail;
using intersection_internal::GetAvx2Kernels;
using intersection_internal::GetSse4Kernels;
using intersection_internal::IntersectMergeScalar;
using intersection_internal::kKernelPad;
using intersection_internal::KernelTable;
using intersection_internal::MergeScalarTail;

// One side much smaller: for each element of the small side, gallop in the
// large side. Threshold chosen empirically; a factor of 32 keeps the
// linear-scan kernels for near-equal sizes.
constexpr std::size_t kGallopFactor = 32;

// Finds the first index i >= lo with hay[i] >= needle using exponential
// probing followed by binary search.
std::size_t GallopLowerBound(const std::uint32_t* hay, std::size_t size,
                             std::size_t lo, std::uint32_t needle) {
  std::size_t step = 1;
  std::size_t hi = lo;
  while (hi < size && hay[hi] < needle) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  hi = std::min(hi, size);
  return static_cast<std::size_t>(
      std::lower_bound(hay + lo, hay + hi, needle) - hay);
}

// Galloping intersect; `out` may alias either input (writes trail reads of
// both sides: the output index never exceeds the small side's cursor nor
// the large side's search floor).
std::size_t IntersectGallopRaw(const std::uint32_t* small, std::size_t ns,
                               const std::uint32_t* large, std::size_t nl,
                               std::uint32_t* out) {
  std::size_t pos = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    const std::uint32_t x = small[i];
    pos = GallopLowerBound(large, nl, pos, x);
    if (pos == nl) break;
    if (large[pos] == x) {
      out[n++] = x;
      ++pos;
    }
  }
  return n;
}

std::size_t CountGallopRaw(const std::uint32_t* small, std::size_t ns,
                           const std::uint32_t* large, std::size_t nl) {
  std::size_t pos = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    pos = GallopLowerBound(large, nl, pos, small[i]);
    if (pos == nl) break;
    if (large[pos] == small[i]) {
      ++count;
      ++pos;
    }
  }
  return count;
}

constexpr KernelTable kScalarTable = {&IntersectMergeScalar,
                                      &CountMergeScalar};

bool CpuSupports(IntersectionArch arch) {
#if defined(__x86_64__) || defined(__i386__)
  switch (arch) {
    case IntersectionArch::kScalar:
      return true;
    case IntersectionArch::kSse4:
      return __builtin_cpu_supports("sse4.2") != 0;
    case IntersectionArch::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
  }
  return false;
#else
  return arch == IntersectionArch::kScalar;
#endif
}

const KernelTable* CompiledTable(IntersectionArch arch) {
  switch (arch) {
    case IntersectionArch::kScalar:
      return &kScalarTable;
    case IntersectionArch::kSse4:
      return GetSse4Kernels();
    case IntersectionArch::kAvx2:
      return GetAvx2Kernels();
  }
  return nullptr;
}

struct Dispatch {
  IntersectionArch arch = IntersectionArch::kScalar;
  // Null when the scalar tier was selected: the merge kernels are then
  // called directly and attributed to the scalar_merge path counter.
  const KernelTable* simd = nullptr;
};

Dispatch SelectDispatch() {
  Dispatch d;
  const char* force = std::getenv("CECI_FORCE_SCALAR");
  if (force == nullptr || std::strcmp(force, "1") != 0) {
    for (IntersectionArch arch :
         {IntersectionArch::kAvx2, IntersectionArch::kSse4}) {
      const KernelTable* table = CompiledTable(arch);
      if (table != nullptr && CpuSupports(arch)) {
        d.arch = arch;
        d.simd = table;
        break;
      }
    }
  }
  MetricsRegistry::Global()
      .GetCounter(std::string("ceci.intersect.dispatch.") +
                  IntersectionArchName(d.arch))
      .Increment();
  return d;
}

const Dispatch& GetDispatch() {
  static const Dispatch dispatch = SelectDispatch();
  return dispatch;
}

// Kernel-level counters, batched thread-locally so the hot path never
// touches the (sharded but still atomic) registry cells per call. Flushed
// every kFlushEvery kernel invocations and at thread exit; the registry
// singleton is leaky, so the thread-exit flush is always safe.
struct TlsKernelStats {
  std::uint64_t calls = 0;
  std::uint64_t elements_in = 0;
  std::uint64_t elements_out = 0;
  std::uint64_t path_gallop = 0;
  std::uint64_t path_vector = 0;
  std::uint64_t path_scalar_merge = 0;

  static constexpr std::uint64_t kFlushEvery = 4096;

  ~TlsKernelStats() { Flush(); }

  void Flush() {
    if (calls == 0) return;
    MetricsRegistry& reg = MetricsRegistry::Global();
    static Counter& c_calls = reg.GetCounter("ceci.intersect.calls");
    static Counter& c_in = reg.GetCounter("ceci.intersect.elements_in");
    static Counter& c_out = reg.GetCounter("ceci.intersect.elements_out");
    static Counter& c_gallop = reg.GetCounter("ceci.intersect.path.gallop");
    static Counter& c_vector = reg.GetCounter("ceci.intersect.path.vector");
    static Counter& c_merge =
        reg.GetCounter("ceci.intersect.path.scalar_merge");
    c_calls.Add(calls);
    c_in.Add(elements_in);
    c_out.Add(elements_out);
    c_gallop.Add(path_gallop);
    c_vector.Add(path_vector);
    c_merge.Add(path_scalar_merge);
    *this = TlsKernelStats{};
  }

  void Account(std::size_t in, std::size_t out, std::uint64_t* path) {
    ++calls;
    elements_in += in;
    elements_out += out;
    ++*path;
    if (calls >= kFlushEvery) Flush();
  }
};

thread_local TlsKernelStats tls_kernel_stats;

// Pairwise core: picks gallop vs the dispatched kernel and records path
// counters. `out` may alias `a` or provide min(na, nb) + kKernelPad slots.
std::size_t IntersectCore(const std::uint32_t* a, std::size_t na,
                          const std::uint32_t* b, std::size_t nb,
                          std::uint32_t* out) {
  TlsKernelStats& stats = tls_kernel_stats;
  const std::size_t ns = std::min(na, nb);
  const std::size_t nl = std::max(na, nb);
  std::size_t n;
  if (ns == 0) {
    n = 0;
    stats.Account(na + nb, 0, &stats.path_scalar_merge);
  } else if (nl / ns >= kGallopFactor) {
    n = na <= nb ? IntersectGallopRaw(a, na, b, nb, out)
                 : IntersectGallopRaw(b, nb, a, na, out);
    stats.Account(na + nb, n, &stats.path_gallop);
  } else if (const Dispatch& d = GetDispatch(); d.simd != nullptr) {
    n = d.simd->intersect(a, na, b, nb, out);
    stats.Account(na + nb, n, &stats.path_vector);
  } else {
    n = IntersectMergeScalar(a, na, b, nb, out);
    stats.Account(na + nb, n, &stats.path_scalar_merge);
  }
  return n;
}

std::size_t CountCore(const std::uint32_t* a, std::size_t na,
                      const std::uint32_t* b, std::size_t nb) {
  TlsKernelStats& stats = tls_kernel_stats;
  const std::size_t ns = std::min(na, nb);
  const std::size_t nl = std::max(na, nb);
  std::size_t n;
  if (ns == 0) {
    n = 0;
    stats.Account(na + nb, 0, &stats.path_scalar_merge);
  } else if (nl / ns >= kGallopFactor) {
    n = na <= nb ? CountGallopRaw(a, na, b, nb)
                 : CountGallopRaw(b, nb, a, na);
    stats.Account(na + nb, n, &stats.path_gallop);
  } else if (const Dispatch& d = GetDispatch(); d.simd != nullptr) {
    n = d.simd->count(a, na, b, nb);
    stats.Account(na + nb, n, &stats.path_vector);
  } else {
    n = CountMergeScalar(a, na, b, nb);
    stats.Account(na + nb, n, &stats.path_scalar_merge);
  }
  return n;
}

}  // namespace

namespace intersection_internal {

std::size_t IntersectMergeScalar(const std::uint32_t* a, std::size_t na,
                                 const std::uint32_t* b, std::size_t nb,
                                 std::uint32_t* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  return MergeScalarTail(a, na, i, b, nb, j, out, 0);
}

std::size_t CountMergeScalar(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb) {
  return CountScalarTail(a, na, 0, b, nb, 0);
}

}  // namespace intersection_internal

const char* IntersectionArchName(IntersectionArch arch) {
  switch (arch) {
    case IntersectionArch::kScalar:
      return "scalar";
    case IntersectionArch::kSse4:
      return "sse4";
    case IntersectionArch::kAvx2:
      return "avx2";
  }
  return "unknown";
}

IntersectionArch ActiveIntersectionArch() { return GetDispatch().arch; }

void FlushIntersectionThreadStats() { tls_kernel_stats.Flush(); }

bool IntersectionArchAvailable(IntersectionArch arch) {
  return CompiledTable(arch) != nullptr && CpuSupports(arch);
}

bool IntersectSortedWithArch(IntersectionArch arch,
                             std::span<const std::uint32_t> a,
                             std::span<const std::uint32_t> b,
                             std::vector<std::uint32_t>* out) {
  out->clear();
  if (!IntersectionArchAvailable(arch)) return false;
  const KernelTable* table = CompiledTable(arch);
  out->resize(std::min(a.size(), b.size()) + kKernelPad);
  const std::size_t n =
      table->intersect(a.data(), a.size(), b.data(), b.size(), out->data());
  out->resize(n);
  return true;
}

bool IntersectionSizeWithArch(IntersectionArch arch,
                              std::span<const std::uint32_t> a,
                              std::span<const std::uint32_t> b,
                              std::size_t* size) {
  if (!IntersectionArchAvailable(arch)) return false;
  *size = CompiledTable(arch)->count(a.data(), a.size(), b.data(), b.size());
  return true;
}

void IntersectSorted(std::span<const std::uint32_t> a,
                     std::span<const std::uint32_t> b,
                     std::vector<std::uint32_t>* out) {
  // Every kernel (merge, galloping, SIMD) assumes sorted duplicate-free
  // input; violating that returns garbage, not an error.
  CECI_DCHECK(std::is_sorted(a.begin(), a.end()));
  CECI_DCHECK(std::is_sorted(b.begin(), b.end()));
  out->clear();
  if (a.empty() || b.empty()) return;
  out->resize(std::min(a.size(), b.size()) + kKernelPad);
  const std::size_t n =
      IntersectCore(a.data(), a.size(), b.data(), b.size(), out->data());
  out->resize(n);
}

void IntersectSortedInPlace(std::vector<std::uint32_t>* inout,
                            std::span<const std::uint32_t> b) {
  if (inout->empty()) return;
  if (b.empty()) {
    inout->clear();
    return;
  }
  const std::size_t n = IntersectCore(inout->data(), inout->size(), b.data(),
                                      b.size(), inout->data());
  inout->resize(n);
}

void IntersectSortedMulti(std::span<const std::span<const std::uint32_t>> lists,
                          std::vector<std::uint32_t>* out) {
  for (const auto& list : lists) {
    CECI_DCHECK(std::is_sorted(list.begin(), list.end()));
  }
  out->clear();
  if (lists.empty()) return;
  if (lists.size() == 1) {
    out->assign(lists[0].begin(), lists[0].end());
    return;
  }
  // Seed with the two smallest lists (one out-of-place kernel call), then
  // refine in place against the rest.
  std::size_t s0 = 0;
  for (std::size_t i = 1; i < lists.size(); ++i) {
    if (lists[i].size() < lists[s0].size()) s0 = i;
  }
  std::size_t s1 = s0 == 0 ? 1 : 0;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    if (i != s0 && lists[i].size() < lists[s1].size()) s1 = i;
  }
  out->resize(lists[s0].size() + kKernelPad);
  std::size_t n = IntersectCore(lists[s0].data(), lists[s0].size(),
                                lists[s1].data(), lists[s1].size(),
                                out->data());
  out->resize(n);
  for (std::size_t i = 0; i < lists.size() && !out->empty(); ++i) {
    if (i == s0 || i == s1) continue;
    IntersectSortedInPlace(out, lists[i]);
  }
}

std::size_t IntersectionSize(std::span<const std::uint32_t> a,
                             std::span<const std::uint32_t> b) {
  CECI_DCHECK(std::is_sorted(a.begin(), a.end()));
  CECI_DCHECK(std::is_sorted(b.begin(), b.end()));
  if (a.empty() || b.empty()) return 0;
  return CountCore(a.data(), a.size(), b.data(), b.size());
}

}  // namespace ceci
