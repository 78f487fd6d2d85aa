// Execution budgets for bounded matching (resilient execution layer).
//
// An ExecutionBudget caps a single Match() call by wall-clock deadline,
// by bytes of CECI index + enumeration state, and/or by an external
// CancellationToken. The budget is enforced *cooperatively*: the builder
// polls between frontier chunks, refinement between per-vertex passes,
// and the enumerator every `check_stride` recursive calls — the same
// discipline as the cross-worker abort flag, so a tripped budget stops
// every worker within one stride. Hot paths only read one relaxed atomic
// flag; the clock and token are touched on the poll stride.
//
// The first condition observed wins and is reported as the
// TerminationReason on MatchResult, so partial results are labelled
// honestly instead of silently looking complete. See docs/robustness.md.
#ifndef CECI_UTIL_BUDGET_H_
#define CECI_UTIL_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ceci {

/// Why a Match() call returned. Anything but kCompleted means the
/// embedding count is a lower bound over the explored portion.
enum class TerminationReason {
  kCompleted = 0,   // full enumeration (or proven-infeasible query)
  kLimit,           // MatchOptions::limit embeddings emitted
  kDeadline,        // ExecutionBudget::deadline_seconds elapsed
  kMemoryBudget,    // ExecutionBudget::memory_budget_bytes exceeded
  kCancelled,       // token cancelled, or a visitor returned false
};

/// Stable lower_snake name ("completed", "deadline", ...) used by the
/// stats JSON, the CLI, and the auditor.
std::string TerminationReasonName(TerminationReason reason);

/// External cancellation handle. The requesting side (another thread, a
/// signal handler shim, a serving frontend) calls RequestCancel(); every
/// worker observes it at the next poll. Reusable only per logical query:
/// once cancelled it stays cancelled.
class CancellationToken {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query resource caps. Default-constructed = unbounded (no overhead:
/// an inactive budget installs no tracker and no polling).
struct ExecutionBudget {
  /// Wall-clock deadline for the whole Match() call; 0 = none.
  double deadline_seconds = 0.0;
  /// Byte cap covering Preprocess's filter table, the CECI index (charged
  /// incrementally per built vertex via CeciBytes, then the frozen arena),
  /// the work-unit pool, and per-worker enumeration state; 0 = none.
  std::size_t memory_budget_bytes = 0;
  /// External cancellation; null = none. Must outlive the Match() call.
  const CancellationToken* token = nullptr;
  /// Recursive calls between deadline/token polls per enumeration worker.
  /// The deadline is therefore observed within one stride of backtracking
  /// steps (builder/refinement poll at their own per-chunk granularity).
  std::uint64_t check_stride = 4096;

  bool active() const {
    return deadline_seconds > 0.0 || memory_budget_bytes > 0 ||
           token != nullptr;
  }
};

/// Budget outcome mirrored into MatchStats. `cancelled` also covers a
/// visitor returning false (both surface as kCancelled).
struct BudgetStats {
  bool active = false;
  double deadline_seconds = 0.0;
  std::size_t memory_budget_bytes = 0;
  /// Bytes charged against the budget (monotone; the peak equals the
  /// total because nothing is ever uncharged within one query).
  std::size_t charged_bytes = 0;
  /// Deadline/token polls actually performed across all phases/workers.
  std::uint64_t polls = 0;
  bool deadline_exceeded = false;
  bool memory_exceeded = false;
  bool cancelled = false;
};

/// Shared, thread-safe enforcement state for one Match() call. Writers
/// race benignly: the first exhaustion reason recorded wins; everything
/// else is monotone counters.
class BudgetTracker {
 public:
  explicit BudgetTracker(const ExecutionBudget& budget);

  /// False for a default ExecutionBudget: callers skip all polling.
  bool active() const { return active_; }

  /// One relaxed load — safe on any hot path.
  bool Exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

  /// Checks the cancellation token and the wall clock. Returns
  /// Exhausted() so call sites can `if (tracker->Poll()) break;`.
  bool Poll();

  /// Adds `bytes` to the tracked footprint and trips the memory budget
  /// when the total exceeds it. Returns Exhausted().
  bool ChargeBytes(std::size_t bytes);

  /// kCompleted while nothing tripped; otherwise the first reason seen.
  TerminationReason reason() const;

  std::size_t charged_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t polls() const {
    return polls_.load(std::memory_order_relaxed);
  }
  std::uint64_t stride() const { return stride_; }
  double ElapsedSeconds() const;

  BudgetStats ToStats() const;

 private:
  void SetReason(TerminationReason reason);

  // Lock-free by design: the tracker sits on every enumeration worker's
  // poll stride, so it deliberately holds NO Mutex and NO CECI_GUARDED_BY
  // fields. Its concurrency contract is carried entirely by the atomics
  // below:
  //   - budget_/active_/stride_/start_ are written once in the
  //     constructor and read-only afterwards (safe to share unannotated);
  //   - reason_ is decided by a first-wins CAS (SetReason): the worker
  //     whose compare_exchange from 0 succeeds owns the TerminationReason,
  //     later trippers keep it intact;
  //   - exhausted_ is a monotone false->true flag stored after the CAS;
  //     both are relaxed, so workers treat it only as a stop hint —
  //     reason() is authoritative once workers are joined (the join is
  //     the synchronization point);
  //   - bytes_/polls_ are monotone relaxed counters (statistics only).
  // Capability analysis intentionally has nothing to check here; TSan
  // covers this class through the concurrent serving tests.
  ExecutionBudget budget_;
  bool active_ = false;
  std::uint64_t stride_ = 4096;
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> exhausted_{false};
  std::atomic<int> reason_{0};  // 0 = none; else int(TerminationReason)
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> polls_{0};
};

}  // namespace ceci

#endif  // CECI_UTIL_BUDGET_H_
