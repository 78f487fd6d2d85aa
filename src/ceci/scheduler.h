// Parallel embedding enumeration across embedding clusters (paper §4.2).
//
// Three workload-distribution policies:
//  * kStatic (ST): clusters are dealt round-robin to workers up front, in
//    pivot order.
//  * kCoarseDynamic (CGD): workers pull whole clusters, largest first, from
//    the root order through one atomic cursor.
//  * kFineDynamic (FGD): extreme clusters are decomposed first (§4.3) and
//    the resulting sub-cluster units are pulled dynamically.
// Under ST and CGD a cluster is one root candidate: workers enter the
// enumerator with its rank (Enumerator::EnumerateFromRanks), and no work
// unit is built. The root order comes from the prepared query
// (PreparedQuery::root_order), so a warm Execute sorts nothing.
#ifndef CECI_CECI_SCHEDULER_H_
#define CECI_CECI_SCHEDULER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ceci/enumerator.h"
#include "ceci/extreme_cluster.h"
#include "ceci/profiler.h"
#include "ceci/query_tree.h"
#include "util/thread_pool.h"

namespace ceci {

enum class Distribution { kStatic, kCoarseDynamic, kFineDynamic };

std::string DistributionName(Distribution d);

struct ScheduleOptions {
  std::size_t threads = 1;
  Distribution distribution = Distribution::kCoarseDynamic;
  /// Extreme-cluster threshold factor (§4.3; the paper fixes 0.2 in §6.3).
  double beta = 0.2;
  /// Stop after this many embeddings across all workers; 0 = unlimited.
  std::uint64_t limit = 0;
  EnumOptions enumeration;
  /// Compute the cluster/work-unit skew summaries (profiler support).
  /// Off by default: the summaries sort a copy of the cardinalities, which
  /// a counter-only run should not pay for.
  bool collect_profile = false;
  /// Cooperative execution budget shared by all workers (util/budget.h);
  /// null = unbounded. The scheduler charges FGD's work-unit pool and each
  /// worker's enumeration state against it and stops pulling units once
  /// it is exhausted. The root order is charged by whoever computed it
  /// (CeciMatcher::Prepare charges it with the arena).
  BudgetTracker* budget = nullptr;
  /// Pool for workers 1..N-1 (CeciMatcher passes its kept helpers or the
  /// serving pool). The calling thread runs worker 0 and workers 1..N-1
  /// are dispatched as one TaskGroup on the pool — the pool may
  /// concurrently carry other queries' workers, and a saturated pool
  /// degrades to the caller running every worker loop sequentially
  /// (work-conserving, never deadlocking). When null, the call makes a
  /// ThreadPool of `threads - 1` for workers 1..N-1 and dispatches to it
  /// the same way.
  ThreadPool* pool = nullptr;
};

struct ScheduleResult {
  std::uint64_t embeddings = 0;
  EnumStats stats;               // aggregated over workers
  /// Per-worker CPU time (thread CPU clock). On a machine with enough
  /// cores this matches per-worker wall time; on smaller machines it is
  /// the simulated per-core busy time, so max(worker_seconds) is the
  /// simulated parallel makespan and their sum the serial-equivalent work.
  std::vector<double> worker_seconds;
  /// Work units each worker pulled/executed (one increment per unit — a
  /// root under ST and CGD; kept even without collect_profile — it is as
  /// cheap as the cursor fetch).
  std::vector<std::uint64_t> worker_units;
  /// Embeddings each worker emitted; sums to `embeddings` (termination-
  /// accounting invariant, checked by AuditMatchResult).
  std::vector<std::uint64_t> worker_embeddings;
  /// A visitor returned false (the cross-worker abort flag fired).
  bool visitor_abort = false;
  /// The shared emission limit was reached.
  bool limit_hit = false;
  /// Under ST and CGD: work_units is the root order's length, threshold
  /// kCardinalityCap, and seconds ≈ 0 (nothing is cut).
  DecomposeStats decomposition;
  /// Skew over embedding-cluster cardinalities (pivot workloads, before
  /// decomposition) and over work-unit cardinalities (after). Filled only
  /// when ScheduleOptions::collect_profile.
  SkewSummary cluster_skew;
  SkewSummary unit_skew;
  double seconds = 0.0;          // wall time of the enumeration phase

  /// Simulated parallel completion time: max over workers.
  double SimulatedMakespan() const {
    double m = 0.0;
    for (double w : worker_seconds) m = m > w ? m : w;
    return m;
  }
  /// Total CPU work across workers.
  double TotalWork() const {
    double s = 0.0;
    for (double w : worker_seconds) s += w;
    return s;
  }
};

/// Runs parallel enumeration over a frozen CECI whose root order
/// (RootOrder of `index`, as PreparedQuery::root_order holds it) is
/// `root_order`. `visitor` may be null (count only); it is invoked
/// concurrently from worker threads when set.
ScheduleResult RunParallelEnumeration(const Graph& data, const QueryTree& tree,
                                      const FlatCeciIndex& index,
                                      std::span<const std::uint32_t> root_order,
                                      const ScheduleOptions& options,
                                      const EmbeddingVisitor* visitor);

/// The same for an index without a prepared root order: computes
/// RootOrder first.
ScheduleResult RunParallelEnumeration(const Graph& data, const QueryTree& tree,
                                      const FlatCeciIndex& index,
                                      const ScheduleOptions& options,
                                      const EmbeddingVisitor* visitor);

}  // namespace ceci

#endif  // CECI_CECI_SCHEDULER_H_
