// CeciMatcher: the library's top-level subgraph-matching API.
//
// Runs the full CECI pipeline of the paper: preprocessing (§2.2) → CECI
// creation with BFS filtering (§3.2) → reverse-BFS refinement (§3.3) →
// parallel set-intersection enumeration with workload balancing (§4).
//
// Typical use:
//
//   ceci::CeciMatcher matcher(data_graph);
//   ceci::MatchOptions options;
//   options.threads = 8;
//   auto result = matcher.Match(query_graph, options);
//   if (result.ok()) std::cout << result->embedding_count;
#ifndef CECI_CECI_MATCHER_H_
#define CECI_CECI_MATCHER_H_

#include <cstdint>
#include <functional>

#include "ceci/matching_order.h"
#include "ceci/scheduler.h"
#include "ceci/stats.h"
#include "graph/graph.h"
#include "graph/nlc_index.h"
#include "util/budget.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ceci {

struct MatchOptions {
  /// Worker threads for filtering and enumeration.
  std::size_t threads = 1;
  /// Workload distribution policy (§4.2).
  Distribution distribution = Distribution::kCoarseDynamic;
  /// Extreme-cluster threshold factor β (§4.3).
  double beta = 0.2;
  /// Stop after this many embeddings (paper's first-1,024 experiments);
  /// 0 enumerates everything.
  std::uint64_t limit = 0;
  /// Matching-order heuristic (§2.2). Edge-ranked places the vertices
  /// that close cycles early, so non-tree edges prune the search before it
  /// fans out; BFS and path-ranked stay available for the paper's order
  /// ablation.
  OrderStrategy order = OrderStrategy::kEdgeRanked;
  /// List each embedding once, breaking query automorphisms (§2.2).
  bool break_automorphisms = true;
  /// Set-intersection NTE handling (§4); false = edge-verification
  /// ablation.
  bool nte_intersection = true;
  /// Counting fast path for visitor-less matches: the final matching-order
  /// position contributes |candidates| without recursing per candidate.
  /// Exact, and never slower than materializing the last level. Under it
  /// recursive_calls has no completion call per embedding; set false for
  /// the paper's Fig. 18 accounting. A visitor always turns it off.
  bool leaf_count_shortcut = true;
  /// Collect a QueryProfile (MatchResult::profile): per-vertex pipeline
  /// candidate counts, measured index bytes, cluster/work-unit skew, and
  /// worker occupancy. Opt-in; when off no per-candidate instrumentation
  /// runs (every profiled quantity is a counter delta or a post-hoc walk,
  /// same discipline as TraceSpan). See src/ceci/profiler.h.
  bool profile = false;
  /// Enumerate from the arena-backed flat layout (ceci/flat_index.h): after
  /// refinement the index is frozen into one contiguous arena with hybrid
  /// array/bitmap candidate sets, and the enumerator runs in rank space.
  /// Default on — it is the production hot path. Off reproduces the
  /// pointer-layout behaviour exactly (layout A/B comparisons, Table 2).
  bool flat_index = true;
  /// Invoked with the CECI right after construction (refined == false) and
  /// again after refinement (refined == true). Hook for the
  /// invariant auditor (analysis/invariant_auditor.h, `ceci_query --audit`)
  /// and debug-run validation; must not mutate the index. Not called when
  /// preprocessing proves the query infeasible (no index is built), nor
  /// with a partial index after the execution budget trips mid-pipeline.
  std::function<void(const QueryTree& tree, const CeciIndex& index,
                     bool refined)>
      index_inspector;
  /// Invoked with the frozen flat index right after it is built (only when
  /// `flat_index` is set and the pipeline reaches enumeration). Hook for
  /// flat-layout auditing and `ceci_query --save-index`; must not mutate
  /// or retain the reference past the call (Clone() to keep it).
  std::function<void(const QueryTree& tree, const FlatCeciIndex& flat)>
      flat_inspector;
  /// Per-query resource caps: wall-clock deadline, index + enumeration
  /// byte budget, external cancellation token (util/budget.h). Default =
  /// unbounded, zero overhead. When a cap trips, Match() returns a
  /// partial MatchResult whose `termination` names the cap; a tripped
  /// budget mid-build/mid-refine skips the remaining phases (including
  /// the profile — a partial index has no meaningful EXPLAIN).
  ExecutionBudget budget;
  /// Shared worker pool (serving mode; see src/serve/query_service.h).
  /// When set, filtering and enumeration dispatch to this pool instead of
  /// creating a per-query pool/threads: the calling thread always runs
  /// worker 0 inline, so concurrent Match() calls sharing one pool are
  /// work-conserving even when the pool is saturated. The pool must
  /// outlive the call. When null (default), `threads > 1` spins up
  /// per-query threads exactly as before.
  ThreadPool* pool = nullptr;
};

/// Reusable matcher over one data graph. Thread-compatible: concurrent
/// Match() calls on the same instance are safe (all mutable state is
/// per-call); building the NLC index happens once in the constructor.
class CeciMatcher {
 public:
  /// Indexes `data` (neighborhood label counts). The graph must outlive
  /// the matcher.
  explicit CeciMatcher(const Graph& data);

  /// Finds embeddings of `query` in the data graph. `visitor`, when given,
  /// receives each embedding (thread-safe callback required if
  /// options.threads > 1).
  Result<MatchResult> Match(const Graph& query, const MatchOptions& options,
                            const EmbeddingVisitor* visitor = nullptr) const;

  /// Convenience: count all embeddings with default options and `threads`.
  Result<std::uint64_t> Count(const Graph& query,
                              std::size_t threads = 1) const;

  const Graph& data() const { return data_; }
  const NlcIndex& nlc_index() const { return nlc_; }

 private:
  const Graph& data_;
  NlcIndex nlc_;
};

}  // namespace ceci

#endif  // CECI_CECI_MATCHER_H_
