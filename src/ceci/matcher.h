// CeciMatcher: the library's top-level subgraph-matching API.
//
// Runs the full CECI pipeline of the paper in two stages. Prepare() does
// everything that depends only on the query: preprocessing (§2.2) → CECI
// creation with BFS filtering (§3.2) → reverse-BFS refinement (§3.3) →
// freeze into the flat arena (ceci/flat_index.h) → the choice of the
// automorphism-breaking restriction set from that arena. Its PreparedQuery is
// immutable, so it can be enumerated any number of times. Execute() runs
// parallel set-intersection enumeration with workload balancing (§4) over
// it. Match() is Execute(Prepare()).
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
#include <vector>

#include "ceci/flat_index.h"
#include "ceci/matching_order.h"
#include "ceci/scheduler.h"
#include "ceci/stats.h"
#include "ceci/symmetry.h"
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

/// Per-vertex build and refine counts behind QueryProfile. O(|V_q|) and
/// read off counters the pipeline keeps anyway, so every Prepare collects
/// them and any later Execute can report a profile.
struct VertexPipelineCounts {
  /// One record per matching-order position, root first
  /// (BuildOptions::vertex_stats).
  std::vector<BuildVertexStats> filtered;
  /// |C(u)| after build (post-cascade, pre-refinement), by query vertex.
  std::vector<std::size_t> built;
  /// Candidates refinement pruned, by query vertex.
  std::vector<std::uint64_t> pruned;
};

/// What CeciMatcher::Prepare hands to Execute: the query's tree, the
/// chosen restriction set and the frozen index, plus the accounting of
/// the work that produced them. Immutable once returned; a cache shares one as
/// std::shared_ptr<const PreparedQuery> across concurrent Execute calls.
struct PreparedQuery {
  QueryTree tree;
  SymmetryConstraints symmetry;
  /// The refined CECI frozen into its arena. Empty when `infeasible` or
  /// when the budget tripped before the freeze.
  FlatCeciIndex flat;
  /// Some query vertex has no candidates: zero embeddings, a complete
  /// answer.
  bool infeasible = false;
  /// kCompleted, or the cap that tripped mid-Prepare. A partial prepare is
  /// never enumerated; Execute returns it labelled.
  TerminationReason termination = TerminationReason::kCompleted;
  /// Preprocess/build/refine/freeze/plan times, their counters, and the index
  /// accounting (§3.4); enumeration fields stay zero.
  MatchStats stats;
  VertexPipelineCounts counts;

  bool complete() const {
    return termination == TerminationReason::kCompleted;
  }
};

/// The build → refine → freeze stage of CeciMatcher::Prepare (§3.2-§3.3),
/// public for callers that preprocess once and build one index per
/// partition (dist/supervisor.h, distsim/dist_matcher.h). Builds the CECI
/// of `query` on `tree` from `build`'s pivots and filter verdicts
/// (releasing `*build.filter_table` once the build has read it), refines
/// it, and freezes it; the staging index is dropped on return. Fills the
/// build, refine and freeze fields of `stats`, with `ceci_bytes{,_unrefined}`
/// from CeciBytes. `counts`, when non-null, receives the per-vertex
/// profile counts. Returns an empty index when `build.budget` trips before
/// the frozen arena is charged.
FlatCeciIndex BuildRefineFreeze(const Graph& data, const NlcIndex& nlc,
                                const Graph& query, const QueryTree& tree,
                                const BuildOptions& build, MatchStats* stats,
                                VertexPipelineCounts* counts = nullptr);

/// Reusable matcher over one data graph. Thread-compatible: concurrent
/// Prepare/Execute/Match calls on the same instance are safe (all mutable
/// state is per-call); building the NLC index happens once in the
/// constructor.
class CeciMatcher {
 public:
  /// Indexes `data` (neighborhood label counts). The graph must outlive
  /// the matcher.
  explicit CeciMatcher(const Graph& data);

  /// Finds embeddings of `query` in the data graph: Execute(Prepare()),
  /// with one budget tracker spanning both stages. `visitor`, when given,
  /// receives each embedding (thread-safe callback required if
  /// options.threads > 1).
  Result<MatchResult> Match(const Graph& query, const MatchOptions& options,
                            const EmbeddingVisitor* visitor = nullptr) const;

  /// Stage 1: preprocess, build, refine and freeze `query`, then choose
  /// its restriction set: the Grochow–Kellis set or its mirror, whichever
  /// EstimateRestrictionCost rates cheaper on the frozen index. Reads
  /// options.order, break_automorphisms, threads/pool (parallel build)
  /// and budget; the budget is first charged Preprocess's filter table
  /// (|V_q| × |V_data| bytes) and polled before it is allocated. `budget` is the tracker to run under —
  /// pass the same one to Execute so the deadline spans both stages; null
  /// makes a fresh one from options.budget. A tripped budget returns a
  /// PreparedQuery whose `termination` names the cap. Fails only on
  /// malformed queries.
  Result<PreparedQuery> Prepare(const Graph& query, const MatchOptions& options,
                                BudgetTracker* budget = nullptr) const;

  /// Stage 2: enumerate `prepared` (built by this matcher's data graph)
  /// under the runtime options — threads, pool, distribution, beta, limit,
  /// nte_intersection, leaf_count_shortcut, profile, budget. Fills the
  /// termination reason, the enumeration stats and, under
  /// options.profile, the QueryProfile, and exports the query to the
  /// global MetricsRegistry. `cache_hit` marks a prepared query served
  /// again from a cache: its preprocess/build/refine/freeze/plan times then
  /// report zero. stats.total_seconds is the sum of the phase times.
  MatchResult Execute(const PreparedQuery& prepared,
                      const MatchOptions& options,
                      const EmbeddingVisitor* visitor = nullptr,
                      BudgetTracker* budget = nullptr,
                      bool cache_hit = false) const;

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
