// CECI creation with BFS-based filtering (paper §3.2, Algorithm 1).
//
// The data graph is explored from the cluster pivots level by level along
// the BFS query tree. For each query vertex, the frontier (its tree
// parent's candidate set) is expanded through four filters: label (LF),
// degree (DF), neighborhood label count (NLCF), and the empty-key cascade
// (a frontier vertex whose expansion yields no candidates can match no
// embedding and is removed from the parent, together with its runs in
// sibling lists). The first three are read, one byte per scanned
// neighbour, from the FilterTable that preprocessing wrote. NTE candidate
// lists are then built for every non-tree edge by expanding the NTE
// parent's candidates against the child's candidate set. Every expansion
// appends its survivors straight to the list's pool as one run
// (ceci_index.h); the cascades drop runs and keys in place.
#ifndef CECI_CECI_CECI_BUILDER_H_
#define CECI_CECI_CECI_BUILDER_H_

#include <cstdint>
#include <type_traits>

#include "ceci/ceci_index.h"
#include "ceci/preprocess.h"
#include "ceci/query_tree.h"
#include "graph/graph.h"
#include "graph/nlc_index.h"
#include "util/budget.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ceci {

struct BuildOptions {
  /// Optional pool for parallel frontier expansion (§3.6: dynamic pull
  /// distribution with thread-private bins merged afterwards). Null runs
  /// serially; a build over an OnDemandCsr requires null.
  ThreadPool* pool = nullptr;
  /// Frontiers smaller than this expand serially even with a pool.
  std::size_t parallel_threshold = 2048;
  /// Build NTE candidate lists (the CECI approach). CFLMatch-style
  /// auxiliary structures keep TE candidates only (§4: "existing solutions
  /// only have auxiliary data structure equivalent to TE_Candidates");
  /// the CFL baseline sets this to false.
  bool build_nte_lists = true;
  /// The cluster pivots: a sorted subset of the root's candidates
  /// (Preprocessed::root_candidates, or the share of them a machine of the
  /// distributed runtime (§5) owns). Unset reads them off the filter table.
  const std::vector<VertexId>* root_candidates = nullptr;
  /// Preprocess's LF/DF/NLC verdicts (Preprocessed::filter). Build() keeps
  /// its candidate flags in bit 7 of the same bytes, so a table serves one
  /// build. Unset makes Build() compute its own table first.
  FilterTable* filter_table = nullptr;
  /// When set, one record per matching-order vertex (root first) is
  /// appended: the candidate count right after that vertex's TE expansion
  /// and union, and the per-filter rejection deltas that produced it. The
  /// records are deltas of counters Build() maintains anyway, so the hot
  /// loops are untouched (profiler support; see src/ceci/profiler.h).
  std::vector<struct BuildVertexStats>* vertex_stats = nullptr;
  /// Cooperative execution budget (util/budget.h); null = unbounded.
  /// Build() polls the deadline/token between frontier chunks and per
  /// matching-order vertex, and charges each vertex's slice of the index
  /// (CeciBytes of its keys, values and candidates) as soon as it is
  /// built. On
  /// exhaustion the loop exits early and the returned index is partial —
  /// callers must check the tracker before refining or enumerating it.
  BudgetTracker* budget = nullptr;
};

/// One matching-order vertex's filtering record (BuildOptions::vertex_stats).
struct BuildVertexStats {
  VertexId u = 0;
  /// |C(u)| immediately after LF/DF/NLCF expansion and value union —
  /// before later vertices' empty-key cascades shrink it. For the root:
  /// the initial pivot scan (its rejection counts stay 0; the scan is not
  /// per-filter instrumented).
  std::size_t candidates_filtered = 0;
  std::uint64_t rejected_label = 0;
  std::uint64_t rejected_degree = 0;
  std::uint64_t rejected_nlc = 0;
};

struct BuildStats {
  /// Candidates rejected by each filter during TE expansion.
  std::uint64_t rejected_label = 0;
  std::uint64_t rejected_degree = 0;
  std::uint64_t rejected_nlc = 0;
  /// Frontier vertices removed by the empty-key cascade.
  std::uint64_t cascade_removals = 0;
  /// NTE parent candidates removed because their NTE expansion was empty.
  std::uint64_t nte_cascade_removals = 0;
  /// Frontier vertices expanded (adjacency-list requests) and adjacency
  /// entries scanned — the IO units charged by distsim's shared-storage
  /// cost model (§5, Fig. 20).
  std::uint64_t frontier_expansions = 0;
  std::uint64_t neighbors_scanned = 0;
};

/// What Build returns: a resident Graph builds infallibly; a store's reads
/// can fail, so its build returns the first failed read instead.
template <typename Source>
using BuildResult = std::conditional_t<std::is_same_v<Source, Graph>,
                                       CeciIndex, Result<CeciIndex>>;

/// Builds the unrefined CECI for (data, query) under `tree`'s matching
/// order. Candidate sets are exact w.r.t. completeness (Lemma 1): no true
/// candidate is ever removed.
///
/// `Source` is a resident Graph, or an OnDemandCsr (graphio/binary_csr.h)
/// for §5's shared-storage mode: each frontier expansion is then one
/// counted storage read, so BuildStats::frontier_expansions equals the
/// store's requests. Both are explicitly instantiated in ceci_builder.cc.
/// A store build runs serially (BuildOptions::pool must be null).
template <typename Source>
class CeciBuilder {
 public:
  CeciBuilder(const Source& data, const NlcIndex& data_nlc)
      : data_(data), nlc_(data_nlc) {}

  /// Runs Algorithm 1 plus NTE construction. `stats` may be null.
  BuildResult<Source> Build(const Graph& query, const QueryTree& tree,
                            const BuildOptions& options,
                            BuildStats* stats) const;

 private:
  const Source& data_;
  const NlcIndex& nlc_;
};

}  // namespace ceci

#endif  // CECI_CECI_CECI_BUILDER_H_
