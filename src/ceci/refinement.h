// Reverse-BFS refinement and cardinality computation (paper §3.3, Alg. 2).
//
// Candidates are revisited from the leaves of the query tree up to the
// root. For each (query vertex u, candidate v):
//
//   cardinality(u, v) = Π over tree children u_c of
//                       Σ over v_c ∈ TE[u_c]'s run of v, v_c alive,
//                       cardinality(u_c, v_c)
//
// with leaves at 1, and cardinality forced to 0 when v is missing from the
// value union of any incoming NTE list. The run of v is TE[u_c]'s run at
// v's rank. "Alive" is one lookup in a CandidateRanks map (4 bytes per
// data vertex, the only O(|V|) scratch): a cascade leftover is absent, a
// candidate pruned earlier is still in place at cardinality 0. A final
// sweep drops the dead candidates, their TE runs and NTE keys, and
// rewrites every surviving value to its rank among the survivors. The
// root's cardinalities are the per-embedding-cluster workload bounds used
// by extreme-cluster decomposition (§4.3).
#ifndef CECI_CECI_REFINEMENT_H_
#define CECI_CECI_REFINEMENT_H_

#include <cstdint>

#include "ceci/ceci_index.h"
#include "ceci/query_tree.h"
#include "util/budget.h"

namespace ceci {

struct RefineStats {
  /// Candidates removed (cardinality fell to zero).
  std::uint64_t pruned_candidates = 0;
  /// Candidate edges removed during the compaction sweep.
  std::uint64_t pruned_edges = 0;
  /// Sum of pivot cardinalities (upper bound on total embeddings).
  Cardinality total_cardinality = 0;
};

/// Refines `index` in place (reverse matching order) and fills per-candidate
/// cardinalities; afterwards every TE/NTE value is a rank (the CeciIndex
/// contract). The rank map covers data vertices [0, data_num_vertices);
/// the rest of the scratch is O(|C(u)|) per query vertex. `stats` may be
/// null. When `pruned_per_vertex` is non-null it is resized to the query
/// vertex count and receives, per query vertex u, the number of u's
/// candidates whose cardinality fell to zero (profiler support; the totals
/// already counted in `stats` are unaffected). `budget`, when non-null, is
/// polled once per reverse-BFS vertex and per tree child scanned; on
/// exhaustion refinement stops early, skipping the compaction sweep — the
/// index is then semi-refined and must not be enumerated (the matcher
/// reports the budget's TerminationReason instead).
void RefineCeci(const QueryTree& tree, std::size_t data_num_vertices,
                CeciIndex* index, RefineStats* stats,
                std::vector<std::uint64_t>* pruned_per_vertex = nullptr,
                BudgetTracker* budget = nullptr);

}  // namespace ceci

#endif  // CECI_CECI_REFINEMENT_H_
