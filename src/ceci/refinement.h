// Reverse-BFS refinement and cardinality computation (paper §3.3, Alg. 2).
//
// Candidates are revisited from the leaves of the query tree up to the
// root. For each (query vertex u, candidate v):
//
//   cardinality(u, v) = Π over tree children u_c of
//                       Σ over v_c ∈ TE[u_c].Find(v), v_c alive,
//                       cardinality(u_c, v_c)
//
// with leaves at 1, and cardinality forced to 0 when v is missing from the
// value union of any incoming NTE list. Zero-cardinality candidates are
// guaranteed to match no embedding and are pruned; the final compaction
// removes dead keys/values from every list. "Alive" is one lookup in a
// CandidateRanks map (4 bytes per data vertex, the only O(|V|) scratch):
// a list value that is no longer a candidate of its owner is absent, adds
// cardinality 0 and is compacted away. The root's cardinalities are
// the per-embedding-cluster workload bounds used by extreme-cluster
// decomposition (§4.3).
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
/// cardinalities. `ranks` is an all-absent map covering every data vertex
/// and is left all-absent, so the caller may hand it on to the freeze; the
/// rest of the scratch is O(|C(u)|) per query vertex. `stats` may be
/// null. When `pruned_per_vertex` is non-null it is resized to the query
/// vertex count and receives, per query vertex u, the number of u's
/// candidates whose cardinality fell to zero (profiler support;
/// the totals already counted in `stats` are unaffected). `budget`, when
/// non-null, is polled once per reverse-BFS vertex and per tree child
/// scanned; on exhaustion refinement stops early, skipping the compaction
/// sweep — the index is then semi-refined and must not be enumerated
/// (the matcher reports the budget's TerminationReason instead).
void RefineCeci(const QueryTree& tree, CandidateRanks* ranks,
                CeciIndex* index, RefineStats* stats,
                std::vector<std::uint64_t>* pruned_per_vertex = nullptr,
                BudgetTracker* budget = nullptr);

/// As above, with a rank map of its own for data vertices
/// [0, data_num_vertices).
inline void RefineCeci(const QueryTree& tree, std::size_t data_num_vertices,
                       CeciIndex* index, RefineStats* stats,
                       std::vector<std::uint64_t>* pruned_per_vertex = nullptr,
                       BudgetTracker* budget = nullptr) {
  CandidateRanks ranks(data_num_vertices);
  RefineCeci(tree, &ranks, index, stats, pruned_per_vertex, budget);
}

}  // namespace ceci

#endif  // CECI_CECI_REFINEMENT_H_
