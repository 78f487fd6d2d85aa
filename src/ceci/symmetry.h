// Automorphism breaking (paper §2.2).
//
// Symmetric query vertices make every embedding appear once per query
// automorphism. The paper combines TurboIso's NEC equivalence groups with
// the ordering-based symmetry breaking of Grochow & Kellis [16]. We
// implement the full Grochow–Kellis scheme: enumerate Aut(G_q) (queries are
// small), then repeatedly pick the least vertex with a non-trivial orbit,
// emit M[v] < M[w] for every other orbit member w, and descend into the
// stabilizer. The resulting conditions break *all* automorphisms, so each
// embedding is listed exactly once.
//
// The direction of each condition is a free choice: the mirror set, where
// every M[v] < M[w] becomes M[v] > M[w], is the same scheme under the
// order-reversing relabelling of data ids, so it too lists one embedding
// per automorphism orbit (in general a different representative).
// Which of the two searches less depends on where the hubs sit in id
// order, so each query picks one from its refined index
// (EstimateRestrictionCost in ceci/enumerator.h).
#ifndef CECI_CECI_SYMMETRY_H_
#define CECI_CECI_SYMMETRY_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace ceci {

/// Ordering constraints that kill automorphisms.
class SymmetryConstraints {
 public:
  /// M[smaller] < M[larger] must hold in every reported embedding.
  struct Constraint {
    VertexId smaller;
    VertexId larger;
  };

  /// Computes the automorphism group of `query` and derives ordering
  /// constraints. If automorphism enumeration exceeds an internal search
  /// budget (pathologically symmetric large queries), returns an empty set
  /// — callers then enumerate automorphic duplicates, which is safe but
  /// redundant.
  static SymmetryConstraints Compute(const Graph& query);

  /// An empty constraint set (automorphism breaking disabled; its
  /// automorphism_count() is 0).
  static SymmetryConstraints None(std::size_t num_query_vertices);

  /// Rebuilds a stored set (CEIX images record the chosen one). Every pair
  /// must name two distinct vertices below `num_query_vertices` (the
  /// reader checks this first).
  static SymmetryConstraints FromPairs(std::size_t num_query_vertices,
                                       std::vector<Constraint> constraints,
                                       std::size_t automorphism_count,
                                       bool mirrored);

  /// The mirror set: every M[a] < M[b] becomes M[a] > M[b].
  SymmetryConstraints Mirrored() const;

  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Query vertices w whose match must be less than u's match.
  std::span<const VertexId> must_be_less(VertexId u) const {
    return lower_than_[u];
  }
  /// Query vertices w whose match must be greater than u's match.
  std::span<const VertexId> must_be_greater(VertexId u) const {
    return higher_than_[u];
  }

  /// |Aut(G_q)| as found by the enumerator (1 when asymmetric; 0 when
  /// breaking is disabled, by None() or by an exhausted search budget).
  std::size_t automorphism_count() const { return automorphism_count_; }

  bool empty() const { return constraints_.empty(); }

  /// True for the mirror of the Grochow–Kellis set.
  bool mirrored() const { return mirrored_; }

 private:
  void IndexConstraints(std::size_t n);

  std::vector<Constraint> constraints_;
  std::vector<std::vector<VertexId>> lower_than_;
  std::vector<std::vector<VertexId>> higher_than_;
  std::size_t automorphism_count_ = 1;
  bool mirrored_ = false;
};

}  // namespace ceci

#endif  // CECI_CECI_SYMMETRY_H_
