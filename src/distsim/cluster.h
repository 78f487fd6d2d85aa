// Pivot distribution across simulated machines (§5).
//
// Before any CECI exists there is no cardinality to balance on, so the
// paper uses a light-weight workload proxy: in the replicated (in-memory)
// setting w(v) = deg(v) + Σ_{u ∈ N(v)} deg(u); in the shared-storage
// setting only deg(v) is visible. Both are scaled by (|V| - v) / |V| to
// compensate for the skew that vertex-id-based automorphism breaking
// introduces. Highly overlapping clusters (Jaccard similarity of pivot
// neighborhoods ≥ 0.5, checked over the largest `jaccard_top_k` pivots)
// are co-located on the same machine unless that machine is already at the
// workload cap. The common-neighbour counts of those pivots come from one
// wedge-counting walk over their adjacency lists into a k×k table, not
// from a merge per pair.
#ifndef CECI_DISTSIM_CLUSTER_H_
#define CECI_DISTSIM_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace ceci::distsim {

struct PivotAssignment {
  /// Pivot list per machine, ascending (the input order).
  std::vector<std::vector<VertexId>> per_machine;
  /// Estimated workload per machine (proxy units).
  std::vector<double> workloads;
  /// Pivots co-located by the Jaccard rule.
  std::size_t jaccard_colocations = 0;
};

struct AssignOptions {
  std::size_t num_machines = 4;
  /// Replicated mode sees neighbor degrees; shared mode does not (§5).
  bool neighbors_visible = true;
  /// Similarity is only evaluated over the largest k clusters (paper: 1000).
  std::size_t jaccard_top_k = 1000;
  double jaccard_threshold = 0.5;
  /// Co-location is refused once a machine exceeds this multiple of the
  /// average workload.
  double max_load_factor = 1.25;
};

/// The light-weight workload proxy for one pivot.
double PivotWorkload(const Graph& data, VertexId v, bool neighbors_visible);

/// Jaccard similarity of two pivots' neighborhoods.
double JaccardSimilarity(const Graph& data, VertexId a, VertexId b);

/// Distributes `pivots` (ascending, as Preprocess's root candidates are)
/// over machines.
PivotAssignment AssignPivots(const Graph& data,
                             const std::vector<VertexId>& pivots,
                             const AssignOptions& options);

}  // namespace ceci::distsim

#endif  // CECI_DISTSIM_CLUSTER_H_
