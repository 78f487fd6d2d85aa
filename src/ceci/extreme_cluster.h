// ExtremeCluster detection and decomposition (paper §4.3, Algorithm 3).
//
// An embedding cluster whose pivot cardinality exceeds β × (total
// cardinality / worker count) would dominate parallel listing time. Such
// clusters are recursively split: the pivot's partial embedding is extended
// one matching-order position at a time, and each extension becomes its own
// work unit carrying a proportional share of the parent's estimated
// workload, until every unit falls under the threshold.
#ifndef CECI_CECI_EXTREME_CLUSTER_H_
#define CECI_CECI_EXTREME_CLUSTER_H_

#include <vector>

#include "ceci/enumerator.h"
#include "ceci/query_tree.h"

namespace ceci {

/// A unit of enumeration work: a valid partial embedding over the first
/// prefix.size() matching-order positions plus its estimated workload.
struct WorkUnit {
  std::vector<VertexId> prefix;
  Cardinality cardinality = 0;
};

struct DecomposeStats {
  /// Clusters whose cardinality exceeded the threshold.
  std::size_t extreme_clusters = 0;
  /// Final number of work units.
  std::size_t work_units = 0;
  Cardinality threshold = 0;
  double seconds = 0.0;
};

/// Builds the work pool. With decompose=false (ST/CGD) every pivot is one
/// unit; with decompose=true (FGD) extreme clusters are split per
/// Algorithm 3. With sort_by_cardinality=true units are ordered largest
/// first so big work starts early (§4.3) — the dynamic policies use this;
/// the paper's naive static distribution does not. `beta` trades
/// decomposition overhead for balance.
std::vector<WorkUnit> BuildWorkUnits(const Graph& data, const QueryTree& tree,
                                     const FlatCeciIndex& index,
                                     const EnumOptions& enum_options,
                                     std::size_t workers, double beta,
                                     bool decompose, bool sort_by_cardinality,
                                     DecomposeStats* stats);

}  // namespace ceci

#endif  // CECI_CECI_EXTREME_CLUSTER_H_
