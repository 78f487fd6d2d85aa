// Embedding clusters as units of parallel work (paper §4.2-§4.3).
//
// An embedding cluster is the search subtree of one root candidate. The
// root order lists the live clusters largest first; under ST and CGD a
// cluster is the whole unit of work, so a prepared query computes its root
// order once (PreparedQuery::root_order) and every Execute walks it by
// rank, building no unit objects.
//
// Under FGD, ExtremeCluster detection and decomposition (§4.3, Algorithm
// 3) splits a cluster whose pivot cardinality exceeds β × (total
// cardinality / worker count), since it would dominate parallel listing
// time: the pivot's partial embedding is extended one matching-order
// position at a time, and each extension becomes its own work unit
// carrying a proportional share of the parent's estimated workload, until
// every unit falls under the threshold. The threshold depends on the
// worker count and β, so this pool is cut per Execute.
#ifndef CECI_CECI_EXTREME_CLUSTER_H_
#define CECI_CECI_EXTREME_CLUSTER_H_

#include <cstdint>
#include <span>
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

/// The root order of a refined index: the ranks, in candidates(root), of
/// the root candidates with a positive cardinality, largest cardinality
/// first and ties in rank order. This is the one place "live roots,
/// largest first" is computed; the dynamic policies start big work early
/// from it (§4.3).
std::vector<std::uint32_t> RootOrder(const FlatCeciIndex& index,
                                     VertexId root);

/// FGD's work pool over `root_order`, a RootOrder of `index` (§4.3): one
/// unit per root, except that Algorithm 3 splits every root whose
/// cardinality exceeds beta × (total / workers). The units come largest
/// first, ties by pivot and then in split order. `beta` trades
/// decomposition overhead for balance.
std::vector<WorkUnit> DecomposeRootOrder(
    const Graph& data, const QueryTree& tree, const FlatCeciIndex& index,
    const EnumOptions& enum_options, std::span<const std::uint32_t> root_order,
    std::size_t workers, double beta, DecomposeStats* stats);

}  // namespace ceci

#endif  // CECI_CECI_EXTREME_CLUSTER_H_
