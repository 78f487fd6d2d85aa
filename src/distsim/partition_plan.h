// The coordinator front end of the §5 runtime, shared by the simulated
// cluster (distsim/dist_matcher.h) and the real process supervisor
// (dist/supervisor.h).
//
// PlanPartitions preprocesses the query once, breaks automorphisms,
// distributes the cluster pivots (distsim/cluster.h), charges the pivot
// distribution messages, and then builds one refined, frozen CECI per
// partition on its own thread. The partitions' summed estimates choose
// one restriction set for the whole query (the Grochow–Kellis set or its
// mirror; see EstimateRestrictionCost), and each index is then cut into
// work units with a modeled per-unit steal payload. The caller's
// per-partition step runs on that same thread while the partition's
// index is alive: the simulator enumerates its units there, the
// supervisor writes the CEIX image.
#ifndef CECI_DISTSIM_PARTITION_PLAN_H_
#define CECI_DISTSIM_PARTITION_PLAN_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/extreme_cluster.h"
#include "ceci/flat_index.h"
#include "ceci/query_tree.h"
#include "ceci/symmetry.h"
#include "dist/cost_model.h"
#include "distsim/failure.h"
#include "distsim/machine.h"
#include "distsim/replay.h"
#include "graph/graph.h"
#include "util/status.h"

namespace ceci::distsim {

struct PartitionPlanOptions {
  std::size_t partitions = 1;
  /// Pivot workloads see neighbor degrees (replicated graph) or only the
  /// pivot's own degree (shared store); see AssignOptions.
  bool neighbors_visible = true;
  std::size_t jaccard_top_k = 256;
  bool break_automorphisms = true;
  /// BuildWorkUnits worker count per partition.
  std::size_t unit_workers = 1;
  double beta = 0.2;
  bool decompose_extreme_clusters = true;
  /// Charges the pivot distribution messages.
  dist::CostModel cost_model;
  /// Partition k's thread traces as span `<trace_prefix><k>` on lane k+1.
  std::string trace_prefix;
};

struct Partition {
  std::vector<VertexId> pivots;
  /// Modeled traffic so far: the pivot distribution, plus whatever the
  /// caller's step charges.
  Machine accounting;
  BuildStats build_stats;
  /// Work units in pool order (largest cardinality first).
  std::vector<WorkUnit> units;
  /// Modeled MPI_Get payload of one unit: the mutable index's per-unit
  /// share.
  double steal_unit_bytes = 0.0;
  /// Thread CPU of the build, the restriction-set estimate and the
  /// work-unit cut, measured.
  double build_cpu_seconds = 0.0;
  /// Wall time of the partition's thread: build, estimate, the wait for
  /// the other partitions' estimates, work units and step.
  double wall_seconds = 0.0;
};

struct PartitionPlan {
  QueryTree tree;
  /// The restriction set every partition enumerates under, chosen from
  /// the summed estimates: mirrored() when the mirror won.
  SymmetryConstraints symmetry;
  /// Both sets' estimates, summed over the partitions.
  RestrictionEstimate restriction_estimate;
  std::vector<Partition> partitions;
  std::size_t jaccard_colocations = 0;
  /// The per-data-graph NLC index build, measured.
  double nlc_seconds = 0.0;
  /// Preprocess, symmetry and pivot assignment, measured.
  double preprocess_seconds = 0.0;
};

/// Runs on partition k's thread with its frozen index; not called for
/// partitions without pivots.
using PartitionStep =
    std::function<Status(std::size_t k, const FlatCeciIndex& flat)>;

/// Fills `plan`. The step may read `plan->tree`, `plan->symmetry` and
/// `plan->partitions[k]`, and write only the latter. Returns the first
/// failing step's status in partition order.
Status PlanPartitions(const Graph& data, const Graph& query,
                      const PartitionPlanOptions& options,
                      const PartitionStep& step, PartitionPlan* plan);

/// Modeled construction time of a partition: adjacency entries scanned
/// at the cost model's build rate, times the machine's slowdown.
double ModeledBuildSeconds(const Partition& partition, double slowdown,
                           const dist::CostModel& model);

/// Replay input with modeled times: one machine per partition, starting
/// after its modeled build plus charged io and comm, with `failures`'
/// slowdowns and crash times. Units keep pool order and are numbered
/// globally in partition order.
std::vector<ReplayMachine> ModeledReplayInput(const PartitionPlan& plan,
                                              const FailurePlan& failures,
                                              const dist::CostModel& model,
                                              std::size_t lanes);

}  // namespace ceci::distsim

#endif  // CECI_DISTSIM_PARTITION_PLAN_H_
