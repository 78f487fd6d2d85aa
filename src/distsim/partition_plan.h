// The §5 core shared by the simulated cluster (distsim/dist_matcher.h)
// and the real process supervisor (dist/supervisor.h): one configuration
// (DistConfig, a member of both engines' options), one coordinator front
// end, and one report core.
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
//
// PartitionReport and RunReport hold what both engines report with the
// same meaning; each engine's report types inherit them, and one JSON
// writer serializes them for both.
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
#include "util/json_writer.h"
#include "util/status.h"

namespace ceci::distsim {

/// The §5 knobs both engines honour, with the same defaults.
struct DistConfig {
  /// Extreme-cluster decomposition threshold inside each partition (§4.3).
  double beta = 0.2;
  bool break_automorphisms = true;
  /// The paper evaluates Jaccard similarity over the largest 1,000
  /// clusters; the default is smaller because the coordinator's serial
  /// pass fills a k×k common-neighbour table. Raise it on real clusters.
  std::size_t jaccard_top_k = 256;
  /// Idle machines take queued units from the most-loaded peer.
  bool work_stealing = true;
  dist::CostModel cost_model;
  /// Scripted crashes, stragglers and storage flakes (distsim/failure.h),
  /// validated against the machine count before any work.
  FailurePlan failure_plan;
};

/// What each engine derives for itself rather than takes from DistConfig.
struct PlanLayout {
  std::size_t partitions = 1;
  /// Pivot workloads see neighbor degrees (replicated graph) or only the
  /// pivot's own degree (shared store); see AssignOptions.
  bool neighbors_visible = true;
  /// DecomposeRootOrder worker count per partition.
  std::size_t unit_workers = 1;
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
                      const DistConfig& config, const PlanLayout& layout,
                      const PartitionStep& step, PartitionPlan* plan);

/// Modeled construction time of a partition: adjacency entries scanned
/// at the cost model's build rate, times the machine's slowdown.
double ModeledBuildSeconds(const Partition& partition, double slowdown,
                           const dist::CostModel& model);

/// Replay input with modeled times: one machine per partition, starting
/// after its modeled build plus charged io and comm, with the failure
/// plan's slowdowns and crash times. Units keep pool order and are
/// numbered globally in partition order.
std::vector<ReplayMachine> ModeledReplayInput(const PartitionPlan& plan,
                                              const DistConfig& config,
                                              std::size_t lanes);

/// What one partition's machine (simulated, or a worker process) was
/// given and did; field meanings in docs/observability.md.
struct PartitionReport {
  std::size_t pivots = 0;
  std::size_t initial_units = 0;
  /// Of the units it completed, stolen and adopted ones included.
  std::uint64_t embeddings = 0;
  std::uint64_t stolen_units = 0;
  /// Clusters adopted from crashed peers, at most once per crash.
  std::uint64_t reassigned_clusters = 0;
  /// Modeled seconds re-running adopted units; 0 without a failure plan.
  double recovery_seconds = 0.0;
  bool crashed = false;

  bool operator==(const PartitionReport&) const = default;
};

/// The plan's outcome and the partition totals.
struct RunReport {
  std::uint64_t embeddings = 0;
  std::uint64_t total_units = 0;
  std::uint64_t total_stolen_units = 0;
  std::uint64_t total_reassigned_clusters = 0;
  std::size_t crashed_machines = 0;
  double total_recovery_seconds = 0.0;
  std::size_t jaccard_colocations = 0;
  /// The restriction set every partition enumerated under (§2.2) and
  /// both sets' estimates summed over the partitions.
  bool restrictions_mirrored = false;
  RestrictionEstimate restriction_estimate;

  /// Adds one partition's counters to the totals.
  void Add(const PartitionReport& partition);

  bool operator==(const RunReport&) const = default;
};

/// The shared fields the plan fixes: pivots and units per partition, and
/// the co-locations, restriction choice and unit total of the run.
PartitionReport PlannedPartitionReport(const Partition& partition);
RunReport PlannedRunReport(const PartitionPlan& plan);

/// Write the shared fields as keys of the JSON object `w` has open; schema
/// in docs/observability.md.
void WritePartitionReportJson(const PartitionReport& report, JsonWriter* w);
void WriteRunReportJson(const RunReport& report, JsonWriter* w);

}  // namespace ceci::distsim

#endif  // CECI_DISTSIM_PARTITION_PLAN_H_
