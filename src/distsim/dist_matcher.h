// Distributed CECI matching on the simulated cluster (§5).
//
// Machines run as threads, each owning a private CECI built over the
// cluster pivots assigned to it. The two graph-management modes of the
// paper are reproduced:
//  * kReplicated — every machine holds the whole data graph in memory;
//    pivot workload uses neighbor degrees and Jaccard co-location applies.
//  * kShared    — one CSR copy on a lustre-like store; adjacency reads
//    during CECI construction are charged through the CostModel (this is
//    what inflates construction cost in Figs. 17/20).
//
// When a machine drains its own work pool it steals unexplored clusters
// from the machine with the most remaining work (MPI_Get in the paper),
// paying a modeled communication charge per steal.
//
// DistributedMatch is a thin caller of the distributed core it shares
// with the process supervisor (dist/supervisor.h): PlanPartitions
// (distsim/partition_plan.h) runs the coordinator and the per-machine
// builds, each machine thread enumerating its own units, and Replay
// (distsim/replay.h) turns the per-unit times into the simulated
// schedule — measured times without a failure plan, modeled ones with.
#ifndef CECI_DISTSIM_DIST_MATCHER_H_
#define CECI_DISTSIM_DIST_MATCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dist/cost_model.h"
#include "distsim/failure.h"
#include "graph/graph.h"
#include "util/status.h"

namespace ceci::distsim {

enum class GraphStorage { kReplicated, kShared };

struct DistOptions {
  std::size_t num_machines = 4;
  std::size_t threads_per_machine = 1;
  GraphStorage storage = GraphStorage::kReplicated;
  dist::CostModel cost_model;
  /// Extreme-cluster decomposition inside each machine (§4.3).
  double beta = 0.2;
  bool decompose_extreme_clusters = true;
  bool break_automorphisms = true;
  bool work_stealing = true;
  /// The paper evaluates similarity over the largest 1,000 clusters; the
  /// default here is smaller because the O(k²) coordinator pass is serial
  /// and this container exposes one core. Raise it on real clusters.
  std::size_t jaccard_top_k = 256;
  /// Scripted failures (crashes, stragglers, storage flakes). When
  /// enabled, the work-stealing replay runs on the CostModel's modeled
  /// compute rates so same plan + same seed reproduces identical totals
  /// and recovery counters; embedding totals stay exactly equal to the
  /// failure-free run (recovery is at-most-once per cluster). Validated
  /// by DistributedMatch; an invalid plan fails the query up front.
  FailurePlan failure_plan;
};

struct MachineReport {
  std::size_t pivots = 0;
  std::uint64_t embeddings = 0;
  std::uint64_t stolen_units = 0;
  /// Network traffic this machine charged (pivot distribution, steals).
  std::uint64_t messages = 0;
  std::uint64_t bytes_sent = 0;
  /// Inbound volume (pivot lists received, stolen-unit MPI_Get payloads).
  /// Counter-only accounting: transfer time lives in comm_seconds already.
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  /// Shared-store traffic (nonzero only under GraphStorage::kShared).
  std::uint64_t bytes_read = 0;
  double build_compute_seconds = 0.0;
  double enum_compute_seconds = 0.0;
  double io_seconds = 0.0;    // modeled (shared-store reads)
  double comm_seconds = 0.0;  // modeled (pivot distribution, stealing)
  /// Modeled end-to-end busy time: compute + io + comm.
  double total_seconds = 0.0;
  /// --- Failure-plan recovery accounting (zero without a plan) ---
  /// This machine crashed at its scripted time; embeddings below count
  /// only the units it durably finished before dying.
  bool crashed = false;
  /// Orphaned clusters this machine adopted from crashed peers
  /// (at-most-once per cluster per crash).
  std::uint64_t reassigned_clusters = 0;
  /// Shared-store read round trips that failed and were retried here.
  std::uint64_t storage_retries = 0;
  /// Modeled seconds spent on recovery work: transferring + re-running
  /// adopted units (inside enum_compute_seconds, not in addition to it).
  double recovery_seconds = 0.0;
};

struct DistResult {
  std::uint64_t embeddings = 0;
  std::vector<MachineReport> machines;
  std::size_t jaccard_colocations = 0;
  /// Cluster-wide traffic totals (sums over machines).
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes_sent = 0;
  std::uint64_t total_messages_received = 0;
  std::uint64_t total_bytes_received = 0;
  std::uint64_t total_bytes_read = 0;
  std::uint64_t total_stolen_units = 0;
  /// Serial front end (preprocessing on the coordinator), measured.
  double preprocess_seconds = 0.0;
  /// Modeled parallel completion time: preprocess + slowest machine.
  double makespan_seconds = 0.0;
  /// Aggregates of the CECI-construction phase for Fig. 20.
  double build_compute_seconds = 0.0;
  double build_io_seconds = 0.0;
  double build_comm_seconds = 0.0;
  /// --- Failure-plan recovery totals (zero without a plan) ---
  std::size_t crashed_machines = 0;
  std::uint64_t total_reassigned_clusters = 0;
  std::uint64_t total_storage_retries = 0;
  double total_recovery_seconds = 0.0;
};

/// Runs distributed matching of `query` on `data`.
Result<DistResult> DistributedMatch(const Graph& data, const Graph& query,
                                    const DistOptions& options);

/// Serializes a DistResult (per-machine reports + traffic totals) as a
/// JSON object; schema in docs/observability.md.
std::string DistResultJson(const DistResult& result);

}  // namespace ceci::distsim

#endif  // CECI_DISTSIM_DIST_MATCHER_H_
