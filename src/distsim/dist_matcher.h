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
// with the process supervisor (dist/supervisor.h), whose DistConfig and
// report core its options and reports extend: PlanPartitions
// (distsim/partition_plan.h) runs the coordinator and the per-machine
// builds, each machine thread enumerating its own units, and Replay
// (distsim/replay.h) turns the per-unit times into the simulated
// schedule — measured times without a failure plan, modeled ones with.
#ifndef CECI_DISTSIM_DIST_MATCHER_H_
#define CECI_DISTSIM_DIST_MATCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "distsim/machine.h"
#include "distsim/partition_plan.h"
#include "graph/graph.h"
#include "util/status.h"

namespace ceci::distsim {

enum class GraphStorage { kReplicated, kShared };

struct DistOptions {
  std::size_t num_machines = 4;
  std::size_t threads_per_machine = 1;
  GraphStorage storage = GraphStorage::kReplicated;
  DistConfig config;
};

/// The shared report plus the simulator's own: the traffic the machine
/// was charged (Machine: pivot distribution, steals, shared-store reads;
/// the inbound counts include the stolen units' MPI_Get payloads) and its
/// compute times.
struct MachineReport : PartitionReport, Machine {
  double build_compute_seconds = 0.0;
  double enum_compute_seconds = 0.0;
  /// Modeled end-to-end busy time: compute + io + comm.
  double total_seconds = 0.0;
};

struct DistResult : RunReport {
  std::vector<MachineReport> machines;
  /// Cluster-wide traffic totals (sums over machines).
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes_sent = 0;
  std::uint64_t total_messages_received = 0;
  std::uint64_t total_bytes_received = 0;
  std::uint64_t total_bytes_read = 0;
  std::uint64_t total_storage_retries = 0;
  /// Serial front end (preprocessing on the coordinator), measured; the
  /// NLC index build is amortized over queries and excluded.
  double preprocess_seconds = 0.0;
  /// Modeled parallel completion time: preprocess + slowest machine.
  double makespan_seconds = 0.0;
  /// Aggregates of the CECI-construction phase for Fig. 20.
  double build_compute_seconds = 0.0;
  double build_io_seconds = 0.0;
  double build_comm_seconds = 0.0;
};

/// Runs distributed matching of `query` on `data`.
Result<DistResult> DistributedMatch(const Graph& data, const Graph& query,
                                    const DistOptions& options);

/// Serializes a DistResult (the shared report, per-machine reports and
/// traffic totals) as a JSON object; schema in docs/observability.md.
std::string DistResultJson(const DistResult& result);

}  // namespace ceci::distsim

#endif  // CECI_DISTSIM_DIST_MATCHER_H_
