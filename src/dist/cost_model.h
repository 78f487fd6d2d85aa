// Deterministic cost model shared by the simulated cluster (§5,
// src/distsim/) and the real multi-process runtime (src/dist/).
//
// We do not have the paper's 16-node InfiniBand cluster with a lustre file
// system, so the simulated runtime executes machines as threads and
// *accounts* communication and storage time through this model instead of
// measuring real network hardware (substitution documented in DESIGN.md
// §1.4). Costs are the classic latency + size/bandwidth form; defaults
// approximate 10 GbE and a busy parallel file system.
//
// Both runtimes feed this model to the one replay (distsim/replay.h):
// scripted FailurePlan crashes are scheduled against the modeled timeline
// (so sim and process runs agree on which units a doomed worker
// completes), and orphan re-adoption picks the survivor with the least
// modeled remaining work. scripts/bench_dist.sh regresses
// enum_seconds_per_cardinality against measured per-worker times into
// BENCH_dist.json.
#ifndef CECI_DIST_COST_MODEL_H_
#define CECI_DIST_COST_MODEL_H_

#include <algorithm>
#include <cstdint>

#include "graph/types.h"

namespace ceci::dist {

struct CostModel {
  /// Per-message network latency (MPI_Send/MPI_Recv/MPI_Get), seconds.
  double network_latency = 20e-6;
  /// Network bandwidth, bytes/second (10 Gb/s).
  double network_bandwidth = 1.25e9;
  /// Per-request latency of the shared (lustre) store, seconds.
  double storage_latency = 200e-6;
  /// Shared-store streaming bandwidth per machine, bytes/second.
  double storage_bandwidth = 400e6;
  /// Requests coalesced per storage round trip: machines read adjacency
  /// lists in batches, so not every vertex pays the full latency.
  std::uint64_t storage_batch = 256;
  /// Deterministic compute rates used only when a FailurePlan is active:
  /// the work-stealing replay then runs on fully modeled times instead of
  /// measured thread CPU, so same plan + same seed reproduces the exact
  /// same crash/recovery schedule (distsim/replay.h). Units: seconds per
  /// adjacency entry scanned during CECI build, and seconds per unit of
  /// refined cardinality enumerated.
  double build_seconds_per_scanned_entry = 2e-9;
  double enum_seconds_per_cardinality = 5e-9;

  /// Modeled seconds to enumerate one work unit of refined cardinality
  /// `cardinality`; an empty unit still costs one step.
  double UnitSeconds(Cardinality cardinality) const {
    return std::max(static_cast<double>(cardinality), 1.0) *
           enum_seconds_per_cardinality;
  }

  /// Simulated seconds to move one message of `bytes` over the network.
  double MessageSeconds(std::uint64_t bytes) const {
    return network_latency +
           static_cast<double>(bytes) / network_bandwidth;
  }

  /// Simulated seconds for `requests` adjacency reads totalling `bytes`
  /// from the shared store.
  double StorageSeconds(std::uint64_t requests, std::uint64_t bytes) const {
    const double round_trips =
        static_cast<double>(requests) / static_cast<double>(storage_batch);
    return round_trips * storage_latency +
           static_cast<double>(bytes) / storage_bandwidth;
  }
};

}  // namespace ceci::dist

#endif  // CECI_DIST_COST_MODEL_H_
