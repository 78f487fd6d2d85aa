// Multi-process CECI matching: a supervisor partitioning embedding
// clusters across real `ceci_worker` processes, with crash recovery.
//
// The supervisor plays the coordinator role of §5 for real processes.
// Its front end is the distributed core it shares with the simulation
// (distsim/partition_plan.h), which also defines the DistConfig its
// options hold and the report core its reports extend: PlanPartitions
// preprocesses the query, distributes cluster pivots with the
// workload/Jaccard policy, and builds one refined CECI per worker, each
// build thread freezing its index to a CEIX image. The workers are
// spawned before that plan, so their start-up overlaps it, and wait for a
// kStart frame that follows the last image. `ceci_worker` processes mmap
// the images — workers never hold the data graph, and co-hosted workers
// share arena pages through the page cache. Work units
// travel over framed Unix-domain socketpair channels
// (util/frame_transport.h) carrying the message types the simulation
// accounts.
//
// Failure handling has two modes:
//  * Reactive (no FailurePlan): units are pipelined per worker
//    (kPipelineWindow), each window refill written as one batch of
//    frames; a worker that hangs up, gets reaped, or misses the heartbeat
//    deadline (kHeartbeatDeadlineSeconds) is SIGKILLed to be
//    sure, its channel drained to EOF (buffered results still count —
//    exactly once), and its unfinished units re-adopted under the shared
//    adoption rule (distsim::AdopterMap): least-loaded survivor, at most
//    once per cluster. Idle workers steal under the shared victim rule.
//  * Scripted (FailurePlan active): the supervisor first runs the one
//    replay (distsim/replay.h) on modeled times — the same call the
//    simulation makes — to fix each worker's execution order, the
//    durable prefix a doomed worker completes before dying, and the
//    adopter of every orphaned cluster. The real run then follows that
//    schedule in lockstep (dispatch window 1) and injects a genuine
//    `kill -9` at each scripted crash point, so recovery accounting is
//    bit-identical between the simulation and the process run, and
//    embedding totals exactly equal the failure-free run.
//
// See docs/robustness.md for the protocol walkthrough.
#ifndef CECI_DIST_SUPERVISOR_H_
#define CECI_DIST_SUPERVISOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "distsim/partition_plan.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"
#include "util/subprocess.h"

namespace ceci::dist {

struct DistProcessOptions {
  std::size_t num_workers = 4;
  /// Path to the ceci_worker binary (required).
  std::string worker_binary;
  /// Directory for the per-worker CEIX images; "" creates a private
  /// temporary directory (removed on completion).
  std::string scratch_dir;
  /// Heartbeat cadence requested from workers (well under the
  /// supervisor's kHeartbeatDeadlineSeconds).
  double heartbeat_seconds = 0.05;
  /// Transport deadline for sends and mid-frame receives.
  double io_timeout_seconds = 30.0;
  /// The §5 knobs shared with the simulation. Its failure plan is the
  /// kill-9 chaos harness, validated against num_workers up front.
  distsim::DistConfig config;
};

/// Max unacknowledged assignments per worker in reactive mode (scripted
/// runs use window 1 so kill points are deterministic). The window covers
/// a result batch, so a round trip is paid per batch, not per unit; it
/// also bounds the work a worker holds that an idle peer cannot steal.
inline constexpr std::size_t kPipelineWindow = 256;
/// Silence after which a worker is declared dead: the backstop behind EOF
/// and reaping, for a livelocked worker.
inline constexpr double kHeartbeatDeadlineSeconds = 5.0;

/// The shared report plus what only a process run measures, down to how
/// the worker process ended (ChildExit).
struct WorkerReport : distsim::PartitionReport, ChildExit {
  std::uint32_t worker_id = 0;
  std::int64_t pid = -1;
  /// Units whose counted result this worker produced.
  std::uint64_t units_executed = 0;
  std::uint64_t recursive_calls = 0;
  /// Refined cardinality of the units it executed (the modeled work
  /// measure; BENCH_dist.json regresses enum_seconds against this).
  Cardinality cardinality_executed = 0;
  /// Units it re-executed after another worker's crash.
  std::uint64_t adopted_units = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t bytes_to_worker = 0;
  std::uint64_t bytes_from_worker = 0;
  std::uint64_t arena_bytes = 0;
  /// Supervisor-side per-partition index construction, measured.
  double build_seconds = 0.0;
  /// Worker-side enumeration CPU, measured (sum over counted results).
  double enum_seconds = 0.0;
  /// Modeled times (nonzero only under a FailurePlan): enumeration busy
  /// window and start offset, from the same replay the simulation runs.
  double modeled_enum_seconds = 0.0;
  double modeled_start_seconds = 0.0;
  /// The crash was a scripted FailurePlan kill (vs an unexpected death).
  bool killed_by_plan = false;
};

/// One work unit's audited outcome in a process run.
struct DistUnitAccount {
  /// Worker the unit was initially partitioned to.
  std::uint32_t origin = 0;
  /// Worker whose result was counted.
  std::uint32_t executed_by = 0;
  /// Cluster identity (root pivot of the unit's prefix).
  VertexId pivot = kInvalidVertex;
  /// Results the supervisor counted for this unit — exactly 1 in a
  /// correct run (at-most-once counting, no lost units).
  std::uint64_t results_counted = 0;
  std::uint64_t embeddings = 0;
  /// Re-executed after its holder crashed.
  bool redelivered = false;
  /// Worker whose death released the unit (meaningful iff redelivered;
  /// usually the origin, but a stolen unit dies with its thief).
  std::uint32_t released_from = 0;
  /// Re-dispatched to an idle worker by work stealing (no crash).
  bool stolen = false;
};

struct DistRunReport : distsim::RunReport {
  std::uint64_t total_redelivered_units = 0;
  /// Results from killed workers that raced the SIGKILL and were dropped
  /// in favour of the adopter's re-execution (at-most-once counting).
  std::uint64_t discarded_results = 0;
  std::uint64_t heartbeat_timeouts = 0;
  /// NLC build plus preprocess, symmetry and pivot assignment, measured.
  double preprocess_seconds = 0.0;
  /// Slowest per-partition build (measured, supervisor side).
  double build_seconds = 0.0;
  double wall_seconds = 0.0;
  std::vector<WorkerReport> workers;
  /// One entry per orphaned unit: (worker whose death released it, its
  /// cluster pivot). Distinct pairs == total_reassigned_clusters — the
  /// at-most-once invariant the auditor and differential tests check.
  std::vector<std::pair<std::uint32_t, VertexId>> orphan_events;
  /// Per-unit outcomes, numbered as the replay input numbers units.
  std::vector<DistUnitAccount> units;
  /// AuditDistRun's verdict on this report, taken after every run.
  bool audit_ok = true;
  std::string audit_summary;
};

/// Audits the exact-total accounting of a process run against its own
/// report: every unit counted exactly once, units leave their origin only
/// by a steal or a redelivery out of a crashed worker, the workers' and
/// the run's embeddings equal the unit table's sums, and cluster
/// re-adoption is at-most-once per (crash, cluster): the distinct orphan
/// events number total_reassigned_clusters, each naming a crashed
/// worker. Every mismatch reports kDistAccounting.
AuditReport AuditDistRun(const DistRunReport& report);

/// Runs `query` against `data` across real worker processes. Fails up
/// front on an invalid plan, a missing worker binary, or scratch-dir
/// errors; worker crashes during the run are recovered, not failed.
Result<DistRunReport> RunDistributed(const Graph& data, const Graph& query,
                                     const DistProcessOptions& options);

/// Serializes a DistRunReport as JSON; schema in docs/observability.md.
std::string DistRunReportJson(const DistRunReport& report);

}  // namespace ceci::dist

#endif  // CECI_DIST_SUPERVISOR_H_
