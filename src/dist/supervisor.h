// Multi-process CECI matching: a supervisor partitioning embedding
// clusters across real `ceci_worker` processes, with crash recovery.
//
// The supervisor plays the coordinator role of §5 for real processes.
// Its front end is the distributed core it shares with the simulation:
// PlanPartitions (distsim/partition_plan.h) preprocesses the query,
// distributes cluster pivots with the workload/Jaccard policy, and builds
// one refined CECI per worker, each build thread freezing its index to a
// CEIX image. `ceci_worker` processes mmap the images — workers never
// hold the data graph, and co-hosted workers share arena pages through
// the page cache. Work units travel over framed Unix-domain socketpair
// channels (util/frame_transport.h) carrying the message types the
// simulation accounts.
//
// Failure handling has two modes:
//  * Reactive (no FailurePlan): units are pipelined per worker, each
//    window refill written as one batch of frames; a worker that hangs
//    up, gets reaped, or misses the heartbeat deadline is SIGKILLed to be
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
#include "dist/cost_model.h"
#include "distsim/failure.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace ceci::dist {

struct DistProcessOptions {
  std::size_t num_workers = 4;
  /// Path to the ceci_worker binary (required).
  std::string worker_binary;
  /// Directory for the per-worker CEIX images; "" creates a private
  /// temporary directory (removed on completion).
  std::string scratch_dir;
  /// Workers map the images instead of copying them (the PR-7 serving
  /// path); off copies each arena into the worker heap.
  bool use_mmap = true;
  bool break_automorphisms = true;
  /// Extreme-cluster decomposition inside each worker's partition (§4.3),
  /// same defaults as the simulation so differential runs line up.
  double beta = 0.2;
  bool decompose_extreme_clusters = true;
  /// Idle workers take queued units from the most-loaded peer (the
  /// supervisor owns all queues, so "stealing" is re-dispatch).
  bool work_stealing = true;
  std::size_t jaccard_top_k = 256;
  /// Max unacknowledged assignments per worker (reactive mode; scripted
  /// runs always use lockstep window 1 so kill points are deterministic).
  /// Each refill goes out as one coalesced write, and the worker returns
  /// results in batches, so the window must cover a batch: a deep window
  /// turns one round trip per unit into one per batch. Only queued units
  /// can be stolen or re-planned, so the window also bounds how much work
  /// a worker holds that an idle peer cannot take.
  std::size_t pipeline_window = 256;
  /// Heartbeat cadence requested from workers, and the silence deadline
  /// after which a worker is declared dead (EOF and reaping are the fast
  /// paths; the deadline is the backstop for a livelocked worker).
  double heartbeat_seconds = 0.05;
  double heartbeat_deadline_seconds = 5.0;
  /// Transport deadline for sends and mid-frame receives.
  double io_timeout_seconds = 30.0;
  CostModel cost_model;
  /// Scripted crashes/stragglers — the kill-9 chaos harness. Validated
  /// against num_workers up front.
  distsim::FailurePlan failure_plan;
  /// Run AuditDistRun over the per-unit accounting after the run.
  bool audit = true;
};

struct WorkerReport {
  std::uint32_t worker_id = 0;
  std::int64_t pid = -1;
  std::size_t pivots = 0;
  std::size_t initial_units = 0;
  /// Units whose counted result this worker produced.
  std::uint64_t units_executed = 0;
  std::uint64_t embeddings = 0;
  std::uint64_t recursive_calls = 0;
  /// Refined cardinality of the units it executed (the modeled work
  /// measure; BENCH_dist.json regresses enum_seconds against this).
  Cardinality cardinality_executed = 0;
  std::uint64_t stolen_units = 0;
  /// Units it re-executed after another worker's crash, and the clusters
  /// it adopted (at-most-once per cluster per crash).
  std::uint64_t adopted_units = 0;
  std::uint64_t reassigned_clusters = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t bytes_to_worker = 0;
  std::uint64_t bytes_from_worker = 0;
  std::uint64_t arena_bytes = 0;
  /// Supervisor-side per-partition index construction, measured.
  double build_seconds = 0.0;
  /// Worker-side enumeration CPU, measured (sum over counted results).
  double enum_seconds = 0.0;
  /// Modeled times (nonzero only under a FailurePlan): enumeration busy
  /// window, start offset, and recovery share, from the same replay the
  /// simulation runs.
  double modeled_enum_seconds = 0.0;
  double modeled_start_seconds = 0.0;
  double recovery_seconds = 0.0;
  bool crashed = false;
  /// The crash was a scripted FailurePlan kill (vs an unexpected death).
  bool killed_by_plan = false;
  bool exited = false;
  int exit_code = 0;
  bool signaled = false;
  int term_signal = 0;
};

struct DistRunReport {
  std::uint64_t embeddings = 0;
  std::uint64_t total_units = 0;
  std::size_t crashed_workers = 0;
  std::uint64_t total_reassigned_clusters = 0;
  std::uint64_t total_redelivered_units = 0;
  std::uint64_t total_stolen_units = 0;
  /// Results from killed workers that raced the SIGKILL and were dropped
  /// in favour of the adopter's re-execution (at-most-once counting).
  std::uint64_t discarded_results = 0;
  std::uint64_t heartbeat_timeouts = 0;
  std::size_t jaccard_colocations = 0;
  double preprocess_seconds = 0.0;
  /// Slowest per-partition build (measured, supervisor side).
  double build_seconds = 0.0;
  double wall_seconds = 0.0;
  std::vector<WorkerReport> workers;
  /// One entry per orphaned unit: (worker whose death released it, its
  /// cluster pivot). Distinct pairs == total_reassigned_clusters — the
  /// at-most-once invariant the auditor and differential tests check.
  std::vector<std::pair<std::uint32_t, VertexId>> orphan_events;
  /// Per-unit exact-total accounting, audit-ready.
  DistRunAccounting accounting;
  bool audit_ok = true;
  std::string audit_summary;
};

/// Runs `query` against `data` across real worker processes. Fails up
/// front on an invalid plan, a missing worker binary, or scratch-dir
/// errors; worker crashes during the run are recovered, not failed.
Result<DistRunReport> RunDistributed(const Graph& data, const Graph& query,
                                     const DistProcessOptions& options);

/// Serializes a DistRunReport as JSON; schema in docs/observability.md.
std::string DistRunReportJson(const DistRunReport& report);

}  // namespace ceci::dist

#endif  // CECI_DIST_SUPERVISOR_H_
