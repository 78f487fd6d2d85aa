// Deterministic fault injection for the §5 runtime, simulated
// (distsim/dist_matcher.h) and real (dist/supervisor.h).
//
// A FailurePlan scripts failures against the *modeled* timeline: machine
// crashes at modeled time t, straggler slowdown factors, and a shared-
// store read error rate. Crash times and slowdowns become the inputs of
// the one replay both runtimes share (distsim/replay.h). To keep
// same-seed runs bit-identical, an enabled plan feeds that replay fully
// modeled times (CostModel::build_seconds_per_scanned_entry /
// enum_seconds_per_cardinality) instead of measured CPU times — measured
// thread times jitter run to run, which would make recovery decisions
// (which clusters a machine finished before dying) nondeterministic.
// Physical enumeration still happens once; the plan only decides which
// machine gets credited (and charged) for each unit, so embedding totals
// are exactly those of the failure-free run. See docs/robustness.md.
#ifndef CECI_DISTSIM_FAILURE_H_
#define CECI_DISTSIM_FAILURE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dist/cost_model.h"
#include "util/status.h"

namespace ceci::distsim {

/// The machine dies at modeled cluster time `at_seconds` (0 = before it
/// does anything). Completed work units are durable; its unexplored and
/// in-flight clusters are redistributed to survivors.
struct MachineCrash {
  std::size_t machine = 0;
  double at_seconds = 0.0;
};

/// Multiplies the machine's modeled compute times (build and per-unit
/// enumeration); 1.0 = nominal, 4.0 = four times slower.
struct MachineStraggler {
  std::size_t machine = 0;
  double slowdown = 1.0;
};

struct FailurePlan {
  /// Master switch. An enabled plan — even one scripting no failures —
  /// runs the replay on modeled deterministic times, so same seed + same
  /// plan ⇒ identical totals, per-machine reports, and recovery counters.
  bool enabled = false;
  /// Seeds the storage-flake RNG (crashes and stragglers are scripted,
  /// not sampled, so they do not consume randomness).
  std::uint64_t seed = 0;
  std::vector<MachineCrash> crashes;
  std::vector<MachineStraggler> stragglers;
  /// Probability that one shared-store read round trip fails and must be
  /// retried (GraphStorage::kShared only). Each retry pays the store's
  /// latency plus exponential backoff, charged through the CostModel.
  double storage_error_rate = 0.0;
  /// Retries per round trip before the read is counted as served anyway
  /// (bounds the modeled worst case).
  std::size_t max_storage_retries = 4;
  /// First-retry backoff; doubles per subsequent attempt.
  double retry_backoff_seconds = 1e-3;

  bool active() const { return enabled; }

  /// Rejects out-of-range machine ids, duplicate crashes, plans that
  /// crash every machine (no survivor could adopt the orphans), slowdown
  /// factors < 1, and error rates outside [0, 1).
  Status Validate(std::size_t num_machines) const;

  /// Crash time for `machine`, or +infinity when it never crashes.
  double CrashTime(std::size_t machine) const;
  /// Slowdown factor for `machine` (1.0 when not a straggler).
  double Slowdown(std::size_t machine) const;
};

/// Outcome of the deterministic storage-flake simulation for one machine.
struct StorageRetrySim {
  std::uint64_t retries = 0;
  double seconds = 0.0;
};

/// Simulates the shared-store read round trips of `requests` adjacency
/// requests (storage_batch per round trip) for `machine` under the plan's
/// error rate: failures are drawn from a SplitMix64 stream keyed on
/// (plan.seed, machine), each retry charging the store latency plus
/// exponential backoff. Deterministic by construction; zero without an
/// active plan or error rate.
StorageRetrySim SimulateStorageRetries(const FailurePlan& plan,
                                       std::size_t machine,
                                       std::uint64_t requests,
                                       const dist::CostModel& model);

}  // namespace ceci::distsim

#endif  // CECI_DISTSIM_FAILURE_H_
