// The one deterministic replay of the paper's §5 runtime, shared by the
// simulated cluster (distsim/dist_matcher.h) and the real process
// supervisor (dist/supervisor.h).
//
// Every machine starts its own unit queue at its start offset, with
// `lanes` execution slots. A lane whose queue drains steals the tail unit
// of the live machine with the most remaining work (MPI_Get in the
// paper), paying the victim's per-unit transfer on the cost model.
// Scripted crashes are events on the same timeline: a crash orphans the
// machine's queue and any unit in flight on its lanes, and every orphan
// goes to its cluster's adopter (AdopterMap below), so recovery is
// at-most-once per (dead machine, cluster). Idle lanes park until the
// next crash, which is the only source of late work.
//
// Ties break deterministically: crashes before lane events at equal
// times, then by machine id, then by insertion order. Fed modeled times
// (CostModel rates), the same plan always yields the same schedule; the
// simulator also runs it failure-free on measured per-unit times.
#ifndef CECI_DISTSIM_REPLAY_H_
#define CECI_DISTSIM_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dist/cost_model.h"
#include "graph/types.h"

namespace ceci::distsim {

/// "No machine" for the adoption and stealing rules below.
inline constexpr std::size_t kNoMachine =
    std::numeric_limits<std::size_t>::max();

/// The work-stealing rule: an idle `thief` takes from the other machine
/// with queued units and the most remaining work (lowest id on ties).
/// `queued(j)` says whether machine j is alive with units queued,
/// `load(j)` gives its remaining work. kNoMachine when nobody has work.
template <typename Queued, typename Load>
std::size_t PickVictim(std::size_t machines, std::size_t thief,
                       const Queued& queued, const Load& load) {
  std::size_t victim = kNoMachine;
  double most = 0.0;
  for (std::size_t j = 0; j < machines; ++j) {
    if (j == thief || !queued(j)) continue;
    if (load(j) > most) {
      most = load(j);
      victim = j;
    }
  }
  return victim;
}

/// The at-most-once adoption rule for orphaned clusters. A machine's
/// death decides, once per cluster, which survivor takes it over: the
/// live machine with the least remaining work (lowest id on ties). Later
/// orphans of the same (dead machine, cluster) follow that decision; if
/// the adopter has died since, the walk continues through the adopter's
/// own decisions. Chains cannot cycle because each hop points at a
/// machine that was alive when an earlier-dead machine's entry was made.
class AdopterMap {
 public:
  struct Adoption {
    /// kNoMachine when no machine is alive to take the cluster.
    std::size_t adopter = kNoMachine;
    /// This call made the decision: the adopter gains one reassigned
    /// cluster.
    bool new_cluster = false;
  };

  explicit AdopterMap(std::size_t machines) : decided_(machines) {}

  /// Resolves the adopter of cluster `pivot` released by `dead`.
  /// `alive(j)` says whether machine j is alive, `load(j)` its remaining
  /// work.
  template <typename Alive, typename Load>
  Adoption Adopt(std::size_t dead, VertexId pivot, const Alive& alive,
                 const Load& load) {
    std::size_t hop = dead;
    while (true) {
      auto it = decided_[hop].find(pivot);
      if (it == decided_[hop].end()) break;
      if (alive(it->second)) return {it->second, false};
      hop = it->second;
    }
    std::size_t best = kNoMachine;
    for (std::size_t j = 0; j < decided_.size(); ++j) {
      if (j == dead || !alive(j)) continue;
      if (best == kNoMachine || load(j) < load(best)) best = j;
    }
    if (best == kNoMachine) return {};
    decided_[hop].emplace(pivot, best);
    return {best, true};
  }

 private:
  std::vector<std::unordered_map<VertexId, std::size_t>> decided_;
};

/// Gate value of a step that waits on no machine's death.
inline constexpr std::uint32_t kNoGate = 0xffffffffu;

struct ReplayUnit {
  std::uint64_t id = 0;
  /// Nominal execution time; the executing machine's slowdown applies.
  double base_seconds = 0.0;
  /// Cluster identity, the unit of at-most-once adoption.
  VertexId pivot = 0;
};

struct ReplayMachine {
  /// When the machine's lanes start (its construction, io and comm).
  double start_seconds = 0.0;
  std::size_t lanes = 1;
  double slowdown = 1.0;
  double crash_seconds = std::numeric_limits<double>::infinity();
  /// Transfer payload of one unit stolen from or orphaned by it.
  std::uint64_t steal_bytes = 0;
  /// Own units in execution order.
  std::vector<ReplayUnit> queue;
};

/// One unit a machine completed, in execution order.
struct ReplayStep {
  std::uint64_t unit_id = 0;
  /// Re-homed by a crash; `gate` names the dead machine it was released
  /// from (the last hop when the unit was orphaned more than once).
  bool adopted = false;
  /// Taken from a peer's queue at some point before it ran.
  bool stolen = false;
  std::uint32_t gate = kNoGate;
};

struct ReplayMachineOutcome {
  std::vector<ReplayStep> steps;
  bool crashed = false;
  /// Units in flight on its lanes when it crashed; each one re-runs on
  /// an adopter.
  std::vector<std::uint64_t> lost_units;
  /// Clusters it adopted from crashed peers.
  std::uint64_t reassigned_clusters = 0;
  /// Time its lanes spent on adopted units, transfer included.
  double recovery_seconds = 0.0;
  /// Busy window after start_seconds (steal transfers included).
  double busy_seconds = 0.0;
  /// Steals it made (counted when taken, even if it later died with one).
  std::uint64_t stolen_units = 0;
  /// Inbound unit transfers: steals and adoptions.
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
};

struct ReplayOutcome {
  std::vector<ReplayMachineOutcome> machines;
  /// One entry per orphaned unit: (machine whose death released it, its
  /// cluster pivot), in release order.
  std::vector<std::pair<std::uint32_t, VertexId>> orphan_events;
};

ReplayOutcome Replay(const std::vector<ReplayMachine>& machines,
                     bool work_stealing, const dist::CostModel& model);

}  // namespace ceci::distsim

#endif  // CECI_DISTSIM_REPLAY_H_
