#include "distsim/replay.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <set>

namespace ceci::distsim {
namespace {

struct QueuedUnit {
  ReplayUnit unit;
  double available_at = 0.0;   // earliest start (the reassignment instant)
  double setup_seconds = 0.0;  // transfer paid by the adopter
  double queued_cost = 0.0;    // contribution to remaining[owner]
  bool adopted = false;
  bool stolen = false;
  std::uint32_t gate = kNoGate;
};

enum class EventKind { kCrash = 0, kLane = 1 };

struct Event {
  double time;
  EventKind kind;  // crashes sort before lane pops at equal times
  std::size_t machine;
  std::uint64_t seq;
  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
    if (machine != other.machine) return machine > other.machine;
    return seq > other.seq;
  }
};

}  // namespace

ReplayOutcome Replay(const std::vector<ReplayMachine>& machines,
                     bool work_stealing, const dist::CostModel& model) {
  const std::size_t m = machines.size();
  ReplayOutcome out;
  out.machines.resize(m);

  std::vector<std::deque<QueuedUnit>> queues(m);
  std::vector<double> remaining(m, 0.0);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::uint64_t seq = 0;
  std::vector<double> busy_until(m, 0.0);
  std::vector<char> dead(m, 0);
  std::multiset<double> future_crashes;
  for (std::size_t i = 0; i < m; ++i) {
    const ReplayMachine& machine = machines[i];
    for (const ReplayUnit& unit : machine.queue) {
      QueuedUnit queued;
      queued.unit = unit;
      queued.queued_cost = unit.base_seconds * machine.slowdown;
      remaining[i] += queued.queued_cost;
      queues[i].push_back(queued);
    }
    busy_until[i] = machine.start_seconds;
    for (std::size_t t = 0; t < machine.lanes; ++t) {
      events.push(Event{machine.start_seconds, EventKind::kLane, i, seq++});
    }
    if (machine.crash_seconds != std::numeric_limits<double>::infinity()) {
      events.push(Event{machine.crash_seconds, EventKind::kCrash, i, seq++});
      future_crashes.insert(machine.crash_seconds);
    }
  }

  AdopterMap adopters(m);
  auto alive = [&](std::size_t j) { return dead[j] == 0; };
  auto load = [&](std::size_t j) { return remaining[j]; };
  auto reassign = [&](std::size_t from, QueuedUnit unit, double now) {
    const AdopterMap::Adoption adoption =
        adopters.Adopt(from, unit.unit.pivot, alive, load);
    const std::size_t to = adoption.adopter;
    if (to == kNoMachine) return;  // Validate() keeps a survivor
    ReplayMachineOutcome& adopter = out.machines[to];
    if (adoption.new_cluster) ++adopter.reassigned_clusters;
    const std::uint64_t transfer_bytes = machines[from].steal_bytes;
    unit.available_at = std::max(unit.available_at, now);
    unit.setup_seconds = model.MessageSeconds(transfer_bytes);
    unit.adopted = true;
    unit.gate = static_cast<std::uint32_t>(from);
    unit.queued_cost =
        unit.setup_seconds + unit.unit.base_seconds * machines[to].slowdown;
    out.orphan_events.emplace_back(static_cast<std::uint32_t>(from),
                                   unit.unit.pivot);
    ++adopter.messages_received;
    adopter.bytes_received += transfer_bytes;
    remaining[to] += unit.queued_cost;
    queues[to].push_back(unit);
  };

  // Units in flight on a lane when their machine's crash time overtakes
  // them. They are redistributed by the crash event itself, not at the
  // lane event that discovers the overlap: that lane event runs at an
  // earlier time, when dead[] does not yet reflect crashes scheduled in
  // between, and adopting then could pick a machine that dies first and
  // write a cycle into the adopter chain.
  std::vector<std::vector<QueuedUnit>> lost(m);

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    const std::size_t self = ev.machine;
    ReplayMachineOutcome& outcome = out.machines[self];
    if (ev.kind == EventKind::kCrash) {
      dead[self] = 1;
      outcome.crashed = true;
      future_crashes.erase(future_crashes.find(ev.time));
      while (!queues[self].empty()) {
        QueuedUnit unit = queues[self].front();
        queues[self].pop_front();
        reassign(self, unit, ev.time);
      }
      for (const QueuedUnit& unit : lost[self]) reassign(self, unit, ev.time);
      lost[self].clear();
      remaining[self] = 0.0;
      continue;
    }
    if (dead[self] != 0) continue;  // lanes of a crashed machine retire
    double lane_time = ev.time;
    QueuedUnit unit;
    bool have_unit = false;
    if (!queues[self].empty()) {
      unit = queues[self].front();
      queues[self].pop_front();
      remaining[self] -= unit.queued_cost;
      have_unit = true;
    } else if (work_stealing) {
      const std::size_t victim = PickVictim(
          m, self,
          [&](std::size_t j) { return alive(j) && !queues[j].empty(); },
          load);
      if (victim != kNoMachine) {
        unit = queues[victim].back();
        queues[victim].pop_back();
        remaining[victim] -= unit.queued_cost;
        const std::uint64_t steal_bytes = machines[victim].steal_bytes;
        lane_time += model.MessageSeconds(steal_bytes);  // the MPI_Get
        unit.stolen = true;
        ++outcome.stolen_units;
        ++outcome.messages_received;
        outcome.bytes_received += steal_bytes;
        have_unit = true;
      }
    }
    if (!have_unit) {
      // Park until the next scripted crash strictly after now; its
      // redistribution may hand this lane work. With no crash pending,
      // no new work can appear and the lane retires.
      auto it = future_crashes.upper_bound(lane_time);
      if (it != future_crashes.end()) {
        events.push(Event{*it, EventKind::kLane, self, seq++});
      }
      continue;
    }
    const double begin = std::max(lane_time, unit.available_at);
    const double finish = begin + unit.setup_seconds +
                          unit.unit.base_seconds * machines[self].slowdown;
    if (finish > machines[self].crash_seconds) {
      // The machine dies mid-unit; the lane rides into the crash.
      outcome.lost_units.push_back(unit.unit.id);
      lost[self].push_back(unit);
      continue;
    }
    outcome.steps.push_back(
        ReplayStep{unit.unit.id, unit.adopted, unit.stolen, unit.gate});
    if (unit.adopted) outcome.recovery_seconds += finish - begin;
    busy_until[self] = std::max(busy_until[self], finish);
    events.push(Event{finish, EventKind::kLane, self, seq++});
  }

  for (std::size_t i = 0; i < m; ++i) {
    out.machines[i].busy_seconds =
        std::max(busy_until[i] - machines[i].start_seconds, 0.0);
  }
  return out;
}

}  // namespace ceci::distsim
