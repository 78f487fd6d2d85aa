#include "distsim/dist_matcher.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>

#include "ceci/extreme_cluster.h"
#include "ceci/matcher.h"
#include "ceci/preprocess.h"
#include "ceci/symmetry.h"
#include "distsim/shared_store.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci::distsim {
namespace {

struct MachineState {
  Machine accounting;
  std::vector<VertexId> pivots;
  /// This machine's copy of the coordinator's filter verdicts; Build()
  /// writes its alive flags into it. Released once the build returns.
  FilterTable filter;
  FlatCeciIndex flat;  // the machine's frozen CECI, enumerated in place
  BuildStats build_stats;
  std::vector<WorkUnit> units;
  /// Physical per-unit embedding counts, parallel to `units`. The failure
  /// replay credits each unit to its final modeled owner, so totals stay
  /// exactly equal to the failure-free run regardless of the plan.
  std::vector<std::uint64_t> unit_embeddings;
  std::uint64_t embeddings = 0;
  std::uint64_t stolen_units = 0;
  double build_compute = 0.0;     // measured CPU, construction + refinement
  double own_enum_compute = 0.0;  // measured CPU, enumerating own units
  double enum_compute = 0.0;      // simulated, after the stealing replay
  double build_comm = 0.0;        // comm accrued by end of construction
  double steal_unit_bytes = 0.0;  // modeled MPI_Get payload per unit
  /// --- Failure-plan recovery state ---
  bool crashed = false;
  std::uint64_t reassigned_clusters = 0;  // clusters this machine adopted
  double recovery_seconds = 0.0;
  std::uint64_t sim_embeddings = 0;  // credited by the failure replay
};

// Deterministic replay of the paper's work-stealing protocol (§5): every
// machine starts its own unit queue when its construction finishes; a
// machine whose queue drains steals from the victim with the most
// remaining estimated work (MPI_Get), paying a communication charge. Unit
// times are the machine's measured enumeration CPU time split across its
// units proportionally to their cardinalities. Running the replay instead
// of physically stealing between host threads keeps the simulated
// makespans meaningful on hosts with fewer cores than simulated machines.
void ReplayWorkStealing(const DistOptions& options,
                        std::vector<std::unique_ptr<MachineState>>* machines) {
  const std::size_t m = machines->size();

  // Per-machine queue of estimated unit times (largest first, as the pool
  // is sorted by cardinality) and the remaining-total per machine.
  std::vector<std::deque<double>> queues(m);
  std::vector<double> remaining(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    MachineState& machine = *(*machines)[i];
    Cardinality total_card = 0;
    for (const WorkUnit& unit : machine.units) {
      total_card = SaturatingAdd(total_card, unit.cardinality);
    }
    for (const WorkUnit& unit : machine.units) {
      double share =
          total_card == 0
              ? (machine.units.empty()
                     ? 0.0
                     : 1.0 / static_cast<double>(machine.units.size()))
              : static_cast<double>(unit.cardinality) /
                    static_cast<double>(total_card);
      double t = machine.own_enum_compute * share;
      queues[i].push_back(t);
      remaining[i] += t;
    }
  }

  // Lanes: threads_per_machine execution slots per machine, each starting
  // when its machine's construction (+ modeled io/comm) completes.
  struct Lane {
    double time;
    std::size_t machine;
    bool operator>(const Lane& other) const { return time > other.time; }
  };
  std::priority_queue<Lane, std::vector<Lane>, std::greater<Lane>> lanes;
  std::vector<double> busy_until(m, 0.0);
  std::vector<double> start_time(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    MachineState& machine = *(*machines)[i];
    start_time[i] = machine.build_compute +
                    machine.accounting.io_seconds() +
                    machine.accounting.comm_seconds();
    busy_until[i] = start_time[i];
    for (std::size_t t = 0; t < options.threads_per_machine; ++t) {
      lanes.push(Lane{start_time[i], i});
    }
  }

  std::vector<double> steal_comm(m, 0.0);
  while (!lanes.empty()) {
    Lane lane = lanes.top();
    lanes.pop();
    const std::size_t self = lane.machine;
    double unit_time = -1.0;
    if (!queues[self].empty()) {
      unit_time = queues[self].front();
      queues[self].pop_front();
      remaining[self] -= unit_time;
    } else if (options.work_stealing) {
      // Victim: machine with the most remaining estimated work.
      std::size_t victim = self;
      double victim_remaining = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        if (j != self && remaining[j] > victim_remaining) {
          victim_remaining = remaining[j];
          victim = j;
        }
      }
      if (victim != self && !queues[victim].empty()) {
        unit_time = queues[victim].back();
        queues[victim].pop_back();
        remaining[victim] -= unit_time;
        MachineState& machine = *(*machines)[self];
        const std::uint64_t steal_bytes =
            static_cast<std::uint64_t>((*machines)[victim]->steal_unit_bytes);
        const double comm = options.cost_model.MessageSeconds(steal_bytes);
        steal_comm[self] += comm;
        lane.time += comm;  // the MPI_Get delays this lane
        ++machine.stolen_units;
        // Inbound payload of the MPI_Get; time is in `comm` above.
        machine.accounting.RecordReceive(steal_bytes);
      }
    }
    if (unit_time < 0.0) continue;  // nothing left anywhere for this lane
    lane.time += unit_time;
    busy_until[self] = std::max(busy_until[self], lane.time);
    lanes.push(lane);
  }

  for (std::size_t i = 0; i < m; ++i) {
    MachineState& machine = *(*machines)[i];
    // Busy window after construction; steal communication is inside the
    // lane times already, so enum_compute covers execution + MPI_Gets.
    machine.enum_compute = std::max(busy_until[i] - start_time[i], 0.0);
    (void)steal_comm[i];
  }
}

// Failure-aware deterministic replay, used when options.failure_plan is
// active. Differences from ReplayWorkStealing:
//  * Times are fully modeled (CostModel compute rates × straggler
//    slowdown), never measured thread CPU — same plan + seed replays the
//    exact same schedule, so recovery counters are reproducible.
//  * Scripted crashes are events in the lane queue (sorted before lane
//    events at equal times, then by machine id, then by insertion order,
//    so ties break deterministically). A crash orphans the machine's
//    unexplored queue plus any in-flight unit; orphans are reassigned to
//    the least-loaded survivor at cluster (pivot) granularity — the first
//    orphaned unit of a cluster picks the adopter and counts one
//    reassigned_cluster; siblings follow the mapping, so recovery is
//    at-most-once per cluster and embedding totals stay exact.
//  * Each unit carries its physical embedding count; the replay credits
//    it to the unit's final modeled owner.
//  * Idle lanes park until the next scripted crash instead of retiring
//    (crashes are the only source of late-appearing work).
void ReplayWithFailures(const DistOptions& options,
                        std::vector<std::unique_ptr<MachineState>>* machines) {
  const FailurePlan& plan = options.failure_plan;
  const CostModel& model = options.cost_model;
  const std::size_t m = machines->size();
  const double inf = std::numeric_limits<double>::infinity();

  std::vector<double> slowdown(m, 1.0);
  std::vector<double> crash_time(m, inf);
  for (std::size_t i = 0; i < m; ++i) {
    slowdown[i] = plan.Slowdown(i);
    crash_time[i] = plan.CrashTime(i);
  }

  struct ReplayUnit {
    double base_seconds = 0.0;   // nominal; executor's slowdown applies
    double available_at = 0.0;   // earliest start (reassignment instant)
    double setup_seconds = 0.0;  // transfer paid by the adopter
    double queued_cost = 0.0;    // contribution to remaining[owner]
    VertexId pivot = 0;          // cluster identity for at-most-once
    std::uint64_t embeddings = 0;
    bool recovered = false;
  };
  std::vector<std::deque<ReplayUnit>> queues(m);
  std::vector<double> remaining(m, 0.0);
  std::vector<double> start_time(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    MachineState& machine = *(*machines)[i];
    const double build_model =
        static_cast<double>(machine.build_stats.neighbors_scanned) *
        model.build_seconds_per_scanned_entry * slowdown[i];
    // Reports show the modeled (deterministic) construction time.
    machine.build_compute = build_model;
    start_time[i] = build_model + machine.accounting.io_seconds() +
                    machine.accounting.comm_seconds();
    for (std::size_t k = 0; k < machine.units.size(); ++k) {
      const WorkUnit& unit = machine.units[k];
      ReplayUnit ru;
      ru.base_seconds =
          std::max(static_cast<double>(unit.cardinality), 1.0) *
          model.enum_seconds_per_cardinality;
      ru.pivot = unit.prefix.empty() ? 0 : unit.prefix[0];
      ru.embeddings =
          k < machine.unit_embeddings.size() ? machine.unit_embeddings[k] : 0;
      ru.queued_cost = ru.base_seconds * slowdown[i];
      remaining[i] += ru.queued_cost;
      queues[i].push_back(ru);
    }
  }

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
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::uint64_t seq = 0;
  std::vector<double> busy_until(m, 0.0);
  std::vector<char> dead(m, 0);
  std::multiset<double> future_crashes;
  for (std::size_t i = 0; i < m; ++i) {
    busy_until[i] = start_time[i];
    for (std::size_t t = 0; t < options.threads_per_machine; ++t) {
      events.push(Event{start_time[i], EventKind::kLane, i, seq++});
    }
    if (crash_time[i] != inf) {
      events.push(Event{crash_time[i], EventKind::kCrash, i, seq++});
      future_crashes.insert(crash_time[i]);
    }
  }

  // Per-dead-machine cluster → adopter maps. An entry is created the
  // first time one of the cluster's units is orphaned; later siblings
  // follow it, which is what makes reassignment at-most-once per cluster.
  std::vector<std::unordered_map<VertexId, std::size_t>> adopter(m);

  // `exclude` is the machine whose units are being redistributed —
  // always dead by the time reassign runs, so the exclusion is belt and
  // braces: handing a machine its own orphan would write a self-cycle
  // into the adopter map and the chain walk below would never terminate.
  auto pick_survivor = [&](std::size_t exclude) -> std::size_t {
    std::size_t best = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (j == exclude || dead[j] != 0) continue;
      if (best == m || remaining[j] < remaining[best]) best = j;
    }
    return best;
  };

  auto reassign = [&](std::size_t from, ReplayUnit unit, double now) {
    // Follow the adopter chain: an adopter that later died recorded the
    // next hop when its own queue was redistributed. Chains cannot cycle
    // because each hop's entry points at a machine that died strictly
    // later than the hop itself.
    std::size_t hop = from;
    std::size_t to = m;
    while (true) {
      auto it = adopter[hop].find(unit.pivot);
      if (it == adopter[hop].end()) {
        to = pick_survivor(from);
        if (to == m) return;  // unreachable: Validate() keeps a survivor
        adopter[hop].emplace(unit.pivot, to);
        ++(*machines)[to]->reassigned_clusters;
        break;
      }
      if (dead[it->second] == 0) {
        to = it->second;
        break;
      }
      hop = it->second;
    }
    const std::uint64_t transfer_bytes =
        static_cast<std::uint64_t>((*machines)[from]->steal_unit_bytes);
    unit.available_at = std::max(unit.available_at, now);
    unit.setup_seconds = model.MessageSeconds(transfer_bytes);
    unit.recovered = true;
    unit.queued_cost =
        unit.setup_seconds + unit.base_seconds * slowdown[to];
    (*machines)[to]->accounting.RecordReceive(transfer_bytes);
    remaining[to] += unit.queued_cost;
    queues[to].push_back(unit);
  };

  // Units in flight on a lane when their machine's crash time overtakes
  // them. They are redistributed by the crash event itself — NOT at the
  // lane event that discovers the overlap — because the lane event runs
  // at an earlier sim time, when dead[] does not yet reflect crashes
  // scheduled between now and this machine's own crash. Reassigning
  // early could pick an adopter that dies first, writing a cycle into
  // the adopter map that the chain walk would spin on forever.
  std::vector<std::vector<ReplayUnit>> lost(m);

  while (!events.empty()) {
    Event ev = events.top();
    events.pop();
    const std::size_t self = ev.machine;
    if (ev.kind == EventKind::kCrash) {
      dead[self] = 1;
      (*machines)[self]->crashed = true;
      future_crashes.erase(future_crashes.find(ev.time));
      while (!queues[self].empty()) {
        ReplayUnit unit = queues[self].front();
        queues[self].pop_front();
        reassign(self, unit, ev.time);
      }
      for (ReplayUnit& unit : lost[self]) {
        reassign(self, unit, ev.time);
      }
      lost[self].clear();
      remaining[self] = 0.0;
      continue;
    }
    if (dead[self] != 0) continue;  // lanes of a crashed machine retire
    double lane_time = ev.time;
    ReplayUnit unit;
    bool have_unit = false;
    if (!queues[self].empty()) {
      unit = queues[self].front();
      queues[self].pop_front();
      remaining[self] -= unit.queued_cost;
      have_unit = true;
    } else if (options.work_stealing) {
      std::size_t victim = self;
      double victim_remaining = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        if (j == self || dead[j] != 0 || queues[j].empty()) continue;
        if (remaining[j] > victim_remaining) {
          victim_remaining = remaining[j];
          victim = j;
        }
      }
      if (victim != self) {
        unit = queues[victim].back();
        queues[victim].pop_back();
        remaining[victim] -= unit.queued_cost;
        const std::uint64_t steal_bytes = static_cast<std::uint64_t>(
            (*machines)[victim]->steal_unit_bytes);
        lane_time += model.MessageSeconds(steal_bytes);
        ++(*machines)[self]->stolen_units;
        (*machines)[self]->accounting.RecordReceive(steal_bytes);
        have_unit = true;
      }
    }
    if (!have_unit) {
      // Park until the next scripted crash strictly after now — its
      // redistribution may hand this lane work. No pending crash means no
      // new work can ever appear, so the lane retires.
      auto it = future_crashes.upper_bound(lane_time);
      if (it != future_crashes.end()) {
        events.push(Event{*it, EventKind::kLane, self, seq++});
      }
      continue;
    }
    const double begin = std::max(lane_time, unit.available_at);
    const double finish =
        begin + unit.setup_seconds + unit.base_seconds * slowdown[self];
    if (finish > crash_time[self]) {
      // The machine dies mid-unit: the unit is lost with it and gets
      // redistributed when the crash event fires (see `lost` above).
      // This lane rides into the crash.
      lost[self].push_back(unit);
      continue;
    }
    if (unit.recovered) {
      (*machines)[self]->recovery_seconds += finish - begin;
    }
    (*machines)[self]->sim_embeddings += unit.embeddings;
    busy_until[self] = std::max(busy_until[self], finish);
    events.push(Event{finish, EventKind::kLane, self, seq++});
  }

  for (std::size_t i = 0; i < m; ++i) {
    MachineState& machine = *(*machines)[i];
    machine.enum_compute = std::max(busy_until[i] - start_time[i], 0.0);
    // Credit embeddings to final modeled owners; the cluster-wide sum is
    // exactly the physical total because every unit runs exactly once.
    machine.embeddings = machine.sim_embeddings;
  }
}

}  // namespace

Result<DistResult> DistributedMatch(const Graph& data, const Graph& query,
                                    const DistOptions& options) {
  if (options.num_machines < 1 || options.threads_per_machine < 1) {
    return Status::InvalidArgument("machine and thread counts must be >= 1");
  }
  if (Status plan_status = options.failure_plan.Validate(options.num_machines);
      !plan_status.ok()) {
    return plan_status;
  }
  DistResult result;

  TraceSpan dist_span("distsim/match");

  // --- Coordinator: preprocessing + pivot distribution (§5) ---
  // The NLC index is a one-time per-data-graph structure (amortized over
  // queries, like the graph load itself); it is excluded from the per-query
  // preprocess time.
  NlcIndex nlc(data);
  Timer phase;
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{});
  if (!pre.ok()) return pre.status();
  SymmetryConstraints symmetry =
      options.break_automorphisms
          ? SymmetryConstraints::Compute(query)
          : SymmetryConstraints::None(query.num_vertices());
  std::vector<VertexId> pivots;
  if (!pre->infeasible) pivots = std::move(pre->root_candidates);

  AssignOptions assign_options;
  assign_options.num_machines = options.num_machines;
  assign_options.neighbors_visible =
      options.storage == GraphStorage::kReplicated;
  assign_options.jaccard_top_k = options.jaccard_top_k;
  PivotAssignment assignment = AssignPivots(data, pivots, assign_options);
  result.jaccard_colocations = assignment.jaccard_colocations;
  result.preprocess_seconds = phase.Seconds();

  SharedStore store(&options.cost_model);
  std::vector<std::unique_ptr<MachineState>> machines;
  machines.reserve(options.num_machines);
  for (std::size_t m = 0; m < options.num_machines; ++m) {
    auto state = std::make_unique<MachineState>();
    state->accounting =
        Machine(static_cast<std::uint32_t>(m), &options.cost_model);
    state->pivots = std::move(assignment.per_machine[m]);
    if (!state->pivots.empty()) state->filter = pre->filter;
    machines.push_back(std::move(state));
  }
  pre->filter.Release();

  // Pivot distribution messages: coordinator (machine 0) sends each other
  // machine its pivot list; both ends pay.
  for (std::size_t m = 1; m < options.num_machines; ++m) {
    const std::uint64_t bytes = machines[m]->pivots.size() * sizeof(VertexId);
    machines[0]->accounting.ChargeMessage(bytes);
    machines[m]->accounting.ChargeMessage(bytes);
    machines[m]->accounting.RecordReceive(bytes);
  }

  // --- Per-machine CECI construction + own-pool enumeration ---
  // The only cross-machine shared mutable state: a monotone relaxed
  // counter each simulated machine adds into. Everything else is
  // per-machine (MachineState) or read-only, so no Mutex is needed; the
  // coordinator reads the total only after joining the machine threads.
  std::atomic<std::uint64_t> total_embeddings{0};
  EnumOptions enum_options;
  enum_options.symmetry = &symmetry;

  auto machine_fn = [&](std::size_t mid) {
    // Lane outlives the span so simulated machines get stable Chrome-trace
    // rows (lane 0 is the coordinator thread; machines start at 1).
    TraceLane lane(static_cast<std::uint32_t>(mid) + 1);
    TraceSpan machine_span(
        [&] { return "distsim/machine" + std::to_string(mid); });
    MachineState& self = *machines[mid];
    if (self.pivots.empty()) return;

    const double build_cpu_start = ThreadCpuSeconds();
    BuildOptions build_options;
    build_options.root_candidates = &self.pivots;
    build_options.filter_table = &self.filter;
    MatchStats stats;
    self.flat = BuildRefineFreeze(data, nlc, query, pre->tree, build_options,
                                   &stats);
    self.build_stats = stats.build;
    self.units = BuildWorkUnits(data, pre->tree, self.flat, enum_options,
                                options.threads_per_machine, options.beta,
                                options.decompose_extreme_clusters,
                                /*sort_by_cardinality=*/true, nullptr);
    self.build_compute = ThreadCpuSeconds() - build_cpu_start;
    if (options.storage == GraphStorage::kShared) {
      store.ChargeBuild(&self.accounting, self.build_stats);
      if (options.failure_plan.active() &&
          options.failure_plan.storage_error_rate > 0.0) {
        // Deterministic storage flakes: the build's read round trips are a
        // pure function of the deterministic filtering, so the retry draw
        // is reproducible for a given (seed, machine).
        const std::uint64_t round_trips =
            (self.build_stats.frontier_expansions +
             options.cost_model.storage_batch - 1) /
            options.cost_model.storage_batch;
        const StorageRetrySim retries = SimulateStorageRetries(
            options.failure_plan, mid, round_trips, options.cost_model);
        self.accounting.ChargeStorageRetries(retries.retries, retries.seconds);
      }
    }
    self.build_comm = self.accounting.comm_seconds();
    self.steal_unit_bytes =
        self.units.empty()
            ? 0.0
            : static_cast<double>(stats.ceci_bytes) /
                  static_cast<double>(self.units.size());

    // Enumerate the machine's own pool; the work-stealing replay below
    // redistributes tail units analytically.
    const double enum_cpu_start = ThreadCpuSeconds();
    Enumerator enumerator(data, pre->tree, self.flat, enum_options);
    std::uint64_t emitted = 0;
    self.unit_embeddings.reserve(self.units.size());
    for (const WorkUnit& unit : self.units) {
      const std::uint64_t got =
          enumerator.EnumerateFromPrefix(unit.prefix, nullptr);
      self.unit_embeddings.push_back(got);
      emitted += got;
    }
    self.own_enum_compute = ThreadCpuSeconds() - enum_cpu_start;
    self.embeddings = emitted;
    total_embeddings.fetch_add(emitted, std::memory_order_relaxed);
  };

  {
    std::vector<std::thread> machine_threads;
    machine_threads.reserve(options.num_machines);
    for (std::size_t m = 0; m < options.num_machines; ++m) {
      machine_threads.emplace_back(machine_fn, m);
    }
    for (auto& t : machine_threads) t.join();
  }

  if (options.failure_plan.active()) {
    ReplayWithFailures(options, &machines);
  } else {
    ReplayWorkStealing(options, &machines);
  }

  // --- Reports ---
  result.embeddings = total_embeddings.load(std::memory_order_relaxed);
  double slowest = 0.0;
  for (auto& m : machines) {
    MachineReport report;
    report.pivots = m->pivots.size();
    report.embeddings = m->embeddings;
    report.stolen_units = m->stolen_units;
    report.messages = m->accounting.messages();
    report.bytes_sent = m->accounting.bytes_sent();
    report.messages_received = m->accounting.messages_received();
    report.bytes_received = m->accounting.bytes_received();
    report.bytes_read = m->accounting.bytes_read();
    report.build_compute_seconds = m->build_compute;
    report.enum_compute_seconds = m->enum_compute;
    report.io_seconds = m->accounting.io_seconds();
    report.comm_seconds = m->accounting.comm_seconds();
    report.total_seconds = m->build_compute + m->enum_compute +
                           report.io_seconds + report.comm_seconds;
    report.crashed = m->crashed;
    report.reassigned_clusters = m->reassigned_clusters;
    report.storage_retries = m->accounting.storage_retries();
    report.recovery_seconds = m->recovery_seconds;
    slowest = std::max(slowest, report.total_seconds);
    result.total_messages += report.messages;
    result.total_bytes_sent += report.bytes_sent;
    result.total_messages_received += report.messages_received;
    result.total_bytes_received += report.bytes_received;
    result.total_bytes_read += report.bytes_read;
    result.total_stolen_units += report.stolen_units;
    result.build_compute_seconds += m->build_compute;
    result.build_io_seconds += report.io_seconds;
    result.build_comm_seconds += m->build_comm;
    if (report.crashed) ++result.crashed_machines;
    result.total_reassigned_clusters += report.reassigned_clusters;
    result.total_storage_retries += report.storage_retries;
    result.total_recovery_seconds += report.recovery_seconds;
    result.machines.push_back(report);
  }
  result.makespan_seconds = result.preprocess_seconds + slowest;

  // Process-cumulative telemetry for the simulated cluster.
  {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static Counter& queries = reg.GetCounter("distsim.queries");
    static Counter& embeddings = reg.GetCounter("distsim.embeddings");
    static Counter& messages = reg.GetCounter("distsim.messages");
    static Counter& bytes_sent = reg.GetCounter("distsim.bytes_sent");
    static Counter& bytes_received = reg.GetCounter("distsim.bytes_received");
    static Counter& bytes_read = reg.GetCounter("distsim.bytes_read");
    static Counter& stolen_units = reg.GetCounter("distsim.stolen_units");
    static Counter& crashed_machines =
        reg.GetCounter("distsim.recovery.crashed_machines");
    static Counter& reassigned_clusters =
        reg.GetCounter("distsim.recovery.reassigned_clusters");
    static Counter& storage_retries =
        reg.GetCounter("distsim.recovery.storage_retries");
    static Counter& recovery_us = reg.GetCounter("distsim.recovery.busy_us");
    static Histogram& machine_busy_us =
        reg.GetHistogram("distsim.machine_busy_us");
    queries.Increment();
    embeddings.Add(result.embeddings);
    messages.Add(result.total_messages);
    bytes_sent.Add(result.total_bytes_sent);
    bytes_received.Add(result.total_bytes_received);
    bytes_read.Add(result.total_bytes_read);
    stolen_units.Add(result.total_stolen_units);
    crashed_machines.Add(result.crashed_machines);
    reassigned_clusters.Add(result.total_reassigned_clusters);
    storage_retries.Add(result.total_storage_retries);
    recovery_us.Add(
        static_cast<std::uint64_t>(result.total_recovery_seconds * 1e6));
    for (const MachineReport& report : result.machines) {
      machine_busy_us.Record(
          static_cast<std::uint64_t>(report.total_seconds * 1e6));
    }
  }
  return result;
}

std::string DistResultJson(const DistResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.KV("embeddings", result.embeddings);
  w.KV("jaccard_colocations",
       static_cast<std::uint64_t>(result.jaccard_colocations));
  w.KV("preprocess_seconds", result.preprocess_seconds);
  w.KV("makespan_seconds", result.makespan_seconds);
  w.Key("build");
  w.BeginObject();
  w.KV("compute_seconds", result.build_compute_seconds);
  w.KV("io_seconds", result.build_io_seconds);
  w.KV("comm_seconds", result.build_comm_seconds);
  w.EndObject();
  w.Key("traffic");
  w.BeginObject();
  w.KV("messages", result.total_messages);
  w.KV("bytes_sent", result.total_bytes_sent);
  w.KV("messages_received", result.total_messages_received);
  w.KV("bytes_received", result.total_bytes_received);
  w.KV("bytes_read", result.total_bytes_read);
  w.KV("stolen_units", result.total_stolen_units);
  w.EndObject();
  w.Key("recovery");
  w.BeginObject();
  w.KV("crashed_machines",
       static_cast<std::uint64_t>(result.crashed_machines));
  w.KV("reassigned_clusters", result.total_reassigned_clusters);
  w.KV("storage_retries", result.total_storage_retries);
  w.KV("recovery_seconds", result.total_recovery_seconds);
  w.EndObject();
  w.Key("machines");
  w.BeginArray();
  for (const MachineReport& m : result.machines) {
    w.BeginObject();
    w.KV("pivots", static_cast<std::uint64_t>(m.pivots));
    w.KV("embeddings", m.embeddings);
    w.KV("stolen_units", m.stolen_units);
    w.KV("messages", m.messages);
    w.KV("bytes_sent", m.bytes_sent);
    w.KV("messages_received", m.messages_received);
    w.KV("bytes_received", m.bytes_received);
    w.KV("bytes_read", m.bytes_read);
    w.KV("build_compute_seconds", m.build_compute_seconds);
    w.KV("enum_compute_seconds", m.enum_compute_seconds);
    w.KV("io_seconds", m.io_seconds);
    w.KV("comm_seconds", m.comm_seconds);
    w.KV("total_seconds", m.total_seconds);
    w.KV("crashed", m.crashed);
    w.KV("reassigned_clusters", m.reassigned_clusters);
    w.KV("storage_retries", m.storage_retries);
    w.KV("recovery_seconds", m.recovery_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace ceci::distsim
