#include "dist/supervisor.h"

#include <csignal>
#include <cstdlib>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/extreme_cluster.h"
#include "ceci/flat_index.h"
#include "ceci/index_io.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "dist/messages.h"
#include "dist/worker.h"
#include "distsim/cluster.h"
#include "distsim/machine.h"
#include "graph/nlc_index.h"
#include "graphio/pattern_parser.h"
#include "util/frame_transport.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/metrics_registry.h"
#include "util/subprocess.h"
#include "util/timer.h"

namespace ceci::dist {
namespace {

constexpr std::uint32_t kNoGate = 0xffffffffu;

/// Global (cross-partition) identity and outcome of one work unit.
struct UnitRecord {
  std::uint32_t origin = 0;  // partition whose CEIX image covers it
  std::vector<VertexId> prefix;
  Cardinality cardinality = 0;
  VertexId pivot = 0;  // cluster identity (prefix[0]); 0 for empty prefix
  bool done = false;
  std::uint64_t results_counted = 0;
  std::uint32_t executed_by = 0;
  std::uint64_t embeddings = 0;
  std::uint64_t recursive_calls = 0;
  double enum_seconds = 0.0;
  bool redelivered = false;
  std::uint32_t released_from = 0;
  bool stolen = false;
};

/// One queued dispatch: a unit plus how it got onto this worker's queue.
/// `gate` names a worker whose (real) death must precede dispatch — the
/// worker whose possession the unit was released from, so re-adopted
/// units never run before the kill they recover from.
struct PendingStep {
  std::uint64_t unit_id = 0;
  std::uint32_t origin = 0;
  std::uint32_t gate = kNoGate;
  bool adopted = false;
  bool stolen = false;
};

/// Supervisor-side output of one partition build (mirrors the simulated
/// machine_fn so a FailurePlan replays identically against either).
struct Partition {
  std::vector<VertexId> pivots;
  /// This partition's copy of the coordinator's filter verdicts; Build()
  /// writes its alive flags into it. Released once the build returns.
  FilterTable filter;
  std::vector<WorkUnit> units;
  BuildStats build_stats;
  double steal_unit_bytes = 0.0;
  double build_seconds = 0.0;  // measured wall time of the build thread
  std::uint64_t image_bytes = 0;
  Status status = Status::Ok();
  distsim::Machine accounting;
};

/// The scripted-mode crash schedule: the same deterministic replay
/// distsim's ReplayWithFailures runs, re-derived here over unit metadata
/// so the real dispatcher can follow it in lockstep. Any drift between
/// this mirror and the simulation shows up directly in the differential
/// test (tests/test_dist_process.cc), which compares recovery accounting
/// between the two.
struct FailureSchedule {
  std::vector<std::vector<PendingStep>> steps;  // per worker, in order
  std::vector<char> crashed;
  /// Unit in flight at the crash instant (sent for real, then the worker
  /// is SIGKILLed mid-enumeration; any racing result is discarded in
  /// favour of the adopter's re-execution). -1 = none.
  std::vector<std::int64_t> lost_unit;
  std::vector<std::uint64_t> reassigned;  // adopter-side cluster adoptions
  std::vector<double> recovery_seconds;
  std::vector<double> modeled_enum;
  std::vector<double> modeled_start;
  std::vector<std::pair<std::uint32_t, VertexId>> orphan_events;
};

FailureSchedule ComputeFailureSchedule(
    const DistProcessOptions& options, const std::vector<Partition>& parts,
    const std::vector<UnitRecord>& table,
    const std::vector<std::vector<std::uint64_t>>& initial_units) {
  const distsim::FailurePlan& plan = options.failure_plan;
  const CostModel& model = options.cost_model;
  const std::size_t m = parts.size();
  const double inf = std::numeric_limits<double>::infinity();

  FailureSchedule sched;
  sched.steps.resize(m);
  sched.crashed.assign(m, 0);
  sched.lost_unit.assign(m, -1);
  sched.reassigned.assign(m, 0);
  sched.recovery_seconds.assign(m, 0.0);
  sched.modeled_enum.assign(m, 0.0);
  sched.modeled_start.assign(m, 0.0);

  std::vector<double> slowdown(m, 1.0);
  std::vector<double> crash_time(m, inf);
  for (std::size_t i = 0; i < m; ++i) {
    slowdown[i] = plan.Slowdown(i);
    crash_time[i] = plan.CrashTime(i);
  }

  struct ReplayUnit {
    std::uint64_t unit_id = 0;
    double base_seconds = 0.0;
    double available_at = 0.0;
    double setup_seconds = 0.0;
    double queued_cost = 0.0;
    VertexId pivot = 0;
    bool recovered = false;
    bool was_stolen = false;
    std::uint32_t gate = kNoGate;  // last dead holder (reassignment hop)
  };
  std::vector<std::deque<ReplayUnit>> queues(m);
  std::vector<double> remaining(m, 0.0);
  std::vector<double> start_time(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double build_model =
        static_cast<double>(parts[i].build_stats.neighbors_scanned) *
        model.build_seconds_per_scanned_entry * slowdown[i];
    start_time[i] = build_model + parts[i].accounting.io_seconds() +
                    parts[i].accounting.comm_seconds();
    sched.modeled_start[i] = start_time[i];
    for (std::uint64_t id : initial_units[i]) {
      const UnitRecord& unit = table[id];
      ReplayUnit ru;
      ru.unit_id = id;
      ru.base_seconds =
          std::max(static_cast<double>(unit.cardinality), 1.0) *
          model.enum_seconds_per_cardinality;
      ru.pivot = unit.pivot;
      ru.queued_cost = ru.base_seconds * slowdown[i];
      remaining[i] += ru.queued_cost;
      queues[i].push_back(ru);
    }
  }

  enum class EventKind { kCrash = 0, kLane = 1 };
  struct Event {
    double time;
    EventKind kind;
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
    events.push(Event{start_time[i], EventKind::kLane, i, seq++});
    if (crash_time[i] != inf) {
      events.push(Event{crash_time[i], EventKind::kCrash, i, seq++});
      future_crashes.insert(crash_time[i]);
    }
  }

  std::vector<std::unordered_map<VertexId, std::size_t>> adopter(m);

  // `exclude` is the machine being drained — dead by the time reassign
  // runs, so this is belt and braces: a machine adopting its own orphan
  // would self-cycle the adopter map and hang the chain walk.
  auto pick_survivor = [&](std::size_t exclude) -> std::size_t {
    std::size_t best = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (j == exclude || dead[j] != 0) continue;
      if (best == m || remaining[j] < remaining[best]) best = j;
    }
    return best;
  };

  auto reassign = [&](std::size_t from, ReplayUnit unit, double now) {
    std::size_t hop = from;
    std::size_t to = m;
    while (true) {
      auto it = adopter[hop].find(unit.pivot);
      if (it == adopter[hop].end()) {
        to = pick_survivor(from);
        if (to == m) return;  // unreachable: Validate() keeps a survivor
        adopter[hop].emplace(unit.pivot, to);
        ++sched.reassigned[to];
        break;
      }
      if (dead[it->second] == 0) {
        to = it->second;
        break;
      }
      hop = it->second;
    }
    const std::uint64_t transfer_bytes =
        static_cast<std::uint64_t>(parts[from].steal_unit_bytes);
    unit.available_at = std::max(unit.available_at, now);
    unit.setup_seconds = model.MessageSeconds(transfer_bytes);
    unit.recovered = true;
    unit.gate = static_cast<std::uint32_t>(from);
    unit.queued_cost = unit.setup_seconds + unit.base_seconds * slowdown[to];
    sched.orphan_events.emplace_back(static_cast<std::uint32_t>(from),
                                     unit.pivot);
    remaining[to] += unit.queued_cost;
    queues[to].push_back(unit);
  };

  // In-flight units overtaken by their machine's crash time. They are
  // redistributed by the crash event — not at the lane event that
  // discovers the overlap — so the adopter choice sees the dead[] state
  // of the crash instant; choosing earlier could pick a machine that
  // dies in between and cycle the adopter map (mirrors distsim).
  std::vector<std::vector<ReplayUnit>> lost(m);

  while (!events.empty()) {
    Event ev = events.top();
    events.pop();
    const std::size_t self = ev.machine;
    if (ev.kind == EventKind::kCrash) {
      dead[self] = 1;
      sched.crashed[self] = 1;
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
    if (dead[self] != 0) continue;
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
        const std::uint64_t steal_bytes =
            static_cast<std::uint64_t>(parts[victim].steal_unit_bytes);
        lane_time += model.MessageSeconds(steal_bytes);
        unit.was_stolen = true;
        have_unit = true;
      }
    }
    if (!have_unit) {
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
      // Dies mid-unit: the real dispatcher sends this unit to the worker
      // and SIGKILLs it mid-enumeration; the adopter's re-execution is the
      // one that counts. Redistribution happens at the crash event.
      sched.lost_unit[self] = static_cast<std::int64_t>(unit.unit_id);
      lost[self].push_back(unit);
      continue;
    }
    PendingStep step;
    step.unit_id = unit.unit_id;
    step.origin = table[unit.unit_id].origin;
    step.gate = unit.gate;
    step.adopted = unit.recovered;
    step.stolen = unit.was_stolen;
    sched.steps[self].push_back(step);
    if (unit.recovered) sched.recovery_seconds[self] += finish - begin;
    busy_until[self] = std::max(busy_until[self], finish);
    events.push(Event{finish, EventKind::kLane, self, seq++});
  }

  for (std::size_t i = 0; i < m; ++i) {
    sched.modeled_enum[i] = std::max(busy_until[i] - start_time[i], 0.0);
  }
  return sched;
}

/// Owns the scratch directory holding the per-partition CEIX images and
/// removes everything it knows about on destruction.
class ScratchDir {
 public:
  Status Create(const std::string& base_or_empty, std::size_t num_workers) {
    std::string base = base_or_empty;
    if (base.empty()) {
      const char* env = std::getenv("TMPDIR");
      base = (env != nullptr && env[0] != '\0') ? env : "/tmp";
    }
    std::string templ = base + "/ceci_dist.XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      return Status::IoError("mkdtemp failed under " + base);
    }
    path_ = buf.data();
    num_workers_ = num_workers;
    return Status::Ok();
  }

  const std::string& path() const { return path_; }

  ~ScratchDir() {
    if (path_.empty()) return;
    for (std::size_t k = 0; k < num_workers_; ++k) {
      ::unlink(PartitionImagePath(path_, static_cast<std::uint32_t>(k))
                   .c_str());
    }
    ::rmdir(path_.c_str());
  }

 private:
  std::string path_;
  std::size_t num_workers_ = 0;
};

struct WorkerState {
  std::uint32_t id = 0;
  ChildProcess proc;
  std::unique_ptr<FrameChannel> channel;
  bool spawned = false;
  bool live = false;
  bool dead = false;  // death fully handled (gates key off this)
  bool crashed = false;
  bool killed_by_plan = false;
  bool scripted_crash = false;
  std::int64_t lost_unit = -1;
  std::uint64_t durable_target = 0;
  std::deque<PendingStep> queue;
  std::deque<PendingStep> inflight;
  std::set<std::uint64_t> discard;
  double remaining_cost = 0.0;
  double last_frame_seconds = 0.0;
  bool reaped = false;
  ChildExit exit_info;
  // Run tallies (filled as counted results arrive).
  std::uint64_t results_received = 0;
  std::uint64_t units_executed = 0;
  std::uint64_t embeddings = 0;
  std::uint64_t recursive_calls = 0;
  Cardinality cardinality_executed = 0;
  std::uint64_t stolen_units = 0;
  std::uint64_t adopted_units = 0;
  std::uint64_t reassigned_clusters = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t bytes_to_worker = 0;
  std::uint64_t bytes_from_worker = 0;
  double enum_seconds = 0.0;
  /// Reactive-mode at-most-once map: cluster pivot -> adopter, created
  /// when this worker dies (same chain semantics as the replay).
  std::unordered_map<VertexId, std::uint32_t> cluster_adopter;
};

}  // namespace

Result<DistRunReport> RunDistributed(const Graph& data,
                                     const Graph& caller_query,
                                     const DistProcessOptions& options) {
  // Workers rebuild the query from this text, and parsing numbers vertices
  // by first appearance, which can differ from the caller's numbering.
  // Derive the tree, symmetry, partitions and images from the same parse
  // so supervisor and workers agree on every vertex id.
  const std::string pattern_text = FormatPattern(caller_query);
  auto canonical = ParsePattern(pattern_text);
  if (!canonical.ok()) return canonical.status();
  const Graph& query = *canonical;
  const std::size_t n = options.num_workers;
  if (n < 1) return Status::InvalidArgument("num_workers must be >= 1");
  if (options.worker_binary.empty()) {
    return Status::InvalidArgument("worker_binary is required");
  }
  if (::access(options.worker_binary.c_str(), X_OK) != 0) {
    return Status::InvalidArgument("worker binary not executable: " +
                                   options.worker_binary);
  }
  CECI_RETURN_IF_ERROR(options.failure_plan.Validate(n));
  const bool scripted = options.failure_plan.active();

  Timer wall;
  DistRunReport report;

  // --- Coordinator: preprocessing + pivot distribution (§5) ---
  // The NLC build is the coordinator's first step and counts toward
  // preprocess_seconds.
  Timer phase;
  NlcIndex nlc(data);
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{});
  if (!pre.ok()) return pre.status();
  SymmetryConstraints symmetry =
      options.break_automorphisms
          ? SymmetryConstraints::Compute(query)
          : SymmetryConstraints::None(query.num_vertices());
  std::vector<VertexId> pivots;
  if (!pre->infeasible) pivots = std::move(pre->root_candidates);
  distsim::AssignOptions assign_options;
  assign_options.num_machines = n;
  assign_options.neighbors_visible = true;  // images are host-local
  assign_options.jaccard_top_k = options.jaccard_top_k;
  distsim::PivotAssignment assignment =
      distsim::AssignPivots(data, pivots, assign_options);
  report.jaccard_colocations = assignment.jaccard_colocations;
  report.preprocess_seconds = phase.Seconds();

  ScratchDir scratch;
  CECI_RETURN_IF_ERROR(scratch.Create(options.scratch_dir, n));

  std::vector<Partition> parts(n);
  for (std::size_t k = 0; k < n; ++k) {
    parts[k].accounting =
        distsim::Machine(static_cast<std::uint32_t>(k), &options.cost_model);
    parts[k].pivots = std::move(assignment.per_machine[k]);
  }
  // Pivot distribution messages: coordinator (worker 0's host role) sends
  // each other partition its pivot list; both ends pay — identical to the
  // simulation so modeled start offsets line up.
  for (std::size_t k = 1; k < n; ++k) {
    const std::uint64_t bytes = parts[k].pivots.size() * sizeof(VertexId);
    parts[0].accounting.ChargeMessage(bytes);
    parts[k].accounting.ChargeMessage(bytes);
    parts[k].accounting.RecordReceive(bytes);
  }

  // --- Per-partition CECI construction + CEIX images ---
  for (Partition& part : parts) {
    if (!part.pivots.empty()) part.filter = pre->filter;
  }
  pre->filter.Release();
  EnumOptions enum_options;
  enum_options.symmetry = &symmetry;
  auto build_fn = [&](std::size_t k) {
    Partition& part = parts[k];
    if (part.pivots.empty()) return;
    Timer build_timer;
    BuildOptions build_options;
    build_options.root_candidates = &part.pivots;
    build_options.filter_table = &part.filter;
    CeciBuilder builder(data, nlc);
    CeciIndex index =
        builder.Build(query, pre->tree, build_options, &part.build_stats);
    part.filter.Release();
    RefineCeci(pre->tree, data.num_vertices(), &index, nullptr);
    part.units = BuildWorkUnits(data, pre->tree, index, enum_options,
                                /*workers=*/1, options.beta,
                                options.decompose_extreme_clusters,
                                /*sort_by_cardinality=*/true, nullptr);
    part.steal_unit_bytes =
        part.units.empty()
            ? 0.0
            : static_cast<double>(index.MemoryBytes()) /
                  static_cast<double>(part.units.size());
    FlatCeciIndex flat = FlatCeciIndex::Build(index, pre->tree);
    part.image_bytes = flat.ArenaBytes();
    part.status = WriteFlatIndex(
        flat, pattern_text,
        PartitionImagePath(scratch.path(), static_cast<std::uint32_t>(k)));
    part.build_seconds = build_timer.Seconds();
  };
  {
    std::vector<std::thread> build_threads;
    build_threads.reserve(n);
    for (std::size_t k = 0; k < n; ++k) build_threads.emplace_back(build_fn, k);
    for (auto& t : build_threads) t.join();
  }
  for (std::size_t k = 0; k < n; ++k) {
    CECI_RETURN_IF_ERROR(parts[k].status);
    report.build_seconds = std::max(report.build_seconds,
                                    parts[k].build_seconds);
  }

  // --- Global unit table ---
  std::vector<UnitRecord> table;
  std::vector<std::vector<std::uint64_t>> initial_units(n);
  for (std::size_t k = 0; k < n; ++k) {
    for (const WorkUnit& unit : parts[k].units) {
      UnitRecord record;
      record.origin = static_cast<std::uint32_t>(k);
      record.prefix = unit.prefix;
      record.cardinality = unit.cardinality;
      record.pivot = unit.prefix.empty() ? 0 : unit.prefix[0];
      initial_units[k].push_back(table.size());
      table.push_back(std::move(record));
    }
  }
  const std::uint64_t total_units = table.size();
  report.total_units = total_units;

  auto unit_cost = [&](const UnitRecord& u) {
    return std::max(static_cast<double>(u.cardinality), 1.0) *
           options.cost_model.enum_seconds_per_cardinality;
  };

  // --- Scripted mode: fix the schedule before any process exists ---
  FailureSchedule sched;
  if (scripted) {
    sched = ComputeFailureSchedule(options, parts, table, initial_units);
    report.orphan_events = sched.orphan_events;
  }

  // --- Spawn workers ---
  // Every worker is spawned, including empty partitions: the replay may
  // pick any live machine as an adopter or thief, and a scripted crash of
  // an idle worker still injects a genuine SIGKILL into a live process.
  static Gauge& live_gauge =
      MetricsRegistry::Global().GetGauge("dist.live_workers");
  std::vector<WorkerState> workers(n);
  TransportOptions transport;
  transport.io_timeout_seconds = options.io_timeout_seconds;
  std::size_t live_count = 0;
  auto kill_all = [&]() {
    for (WorkerState& w : workers) {
      if (!w.spawned) continue;
      if (!w.reaped) {
        SignalChild(w.proc.pid, SIGKILL);
        w.exit_info = WaitChild(w.proc.pid);
        w.reaped = true;
      }
      if (w.channel) w.channel->Close();
      w.live = false;
    }
  };
  for (std::size_t k = 0; k < n; ++k) {
    WorkerState& w = workers[k];
    w.id = static_cast<std::uint32_t>(k);
    std::vector<std::string> args = {
        "--index-dir",    scratch.path(),
        "--worker-id",    std::to_string(k),
        "--heartbeat-ms", std::to_string(options.heartbeat_seconds * 1000.0),
        "--io-timeout-s", std::to_string(options.io_timeout_seconds)};
    if (!options.use_mmap) args.push_back("--no-mmap");
    if (!options.break_automorphisms) args.push_back("--no-symmetry");
    auto child = SpawnWithChannel(options.worker_binary, args);
    if (!child.ok()) {
      kill_all();
      return child.status();
    }
    w.proc = *child;
    w.channel = std::make_unique<FrameChannel>(child->channel_fd, transport);
    w.spawned = true;
    w.live = true;
    w.last_frame_seconds = wall.Seconds();
    ++live_count;
  }
  live_gauge.Set(static_cast<std::int64_t>(live_count));

  // --- Install queues ---
  if (scripted) {
    for (std::size_t k = 0; k < n; ++k) {
      WorkerState& w = workers[k];
      w.queue.assign(sched.steps[k].begin(), sched.steps[k].end());
      w.durable_target = sched.steps[k].size();
      w.scripted_crash = sched.crashed[k] != 0;
      w.lost_unit = sched.lost_unit[k];
      w.reassigned_clusters = sched.reassigned[k];
      for (const PendingStep& s : w.queue) {
        w.remaining_cost += unit_cost(table[s.unit_id]);
      }
    }
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      WorkerState& w = workers[k];
      for (std::uint64_t id : initial_units[k]) {
        PendingStep step;
        step.unit_id = id;
        step.origin = static_cast<std::uint32_t>(k);
        w.queue.push_back(step);
        w.remaining_cost += unit_cost(table[id]);
      }
    }
  }

  const std::size_t window = scripted ? 1 : std::max<std::size_t>(
                                                options.pipeline_window, 1);
  std::uint64_t done_units = 0;
  std::uint64_t units_dispatched = 0;
  std::uint64_t discarded_results = 0;
  std::uint64_t heartbeat_timeouts = 0;
  bool fatal = false;
  std::string fatal_message;

  auto handle_result = [&](WorkerState& w, const ResultMsg& r) {
    PendingStep step;
    bool was_inflight = false;
    for (auto it = w.inflight.begin(); it != w.inflight.end(); ++it) {
      if (it->unit_id == r.unit_id) {
        step = *it;
        w.inflight.erase(it);
        was_inflight = true;
        break;
      }
    }
    if (w.discard.count(r.unit_id) != 0) {
      // The worker outran the SIGKILL on its doomed in-flight unit; the
      // adopter's re-execution is the one that counts (at-most-once).
      w.discard.erase(r.unit_id);
      ++discarded_results;
      return;
    }
    if (r.unit_id >= table.size()) {
      CECI_LOG(Warning) << "dist: worker " << w.id
                        << " reported unknown unit " << r.unit_id;
      return;
    }
    UnitRecord& unit = table[r.unit_id];
    if (unit.done) {
      ++discarded_results;
      return;
    }
    unit.done = true;
    unit.results_counted = 1;
    unit.executed_by = w.id;
    unit.embeddings = r.embeddings;
    unit.recursive_calls = r.recursive_calls;
    unit.enum_seconds = r.enum_seconds;
    if (was_inflight) {
      if (step.adopted) {
        unit.redelivered = true;
        if (step.gate != kNoGate) unit.released_from = step.gate;
        ++w.adopted_units;
      }
      if (step.stolen) {
        unit.stolen = true;
        ++w.stolen_units;
      }
    }
    ++done_units;
    ++w.results_received;
    ++w.units_executed;
    w.embeddings += r.embeddings;
    w.recursive_calls += r.recursive_calls;
    w.cardinality_executed += unit.cardinality;
    w.enum_seconds += r.enum_seconds;
    w.remaining_cost = std::max(0.0, w.remaining_cost - unit_cost(unit));
  };

  auto handle_frame = [&](WorkerState& w, const Frame& frame) {
    w.last_frame_seconds = wall.Seconds();
    switch (static_cast<MsgType>(frame.type)) {
      case MsgType::kHello: {
        auto hello = DecodeHello(frame.payload);
        if (hello.ok()) w.arena_bytes = hello->arena_bytes;
        break;
      }
      case MsgType::kHeartbeat:
        ++w.heartbeats;
        break;
      case MsgType::kResult: {
        auto result = DecodeResult(frame.payload);
        if (result.ok()) handle_result(w, *result);
        break;
      }
      default:
        CECI_LOG(Warning) << "dist: worker " << w.id
                          << " sent unexpected frame type "
                          << static_cast<int>(frame.type);
        break;
    }
  };

  auto pick_adopter = [&]() -> std::uint32_t {
    std::uint32_t best = kNoGate;
    for (std::size_t j = 0; j < n; ++j) {
      if (!workers[j].live) continue;
      if (best == kNoGate ||
          workers[j].remaining_cost < workers[best].remaining_cost) {
        best = static_cast<std::uint32_t>(j);
      }
    }
    return best;
  };

  // Declared before death() (they recurse through dispatch failures).
  std::function<void(WorkerState&, bool)> death;

  auto queue_step = [&](WorkerState& w, const PendingStep& step) -> bool {
    AssignMsg assign;
    assign.unit_id = step.unit_id;
    assign.origin = step.origin;
    assign.prefix = table[step.unit_id].prefix;
    Status status = w.channel->Queue(
        static_cast<std::uint8_t>(MsgType::kAssign), EncodeAssign(assign));
    if (!status.ok()) {
      CECI_LOG(Warning) << "dist: assign to worker " << w.id
                        << " failed: " << status.ToString();
      return false;
    }
    return true;
  };

  // Fills the worker's window from the head of its queue and writes the
  // batch with one flush. A failed write is the worker's death; the death
  // handler re-adopts the in-flight units the batch carried.
  auto dispatch = [&](WorkerState& w) {
    std::size_t batch = 0;
    while (w.live && w.inflight.size() < window && !w.queue.empty()) {
      PendingStep& head = w.queue.front();
      if (head.gate != kNoGate && !workers[head.gate].dead) break;
      if (!queue_step(w, head)) {
        death(w, /*scripted_kill=*/false);
        return;
      }
      w.inflight.push_back(head);
      w.queue.pop_front();
      ++batch;
    }
    if (batch == 0) return;
    if (Status status = w.channel->Flush(); !status.ok()) {
      CECI_LOG(Warning) << "dist: assign to worker " << w.id
                        << " failed: " << status.ToString();
      death(w, /*scripted_kill=*/false);
      return;
    }
    units_dispatched += batch;
  };

  death = [&](WorkerState& w, bool scripted_kill) {
    if (!w.live) return;
    w.live = false;
    --live_count;
    live_gauge.Set(static_cast<std::int64_t>(live_count));
    w.crashed = true;
    w.killed_by_plan = w.killed_by_plan || scripted_kill;
    if (!w.reaped) SignalChild(w.proc.pid, SIGKILL);  // make death true
    // Drain buffered frames to EOF: results the worker produced before
    // dying still count exactly once.
    Timer drain;
    while (drain.Seconds() < 3.0) {
      auto frame = w.channel->Recv(0.2);
      if (frame.ok()) {
        handle_frame(w, *frame);
        continue;
      }
      if (frame.status().code() == Status::Code::kNotFound) continue;
      break;  // EOF (or sticky fatal) — channel fully drained
    }
    w.bytes_to_worker = w.channel->bytes_sent();
    w.bytes_from_worker = w.channel->bytes_received();
    w.channel->Close();
    if (!w.reaped) {
      w.exit_info = WaitChild(w.proc.pid);
      w.reaped = true;
    }
    w.dead = true;  // gates keyed on this worker now open

    // Re-adopt whatever died with it: queued steps plus in-flight units
    // with no counted result (minus doomed copies already re-scheduled by
    // the script). Scripted kills arrive here with empty queues, so this
    // path runs for reactive mode and unexpected deaths only.
    std::vector<PendingStep> orphans(w.queue.begin(), w.queue.end());
    for (const PendingStep& step : w.inflight) {
      if (!table[step.unit_id].done && w.discard.count(step.unit_id) == 0) {
        orphans.push_back(step);
      }
    }
    w.queue.clear();
    w.inflight.clear();
    w.remaining_cost = 0.0;
    for (const PendingStep& step : orphans) {
      const VertexId pivot = table[step.unit_id].pivot;
      std::uint32_t hop = w.id;
      std::uint32_t to = kNoGate;
      while (true) {
        auto& map = workers[hop].cluster_adopter;
        auto it = map.find(pivot);
        if (it == map.end()) {
          to = pick_adopter();
          if (to == kNoGate) break;
          map.emplace(pivot, to);
          ++workers[to].reassigned_clusters;
          break;
        }
        if (workers[it->second].live) {
          to = it->second;
          break;
        }
        hop = it->second;
      }
      if (to == kNoGate) {
        fatal = true;
        fatal_message = "all workers died with units outstanding";
        return;
      }
      report.orphan_events.emplace_back(w.id, pivot);
      table[step.unit_id].released_from = w.id;
      PendingStep adopted = step;
      adopted.adopted = true;
      adopted.gate = w.id;  // already dead: the gate is open by definition
      workers[to].queue.push_back(adopted);
      workers[to].remaining_cost += unit_cost(table[step.unit_id]);
    }
  };

  auto scripted_kill_pass = [&]() {
    if (!scripted) return;
    for (WorkerState& w : workers) {
      if (!w.live || !w.scripted_crash) continue;
      if (!w.queue.empty() || !w.inflight.empty()) continue;
      if (w.results_received < w.durable_target) continue;
      // Every durable unit is in: inject the scripted kill -9. If the
      // model lost a unit mid-flight, send it first so the worker really
      // is enumerating when the signal lands.
      if (w.lost_unit >= 0) {
        const auto lost = static_cast<std::uint64_t>(w.lost_unit);
        PendingStep doomed;
        doomed.unit_id = lost;
        doomed.origin = table[lost].origin;
        w.discard.insert(lost);
        if (queue_step(w, doomed) && w.channel->Flush().ok()) {
          ++units_dispatched;
        }
      }
      SignalChild(w.proc.pid, SIGKILL);
      w.killed_by_plan = true;
      death(w, /*scripted_kill=*/true);
    }
  };

  auto steal_pass = [&]() {
    if (scripted || !options.work_stealing) return;
    for (WorkerState& w : workers) {
      if (!w.live || !w.queue.empty() || !w.inflight.empty()) continue;
      std::uint32_t victim = kNoGate;
      double victim_remaining = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (static_cast<std::uint32_t>(j) == w.id) continue;
        if (!workers[j].live || workers[j].queue.empty()) continue;
        if (workers[j].remaining_cost > victim_remaining) {
          victim_remaining = workers[j].remaining_cost;
          victim = static_cast<std::uint32_t>(j);
        }
      }
      if (victim == kNoGate) continue;
      WorkerState& v = workers[victim];
      PendingStep step = v.queue.back();
      v.queue.pop_back();
      const double cost = unit_cost(table[step.unit_id]);
      v.remaining_cost = std::max(0.0, v.remaining_cost - cost);
      step.stolen = true;
      w.queue.push_back(step);
      w.remaining_cost += cost;
      // Send it now rather than after the next poll: the thief is idle,
      // and that poll may wait on a peer's next result batch.
      dispatch(w);
    }
  };

  std::unordered_map<int, std::uint32_t> fd_to_worker;
  auto pump = [&](WorkerState& w) {
    while (w.live) {
      auto frame = w.channel->Recv(0.0);
      if (frame.ok()) {
        handle_frame(w, *frame);
        continue;
      }
      if (frame.status().code() == Status::Code::kNotFound) return;
      // EOF or transport fault: the worker is gone.
      death(w, /*scripted_kill=*/false);
      return;
    }
  };

  // --- The supervision loop ---
  while (done_units < total_units && !fatal) {
    scripted_kill_pass();
    for (WorkerState& w : workers) {
      if (w.live) dispatch(w);
      if (fatal) break;
    }
    if (fatal) break;
    steal_pass();
    if (done_units >= total_units) break;
    if (live_count == 0) {
      fatal = true;
      fatal_message = "all workers died with units outstanding";
      break;
    }

    std::vector<int> fds;
    fd_to_worker.clear();
    for (const WorkerState& w : workers) {
      if (!w.live) continue;
      fds.push_back(w.channel->fd());
      fd_to_worker[w.channel->fd()] = w.id;
    }
    std::vector<int> ready;
    PollReadable(fds, 0.02, &ready);
    for (int fd : ready) {
      auto it = fd_to_worker.find(fd);
      if (it != fd_to_worker.end()) pump(workers[it->second]);
    }

    const double now = wall.Seconds();
    for (WorkerState& w : workers) {
      if (!w.live) continue;
      ChildExit exit_info;
      if (TryReapChild(w.proc.pid, &exit_info)) {
        w.exit_info = exit_info;
        w.reaped = true;
        death(w, /*scripted_kill=*/false);
        continue;
      }
      if (now - w.last_frame_seconds > options.heartbeat_deadline_seconds) {
        ++heartbeat_timeouts;
        CECI_LOG(Warning) << "dist: worker " << w.id << " silent for "
                          << options.heartbeat_deadline_seconds
                          << "s; declaring dead";
        death(w, /*scripted_kill=*/false);
      }
    }
  }

  if (fatal) {
    kill_all();
    return Status::IoError(fatal_message);
  }

  // --- Teardown: polite shutdown to every live worker, then reap them
  // together, so the workers exit in parallel ---
  std::vector<WorkerState*> exiting;
  for (WorkerState& w : workers) {
    if (!w.live) continue;
    (void)w.channel->Send(static_cast<std::uint8_t>(MsgType::kShutdown), {});
    w.bytes_to_worker = w.channel->bytes_sent();
    w.bytes_from_worker = w.channel->bytes_received();
    w.channel->Close();  // EOF backstop if the shutdown frame is missed
    w.live = false;
    w.dead = true;
    exiting.push_back(&w);
  }
  Timer reap;
  while (!exiting.empty() && reap.Seconds() < 5.0) {
    std::erase_if(exiting, [](WorkerState* w) {
      if (!TryReapChild(w->proc.pid, &w->exit_info)) return false;
      w->reaped = true;
      return true;
    });
    // A worker exits within a millisecond of its shutdown frame; a short
    // poll keeps the reap from adding a sleep quantum to every run.
    if (!exiting.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  for (WorkerState* w : exiting) {
    SignalChild(w->proc.pid, SIGKILL);
    w->exit_info = WaitChild(w->proc.pid);
    w->reaped = true;
  }

  // --- Reports, accounting, audit, metrics ---
  report.wall_seconds = wall.Seconds();
  report.workers.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const WorkerState& w = workers[k];
    WorkerReport wr;
    wr.worker_id = w.id;
    wr.pid = static_cast<std::int64_t>(w.proc.pid);
    wr.pivots = parts[k].pivots.size();
    wr.initial_units = parts[k].units.size();
    wr.units_executed = w.units_executed;
    wr.embeddings = w.embeddings;
    wr.recursive_calls = w.recursive_calls;
    wr.cardinality_executed = w.cardinality_executed;
    wr.stolen_units = w.stolen_units;
    wr.adopted_units = w.adopted_units;
    wr.reassigned_clusters = w.reassigned_clusters;
    wr.heartbeats = w.heartbeats;
    wr.bytes_to_worker = w.bytes_to_worker;
    wr.bytes_from_worker = w.bytes_from_worker;
    wr.arena_bytes = w.arena_bytes;
    wr.build_seconds = parts[k].build_seconds;
    wr.enum_seconds = w.enum_seconds;
    if (scripted) {
      wr.modeled_enum_seconds = sched.modeled_enum[k];
      wr.modeled_start_seconds = sched.modeled_start[k];
      wr.recovery_seconds = sched.recovery_seconds[k];
    }
    wr.crashed = w.crashed;
    wr.killed_by_plan = w.killed_by_plan;
    wr.exited = w.exit_info.exited;
    wr.exit_code = w.exit_info.exit_code;
    wr.signaled = w.exit_info.signaled;
    wr.term_signal = w.exit_info.term_signal;
    report.workers.push_back(wr);

    report.embeddings += w.embeddings;
    report.total_stolen_units += w.stolen_units;
    report.total_redelivered_units += w.adopted_units;
    report.total_reassigned_clusters += w.reassigned_clusters;
    if (w.crashed) ++report.crashed_workers;
  }
  report.discarded_results = discarded_results;
  report.heartbeat_timeouts = heartbeat_timeouts;

  DistRunAccounting& acc = report.accounting;
  acc.num_workers = n;
  acc.units.reserve(table.size());
  for (const UnitRecord& unit : table) {
    DistUnitAccount account;
    account.origin = unit.origin;
    account.executed_by = unit.executed_by;
    account.pivot = unit.pivot;
    account.results_counted = unit.results_counted;
    account.embeddings = unit.embeddings;
    account.redelivered = unit.redelivered;
    account.released_from = unit.released_from;
    account.stolen = unit.stolen;
    acc.units.push_back(account);
  }
  acc.crashed.reserve(n);
  acc.worker_embeddings.reserve(n);
  for (const WorkerState& w : workers) {
    acc.crashed.push_back(w.crashed ? 1 : 0);
    acc.worker_embeddings.push_back(w.embeddings);
  }
  acc.total_embeddings = report.embeddings;
  acc.orphan_events = report.orphan_events;
  acc.reported_reassigned_clusters = report.total_reassigned_clusters;
  if (options.audit) {
    AuditReport audit = AuditDistRun(acc);
    report.audit_ok = audit.ok();
    report.audit_summary = audit.ToString();
    if (!report.audit_ok) {
      CECI_LOG(Error) << "dist: accounting audit failed: "
                      << report.audit_summary;
    }
  }

  static Counter& queries =
      MetricsRegistry::Global().GetCounter("dist.queries");
  static Counter& spawned =
      MetricsRegistry::Global().GetCounter("dist.workers_spawned");
  static Counter& dispatched =
      MetricsRegistry::Global().GetCounter("dist.units_dispatched");
  static Counter& completed =
      MetricsRegistry::Global().GetCounter("dist.units_completed");
  static Counter& embeddings_counter =
      MetricsRegistry::Global().GetCounter("dist.embeddings");
  static Counter& heartbeats_counter =
      MetricsRegistry::Global().GetCounter("dist.heartbeats");
  static Counter& bytes_sent_counter =
      MetricsRegistry::Global().GetCounter("dist.bytes_sent");
  static Counter& bytes_received_counter =
      MetricsRegistry::Global().GetCounter("dist.bytes_received");
  static Counter& crashed_counter =
      MetricsRegistry::Global().GetCounter("dist.recovery.crashed_workers");
  static Counter& reassigned_counter = MetricsRegistry::Global().GetCounter(
      "dist.recovery.reassigned_clusters");
  static Counter& redelivered_counter = MetricsRegistry::Global().GetCounter(
      "dist.recovery.redelivered_units");
  static Counter& timeouts_counter = MetricsRegistry::Global().GetCounter(
      "dist.recovery.heartbeat_timeouts");
  static Counter& discarded_counter = MetricsRegistry::Global().GetCounter(
      "dist.recovery.discarded_results");
  queries.Increment();
  spawned.Add(n);
  live_gauge.Set(0);
  dispatched.Add(units_dispatched);
  completed.Add(done_units);
  embeddings_counter.Add(report.embeddings);
  std::uint64_t total_heartbeats = 0;
  std::uint64_t total_to = 0;
  std::uint64_t total_from = 0;
  for (const WorkerState& w : workers) {
    total_heartbeats += w.heartbeats;
    total_to += w.bytes_to_worker;
    total_from += w.bytes_from_worker;
  }
  heartbeats_counter.Add(total_heartbeats);
  bytes_sent_counter.Add(total_to);
  bytes_received_counter.Add(total_from);
  crashed_counter.Add(report.crashed_workers);
  reassigned_counter.Add(report.total_reassigned_clusters);
  redelivered_counter.Add(report.total_redelivered_units);
  timeouts_counter.Add(heartbeat_timeouts);
  discarded_counter.Add(discarded_results);

  return report;
}

std::string DistRunReportJson(const DistRunReport& report) {
  JsonWriter w;
  w.BeginObject();
  w.KV("embeddings", report.embeddings);
  w.KV("total_units", report.total_units);
  w.KV("crashed_workers", static_cast<std::uint64_t>(report.crashed_workers));
  w.KV("reassigned_clusters", report.total_reassigned_clusters);
  w.KV("redelivered_units", report.total_redelivered_units);
  w.KV("stolen_units", report.total_stolen_units);
  w.KV("discarded_results", report.discarded_results);
  w.KV("heartbeat_timeouts", report.heartbeat_timeouts);
  w.KV("jaccard_colocations",
       static_cast<std::uint64_t>(report.jaccard_colocations));
  w.KV("preprocess_seconds", report.preprocess_seconds);
  w.KV("build_seconds", report.build_seconds);
  w.KV("wall_seconds", report.wall_seconds);
  w.KV("audit_ok", report.audit_ok);
  w.Key("orphan_events");
  w.BeginArray();
  for (const auto& [worker, pivot] : report.orphan_events) {
    w.BeginObject();
    w.KV("worker", static_cast<std::uint64_t>(worker));
    w.KV("pivot", static_cast<std::uint64_t>(pivot));
    w.EndObject();
  }
  w.EndArray();
  w.Key("workers");
  w.BeginArray();
  for (const WorkerReport& wr : report.workers) {
    w.BeginObject();
    w.KV("worker_id", static_cast<std::uint64_t>(wr.worker_id));
    w.KV("pid", static_cast<std::int64_t>(wr.pid));
    w.KV("pivots", static_cast<std::uint64_t>(wr.pivots));
    w.KV("initial_units", static_cast<std::uint64_t>(wr.initial_units));
    w.KV("units_executed", wr.units_executed);
    w.KV("embeddings", wr.embeddings);
    w.KV("recursive_calls", wr.recursive_calls);
    w.KV("cardinality_executed", wr.cardinality_executed);
    w.KV("stolen_units", wr.stolen_units);
    w.KV("adopted_units", wr.adopted_units);
    w.KV("reassigned_clusters", wr.reassigned_clusters);
    w.KV("heartbeats", wr.heartbeats);
    w.KV("bytes_to_worker", wr.bytes_to_worker);
    w.KV("bytes_from_worker", wr.bytes_from_worker);
    w.KV("arena_bytes", wr.arena_bytes);
    w.KV("build_seconds", wr.build_seconds);
    w.KV("enum_seconds", wr.enum_seconds);
    w.KV("modeled_enum_seconds", wr.modeled_enum_seconds);
    w.KV("modeled_start_seconds", wr.modeled_start_seconds);
    w.KV("recovery_seconds", wr.recovery_seconds);
    w.KV("crashed", wr.crashed);
    w.KV("killed_by_plan", wr.killed_by_plan);
    w.KV("exited", wr.exited);
    w.KV("exit_code", static_cast<std::int64_t>(wr.exit_code));
    w.KV("signaled", wr.signaled);
    w.KV("term_signal", static_cast<std::int64_t>(wr.term_signal));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace ceci::dist
