#include "dist/supervisor.h"

#include <csignal>
#include <cstdlib>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "ceci/index_io.h"
#include "dist/messages.h"
#include "dist/worker.h"
#include "distsim/partition_plan.h"
#include "distsim/replay.h"
#include "graphio/pattern_parser.h"
#include "util/frame_transport.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/metrics_registry.h"
#include "util/subprocess.h"
#include "util/timer.h"

namespace ceci::dist {
namespace {

using distsim::kNoGate;

/// One queued dispatch: a unit plus how it got onto this worker's queue,
/// in the replay's step form. `gate` names a worker whose (real) death
/// must precede dispatch — the worker the unit was released from, so
/// re-adopted units never run before the kill they recover from.
using PendingStep = distsim::ReplayStep;

/// Owns the scratch directory holding the per-partition CEIX images and
/// removes it with its contents on destruction.
class ScratchDir {
 public:
  Status Create(const std::string& base_or_empty) {
    std::string base = base_or_empty;
    if (base.empty()) {
      const char* env = std::getenv("TMPDIR");
      base = (env != nullptr && env[0] != '\0') ? env : "/tmp";
    }
    std::string templ = base + "/ceci_dist.XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr) {
      return Status::IoError("mkdtemp failed under " + base);
    }
    path_ = templ;
    return Status::Ok();
  }

  const std::string& path() const { return path_; }

  ~ScratchDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }

 private:
  std::string path_;
};

struct WorkerState {
  WorkerState() = default;
  WorkerState(const WorkerState&) = delete;
  WorkerState& operator=(const WorkerState&) = delete;
  /// Every return path reaps its workers: one still unreaped here belongs
  /// to a run that failed before teardown (planning, or a fatal loss).
  ~WorkerState() {
    if (proc.pid > 0 && !reaped) {
      SignalChild(proc.pid, SIGKILL);
      WaitChild(proc.pid);
    }
  }

  std::uint32_t id = 0;
  ChildProcess proc;
  std::unique_ptr<FrameChannel> channel;
  bool live = false;
  bool dead = false;  // death fully handled (gates key off this)
  std::deque<PendingStep> queue;
  std::deque<PendingStep> inflight;
  std::set<std::uint64_t> discard;
  double remaining_cost = 0.0;
  double last_frame_seconds = 0.0;
  bool reaped = false;
  ChildExit exit_info;
  /// The planned pivots and units, then run tallies filled as counted
  /// results and frames arrive; the rest is filled after teardown.
  WorkerReport report;
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
  const distsim::DistConfig& config = options.config;
  CECI_RETURN_IF_ERROR(config.failure_plan.Validate(n));
  const bool scripted = config.failure_plan.active();

  Timer wall;
  DistRunReport report;
  ScratchDir scratch;
  CECI_RETURN_IF_ERROR(scratch.Create(options.scratch_dir));

  // --- Spawn workers, before planning, so their exec and start-up
  // overlap the coordinator's work; each waits for kStart before it opens
  // an image. Every worker is spawned, including empty partitions: the
  // replay may pick any live machine as an adopter or thief, and a
  // scripted crash of an idle worker still injects a genuine SIGKILL into
  // a live process. ---
  static Gauge& live_gauge =
      MetricsRegistry::Global().GetGauge("dist.live_workers");
  std::vector<WorkerState> workers(n);
  TransportOptions transport;
  transport.io_timeout_seconds = options.io_timeout_seconds;
  std::size_t live_count = 0;
  for (std::size_t k = 0; k < n; ++k) {
    WorkerState& w = workers[k];
    w.id = static_cast<std::uint32_t>(k);
    std::vector<std::string> args = {
        "--index-dir",    scratch.path(),
        "--worker-id",    std::to_string(k),
        "--heartbeat-ms", std::to_string(options.heartbeat_seconds * 1000.0),
        "--io-timeout-s", std::to_string(options.io_timeout_seconds)};
    auto child = SpawnWithChannel(options.worker_binary, args);
    if (!child.ok()) return child.status();
    w.proc = *child;
    w.channel = std::make_unique<FrameChannel>(child->channel_fd, transport);
    w.live = true;
    ++live_count;
  }
  live_gauge.Set(static_cast<std::int64_t>(live_count));

  // --- Coordinator front end + per-partition builds, each partition
  // writing its CEIX image on its own build thread ---
  // Images are host-local, so pivot workloads see neighbor degrees.
  const distsim::PlanLayout layout{.partitions = n,
                                   .neighbors_visible = true,
                                   .unit_workers = 1,
                                   .trace_prefix = "dist/partition"};
  distsim::PartitionPlan plan;
  auto write_image = [&](std::size_t k, const FlatCeciIndex& flat) {
    return WriteFlatIndex(
        flat, plan.tree, plan.symmetry, pattern_text,
        PartitionImagePath(scratch.path(), static_cast<std::uint32_t>(k)));
  };
  CECI_RETURN_IF_ERROR(distsim::PlanPartitions(data, query, config, layout,
                                               write_image, &plan));
  static_cast<distsim::RunReport&>(report) = distsim::PlannedRunReport(plan);
  // The NLC build is the coordinator's first step and counts toward
  // preprocess_seconds.
  report.preprocess_seconds = plan.nlc_seconds + plan.preprocess_seconds;
  const std::vector<distsim::Partition>& parts = plan.partitions;
  for (const distsim::Partition& part : parts) {
    report.build_seconds = std::max(report.build_seconds, part.wall_seconds);
  }

  // --- Global unit table, numbered as the replay input numbers them ---
  const std::vector<distsim::ReplayMachine> replay_input =
      distsim::ModeledReplayInput(plan, config, /*lanes=*/1);
  // Per unit: its audited outcome (report.units) and the work unit
  // itself, owned by the plan.
  std::vector<DistUnitAccount>& units = report.units;
  std::vector<const WorkUnit*> unit_work;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t u = 0; u < parts[k].units.size(); ++u) {
      DistUnitAccount account;
      account.origin = static_cast<std::uint32_t>(k);
      account.pivot = replay_input[k].queue[u].pivot;
      units.push_back(account);
      unit_work.push_back(&parts[k].units[u]);
    }
  }

  auto unit_cost = [&](std::uint64_t id) {
    return config.cost_model.UnitSeconds(unit_work[id]->cardinality);
  };

  // --- Scripted mode: fix the schedule before any worker starts. The
  // replay decides each worker's execution order, the durable prefix a
  // doomed worker completes before dying, and the adopter of every
  // orphaned cluster. ---
  distsim::ReplayOutcome sched;
  if (scripted) {
    sched = distsim::Replay(replay_input, config.work_stealing,
                            config.cost_model);
    report.orphan_events = sched.orphan_events;
  }

  // --- Install queues ---
  for (std::size_t k = 0; k < n; ++k) {
    WorkerState& w = workers[k];
    static_cast<distsim::PartitionReport&>(w.report) =
        distsim::PlannedPartitionReport(parts[k]);
    if (scripted) {
      const distsim::ReplayMachineOutcome& script = sched.machines[k];
      w.queue.assign(script.steps.begin(), script.steps.end());
      w.report.reassigned_clusters = script.reassigned_clusters;
    } else {
      for (const distsim::ReplayUnit& unit : replay_input[k].queue) {
        PendingStep step;
        step.unit_id = unit.id;
        w.queue.push_back(step);
      }
    }
    for (const PendingStep& step : w.queue) {
      w.remaining_cost += unit_cost(step.unit_id);
    }
  }

  const std::size_t window = scripted ? 1 : kPipelineWindow;
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
    if (r.unit_id >= units.size()) {
      CECI_LOG(Warning) << "dist: worker " << w.id
                        << " reported unknown unit " << r.unit_id;
      return;
    }
    DistUnitAccount& unit = units[r.unit_id];
    if (unit.results_counted != 0) {
      ++discarded_results;
      return;
    }
    unit.results_counted = 1;
    unit.executed_by = w.id;
    unit.embeddings = r.embeddings;
    if (was_inflight) {
      if (step.adopted) {
        unit.redelivered = true;
        if (step.gate != kNoGate) unit.released_from = step.gate;
        ++w.report.adopted_units;
      }
      if (step.stolen) {
        unit.stolen = true;
        ++w.report.stolen_units;
      }
    }
    ++done_units;
    ++w.report.units_executed;
    w.report.embeddings += r.embeddings;
    w.report.recursive_calls += r.recursive_calls;
    w.report.cardinality_executed += unit_work[r.unit_id]->cardinality;
    w.report.enum_seconds += r.enum_seconds;
    w.remaining_cost =
        std::max(0.0, w.remaining_cost - unit_cost(r.unit_id));
  };

  auto handle_frame = [&](WorkerState& w, const Frame& frame) {
    w.last_frame_seconds = wall.Seconds();
    switch (static_cast<MsgType>(frame.type)) {
      case MsgType::kHello: {
        auto hello = DecodeHello(frame.payload);
        if (hello.ok()) w.report.arena_bytes = hello->arena_bytes;
        break;
      }
      case MsgType::kHeartbeat:
        ++w.report.heartbeats;
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

  // Reactive recovery and stealing share the replay's adoption and
  // victim rules.
  distsim::AdopterMap adopters(n);
  auto worker_live = [&](std::size_t j) { return workers[j].live; };
  auto worker_load = [&](std::size_t j) { return workers[j].remaining_cost; };

  // Declared before death() (they recurse through dispatch failures).
  std::function<void(WorkerState&, bool)> death;

  auto queue_step = [&](WorkerState& w, const PendingStep& step) -> bool {
    AssignMsg assign;
    assign.unit_id = step.unit_id;
    assign.origin = units[step.unit_id].origin;
    assign.prefix = unit_work[step.unit_id]->prefix;
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
    w.report.crashed = true;
    w.report.killed_by_plan = w.report.killed_by_plan || scripted_kill;
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
    w.report.bytes_to_worker = w.channel->bytes_sent();
    w.report.bytes_from_worker = w.channel->bytes_received();
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
      if (units[step.unit_id].results_counted == 0 &&
          w.discard.count(step.unit_id) == 0) {
        orphans.push_back(step);
      }
    }
    w.queue.clear();
    w.inflight.clear();
    w.remaining_cost = 0.0;
    for (const PendingStep& step : orphans) {
      const VertexId pivot = units[step.unit_id].pivot;
      const distsim::AdopterMap::Adoption adoption =
          adopters.Adopt(w.id, pivot, worker_live, worker_load);
      if (adoption.adopter == distsim::kNoMachine) {
        fatal = true;
        fatal_message = "all workers died with units outstanding";
        return;
      }
      WorkerState& to = workers[adoption.adopter];
      if (adoption.new_cluster) ++to.report.reassigned_clusters;
      report.orphan_events.emplace_back(w.id, pivot);
      units[step.unit_id].released_from = w.id;
      PendingStep adopted = step;
      adopted.adopted = true;
      adopted.gate = w.id;  // already dead: the gate is open by definition
      to.queue.push_back(adopted);
      to.remaining_cost += unit_cost(step.unit_id);
    }
  };

  auto scripted_kill_pass = [&]() {
    if (!scripted) return;
    for (WorkerState& w : workers) {
      const distsim::ReplayMachineOutcome& script = sched.machines[w.id];
      if (!w.live || !script.crashed) continue;
      if (!w.queue.empty() || !w.inflight.empty()) continue;
      if (w.report.units_executed < script.steps.size()) continue;
      // Every durable unit is in: inject the scripted kill -9. If the
      // model lost a unit mid-flight, send it first so the worker really
      // is enumerating when the signal lands.
      for (const std::uint64_t lost : script.lost_units) {
        PendingStep doomed;
        doomed.unit_id = lost;
        w.discard.insert(lost);
        if (queue_step(w, doomed) && w.channel->Flush().ok()) {
          ++units_dispatched;
        }
      }
      SignalChild(w.proc.pid, SIGKILL);
      w.report.killed_by_plan = true;
      death(w, /*scripted_kill=*/true);
    }
  };

  auto steal_pass = [&]() {
    if (scripted || !config.work_stealing) return;
    for (WorkerState& w : workers) {
      if (!w.live || !w.queue.empty() || !w.inflight.empty()) continue;
      const std::size_t victim = distsim::PickVictim(
          n, w.id,
          [&](std::size_t j) {
            return workers[j].live && !workers[j].queue.empty();
          },
          worker_load);
      if (victim == distsim::kNoMachine) continue;
      WorkerState& v = workers[victim];
      PendingStep step = v.queue.back();
      v.queue.pop_back();
      const double cost = unit_cost(step.unit_id);
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

  // --- Start: every image is written. A worker's heartbeat deadline runs
  // from here; a worker that died during planning fails this send, or
  // hangs up at the first poll, and its units are re-adopted. ---
  for (WorkerState& w : workers) {
    w.last_frame_seconds = wall.Seconds();
    if (Status status =
            w.channel->Send(static_cast<std::uint8_t>(MsgType::kStart), {});
        !status.ok()) {
      CECI_LOG(Warning) << "dist: start to worker " << w.id
                        << " failed: " << status.ToString();
      death(w, /*scripted_kill=*/false);
    }
  }

  // --- The supervision loop ---
  while (done_units < report.total_units && !fatal) {
    scripted_kill_pass();
    for (WorkerState& w : workers) {
      if (w.live) dispatch(w);
      if (fatal) break;
    }
    if (fatal) break;
    steal_pass();
    if (done_units >= report.total_units) break;
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
      if (now - w.last_frame_seconds > kHeartbeatDeadlineSeconds) {
        ++heartbeat_timeouts;
        CECI_LOG(Warning) << "dist: worker " << w.id << " silent for "
                          << kHeartbeatDeadlineSeconds
                          << "s; declaring dead";
        death(w, /*scripted_kill=*/false);
      }
    }
  }

  if (fatal) return Status::IoError(fatal_message);

  // --- Teardown: polite shutdown to every live worker, then reap them
  // together, so the workers exit in parallel ---
  std::vector<WorkerState*> exiting;
  for (WorkerState& w : workers) {
    if (!w.live) continue;
    (void)w.channel->Send(static_cast<std::uint8_t>(MsgType::kShutdown), {});
    w.report.bytes_to_worker = w.channel->bytes_sent();
    w.report.bytes_from_worker = w.channel->bytes_received();
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
    WorkerReport wr = w.report;
    wr.worker_id = w.id;
    wr.pid = static_cast<std::int64_t>(w.proc.pid);
    wr.build_seconds = parts[k].wall_seconds;
    if (scripted) {
      wr.modeled_enum_seconds = sched.machines[k].busy_seconds;
      wr.modeled_start_seconds = replay_input[k].start_seconds;
      wr.recovery_seconds = sched.machines[k].recovery_seconds;
    }
    static_cast<ChildExit&>(wr) = w.exit_info;
    report.workers.push_back(wr);

    report.Add(wr);
    report.total_redelivered_units += wr.adopted_units;
  }
  report.discarded_results = discarded_results;
  report.heartbeat_timeouts = heartbeat_timeouts;

  const AuditReport audit = AuditDistRun(report);
  report.audit_ok = audit.ok();
  report.audit_summary = audit.ToString();
  if (!report.audit_ok) {
    CECI_LOG(Error) << "dist: accounting audit failed: "
                    << report.audit_summary;
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
  for (const WorkerReport& wr : report.workers) {
    heartbeats_counter.Add(wr.heartbeats);
    bytes_sent_counter.Add(wr.bytes_to_worker);
    bytes_received_counter.Add(wr.bytes_from_worker);
  }
  crashed_counter.Add(report.crashed_machines);
  reassigned_counter.Add(report.total_reassigned_clusters);
  redelivered_counter.Add(report.total_redelivered_units);
  timeouts_counter.Add(heartbeat_timeouts);
  discarded_counter.Add(discarded_results);

  return report;
}

AuditReport AuditDistRun(const DistRunReport& run) {
  AuditReport report;
  const std::size_t n = run.workers.size();

  auto worker_ok = [&](std::uint32_t w) { return w < n; };
  auto crashed = [&](std::uint32_t w) {
    return worker_ok(w) && run.workers[w].crashed;
  };

  std::vector<std::uint64_t> derived_embeddings(n, 0);
  std::uint64_t derived_total = 0;
  for (std::size_t i = 0; i < run.units.size(); ++i) {
    const DistUnitAccount& unit = run.units[i];

    // Exact totals hinge on every unit being counted exactly once: a
    // zero means a lost unit (the crash orphaned it and nobody re-ran
    // it), more than one means double-counted recovery.
    ++report.checks_run;
    if (unit.results_counted != 1) {
      std::ostringstream d;
      d << "unit " << i << " counted " << unit.results_counted
        << " times (origin " << unit.origin << ", executed_by "
        << unit.executed_by << ")";
      report.Add(InvariantClass::kDistAccounting, d.str());
    }

    ++report.checks_run;
    if (!worker_ok(unit.origin) || !worker_ok(unit.executed_by)) {
      std::ostringstream d;
      d << "unit " << i << " references worker ids outside 0.." << n - 1
        << " (origin " << unit.origin << ", executed_by " << unit.executed_by
        << ")";
      report.Add(InvariantClass::kDistAccounting, d.str());
      continue;
    }

    // A unit may only leave its origin through stealing or crash
    // redelivery, and redelivery requires the origin actually died.
    ++report.checks_run;
    if (unit.executed_by != unit.origin && !unit.stolen &&
        !unit.redelivered) {
      std::ostringstream d;
      d << "unit " << i << " migrated " << unit.origin << " -> "
        << unit.executed_by << " without a steal or redelivery";
      report.Add(InvariantClass::kDistAccounting, d.str());
    }
    // Redelivery requires an actual death: the worker that held the unit
    // when it was orphaned (the origin, or the thief that stole it).
    ++report.checks_run;
    if (unit.redelivered && !crashed(unit.released_from)) {
      std::ostringstream d;
      d << "unit " << i << " was redelivered out of worker "
        << unit.released_from << ", which never crashed";
      report.Add(InvariantClass::kDistAccounting, d.str());
    }

    if (unit.results_counted == 1) {
      derived_embeddings[unit.executed_by] += unit.embeddings;
      derived_total += unit.embeddings;
    }
  }

  ++report.checks_run;
  if (derived_total != run.embeddings) {
    std::ostringstream d;
    d << "unit table sums to " << derived_total << " embeddings, run reports "
      << run.embeddings;
    report.Add(InvariantClass::kDistAccounting, d.str());
  }
  for (std::size_t w = 0; w < n; ++w) {
    ++report.checks_run;
    if (derived_embeddings[w] != run.workers[w].embeddings) {
      std::ostringstream d;
      d << "worker " << w << " reports " << run.workers[w].embeddings
        << " embeddings, unit table sums to " << derived_embeddings[w];
      report.Add(InvariantClass::kDistAccounting, d.str());
    }
  }

  // At-most-once re-adoption: each (dead worker, cluster) pair picks an
  // adopter exactly once, so the reported reassignment count must equal
  // the number of distinct pairs among the orphan events.
  std::set<std::pair<std::uint32_t, VertexId>> distinct(
      run.orphan_events.begin(), run.orphan_events.end());
  ++report.checks_run;
  if (distinct.size() != run.total_reassigned_clusters) {
    std::ostringstream d;
    d << "run reports " << run.total_reassigned_clusters
      << " reassigned clusters, orphan events cover " << distinct.size()
      << " distinct (worker, pivot) pairs";
    report.Add(InvariantClass::kDistAccounting, d.str());
  }
  for (const auto& [dead, pivot] : run.orphan_events) {
    ++report.checks_run;
    if (!crashed(dead)) {
      std::ostringstream d;
      d << "orphan event for pivot " << pivot << " names worker " << dead
        << ", which never crashed";
      report.Add(InvariantClass::kDistAccounting, d.str());
    }
  }

  return report;
}

std::string DistRunReportJson(const DistRunReport& report) {
  JsonWriter w;
  w.BeginObject();
  distsim::WriteRunReportJson(report, &w);
  // crashed_machines under the name readers of this report use.
  w.KV("crashed_workers", static_cast<std::uint64_t>(report.crashed_machines));
  w.KV("redelivered_units", report.total_redelivered_units);
  w.KV("discarded_results", report.discarded_results);
  w.KV("heartbeat_timeouts", report.heartbeat_timeouts);
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
    distsim::WritePartitionReportJson(wr, &w);
    w.KV("worker_id", static_cast<std::uint64_t>(wr.worker_id));
    w.KV("pid", static_cast<std::int64_t>(wr.pid));
    w.KV("units_executed", wr.units_executed);
    w.KV("recursive_calls", wr.recursive_calls);
    w.KV("cardinality_executed", wr.cardinality_executed);
    w.KV("adopted_units", wr.adopted_units);
    w.KV("heartbeats", wr.heartbeats);
    w.KV("bytes_to_worker", wr.bytes_to_worker);
    w.KV("bytes_from_worker", wr.bytes_from_worker);
    w.KV("arena_bytes", wr.arena_bytes);
    w.KV("build_seconds", wr.build_seconds);
    w.KV("enum_seconds", wr.enum_seconds);
    w.KV("modeled_enum_seconds", wr.modeled_enum_seconds);
    w.KV("modeled_start_seconds", wr.modeled_start_seconds);
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
