#include "distsim/dist_matcher.h"

#include <algorithm>
#include <string>

#include "ceci/enumerator.h"
#include "distsim/partition_plan.h"
#include "distsim/replay.h"
#include "util/json_writer.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci::distsim {
namespace {

/// What a machine's own thread measured while enumerating its pool.
struct OwnEnumeration {
  /// Physical embedding count per unit, parallel to the partition's
  /// units. Under a failure plan each unit is credited to the machine
  /// that completes it in the replay.
  std::vector<std::uint64_t> unit_embeddings;
  std::uint64_t embeddings = 0;
  double cpu_seconds = 0.0;
};

}  // namespace

Result<DistResult> DistributedMatch(const Graph& data, const Graph& query,
                                    const DistOptions& options) {
  if (options.num_machines < 1 || options.threads_per_machine < 1) {
    return Status::InvalidArgument("machine and thread counts must be >= 1");
  }
  const FailurePlan& failures = options.failure_plan;
  if (Status plan_status = failures.Validate(options.num_machines);
      !plan_status.ok()) {
    return plan_status;
  }
  DistResult result;

  TraceSpan dist_span("distsim/match");

  // --- Coordinator front end + per-machine build, then each machine
  // enumerates its own pool on its thread. The replay below redistributes
  // units analytically, so the simulated makespans stay meaningful on
  // hosts with fewer cores than simulated machines. ---
  PartitionPlanOptions plan_options;
  plan_options.partitions = options.num_machines;
  plan_options.neighbors_visible =
      options.storage == GraphStorage::kReplicated;
  plan_options.jaccard_top_k = options.jaccard_top_k;
  plan_options.break_automorphisms = options.break_automorphisms;
  plan_options.unit_workers = options.threads_per_machine;
  plan_options.beta = options.beta;
  plan_options.decompose_extreme_clusters = options.decompose_extreme_clusters;
  plan_options.cost_model = options.cost_model;
  plan_options.trace_prefix = "distsim/machine";
  PartitionPlan plan;
  std::vector<OwnEnumeration> own(options.num_machines);
  auto enumerate_own = [&](std::size_t k, const FlatCeciIndex& flat) {
    Partition& part = plan.partitions[k];
    if (options.storage == GraphStorage::kShared) {
      // One request per frontier expansion, 4 bytes per scanned entry,
      // plus one 8-byte beginning_position lookup per request.
      const BuildStats& stats = part.build_stats;
      part.accounting.ChargeStorage(
          options.cost_model, stats.frontier_expansions,
          stats.neighbors_scanned * 4 + stats.frontier_expansions * 8);
      // The build's read requests are a pure function of the deterministic
      // filtering, so the flake draw is reproducible per (seed, machine).
      const StorageRetrySim retries = SimulateStorageRetries(
          failures, k, stats.frontier_expansions, options.cost_model);
      part.accounting.storage_retries += retries.retries;
      part.accounting.io_seconds += retries.seconds;
    }
    OwnEnumeration& self = own[k];
    const double cpu_start = ThreadCpuSeconds();
    EnumOptions enum_options;
    enum_options.symmetry = &plan.symmetry;
    Enumerator enumerator(data, plan.tree, flat, enum_options);
    self.unit_embeddings.reserve(part.units.size());
    for (const WorkUnit& unit : part.units) {
      const std::uint64_t got =
          enumerator.EnumerateFromPrefix(unit.prefix, nullptr);
      self.unit_embeddings.push_back(got);
      self.embeddings += got;
    }
    self.cpu_seconds = ThreadCpuSeconds() - cpu_start;
    return Status::Ok();
  };
  CECI_RETURN_IF_ERROR(
      PlanPartitions(data, query, plan_options, enumerate_own, &plan));
  result.jaccard_colocations = plan.jaccard_colocations;
  // The NLC index is amortized over queries, like the graph load itself,
  // so it is excluded from the per-query preprocess time.
  result.preprocess_seconds = plan.preprocess_seconds;

  // --- Work-stealing replay (§5) ---
  // An active plan replays modeled times, so recovery decisions are
  // reproducible; without one, each machine's measured build CPU starts
  // its lanes and its measured enumeration CPU is split across its units
  // in proportion to their cardinalities.
  std::vector<ReplayMachine> input = ModeledReplayInput(
      plan, failures, options.cost_model, options.threads_per_machine);
  if (!failures.active()) {
    for (std::size_t k = 0; k < options.num_machines; ++k) {
      const Partition& part = plan.partitions[k];
      input[k].start_seconds = part.build_cpu_seconds +
                               part.accounting.io_seconds +
                               part.accounting.comm_seconds;
      Cardinality total_card = 0;
      for (const WorkUnit& unit : part.units) {
        total_card = SaturatingAdd(total_card, unit.cardinality);
      }
      for (std::size_t u = 0; u < part.units.size(); ++u) {
        const double share =
            total_card == 0
                ? 1.0 / static_cast<double>(part.units.size())
                : static_cast<double>(part.units[u].cardinality) /
                      static_cast<double>(total_card);
        input[k].queue[u].base_seconds = own[k].cpu_seconds * share;
      }
    }
  }
  const ReplayOutcome replay =
      Replay(input, options.work_stealing, options.cost_model);

  // --- Reports ---
  // Physical embeddings per unit, indexed by the replay's global ids.
  std::vector<std::uint64_t> unit_embeddings;
  for (const OwnEnumeration& self : own) {
    unit_embeddings.insert(unit_embeddings.end(),
                           self.unit_embeddings.begin(),
                           self.unit_embeddings.end());
  }
  double slowest = 0.0;
  for (std::size_t k = 0; k < options.num_machines; ++k) {
    const Partition& part = plan.partitions[k];
    const ReplayMachineOutcome& replayed = replay.machines[k];
    result.embeddings += own[k].embeddings;
    MachineReport report;
    report.pivots = part.pivots.size();
    report.embeddings = own[k].embeddings;
    if (failures.active()) {
      // Credit each unit to the machine that completed it; every unit
      // runs exactly once, so the cluster-wide sum is the physical total.
      report.embeddings = 0;
      for (const ReplayStep& step : replayed.steps) {
        report.embeddings += unit_embeddings[step.unit_id];
      }
    }
    report.stolen_units = replayed.stolen_units;
    report.messages = part.accounting.messages;
    report.bytes_sent = part.accounting.bytes_sent;
    report.messages_received =
        part.accounting.messages_received + replayed.messages_received;
    report.bytes_received =
        part.accounting.bytes_received + replayed.bytes_received;
    report.bytes_read = part.accounting.bytes_read;
    report.build_compute_seconds =
        failures.active() ? ModeledBuildSeconds(part, failures.Slowdown(k),
                                                options.cost_model)
                          : part.build_cpu_seconds;
    report.enum_compute_seconds = replayed.busy_seconds;
    report.io_seconds = part.accounting.io_seconds;
    report.comm_seconds = part.accounting.comm_seconds;
    report.total_seconds = report.build_compute_seconds +
                           report.enum_compute_seconds + report.io_seconds +
                           report.comm_seconds;
    report.crashed = replayed.crashed;
    report.reassigned_clusters = replayed.reassigned_clusters;
    report.storage_retries = part.accounting.storage_retries;
    report.recovery_seconds = replayed.recovery_seconds;
    slowest = std::max(slowest, report.total_seconds);
    result.total_messages += report.messages;
    result.total_bytes_sent += report.bytes_sent;
    result.total_messages_received += report.messages_received;
    result.total_bytes_received += report.bytes_received;
    result.total_bytes_read += report.bytes_read;
    result.total_stolen_units += report.stolen_units;
    result.build_compute_seconds += report.build_compute_seconds;
    result.build_io_seconds += report.io_seconds;
    // Construction comm (the pivot distribution) of machines that built.
    if (!part.pivots.empty()) result.build_comm_seconds += report.comm_seconds;
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
