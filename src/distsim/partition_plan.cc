#include "distsim/partition_plan.h"

#include <barrier>
#include <thread>
#include <utility>

#include "ceci/matcher.h"
#include "ceci/preprocess.h"
#include "distsim/cluster.h"
#include "graph/nlc_index.h"
#include "util/json_writer.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci::distsim {

Status PlanPartitions(const Graph& data, const Graph& query,
                      const DistConfig& config, const PlanLayout& layout,
                      const PartitionStep& step, PartitionPlan* plan) {
  const std::size_t n = layout.partitions;

  // The NLC index is a one-time per-data-graph structure; callers decide
  // whether its build counts as per-query preprocessing.
  Timer nlc_timer;
  NlcIndex nlc(data);
  plan->nlc_seconds = nlc_timer.Seconds();

  Timer phase;
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{});
  if (!pre.ok()) return pre.status();
  // The Grochow–Kellis set; its mirror may replace it once every
  // partition has estimated both (below).
  plan->symmetry = config.break_automorphisms
                       ? SymmetryConstraints::Compute(query)
                       : SymmetryConstraints::None(query.num_vertices());
  std::vector<VertexId> pivots;
  if (!pre->infeasible) pivots = std::move(pre->root_candidates);
  AssignOptions assign_options;
  assign_options.num_machines = n;
  assign_options.neighbors_visible = layout.neighbors_visible;
  assign_options.jaccard_top_k = config.jaccard_top_k;
  PivotAssignment assignment = AssignPivots(data, pivots, assign_options);
  plan->jaccard_colocations = assignment.jaccard_colocations;
  plan->preprocess_seconds = phase.Seconds();
  plan->tree = std::move(pre->tree);

  // Each non-empty partition builds against its own copy of the filter
  // verdicts, since Build() writes its alive flags into the table.
  std::vector<FilterTable> filters(n);
  plan->partitions.assign(n, Partition{});
  for (std::size_t k = 0; k < n; ++k) {
    Partition& part = plan->partitions[k];
    part.pivots = std::move(assignment.per_machine[k]);
    if (!part.pivots.empty()) filters[k] = pre->filter;
  }
  pre->filter.Release();

  // Pivot distribution: the coordinator (partition 0's host) sends each
  // other partition its pivot list; both ends pay.
  for (std::size_t k = 1; k < n; ++k) {
    const std::uint64_t bytes =
        plan->partitions[k].pivots.size() * sizeof(VertexId);
    plan->partitions[0].accounting.ChargeMessage(config.cost_model, bytes);
    plan->partitions[k].accounting.ChargeMessage(config.cost_model, bytes);
    plan->partitions[k].accounting.RecordReceive(bytes);
  }

  // The restriction-set choice: every partition estimates both sets on
  // its own index, and the last to arrive sums the estimates and chooses
  // one set for all of them before any work unit is cut. A choice per
  // partition would list some embeddings twice and others not at all.
  SymmetryConstraints mirrored = plan->symmetry.Mirrored();
  std::vector<RestrictionEstimate> estimates(n);
  auto choose = [&]() noexcept {
    RestrictionEstimate total;
    for (const RestrictionEstimate& e : estimates) total += e;
    plan->restriction_estimate = total;
    if (total.PrefersMirror()) plan->symmetry = std::move(mirrored);
  };
  std::barrier plan_chosen(static_cast<std::ptrdiff_t>(n), choose);

  EnumOptions enum_options;
  enum_options.symmetry = &plan->symmetry;
  std::vector<Status> statuses(n, Status::Ok());
  auto build_fn = [&](std::size_t k) {
    // The lane outlives the span so partitions get stable trace rows
    // (lane 0 is the coordinator thread).
    TraceLane lane(static_cast<std::uint32_t>(k) + 1);
    TraceSpan span(
        [&] { return layout.trace_prefix + std::to_string(k); });
    Partition& part = plan->partitions[k];
    if (part.pivots.empty()) {
      plan_chosen.arrive_and_drop();
      return;
    }
    Timer wall;
    const double cpu_start = ThreadCpuSeconds();
    BuildOptions build_options;
    build_options.root_candidates = &part.pivots;
    build_options.filter_table = &filters[k];
    MatchStats stats;
    const FlatCeciIndex flat = BuildRefineFreeze(data, nlc, query, plan->tree,
                                                 build_options, &stats);
    filters[k].Release();
    part.build_stats = stats.build;
    if (!mirrored.empty()) {
      estimates[k] = EstimateRestrictionCost(plan->tree, flat,
                                             plan->symmetry, mirrored);
    }
    plan_chosen.arrive_and_wait();
    part.units = DecomposeRootOrder(
        data, plan->tree, flat, enum_options,
        RootOrder(flat, plan->tree.root()), layout.unit_workers, config.beta,
        nullptr);
    part.build_cpu_seconds = ThreadCpuSeconds() - cpu_start;
    part.steal_unit_bytes =
        part.units.empty()
            ? 0.0
            : static_cast<double>(stats.ceci_bytes) /
                  static_cast<double>(part.units.size());
    statuses[k] = step(k, flat);
    part.wall_seconds = wall.Seconds();
  };
  {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t k = 0; k < n; ++k) threads.emplace_back(build_fn, k);
    for (auto& t : threads) t.join();
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

double ModeledBuildSeconds(const Partition& partition, double slowdown,
                           const dist::CostModel& model) {
  return static_cast<double>(partition.build_stats.neighbors_scanned) *
         model.build_seconds_per_scanned_entry * slowdown;
}

std::vector<ReplayMachine> ModeledReplayInput(const PartitionPlan& plan,
                                              const DistConfig& config,
                                              std::size_t lanes) {
  const FailurePlan& failures = config.failure_plan;
  const dist::CostModel& model = config.cost_model;
  std::vector<ReplayMachine> machines(plan.partitions.size());
  std::uint64_t next_id = 0;
  for (std::size_t k = 0; k < machines.size(); ++k) {
    const Partition& part = plan.partitions[k];
    ReplayMachine& machine = machines[k];
    machine.lanes = lanes;
    machine.slowdown = failures.Slowdown(k);
    machine.crash_seconds = failures.CrashTime(k);
    machine.start_seconds = ModeledBuildSeconds(part, machine.slowdown, model) +
                            part.accounting.io_seconds +
                            part.accounting.comm_seconds;
    machine.steal_bytes = static_cast<std::uint64_t>(part.steal_unit_bytes);
    machine.queue.reserve(part.units.size());
    for (const WorkUnit& unit : part.units) {
      machine.queue.push_back(
          ReplayUnit{next_id++, model.UnitSeconds(unit.cardinality),
                     unit.prefix.empty() ? VertexId{0} : unit.prefix[0]});
    }
  }
  return machines;
}

void RunReport::Add(const PartitionReport& partition) {
  embeddings += partition.embeddings;
  total_stolen_units += partition.stolen_units;
  total_reassigned_clusters += partition.reassigned_clusters;
  if (partition.crashed) ++crashed_machines;
  total_recovery_seconds += partition.recovery_seconds;
}

PartitionReport PlannedPartitionReport(const Partition& partition) {
  PartitionReport report;
  report.pivots = partition.pivots.size();
  report.initial_units = partition.units.size();
  return report;
}

RunReport PlannedRunReport(const PartitionPlan& plan) {
  RunReport report;
  for (const Partition& part : plan.partitions) {
    report.total_units += part.units.size();
  }
  report.jaccard_colocations = plan.jaccard_colocations;
  report.restrictions_mirrored = plan.symmetry.mirrored();
  report.restriction_estimate = plan.restriction_estimate;
  return report;
}

void WritePartitionReportJson(const PartitionReport& report, JsonWriter* w) {
  w->KV("pivots", static_cast<std::uint64_t>(report.pivots));
  w->KV("initial_units", static_cast<std::uint64_t>(report.initial_units));
  w->KV("embeddings", report.embeddings);
  w->KV("stolen_units", report.stolen_units);
  w->KV("reassigned_clusters", report.reassigned_clusters);
  w->KV("recovery_seconds", report.recovery_seconds);
  w->KV("crashed", report.crashed);
}

void WriteRunReportJson(const RunReport& report, JsonWriter* w) {
  w->KV("embeddings", report.embeddings);
  w->KV("total_units", report.total_units);
  w->KV("stolen_units", report.total_stolen_units);
  w->KV("reassigned_clusters", report.total_reassigned_clusters);
  w->KV("crashed_machines",
        static_cast<std::uint64_t>(report.crashed_machines));
  w->KV("recovery_seconds", report.total_recovery_seconds);
  w->KV("jaccard_colocations",
        static_cast<std::uint64_t>(report.jaccard_colocations));
  w->Key("symmetry");
  w->BeginObject();
  w->KV("mirrored", report.restrictions_mirrored);
  w->KV("estimate_min", report.restriction_estimate.min_set);
  w->KV("estimate_max", report.restriction_estimate.max_set);
  w->EndObject();
}

}  // namespace ceci::distsim
