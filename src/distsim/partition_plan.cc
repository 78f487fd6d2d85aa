#include "distsim/partition_plan.h"

#include <thread>

#include "ceci/matcher.h"
#include "ceci/preprocess.h"
#include "distsim/cluster.h"
#include "graph/nlc_index.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci::distsim {

Status PlanPartitions(const Graph& data, const Graph& query,
                      const PartitionPlanOptions& options,
                      const PartitionStep& step, PartitionPlan* plan) {
  const std::size_t n = options.partitions;

  // The NLC index is a one-time per-data-graph structure; callers decide
  // whether its build counts as per-query preprocessing.
  Timer nlc_timer;
  NlcIndex nlc(data);
  plan->nlc_seconds = nlc_timer.Seconds();

  Timer phase;
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{});
  if (!pre.ok()) return pre.status();
  plan->symmetry = options.break_automorphisms
                       ? SymmetryConstraints::Compute(query)
                       : SymmetryConstraints::None(query.num_vertices());
  std::vector<VertexId> pivots;
  if (!pre->infeasible) pivots = std::move(pre->root_candidates);
  AssignOptions assign_options;
  assign_options.num_machines = n;
  assign_options.neighbors_visible = options.neighbors_visible;
  assign_options.jaccard_top_k = options.jaccard_top_k;
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
    plan->partitions[0].accounting.ChargeMessage(options.cost_model, bytes);
    plan->partitions[k].accounting.ChargeMessage(options.cost_model, bytes);
    plan->partitions[k].accounting.RecordReceive(bytes);
  }

  EnumOptions enum_options;
  enum_options.symmetry = &plan->symmetry;
  std::vector<Status> statuses(n, Status::Ok());
  auto build_fn = [&](std::size_t k) {
    // The lane outlives the span so partitions get stable trace rows
    // (lane 0 is the coordinator thread).
    TraceLane lane(static_cast<std::uint32_t>(k) + 1);
    TraceSpan span(
        [&] { return options.trace_prefix + std::to_string(k); });
    Partition& part = plan->partitions[k];
    if (part.pivots.empty()) return;
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
    part.units = BuildWorkUnits(data, plan->tree, flat, enum_options,
                                options.unit_workers, options.beta,
                                options.decompose_extreme_clusters,
                                /*sort_by_cardinality=*/true, nullptr);
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
                                              const FailurePlan& failures,
                                              const dist::CostModel& model,
                                              std::size_t lanes) {
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

}  // namespace ceci::distsim
