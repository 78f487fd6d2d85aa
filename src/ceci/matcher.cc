#include "ceci/matcher.h"

#include <memory>

#include "ceci/ceci_builder.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "util/intersection.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci {
namespace {

// Mirrors one query's statistics into the process-cumulative registry.
// Done once per Match() from accumulated locals so the per-candidate hot
// paths never touch shared metric cells.
void ExportMatchMetrics(const MatchResult& result) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter& queries = reg.GetCounter("ceci.match.queries");
  static Counter& embeddings = reg.GetCounter("ceci.match.embeddings");
  static Counter& rejected_label = reg.GetCounter("ceci.build.rejected_label");
  static Counter& rejected_degree =
      reg.GetCounter("ceci.build.rejected_degree");
  static Counter& rejected_nlc = reg.GetCounter("ceci.build.rejected_nlc");
  static Counter& cascade_removals =
      reg.GetCounter("ceci.build.cascade_removals");
  static Counter& nte_cascade_removals =
      reg.GetCounter("ceci.build.nte_cascade_removals");
  static Counter& frontier_expansions =
      reg.GetCounter("ceci.build.frontier_expansions");
  static Counter& neighbors_scanned =
      reg.GetCounter("ceci.build.neighbors_scanned");
  static Counter& pruned_candidates =
      reg.GetCounter("ceci.refine.pruned_candidates");
  static Counter& pruned_edges = reg.GetCounter("ceci.refine.pruned_edges");
  static Counter& recursive_calls =
      reg.GetCounter("ceci.enumerate.recursive_calls");
  static Counter& intersections =
      reg.GetCounter("ceci.enumerate.intersections");
  static Counter& elements_in =
      reg.GetCounter("ceci.enumerate.intersection_elements_in");
  static Counter& elements_out =
      reg.GetCounter("ceci.enumerate.intersection_elements_out");
  static Counter& edge_verifications =
      reg.GetCounter("ceci.enumerate.edge_verifications");
  static Counter& extreme_clusters =
      reg.GetCounter("ceci.cluster.extreme_clusters");
  static Counter& work_units = reg.GetCounter("ceci.cluster.work_units");
  static Histogram& query_us = reg.GetHistogram("ceci.match.query_us");
  static Histogram& worker_busy_us =
      reg.GetHistogram("ceci.enumerate.worker_busy_us");
  static Counter& budget_deadline =
      reg.GetCounter("ceci.budget.deadline_exceeded");
  static Counter& budget_memory =
      reg.GetCounter("ceci.budget.memory_exceeded");
  static Counter& budget_cancelled = reg.GetCounter("ceci.budget.cancelled");
  static Counter& budget_polls = reg.GetCounter("ceci.budget.polls");

  // The intersection kernels batch their own counters thread-locally;
  // worker threads flushed at exit, this covers the calling thread.
  FlushIntersectionThreadStats();

  const MatchStats& s = result.stats;
  queries.Increment();
  embeddings.Add(result.embedding_count);
  rejected_label.Add(s.build.rejected_label);
  rejected_degree.Add(s.build.rejected_degree);
  rejected_nlc.Add(s.build.rejected_nlc);
  cascade_removals.Add(s.build.cascade_removals);
  nte_cascade_removals.Add(s.build.nte_cascade_removals);
  frontier_expansions.Add(s.build.frontier_expansions);
  neighbors_scanned.Add(s.build.neighbors_scanned);
  pruned_candidates.Add(s.refine.pruned_candidates);
  pruned_edges.Add(s.refine.pruned_edges);
  recursive_calls.Add(s.enumeration.recursive_calls);
  intersections.Add(s.enumeration.intersections);
  elements_in.Add(s.enumeration.intersection_elements_in);
  elements_out.Add(s.enumeration.intersection_elements_out);
  edge_verifications.Add(s.enumeration.edge_verifications);
  extreme_clusters.Add(s.decomposition.extreme_clusters);
  work_units.Add(s.decomposition.work_units);
  query_us.Record(static_cast<std::uint64_t>(s.total_seconds * 1e6));
  for (double w : s.worker_seconds) {
    worker_busy_us.Record(static_cast<std::uint64_t>(w * 1e6));
  }
  if (s.budget.deadline_exceeded) budget_deadline.Increment();
  if (s.budget.memory_exceeded) budget_memory.Increment();
  if (s.budget.cancelled) budget_cancelled.Increment();
  budget_polls.Add(s.budget.polls);
}

}  // namespace

CeciMatcher::CeciMatcher(const Graph& data) : data_(data), nlc_(data) {}

Result<MatchResult> CeciMatcher::Match(const Graph& query,
                                       const MatchOptions& options,
                                       const EmbeddingVisitor* visitor) const {
  Timer total_timer;
  TraceSpan match_span("match");
  MatchResult result;
  MatchStats& stats = result.stats;

  // Resilient execution layer: one tracker per call, shared by every
  // phase and worker. Inactive (null below) when options.budget is
  // default — the pipeline then pays nothing.
  BudgetTracker tracker(options.budget);
  BudgetTracker* budget = tracker.active() ? &tracker : nullptr;
  bool visitor_abort = false;
  // Stamps the outcome on the result; every exit path funnels through
  // here so partial results are always labelled.
  auto finalize = [&](TerminationReason reason) {
    result.termination = reason;
    stats.budget = tracker.ToStats();
    if (visitor_abort) stats.budget.cancelled = true;
    stats.total_seconds = total_timer.Seconds();
    ExportMatchMetrics(result);
  };

  // --- Preprocessing (§2.2) ---
  Timer phase;
  PreprocessOptions pre_options;
  pre_options.order = options.order;
  auto pre = [&] {
    TraceSpan span("preprocess");
    return Preprocess(data_, nlc_, query, pre_options);
  }();
  if (!pre.ok()) return pre.status();
  SymmetryConstraints symmetry =
      options.break_automorphisms ? SymmetryConstraints::Compute(query)
                                  : SymmetryConstraints::None(
                                        query.num_vertices());
  stats.automorphisms_broken = symmetry.automorphism_count();
  stats.preprocess_seconds = phase.Seconds();

  // Initial poll: an already-cancelled token or pre-expired deadline
  // stops the query before any index work starts.
  if (budget != nullptr && budget->Poll()) {
    finalize(tracker.reason());
    return result;
  }

  // Directed adjacency entries: every undirected data edge can serve a
  // query edge in either orientation, so the §3.4 bound counts 2|E_g|
  // candidate entries per query edge.
  stats.theoretical_bytes = CeciIndex::TheoreticalBytes(
      query.num_edges(), data_.num_directed_edges());

  if (pre->infeasible) {
    // Some query vertex has no candidates at all: zero embeddings. This
    // is a *complete* answer, so the termination reason stays kCompleted.
    static Counter& infeasible =
        MetricsRegistry::Global().GetCounter("ceci.match.infeasible");
    infeasible.Increment();
    // Empty-but-present profile: no index exists to walk.
    if (options.profile) result.profile.emplace();
    finalize(TerminationReason::kCompleted);
    return result;
  }

  // --- CECI creation + BFS filtering (§3.2) ---
  phase.Reset();
  ThreadPool* pool = options.pool;
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && options.threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(options.threads);
    pool = owned_pool.get();
  }
  BuildOptions build_options;
  build_options.pool = pool;
  build_options.budget = budget;
  build_options.root_candidates = &pre->root_candidates;
  build_options.filter_table = &pre->filter;
  std::vector<BuildVertexStats> vertex_stats;
  if (options.profile) build_options.vertex_stats = &vertex_stats;
  CeciBuilder builder(data_, nlc_);
  CeciIndex index = [&] {
    TraceSpan span("build");
    return builder.Build(query, pre->tree, build_options, &stats.build);
  }();
  pre->ReleaseBuildInputs();
  stats.build_seconds = phase.Seconds();
  stats.ceci_bytes_unrefined = index.MemoryBytes();
  stats.candidate_edges_unrefined = index.TotalCandidateEdges();
  if (budget != nullptr && budget->Exhausted()) {
    // Partial index: skip the inspector (its invariants assume a complete
    // build) and everything downstream.
    finalize(tracker.reason());
    return result;
  }
  if (options.index_inspector) {
    options.index_inspector(pre->tree, index, /*refined=*/false);
  }

  // Candidate-set sizes after build (post-cascade, pre-refinement); a
  // read-only walk taken only under profiling.
  std::vector<std::size_t> built_sizes;
  if (options.profile) {
    built_sizes.resize(query.num_vertices());
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      built_sizes[u] = index.at(u).candidates.size();
    }
  }

  // --- Reverse-BFS refinement (§3.3) ---
  phase.Reset();
  std::vector<std::uint64_t> pruned_per_vertex;
  {
    TraceSpan span("refine");
    RefineCeci(pre->tree, data_.num_vertices(), &index, &stats.refine,
               options.profile ? &pruned_per_vertex : nullptr, budget);
  }
  stats.refine_seconds = phase.Seconds();
  if (budget != nullptr && budget->Exhausted()) {
    // Semi-refined index: cardinalities are incomplete, so neither the
    // inspector nor the enumerator may consume it.
    finalize(tracker.reason());
    return result;
  }
  if (options.index_inspector) {
    options.index_inspector(pre->tree, index, /*refined=*/true);
  }
  stats.ceci_bytes = index.MemoryBytes();
  stats.candidate_edges = index.TotalCandidateEdges();
  stats.embedding_clusters = index.pivots(pre->tree).size();
  stats.total_cardinality = stats.refine.total_cardinality;

  // --- Freeze to the flat arena layout (the enumeration hot path) ---
  FlatCeciIndex flat;
  if (options.flat_index) {
    TraceSpan span("freeze_flat");
    phase.Reset();
    flat = FlatCeciIndex::Build(index, pre->tree);
    stats.freeze_seconds = phase.Seconds();
    stats.flat_bytes = flat.ArenaBytes();
    stats.flat_array_entries = flat.ArrayEntries();
    stats.flat_bitmap_entries = flat.BitmapEntries();
    if (budget != nullptr) {
      budget->ChargeBytes(flat.ArenaBytes());
      if (budget->Poll()) {
        finalize(tracker.reason());
        return result;
      }
    }
    if (options.flat_inspector) options.flat_inspector(pre->tree, flat);
  }

  // --- Parallel enumeration (§4) ---
  phase.Reset();
  ScheduleOptions schedule;
  schedule.threads = options.threads;
  schedule.distribution = options.distribution;
  schedule.beta = options.beta;
  schedule.limit = options.limit;
  schedule.enumeration.nte_intersection = options.nte_intersection;
  schedule.enumeration.leaf_count_shortcut =
      options.leaf_count_shortcut && visitor == nullptr;
  schedule.enumeration.symmetry = &symmetry;
  schedule.enumeration.per_position_stats = options.profile;
  schedule.collect_profile = options.profile;
  schedule.budget = budget;
  // Only an external (shared) pool is routed to the scheduler: the
  // per-query owned pool keeps the original dedicated-thread path so
  // single-query behaviour and its worker accounting stay unchanged.
  schedule.pool = options.pool;
  ScheduleResult sched = [&] {
    TraceSpan span("enumerate");
    return RunParallelEnumeration(data_, pre->tree,
                                  options.flat_index ? IndexView(flat)
                                                     : IndexView(index),
                                  schedule, visitor);
  }();
  stats.enumerate_seconds = phase.Seconds();
  stats.enumeration = sched.stats;
  stats.worker_seconds = std::move(sched.worker_seconds);
  stats.worker_embeddings = std::move(sched.worker_embeddings);
  stats.decomposition = sched.decomposition;
  visitor_abort = sched.visitor_abort;

  result.embedding_count = sched.embeddings;

  // Termination resolution, most-specific first: a tripped budget names
  // its cap; a visitor that returned false is an external cancellation;
  // reaching the emission limit is the paper's first-k mode.
  TerminationReason reason = TerminationReason::kCompleted;
  if (budget != nullptr && budget->Exhausted()) {
    reason = tracker.reason();
  } else if (sched.visitor_abort) {
    reason = TerminationReason::kCancelled;
  } else if (sched.limit_hit) {
    reason = TerminationReason::kLimit;
  }

  if (options.profile) {
    QueryProfile& profile = result.profile.emplace();
    const auto& order = pre->tree.matching_order();
    profile.vertices.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      VertexProfile& vp = profile.vertices[i];
      const VertexId u = order[i];
      vp.u = u;
      vp.order_position = i;
      if (i < vertex_stats.size()) {
        // Build records arrive in matching order, root first.
        vp.candidates_filtered = vertex_stats[i].candidates_filtered;
        vp.rejected_label = vertex_stats[i].rejected_label;
        vp.rejected_degree = vertex_stats[i].rejected_degree;
        vp.rejected_nlc = vertex_stats[i].rejected_nlc;
      }
      vp.candidates_built = built_sizes[u];
      vp.candidates_refined = index.at(u).candidates.size();
      if (u < pruned_per_vertex.size()) {
        vp.refine_pruned = pruned_per_vertex[u];
      }
      // Footprints reflect the layout enumeration actually read.
      const CeciIndex::VertexFootprint f = options.flat_index
                                               ? flat.MemoryFootprint(u)
                                               : index.MemoryFootprint(u);
      vp.te_keys = f.te_keys;
      vp.te_edges = f.te_edges;
      vp.te_bytes = f.te_bytes;
      vp.nte_lists = f.nte_lists;
      vp.nte_edges = f.nte_edges;
      vp.nte_bytes = f.nte_bytes;
      vp.candidate_bytes = f.candidate_bytes;
      if (i < stats.enumeration.calls_per_position.size()) {
        vp.recursive_calls = stats.enumeration.calls_per_position[i];
      }
      profile.te_bytes += f.te_bytes;
      profile.nte_bytes += f.nte_bytes;
      profile.candidate_bytes += f.candidate_bytes;
    }
    profile.index_bytes =
        profile.te_bytes + profile.nte_bytes + profile.candidate_bytes;
    profile.clusters = sched.cluster_skew;
    profile.work_units = sched.unit_skew;
    profile.enumerate_wall_seconds = stats.enumerate_seconds;
    profile.workers.resize(stats.worker_seconds.size());
    for (std::size_t w = 0; w < profile.workers.size(); ++w) {
      profile.workers[w].worker = w;
      profile.workers[w].busy_seconds = stats.worker_seconds[w];
      if (w < sched.worker_units.size()) {
        profile.workers[w].units = sched.worker_units[w];
      }
    }
  }

  finalize(reason);
  return result;
}

Result<std::uint64_t> CeciMatcher::Count(const Graph& query,
                                         std::size_t threads) const {
  MatchOptions options;
  options.threads = threads;
  auto result = Match(query, options);
  if (!result.ok()) return result.status();
  return result->embedding_count;
}

}  // namespace ceci
