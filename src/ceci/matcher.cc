#include "ceci/matcher.h"

#include <memory>
#include <optional>
#include <utility>

#include "ceci/ceci_builder.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "util/intersection.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci {
namespace {

// Mirrors the build stage's counters into the process-cumulative
// registry, once per Prepare (a cache hit builds nothing, so adds nothing).
void ExportBuildMetrics(const MatchStats& s) {
  MetricsRegistry& reg = MetricsRegistry::Global();
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
  rejected_label.Add(s.build.rejected_label);
  rejected_degree.Add(s.build.rejected_degree);
  rejected_nlc.Add(s.build.rejected_nlc);
  cascade_removals.Add(s.build.cascade_removals);
  nte_cascade_removals.Add(s.build.nte_cascade_removals);
  frontier_expansions.Add(s.build.frontier_expansions);
  neighbors_scanned.Add(s.build.neighbors_scanned);
  pruned_candidates.Add(s.refine.pruned_candidates);
  pruned_edges.Add(s.refine.pruned_edges);
}

// Mirrors one answered query into the process-cumulative registry, once
// per Execute, from accumulated locals so the per-candidate hot paths
// never touch shared metric cells.
void ExportMatchMetrics(const MatchResult& result) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter& queries = reg.GetCounter("ceci.match.queries");
  static Counter& embeddings = reg.GetCounter("ceci.match.embeddings");
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
  // every enumeration worker flushed its batch when it finished, this
  // covers the calling thread's other kernel calls.
  FlushIntersectionThreadStats();

  const MatchStats& s = result.stats;
  queries.Increment();
  embeddings.Add(result.embedding_count);
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

// Assembles the EXPLAIN profile from the prepared query's per-vertex
// counts, the arena footprints, and this execution's schedule.
QueryProfile BuildProfile(const PreparedQuery& prepared,
                          const MatchStats& stats,
                          const ScheduleResult& sched) {
  QueryProfile profile;
  const VertexPipelineCounts& counts = prepared.counts;
  const auto& order = prepared.tree.matching_order();
  profile.vertices.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    VertexProfile& vp = profile.vertices[i];
    const VertexId u = order[i];
    vp.u = u;
    vp.order_position = i;
    if (i < counts.filtered.size()) {
      // Build records arrive in matching order, root first.
      vp.candidates_filtered = counts.filtered[i].candidates_filtered;
      vp.rejected_label = counts.filtered[i].rejected_label;
      vp.rejected_degree = counts.filtered[i].rejected_degree;
      vp.rejected_nlc = counts.filtered[i].rejected_nlc;
    }
    if (u < counts.built.size()) vp.candidates_built = counts.built[u];
    vp.candidates_refined = prepared.flat.candidates(u).size();
    if (u < counts.pruned.size()) vp.refine_pruned = counts.pruned[u];
    const FlatCeciIndex::VertexFootprint f =
        prepared.flat.MemoryFootprint(u);
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
  return profile;
}

}  // namespace

FlatCeciIndex BuildRefineFreeze(const Graph& data, const NlcIndex& nlc,
                                const Graph& query, const QueryTree& tree,
                                const BuildOptions& build, MatchStats* stats,
                                VertexPipelineCounts* counts) {
  BudgetTracker* budget = build.budget;
  auto tripped = [budget] { return budget != nullptr && budget->Exhausted(); };

  // --- CECI creation + BFS filtering (§3.2) ---
  Timer phase;
  BuildOptions build_options = build;
  if (counts != nullptr) build_options.vertex_stats = &counts->filtered;
  CeciIndex index = [&] {
    TraceSpan span("build");
    return CeciBuilder(data, nlc).Build(query, tree, build_options,
                                        &stats->build);
  }();
  if (build.filter_table != nullptr) build.filter_table->Release();
  stats->build_seconds = phase.Seconds();
  stats->ceci_bytes_unrefined = 0;
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    stats->ceci_bytes_unrefined += CeciBytes(index.at(u));
  }
  stats->candidate_edges_unrefined = index.TotalCandidateEdges();
  // A partial index skips everything downstream.
  if (tripped()) return FlatCeciIndex();
  if (counts != nullptr) {
    counts->built.resize(query.num_vertices());
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      counts->built[u] = index.at(u).candidates.size();
    }
  }

  // --- Reverse-BFS refinement (§3.3) ---
  phase.Reset();
  {
    TraceSpan span("refine");
    RefineCeci(tree, data.num_vertices(), &index, &stats->refine,
               counts != nullptr ? &counts->pruned : nullptr, budget);
  }
  stats->refine_seconds = phase.Seconds();
  // A semi-refined index has incomplete cardinalities: the freeze may not
  // consume it.
  if (tripped()) return FlatCeciIndex();
  stats->total_cardinality = stats->refine.total_cardinality;

  // --- Freeze to the flat arena, the layout enumeration reads ---
  phase.Reset();
  FlatCeciIndex flat = [&] {
    TraceSpan span("freeze_flat");
    return FlatCeciIndex::Build(index, tree);
  }();
  stats->freeze_seconds = phase.Seconds();
  stats->ceci_bytes = CeciBytes(flat);
  stats->candidate_edges = flat.TotalCandidateEdges();
  stats->embedding_clusters = flat.candidates(tree.root()).size();
  stats->flat_bytes = flat.ArenaBytes();
  stats->flat_array_entries = flat.ArrayEntries();
  stats->flat_bitmap_entries = flat.BitmapEntries();
  if (budget != nullptr) {
    budget->ChargeBytes(flat.ArenaBytes());
    if (budget->Poll()) return FlatCeciIndex();
  }
  return flat;
}

CeciMatcher::CeciMatcher(const Graph& data) : data_(data), nlc_(data) {}

ThreadPool* CeciMatcher::CallPool(const MatchOptions& options,
                                  std::shared_ptr<ThreadPool>* hold) const {
  if (options.pool != nullptr) return options.pool;
  if (options.threads <= 1) return nullptr;
  const std::size_t helpers = options.threads - 1;
  {
    MutexLock lock(helpers_mutex_);
    // Kept helpers of the right size that no other call holds.
    if (helpers_ != nullptr && helpers_.use_count() == 1 &&
        helpers_->num_threads() == helpers) {
      *hold = helpers_;
      return hold->get();
    }
  }
  // Made outside the lock. They replace the kept helpers unless another
  // call still holds those, so concurrent calls each get their own.
  *hold = std::make_shared<ThreadPool>(helpers);
  // Declared before the lock, so replaced helpers are joined after it is
  // released.
  std::shared_ptr<ThreadPool> replaced;
  MutexLock lock(helpers_mutex_);
  if (helpers_ == nullptr || helpers_.use_count() == 1) {
    replaced = std::exchange(helpers_, *hold);
  }
  return hold->get();
}

Result<MatchResult> CeciMatcher::Match(const Graph& query,
                                       const MatchOptions& options,
                                       const EmbeddingVisitor* visitor) const {
  TraceSpan match_span("match");
  // One tracker for both stages: the deadline runs from here.
  BudgetTracker tracker(options.budget);
  auto prepared = Prepare(query, options, &tracker);
  if (!prepared.ok()) return prepared.status();
  return Execute(*prepared, options, visitor, &tracker);
}

Result<PreparedQuery> CeciMatcher::Prepare(const Graph& query,
                                           const MatchOptions& options,
                                           BudgetTracker* tracker) const {
  Timer phase;
  std::optional<BudgetTracker> own_tracker;
  if (tracker == nullptr) tracker = &own_tracker.emplace(options.budget);
  // Inactive (null) when options.budget is default: the pipeline then
  // pays nothing.
  BudgetTracker* budget = tracker->active() ? tracker : nullptr;
  PreparedQuery prepared;
  MatchStats& stats = prepared.stats;

  // Stamps a budget trip on the prepared query; Execute returns it as a
  // labelled partial result.
  auto partial = [&] {
    prepared.termination = tracker->reason();
    stats.budget = tracker->ToStats();
    return std::move(prepared);
  };
  // Initial charge, before any index work starts: Preprocess's filter
  // table holds one byte per (query vertex, data vertex), so a budget too
  // small for it stops the query before the table is allocated.
  if (budget != nullptr &&
      budget->ChargeBytes(query.num_vertices() * data_.num_vertices())) {
    return partial();
  }

  // The filter scan and the build run on the call's pool beside the
  // calling thread (the scan on at most `threads` workers).
  std::shared_ptr<ThreadPool> helpers;
  ThreadPool* pool = CallPool(options, &helpers);

  // --- Preprocessing (§2.2) ---
  PreprocessOptions pre_options;
  pre_options.order = options.order;
  pre_options.threads = options.threads;
  pre_options.pool = pool;
  auto pre = [&] {
    TraceSpan span("preprocess");
    return Preprocess(data_, nlc_, query, pre_options, budget);
  }();
  if (!pre.ok()) return pre.status();
  // The filter scan polls every stride bucket vertices; this poll also
  // catches an already-cancelled token or expired deadline that a scan
  // shorter than one stride never saw. A trip in either place stops the
  // query before the build starts.
  if (budget != nullptr && (budget->Exhausted() || budget->Poll())) {
    stats.preprocess_seconds = phase.Seconds();
    return partial();
  }
  prepared.tree = std::move(pre->tree);
  // The Grochow–Kellis set; its mirror may replace it once the index
  // exists (below).
  prepared.symmetry = options.break_automorphisms
                          ? SymmetryConstraints::Compute(query)
                          : SymmetryConstraints::None(query.num_vertices());
  prepared.infeasible = pre->infeasible;
  stats.automorphisms_broken = prepared.symmetry.automorphism_count();
  // Directed adjacency entries: every undirected data edge can serve a
  // query edge in either orientation, so the §3.4 bound counts 2|E_g|
  // candidate entries per query edge.
  stats.theoretical_bytes = CeciIndex::TheoreticalBytes(
      query.num_edges(), data_.num_directed_edges());
  stats.preprocess_seconds = phase.Seconds();
  if (pre->infeasible) {
    // Some query vertex has no candidates at all: zero embeddings, and no
    // index to build.
    static Counter& infeasible =
        MetricsRegistry::Global().GetCounter("ceci.match.infeasible");
    infeasible.Increment();
    return prepared;
  }

  BuildOptions build_options;
  build_options.pool = pool;
  build_options.budget = budget;
  build_options.root_candidates = &pre->root_candidates;
  build_options.filter_table = &pre->filter;
  prepared.flat = BuildRefineFreeze(data_, nlc_, query, prepared.tree,
                                    build_options, &stats, &prepared.counts);
  ExportBuildMetrics(stats);
  if (budget != nullptr && budget->Exhausted()) return partial();
  // The root order completes the layout enumeration reads: timed with the
  // freeze, charged with the arena.
  phase.Reset();
  prepared.root_order = RootOrder(prepared.flat, prepared.tree.root());
  stats.freeze_seconds += phase.Seconds();
  if (budget != nullptr &&
      budget->ChargeBytes(prepared.root_order.capacity() *
                          sizeof(std::uint32_t))) {
    return partial();
  }

  // --- Restriction-set choice: the one choice site of this pipeline ---
  if (!prepared.symmetry.empty()) {
    phase.Reset();
    TraceSpan span("plan");
    SymmetryConstraints mirrored = prepared.symmetry.Mirrored();
    stats.restriction_estimate = EstimateRestrictionCost(
        prepared.tree, prepared.flat, prepared.symmetry, mirrored);
    if (stats.restriction_estimate.PrefersMirror()) {
      prepared.symmetry = std::move(mirrored);
      stats.restrictions_mirrored = true;
    }
    stats.plan_seconds = phase.Seconds();
  }
  return prepared;
}

MatchResult CeciMatcher::Execute(const PreparedQuery& prepared,
                                 const MatchOptions& options,
                                 const EmbeddingVisitor* visitor,
                                 BudgetTracker* tracker,
                                 bool cache_hit) const {
  std::optional<BudgetTracker> own_tracker;
  if (tracker == nullptr) tracker = &own_tracker.emplace(options.budget);
  BudgetTracker* budget = tracker->active() ? tracker : nullptr;

  MatchResult result;
  result.stats = prepared.stats;
  MatchStats& stats = result.stats;
  stats.index_cache_hit = cache_hit;
  if (cache_hit) {
    // The prepare ran for an earlier request; this one only enumerates.
    // Index-size accounting still describes the prepared index.
    stats.preprocess_seconds = 0.0;
    stats.build_seconds = 0.0;
    stats.refine_seconds = 0.0;
    stats.freeze_seconds = 0.0;
    stats.plan_seconds = 0.0;
  }
  // Stamps the outcome on the result; every exit path funnels through here
  // so partial results are always labelled.
  bool visitor_abort = false;
  auto finalize = [&](TerminationReason reason) {
    result.termination = reason;
    // A partial prepare carries the budget flags stamped when it tripped.
    if (prepared.complete()) stats.budget = tracker->ToStats();
    if (visitor_abort) stats.budget.cancelled = true;
    stats.total_seconds = stats.preprocess_seconds + stats.build_seconds +
                          stats.refine_seconds + stats.freeze_seconds +
                          stats.plan_seconds + stats.enumerate_seconds;
    ExportMatchMetrics(result);
    return result;
  };

  // The budget tripped mid-Prepare: a partial index has no meaningful
  // enumeration and no EXPLAIN.
  if (!prepared.complete()) return finalize(prepared.termination);
  if (prepared.infeasible) {
    // A complete zero answer; empty-but-present profile, as no index
    // exists to walk.
    if (options.profile) result.profile.emplace();
    return finalize(TerminationReason::kCompleted);
  }
  // A deadline that expired while the query sat in a queue (or between
  // the stages) stops it before enumeration starts.
  if (budget != nullptr && budget->Poll()) return finalize(tracker->reason());

  // --- Parallel enumeration (§4) ---
  Timer phase;
  ScheduleOptions schedule;
  schedule.threads = options.threads;
  schedule.distribution = options.distribution;
  schedule.beta = options.beta;
  schedule.limit = options.limit;
  schedule.enumeration.nte_intersection = options.nte_intersection;
  schedule.enumeration.leaf_count_shortcut =
      options.leaf_count_shortcut && visitor == nullptr;
  schedule.enumeration.symmetry = &prepared.symmetry;
  schedule.enumeration.per_position_stats = options.profile;
  schedule.collect_profile = options.profile;
  schedule.budget = budget;
  // Workers 1..threads-1 run on the call's pool; the caller runs worker 0.
  std::shared_ptr<ThreadPool> helpers;
  schedule.pool = CallPool(options, &helpers);
  ScheduleResult sched = [&] {
    TraceSpan span("enumerate");
    return RunParallelEnumeration(data_, prepared.tree, prepared.flat,
                                  prepared.root_order, schedule, visitor);
  }();
  stats.enumerate_seconds = phase.Seconds();
  stats.enumeration = sched.stats;
  stats.worker_seconds = std::move(sched.worker_seconds);
  stats.worker_embeddings = std::move(sched.worker_embeddings);
  stats.decomposition = sched.decomposition;
  visitor_abort = sched.visitor_abort;
  result.embedding_count = sched.embeddings;
  if (options.profile) result.profile = BuildProfile(prepared, stats, sched);

  // Termination resolution, most-specific first: a tripped budget names
  // its cap; a visitor that returned false is an external cancellation;
  // reaching the emission limit is the paper's first-k mode.
  if (budget != nullptr && budget->Exhausted()) {
    return finalize(tracker->reason());
  }
  if (sched.visitor_abort) return finalize(TerminationReason::kCancelled);
  if (sched.limit_hit) return finalize(TerminationReason::kLimit);
  return finalize(TerminationReason::kCompleted);
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
