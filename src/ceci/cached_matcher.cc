#include "ceci/cached_matcher.h"

#include <algorithm>
#include <sstream>

#include "ceci/ceci_builder.h"
#include "ceci/index_io.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "graphio/pattern_parser.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci {
namespace {

Counter& CacheHitCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter("ceci.cache.hits");
  return c;
}
Counter& CacheMissCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.cache.misses");
  return c;
}
Gauge& CacheEntriesGauge() {
  static Gauge& g = MetricsRegistry::Global().GetGauge("ceci.cache.entries");
  return g;
}

}  // namespace

struct CachedMatcher::Entry {
  Preprocessed pre;
  SymmetryConstraints symmetry;
  // Exactly one layout is populated (use_flat selects). Flat entries drop
  // the pointer form entirely — long-lived serving caches hold only the
  // compact arena (or borrow a read-only mmap for prebuilt images).
  CeciIndex index;
  FlatCeciIndex flat;
  bool use_flat = false;
  MatchStats build_stats;  // phase times & index accounting of the build
};

CachedMatcher::CachedMatcher(const Graph& data) : data_(data), nlc_(data) {}

std::string CachedMatcher::QueryKey(const Graph& query,
                                    const MatchOptions& options) {
  std::ostringstream key;
  key << OrderStrategyName(options.order) << '|'
      << (options.break_automorphisms ? 'S' : 'N')
      << (options.flat_index ? 'F' : 'P') << '|';
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    key << 'v';
    for (Label l : query.labels(u)) key << l << ',';
  }
  key << '|';
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    for (VertexId w : query.neighbors(u)) {
      if (u < w) key << u << '-' << w << ';';
    }
  }
  return key.str();
}

Result<MatchResult> CachedMatcher::Match(const Graph& query,
                                         const MatchOptions& options,
                                         const EmbeddingVisitor* visitor) {
  // Resilient-execution support (serving mode): the budget bounds index
  // construction on a miss and every enumeration worker, exactly like
  // CeciMatcher::Match. Inactive (null) when options.budget is default.
  BudgetTracker tracker(options.budget);
  BudgetTracker* budget = tracker.active() ? &tracker : nullptr;

  const std::string key = QueryKey(query, options);
  std::shared_ptr<const Entry> entry;
  bool cache_hit = false;
  {
    MutexLock lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      CacheHitCounter().Increment();
      entry = it->second;
      cache_hit = true;
    }
  }

  if (entry == nullptr) {
    TraceSpan build_span("cache/build_entry");
    auto fresh = std::make_shared<Entry>();
    MatchStats& stats = fresh->build_stats;
    Timer phase;
    PreprocessOptions pre_options;
    pre_options.order = options.order;
    auto pre = Preprocess(data_, nlc_, query, pre_options);
    if (!pre.ok()) return pre.status();
    fresh->pre = std::move(pre).value();
    // An infeasible entry is never built: the cache keeps no filter table.
    if (fresh->pre.infeasible) fresh->pre.ReleaseBuildInputs();
    fresh->symmetry = options.break_automorphisms
                          ? SymmetryConstraints::Compute(query)
                          : SymmetryConstraints::None(query.num_vertices());
    stats.automorphisms_broken = fresh->symmetry.automorphism_count();
    stats.preprocess_seconds = phase.Seconds();
    stats.theoretical_bytes = CeciIndex::TheoreticalBytes(
        query.num_edges(), data_.num_directed_edges());

    if (!fresh->pre.infeasible) {
      phase.Reset();
      BuildOptions build_options;
      build_options.pool = options.pool;
      build_options.budget = budget;
      build_options.root_candidates = &fresh->pre.root_candidates;
      build_options.filter_table = &fresh->pre.filter;
      CeciBuilder builder(data_, nlc_);
      fresh->index =
          builder.Build(query, fresh->pre.tree, build_options, &stats.build);
      stats.build_seconds = phase.Seconds();
      fresh->pre.ReleaseBuildInputs();
      phase.Reset();
      RefineCeci(fresh->pre.tree, data_.num_vertices(), &fresh->index,
                 &stats.refine, nullptr, budget);
      stats.refine_seconds = phase.Seconds();
      if (budget != nullptr && budget->Exhausted()) {
        // Partial index: never cached (a later unbudgeted repeat must not
        // inherit an incomplete entry), and never enumerated. Return an
        // honestly-labelled partial result instead.
        MatchResult partial;
        partial.stats = stats;
        partial.termination = tracker.reason();
        partial.stats.budget = tracker.ToStats();
        partial.stats.total_seconds = partial.stats.preprocess_seconds +
                                      partial.stats.build_seconds +
                                      partial.stats.refine_seconds;
        return partial;
      }
      stats.ceci_bytes = fresh->index.MemoryBytes();
      stats.candidate_edges = fresh->index.TotalCandidateEdges();
      stats.embedding_clusters =
          fresh->index.pivots(fresh->pre.tree).size();
      stats.total_cardinality = stats.refine.total_cardinality;
      if (options.flat_index) {
        phase.Reset();
        fresh->flat = FlatCeciIndex::Build(fresh->index, fresh->pre.tree);
        stats.freeze_seconds = phase.Seconds();
        fresh->use_flat = true;
        fresh->index = CeciIndex();  // the cache keeps only the arena
        stats.flat_bytes = fresh->flat.ArenaBytes();
        stats.flat_array_entries = fresh->flat.ArrayEntries();
        stats.flat_bitmap_entries = fresh->flat.BitmapEntries();
      }
    }
    {
      MutexLock lock(mutex_);
      ++misses_;
      CacheMissCounter().Increment();
      entry = cache_.emplace(key, fresh).first->second;  // first writer wins
      CacheEntriesGauge().Set(static_cast<std::int64_t>(cache_.size()));
    }
  }

  MatchResult result;
  result.stats = entry->build_stats;
  result.stats.index_cache_hit = cache_hit;
  if (cache_hit) {
    // The entry's build ran for an earlier request; this one only
    // enumerates. Index-size accounting still describes the entry.
    result.stats.preprocess_seconds = 0.0;
    result.stats.build_seconds = 0.0;
    result.stats.refine_seconds = 0.0;
    result.stats.freeze_seconds = 0.0;
  }
  if (entry->pre.infeasible) return result;

  // A deadline that expired while the query sat in a queue (or during the
  // cache lookup) stops it before enumeration starts.
  if (budget != nullptr && budget->Poll()) {
    result.termination = tracker.reason();
    result.stats.budget = tracker.ToStats();
    return result;
  }

  Timer phase;
  ScheduleOptions schedule;
  schedule.threads = options.threads;
  schedule.distribution = options.distribution;
  schedule.beta = options.beta;
  schedule.limit = options.limit;
  schedule.enumeration.nte_intersection = options.nte_intersection;
  schedule.enumeration.leaf_count_shortcut =
      options.leaf_count_shortcut && visitor == nullptr;
  schedule.enumeration.symmetry = &entry->symmetry;
  schedule.budget = budget;
  schedule.pool = options.pool;
  ScheduleResult sched = [&] {
    TraceSpan span("cache/enumerate");
    return RunParallelEnumeration(data_, entry->pre.tree,
                                  entry->use_flat ? IndexView(entry->flat)
                                                  : IndexView(entry->index),
                                  schedule, visitor);
  }();
  result.stats.enumerate_seconds = phase.Seconds();
  result.stats.enumeration = sched.stats;
  result.stats.worker_seconds = std::move(sched.worker_seconds);
  result.stats.worker_embeddings = std::move(sched.worker_embeddings);
  result.stats.decomposition = sched.decomposition;
  result.embedding_count = sched.embeddings;

  // Termination resolution, most-specific first (same order as
  // CeciMatcher::Match).
  if (budget != nullptr && budget->Exhausted()) {
    result.termination = tracker.reason();
  } else if (sched.visitor_abort) {
    result.termination = TerminationReason::kCancelled;
  } else if (sched.limit_hit) {
    result.termination = TerminationReason::kLimit;
  }
  result.stats.budget = tracker.ToStats();
  if (sched.visitor_abort) result.stats.budget.cancelled = true;
  result.stats.total_seconds =
      result.stats.preprocess_seconds + result.stats.build_seconds +
      result.stats.refine_seconds + result.stats.freeze_seconds +
      result.stats.enumerate_seconds;
  return result;
}

Status CachedMatcher::InstallPrebuilt(const std::string& path,
                                      bool use_mmap) {
  IndexLoadOptions load;
  load.use_mmap = use_mmap;
  auto loaded = OpenFlatIndex(path, load);
  if (!loaded.ok()) return loaded.status();
  if (loaded->pattern.empty()) {
    return Status::InvalidArgument("index image carries no pattern text: " +
                                   path);
  }
  auto query = ParsePattern(loaded->pattern);
  if (!query.ok()) return query.status();

  // The image records the matching order it was built under, which need
  // not be the order the default pipeline picks today: adopt it.
  auto fresh = std::make_shared<Entry>();
  MatchStats& stats = fresh->build_stats;
  auto tree = ImageQueryTree(loaded->index, *query);
  if (!tree.ok()) return tree.status();
  fresh->pre.tree = std::move(tree).value();
  fresh->pre.root = fresh->pre.tree.root();
  const FlatCeciIndex& flat = loaded->index;
  const VertexId root = fresh->pre.root;
  if (flat.TotalCandidateEdges() + flat.candidates(root).size() > 0 &&
      flat.MaxCandidateId() >= data_.num_vertices()) {
    return Status::InvalidArgument(
        "prebuilt index references data vertices beyond this graph: " + path);
  }
  // An image built on other vertex ids than its pattern's parse (one
  // written from a parse that numbered the vertices differently) can still
  // carry an order that fits; its candidates then lack the labels of the
  // query vertex that reads them.
  for (VertexId u = 0; u < query->num_vertices(); ++u) {
    for (VertexId v : flat.candidates(u)) {
      if (v >= data_.num_vertices() ||
          !data_.HasAllLabels(v, query->labels(u))) {
        return Status::InvalidArgument(
            "prebuilt index candidates do not carry their pattern vertex's "
            "labels: " + path);
      }
    }
  }
  FilterTable::Compute(data_, nlc_, *query, &fresh->pre.candidate_counts);
  if (std::find(fresh->pre.candidate_counts.begin(),
                fresh->pre.candidate_counts.end(),
                0u) != fresh->pre.candidate_counts.end()) {
    return Status::InvalidArgument(
        "prebuilt index pattern is infeasible on this data graph: " + path);
  }
  fresh->symmetry = SymmetryConstraints::Compute(*query);
  fresh->flat = std::move(loaded->index);
  fresh->use_flat = true;
  stats.automorphisms_broken = fresh->symmetry.automorphism_count();
  stats.theoretical_bytes = CeciIndex::TheoreticalBytes(
      query->num_edges(), data_.num_directed_edges());
  stats.ceci_bytes = fresh->flat.ArenaBytes();
  stats.flat_bytes = fresh->flat.ArenaBytes();
  stats.flat_array_entries = fresh->flat.ArrayEntries();
  stats.flat_bitmap_entries = fresh->flat.BitmapEntries();
  stats.candidate_edges = fresh->flat.TotalCandidateEdges();
  stats.embedding_clusters =
      fresh->flat.candidates(fresh->pre.tree.root()).size();

  const std::string key = QueryKey(*query, MatchOptions{});
  {
    MutexLock lock(mutex_);
    cache_[key] = std::move(fresh);  // prebuilt replaces any prior entry
    CacheEntriesGauge().Set(static_cast<std::int64_t>(cache_.size()));
  }
  return Status::Ok();
}

Result<std::uint64_t> CachedMatcher::Count(const Graph& query,
                                           std::size_t threads) {
  MatchOptions options;
  options.threads = threads;
  auto result = Match(query, options);
  if (!result.ok()) return result.status();
  return result->embedding_count;
}

std::size_t CachedMatcher::cache_entries() const {
  MutexLock lock(mutex_);
  return cache_.size();
}

std::size_t CachedMatcher::cached_filter_bytes() const {
  MutexLock lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& [key, entry] : cache_) {
    bytes += entry->pre.filter.bytes() +
             entry->pre.root_candidates.size() * sizeof(VertexId);
  }
  return bytes;
}

void CachedMatcher::ClearCache() {
  MutexLock lock(mutex_);
  cache_.clear();
  CacheEntriesGauge().Set(0);
}

}  // namespace ceci
