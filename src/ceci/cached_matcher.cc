#include "ceci/cached_matcher.h"

#include <algorithm>
#include <sstream>

#include "ceci/index_io.h"
#include "ceci/preprocess.h"
#include "graphio/pattern_parser.h"
#include "util/metrics_registry.h"

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

CachedMatcher::CachedMatcher(const Graph& data) : matcher_(data) {}

std::string CachedMatcher::QueryKey(const Graph& query,
                                    const MatchOptions& options) {
  std::ostringstream key;
  key << OrderStrategyName(options.order) << '|'
      << (options.break_automorphisms ? 'S' : 'N') << '|';
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
  // One tracker spans the lookup, a miss's Prepare, and the Execute.
  BudgetTracker tracker(options.budget);
  const std::string key = QueryKey(query, options);
  std::shared_ptr<const PreparedQuery> entry;
  {
    MutexLock lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      CacheHitCounter().Increment();
      entry = it->second;
    }
  }
  const bool cache_hit = entry != nullptr;
  if (!cache_hit) {
    auto prepared = matcher_.Prepare(query, options, &tracker);
    if (!prepared.ok()) return prepared.status();
    entry = std::make_shared<const PreparedQuery>(std::move(prepared).value());
    MutexLock lock(mutex_);
    ++misses_;
    CacheMissCounter().Increment();
    // A partial entry is never cached: a later unbudgeted repeat must not
    // inherit an incomplete index.
    if (entry->complete()) {
      entry = cache_.emplace(key, entry).first->second;  // first writer wins
      CacheEntriesGauge().Set(static_cast<std::int64_t>(cache_.size()));
    }
  }
  return matcher_.Execute(*entry, options, visitor, &tracker, cache_hit);
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
  auto tree = ImageQueryTree(*loaded, *query);
  if (!tree.ok()) return tree.status();
  const Graph& data = matcher_.data();
  auto fresh = std::make_shared<PreparedQuery>();
  fresh->tree = std::move(tree).value();
  const FlatCeciIndex& flat = loaded->index;
  const VertexId root = fresh->tree.root();
  if (flat.TotalCandidateEdges() + flat.candidates(root).size() > 0 &&
      flat.MaxCandidateId() >= data.num_vertices()) {
    return Status::InvalidArgument(
        "prebuilt index references data vertices beyond this graph: " + path);
  }
  // An image built on other vertex ids than its pattern's parse (one
  // written from a parse that numbered the vertices differently) can still
  // carry an order that fits; its candidates then lack the labels of the
  // query vertex that reads them.
  for (VertexId u = 0; u < query->num_vertices(); ++u) {
    for (VertexId v : flat.candidates(u)) {
      if (v >= data.num_vertices() ||
          !data.HasAllLabels(v, query->labels(u))) {
        return Status::InvalidArgument(
            "prebuilt index candidates do not carry their pattern vertex's "
            "labels: " + path);
      }
    }
  }
  std::vector<std::size_t> candidate_counts;
  FilterTable::Compute(data, matcher_.nlc_index(), *query, &candidate_counts);
  if (std::find(candidate_counts.begin(), candidate_counts.end(), 0u) !=
      candidate_counts.end()) {
    return Status::InvalidArgument(
        "prebuilt index pattern is infeasible on this data graph: " + path);
  }
  // The image carries the restriction set its writer chose; an image
  // written with breaking off serves only requests that turn it off too.
  fresh->symmetry = std::move(loaded->symmetry);
  fresh->flat = std::move(loaded->index);
  fresh->root_order = RootOrder(fresh->flat, root);
  MatchOptions key_options;
  key_options.break_automorphisms = fresh->symmetry.automorphism_count() != 0;
  MatchStats& stats = fresh->stats;
  stats.automorphisms_broken = fresh->symmetry.automorphism_count();
  stats.restrictions_mirrored = fresh->symmetry.mirrored();
  stats.theoretical_bytes = CeciIndex::TheoreticalBytes(
      query->num_edges(), data.num_directed_edges());
  stats.ceci_bytes = CeciBytes(fresh->flat);
  stats.flat_bytes = fresh->flat.ArenaBytes();
  stats.flat_array_entries = fresh->flat.ArrayEntries();
  stats.flat_bitmap_entries = fresh->flat.BitmapEntries();
  stats.candidate_edges = fresh->flat.TotalCandidateEdges();
  stats.embedding_clusters = fresh->flat.candidates(root).size();

  const std::string key = QueryKey(*query, key_options);
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

void CachedMatcher::ClearCache() {
  MutexLock lock(mutex_);
  cache_.clear();
  CacheEntriesGauge().Set(0);
}

}  // namespace ceci
