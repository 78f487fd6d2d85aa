// CachedMatcher: a multi-query session over one data graph.
//
// Dashboards and monitoring workloads re-run the same small set of query
// shapes continuously. The CECI for a (data, query, matching order) triple
// is immutable once refined, so this facade is a cache of prepared
// queries around one CeciMatcher: a miss runs CeciMatcher::Prepare and
// keeps its PreparedQuery (query tree, symmetry constraints, frozen arena)
// under the structural query key; every request, hit or miss, runs
// CeciMatcher::Execute on the entry. It is the in-memory counterpart of the
// on-disk persistence in `ceci/index_io.h`.
#ifndef CECI_CECI_CACHED_MATCHER_H_
#define CECI_CECI_CACHED_MATCHER_H_

#include <map>
#include <memory>
#include <string>

#include "ceci/matcher.h"
#include "util/sync.h"

namespace ceci {

/// Thread-safe cache of CeciMatcher::Prepare results.
class CachedMatcher {
 public:
  /// Indexes `data` (NLC) once, in the owned CeciMatcher; the graph must
  /// outlive the matcher.
  explicit CachedMatcher(const Graph& data);

  CachedMatcher(const CachedMatcher&) = delete;
  CachedMatcher& operator=(const CachedMatcher&) = delete;

  /// Same contract as CeciMatcher::Match; Prepare is skipped when the same
  /// query shape (and order strategy / symmetry setting) was matched
  /// before. One budget tracker spans the lookup, a miss's Prepare and the
  /// Execute: a budget that trips while preparing a fresh entry returns a
  /// truthfully-labelled partial result and the partial entry is *not*
  /// cached. Concurrent Match() calls are safe; two threads missing the
  /// same key may both prepare it (first writer wins, the loser's entry is
  /// dropped) — Execute against cached entries is read-only.
  Result<MatchResult> Match(const Graph& query, const MatchOptions& options,
                            const EmbeddingVisitor* visitor = nullptr);

  /// Convenience count.
  Result<std::uint64_t> Count(const Graph& query, std::size_t threads = 1);

  /// Loads a prebuilt flat index image (index_io, written by
  /// `ceci_query --save-index`) and installs it as a pre-warmed cache
  /// entry, keyed exactly as if the image's stored pattern had been
  /// matched with default MatchOptions (breaking off, when the image was
  /// written without automorphism breaking) — so serving traffic for that
  /// query shape skips construction and refinement entirely. The entry
  /// enumerates under the restriction set stored in the image. With
  /// `use_mmap` the arena stays memory-mapped read-only: every worker,
  /// connection, and process serving the same file shares one physical
  /// copy. The entry enumerates under the matching order stored in the
  /// image, whatever order the default pipeline would pick today. Fails
  /// with kInvalidArgument when the image carries no pattern text, its
  /// order or NTE lists do not fit the pattern, a candidate is not a
  /// vertex of this graph or lacks its pattern vertex's labels, or the
  /// pattern is infeasible here; kCorruption/kIoError propagate from the
  /// loader.
  Status InstallPrebuilt(const std::string& path, bool use_mmap = true);

  std::size_t cache_entries() const;
  std::uint64_t cache_hits() const {
    MutexLock lock(mutex_);
    return hits_;
  }
  std::uint64_t cache_misses() const {
    MutexLock lock(mutex_);
    return misses_;
  }
  void ClearCache();

  /// Structural cache key of a query under given options: labels + edges +
  /// order strategy + symmetry flag. Exposed for tests.
  static std::string QueryKey(const Graph& query,
                              const MatchOptions& options);

 private:
  CeciMatcher matcher_;
  // Guards the map and the hit/miss tallies; entries themselves are
  // immutable once published, so Execute never holds the lock.
  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<const PreparedQuery>> cache_
      CECI_GUARDED_BY(mutex_);
  std::uint64_t hits_ CECI_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ CECI_GUARDED_BY(mutex_) = 0;
};

}  // namespace ceci

#endif  // CECI_CECI_CACHED_MATCHER_H_
