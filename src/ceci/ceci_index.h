// The Compact Embedding Cluster Index (paper §3.1) in its staging form.
//
// CeciBuilder writes it and RefineCeci refines it in place; then
// FlatCeciIndex::Build places its lists in the arena that enumeration,
// CEIX files and dist workers read (flat_index.h). Per non-root query
// vertex there is a TE list over its tree parent's candidates and one NTE
// list per incoming non-tree edge; the root holds the cluster pivots.
// Size is O(|E_q| × |E_g|) (§3.4).
//
// Every list already has the arena's shape: (offset, count) runs into
// one pool, appended by the builder as it scans and compacted in place by
// the empty-key cascade and refinement. A TE list (RunPool) stores no
// keys: run i belongs to the tree parent's candidate at rank i. An NTE
// list (KeyedRuns) keys each run by an NTE-parent data-vertex id. Values
// are data-vertex ids until RefineCeci rewrites them to ranks.
#ifndef CECI_CECI_CECI_INDEX_H_
#define CECI_CECI_CECI_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "ceci/query_tree.h"
#include "graph/types.h"
#include "util/check.h"
#include "util/logging.h"

namespace ceci {

/// Data vertex → rank in one query vertex's sorted candidate array, O(1)
/// per lookup; refinement's map from data-vertex ids to ranks. Holds
/// rank + 1 so a zero slot means "not a candidate". Load and Unload touch
/// only the loaded candidates, so one map sized to the data graph serves
/// every query vertex in turn.
class CandidateRanks {
 public:
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  /// A map for data vertices [0, size), all absent.
  explicit CandidateRanks(std::size_t size) : rank_plus_one_(size, 0) {}

  void Load(std::span<const VertexId> candidates) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      CECI_DCHECK_LT(candidates[i], rank_plus_one_.size());
      rank_plus_one_[candidates[i]] = static_cast<std::uint32_t>(i + 1);
    }
  }
  void Unload(std::span<const VertexId> candidates) {
    for (VertexId v : candidates) rank_plus_one_[v] = 0;
  }

  /// Rank of `v` among the loaded candidates; kAbsent if it is not one.
  std::uint32_t Find(VertexId v) const {
    return (v < rank_plus_one_.size() ? rank_plus_one_[v] : 0) - 1;
  }

 private:
  std::vector<std::uint32_t> rank_plus_one_;
};

/// One run: `count` strictly ascending values at `offset` in a pool.
struct ValueRun {
  std::uint32_t offset = 0;
  std::uint32_t count = 0;
};

/// Runs of values back to back in one pool; runs shrunk in place leave
/// gaps behind them. As a TE list (§3.1), run i holds the owner's
/// candidates adjacent to the tree parent's candidate at rank i.
struct RunPool {
  std::vector<ValueRun> runs;
  std::vector<VertexId> pool;

  std::size_t num_runs() const { return runs.size(); }
  std::span<const VertexId> values_at(std::size_t i) const {
    return {pool.data() + runs[i].offset, runs[i].count};
  }

  /// Makes pool[begin, end) the next run; it must be non-empty and
  /// strictly sorted.
  void CloseRun(std::size_t begin) {
    CECI_DCHECK(begin < pool.size() &&
                std::adjacent_find(pool.begin() + begin, pool.end(),
                                   std::greater_equal<VertexId>()) ==
                    pool.end())
        << "runs must be non-empty and strictly sorted";
    CECI_CHECK(pool.size() <= std::numeric_limits<std::uint32_t>::max())
        << "candidate list pool exceeds 32-bit offsets";
    runs.push_back({static_cast<std::uint32_t>(begin),
                    static_cast<std::uint32_t>(pool.size() - begin)});
  }

  /// Appends every run of `other` after this pool's.
  void Append(const RunPool& other);

  /// Candidate edges stored (the sum of the run counts).
  std::size_t TotalValues() const;

  /// Keeps run i iff `keep(i)`, in order. Returns the values dropped.
  template <typename Keep>
  std::size_t KeepRuns(const Keep& keep) {
    std::size_t dropped = 0;
    std::size_t write = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (keep(i)) {
        runs[write++] = runs[i];
      } else {
        dropped += runs[i].count;
      }
    }
    runs.resize(write);
    return dropped;
  }

  /// Rewrites each value v of run i to `map(v)` in place, dropping those
  /// mapped to CandidateRanks::kAbsent; `map` must keep the run strictly
  /// ascending. Returns the values dropped.
  template <typename Map>
  std::size_t MapRun(std::size_t i, const Map& map) {
    ValueRun& run = runs[i];
    VertexId* values = pool.data() + run.offset;
    std::uint32_t kept = 0;
    for (std::uint32_t j = 0; j < run.count; ++j) {
      const std::uint32_t mapped = map(values[j]);
      if (mapped != CandidateRanks::kAbsent) values[kept++] = mapped;
    }
    const std::uint32_t dropped = run.count - kept;
    run.count = kept;
    return dropped;
  }
};

/// A keyed candidate list: an NTE list (§3.6), or a TurboIso region list.
/// Each key, a candidate v_p of the list's parent, owns the run of the
/// child's candidates adjacent to v_p: run i belongs to keys[i].
struct KeyedRuns : RunPool {
  std::vector<VertexId> keys;  // strictly ascending

  std::size_t num_keys() const { return keys.size(); }

  /// Makes pool[begin, end) the run of `key`, above every key so far.
  void CloseRun(VertexId key, std::size_t begin) {
    CECI_DCHECK(keys.empty() || keys.back() < key)
        << "keys must be appended in ascending order";
    keys.push_back(key);
    RunPool::CloseRun(begin);
  }

  /// Value set of `key`; empty if the key is absent.
  std::span<const VertexId> Find(VertexId key) const;

  /// Empties the list, keeping its allocations for reuse.
  void clear() {
    keys.clear();
    runs.clear();
    pool.clear();
  }

  /// Drops the keys failing `keep_key` and maps the other runs' values as
  /// MapRun does; keys left with no values go too. `keep_key` sees the
  /// keys once each, in ascending order. Returns the values dropped.
  template <typename KeepKey, typename Map>
  std::size_t Prune(const KeepKey& keep_key, const Map& map) {
    std::size_t dropped = 0;
    std::size_t write = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (!keep_key(keys[i])) {
        dropped += runs[i].count;
        continue;
      }
      dropped += MapRun(i, map);
      if (runs[i].count == 0) continue;
      keys[write] = keys[i];
      runs[write] = runs[i];
      ++write;
    }
    keys.resize(write);
    runs.resize(write);
    return dropped;
  }
};

/// Per-query-vertex slice of the index.
struct CeciVertexData {
  /// Candidates, sorted. For the root these are the cluster pivots.
  std::vector<VertexId> candidates;
  /// cardinality(u, candidates[i]) as computed by refinement (§3.3);
  /// parallel to `candidates`. Empty before refinement.
  std::vector<Cardinality> cardinalities;
  /// TE candidates, one run per tree-parent candidate. Empty for the root.
  RunPool te;
  /// NTE candidates, parallel to QueryTree::nte_in(u).
  std::vector<KeyedRuns> nte;
};

/// The index. Plain data; lifetime bound to the QueryTree it was built for.
/// Once built, each non-root vertex's TE list holds one run per candidate
/// of its tree parent, and values are data-vertex ids, cascade leftovers
/// (ids no longer candidates of the owner) included. Once refined, that
/// still holds, every candidate is alive, each NTE key is a candidate of
/// the NTE parent, and every value is a rank: its id's position in the
/// owner's `candidates`.
class CeciIndex {
 public:
  CeciIndex() = default;
  explicit CeciIndex(std::size_t num_query_vertices)
      : per_vertex_(num_query_vertices) {}

  CeciVertexData& at(VertexId u) { return per_vertex_[u]; }
  const CeciVertexData& at(VertexId u) const { return per_vertex_[u]; }

  std::size_t num_query_vertices() const { return per_vertex_.size(); }

  /// Cluster pivots (candidates of the root query vertex).
  const std::vector<VertexId>& pivots(const QueryTree& tree) const {
    return per_vertex_[tree.root()].candidates;
  }

  /// No-op. FlatCeciIndex::Build is the only freeze. Kept because
  /// perfbench/driver.cc still calls it.
  void Freeze() {}

  /// Total candidate edges stored across all TE and NTE lists.
  std::size_t TotalCandidateEdges() const;

  /// The paper's theoretical bound (§3.4, §6.4): |E_q| × 2|E_g| candidate
  /// edges at 8 bytes each. `directed_data_edges` is 2|E_g|, the data
  /// graph's num_directed_edges().
  static std::size_t TheoreticalBytes(std::size_t query_edges,
                                      std::size_t directed_data_edges) {
    return query_edges * directed_data_edges * 8;
  }

 private:
  std::vector<CeciVertexData> per_vertex_;
};

/// The §3.4 index size that MatchStats::ceci_bytes reports (Table 2's
/// accounting, on the paper's vector-of-pairs layout): 4 bytes per key
/// plus a 24-byte value-set header, 4 per stored value, 4 per candidate,
/// and sizeof(Cardinality) per candidate once refined. A TE run counts as
/// one key: the paper keys it by the parent's candidate. A pure function
/// of the counts, so a freshly built index and the arena it was frozen to
/// (or a CEIX image of it) report the same figure.
inline std::size_t CeciBytes(std::size_t keys, std::size_t values,
                             std::size_t candidates, bool refined) {
  constexpr std::size_t kValueSetHeader = 24;
  return keys * (sizeof(VertexId) + kValueSetHeader) +
         values * sizeof(VertexId) +
         candidates *
             (sizeof(VertexId) + (refined ? sizeof(Cardinality) : 0));
}

/// CeciBytes of one query vertex's slice: its TE and NTE lists and its
/// candidates, refined once it holds cardinalities.
std::size_t CeciBytes(const CeciVertexData& slice);

}  // namespace ceci

#endif  // CECI_CECI_CECI_INDEX_H_
