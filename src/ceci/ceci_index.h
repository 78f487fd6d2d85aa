// The Compact Embedding Cluster Index (paper §3.1) in its staging form.
//
// CeciBuilder writes it and RefineCeci refines it in place; then
// FlatCeciIndex::Build maps its values to ranks and writes the arena that
// enumeration, CEIX files and dist workers read (flat_index.h). Per
// non-root query vertex there is a TE list keyed by its tree parent's
// candidates and one NTE list per incoming non-tree edge; the root holds
// the cluster pivots. Size is O(|E_q| × |E_g|) (§3.4).
//
// Every list already has the arena's shape: strictly ascending keys, each
// with one (offset, count) run into the list's single pool of data-vertex
// ids. The builder appends a key's values to the pool as it scans them;
// the empty-key cascade and refinement compact keys and runs in place. No
// key owns an allocation.
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

/// One key's value set: `count` sorted ids at `offset` in the list's pool.
struct ValueRun {
  std::uint32_t offset = 0;
  std::uint32_t count = 0;
};

/// A TE or NTE candidate list (§3.1/§3.6): each key, a candidate v_p of the
/// parent (tree parent for TE, NTE parent for NTE), maps to the sorted set
/// of candidates of the child query vertex adjacent to v_p.
struct CandidateRuns {
  std::vector<VertexId> keys;  // strictly ascending
  std::vector<ValueRun> runs;  // parallel to keys
  /// Every run's values; runs shrunk by Prune leave gaps behind them.
  std::vector<VertexId> pool;

  std::size_t num_keys() const { return keys.size(); }
  std::span<const VertexId> values_at(std::size_t i) const {
    return {pool.data() + runs[i].offset, runs[i].count};
  }

  /// Makes pool[begin, end) the run of `key`. Keys arrive in strictly
  /// ascending order and the run must be non-empty and sorted.
  void CloseRun(VertexId key, std::size_t begin) {
    CECI_DCHECK(keys.empty() || keys.back() < key)
        << "keys must be appended in ascending order";
    CECI_DCHECK(begin < pool.size() &&
                std::adjacent_find(pool.begin() + begin, pool.end(),
                                   std::greater_equal<VertexId>()) ==
                    pool.end())
        << "runs must be non-empty and strictly sorted";
    CECI_CHECK(pool.size() <= std::numeric_limits<std::uint32_t>::max())
        << "candidate list pool exceeds 32-bit offsets";
    keys.push_back(key);
    runs.push_back({static_cast<std::uint32_t>(begin),
                    static_cast<std::uint32_t>(pool.size() - begin)});
  }

  /// Appends every key of `other`, whose keys all exceed this list's.
  void Append(const CandidateRuns& other);

  /// Value set of `key`; empty if the key is absent.
  std::span<const VertexId> Find(VertexId key) const;

  /// Candidate edges stored (the sum of the run counts).
  std::size_t TotalValues() const;

  /// Empties the list, keeping its allocations for reuse.
  void clear() {
    keys.clear();
    runs.clear();
    pool.clear();
  }

  /// Drops keys failing `keep_key` and values failing `keep_value`; keys
  /// left with no values go too. Each surviving run is compacted in its
  /// own slot. `keep_key` sees the keys once each, in ascending order.
  /// Returns the number of candidate edges removed.
  template <typename KeepKey, typename KeepValue>
  std::size_t Prune(const KeepKey& keep_key, const KeepValue& keep_value) {
    std::size_t removed = 0;
    std::size_t write = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const ValueRun run = runs[i];
      if (!keep_key(keys[i])) {
        removed += run.count;
        continue;
      }
      VertexId* values = pool.data() + run.offset;
      std::uint32_t kept = 0;
      for (std::uint32_t j = 0; j < run.count; ++j) {
        if (keep_value(values[j])) values[kept++] = values[j];
      }
      removed += run.count - kept;
      if (kept == 0) continue;
      keys[write] = keys[i];
      runs[write] = {run.offset, kept};
      ++write;
    }
    keys.resize(write);
    runs.resize(write);
    return removed;
  }
};

/// Data vertex → rank in one query vertex's sorted candidate array, O(1)
/// per lookup; the one such map, shared by refinement and the freeze.
/// Holds rank + 1 so a zero slot means "not a candidate". Load and Unload
/// touch only the loaded candidates, so one map sized to the data graph
/// serves every query vertex in turn.
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

/// Per-query-vertex slice of the index.
struct CeciVertexData {
  /// Alive candidates, sorted. For the root these are the cluster pivots.
  std::vector<VertexId> candidates;
  /// cardinality(u, candidates[i]) as computed by refinement (§3.3);
  /// parallel to `candidates`. Empty before refinement.
  std::vector<Cardinality> cardinalities;
  /// TE candidates keyed by parent's candidates. Empty for the root.
  CandidateRuns te;
  /// NTE candidates, parallel to QueryTree::nte_in(u).
  std::vector<CandidateRuns> nte;
};

/// The index. Plain data; lifetime bound to the QueryTree it was built for.
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
/// and sizeof(Cardinality) per candidate once refined. A pure function of
/// the counts, so a freshly built index and the arena it was frozen to
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
