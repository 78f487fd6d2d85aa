// Parallel-friendly embedding enumeration by set intersection (paper §4).
//
// One Enumerator instance is a single worker's backtracking engine over a
// refined CECI. For a query vertex u the matching candidates are the
// intersection of the TE list entry for the parent's match with the NTE
// list entries for every already-matched NTE neighbor — no edge
// verification on the data graph is needed (Lemma 2). An ablation flag
// falls back to TE-only candidates plus per-edge verification, reproducing
// the CFLMatch-style behaviour the paper measures 13%-170% slower (§4.1).
//
// Workers share an optional atomic emission budget for first-k queries. A
// counting worker tallies its embeddings locally and publishes the tally
// to the shared counter in one step, so workers do not trade the
// counter's cache line on every leaf.
#ifndef CECI_CECI_ENUMERATOR_H_
#define CECI_CECI_ENUMERATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ceci/flat_index.h"
#include "ceci/query_tree.h"
#include "ceci/symmetry.h"
#include "graph/graph.h"
#include "util/budget.h"

namespace ceci {

/// Called once per embedding with the mapping indexed by query vertex id
/// (mapping[u] = matched data vertex). Return false to stop enumeration.
/// Under parallel enumeration the visitor is invoked concurrently and must
/// be thread-safe.
using EmbeddingVisitor = std::function<bool(std::span<const VertexId>)>;

struct EnumOptions {
  /// Intersect NTE candidate lists (the paper's approach). When false,
  /// candidates come from the TE list only and every non-tree edge is
  /// verified against the data graph adjacency (ablation baseline).
  bool nte_intersection = true;
  /// Counting fast path: when no visitor is installed, the last
  /// matching-order position adds |candidates| to the count instead of
  /// recursing once per candidate (the candidate set already encodes
  /// injectivity, symmetry, and every remaining edge constraint). Exact
  /// by construction. recursive_calls then has no completion call per
  /// embedding; set false for the paper's Fig. 18 accounting.
  bool leaf_count_shortcut = true;
  /// Symmetry constraints; pass SymmetryConstraints::None(n) to disable.
  const SymmetryConstraints* symmetry = nullptr;
  /// Track recursive calls per matching-order position (EnumStats::
  /// calls_per_position, profiler support). Off: the per-position vector
  /// stays empty and the recursion pays one size check.
  bool per_position_stats = false;
};

struct EnumStats {
  /// Backtracking expansions — the paper's search-space proxy (Fig. 18).
  std::uint64_t recursive_calls = 0;
  /// Candidate-list intersections performed.
  std::uint64_t intersections = 0;
  /// Elements fed into those intersections (summed input-list lengths) and
  /// elements surviving them — the pair exposes hot-path selectivity.
  std::uint64_t intersection_elements_in = 0;
  std::uint64_t intersection_elements_out = 0;
  /// HasEdge probes (nonzero only in the edge-verification ablation).
  std::uint64_t edge_verifications = 0;
  /// Embeddings this worker emitted.
  std::uint64_t embeddings = 0;
  /// Recursive calls per matching-order position (Fig. 18 per-level
  /// accounting). Empty unless EnumOptions::per_position_stats. The calls
  /// that complete an embedding past the last position are counted only in
  /// recursive_calls, and the leaf-count shortcut makes none of them.
  std::vector<std::uint64_t> calls_per_position;

  EnumStats& operator+=(const EnumStats& other) {
    recursive_calls += other.recursive_calls;
    intersections += other.intersections;
    intersection_elements_in += other.intersection_elements_in;
    intersection_elements_out += other.intersection_elements_out;
    edge_verifications += other.edge_verifications;
    embeddings += other.embeddings;
    if (calls_per_position.size() < other.calls_per_position.size()) {
      calls_per_position.resize(other.calls_per_position.size(), 0);
    }
    for (std::size_t i = 0; i < other.calls_per_position.size(); ++i) {
      calls_per_position[i] += other.calls_per_position[i];
    }
    return *this;
  }
};

/// Cost proxies of the two valid restriction sets for one query (paper
/// §2.2; see EstimateRestrictionCost). Estimates of disjoint pivot sets
/// add up, so partitions of one query sum theirs before choosing.
struct RestrictionEstimate {
  /// Under the Grochow–Kellis set (SymmetryConstraints::Compute).
  std::uint64_t min_set = 0;
  /// Under its mirror (SymmetryConstraints::Mirrored).
  std::uint64_t max_set = 0;

  /// The choice rule: the mirror only when strictly cheaper, so ties keep
  /// the Grochow–Kellis set.
  bool PrefersMirror() const { return max_set < min_set; }

  RestrictionEstimate& operator+=(const RestrictionEstimate& other) {
    min_set += other.min_set;
    max_set += other.max_set;
    return *this;
  }

  bool operator==(const RestrictionEstimate&) const = default;
};

/// Estimates the search each restriction set leaves: the partial
/// embeddings at matching-order positions 1 and 2, read from the TE lists
/// of `index` and clamped to each set's symmetry window. NTE lists and
/// injectivity are ignored. One pass over the root candidates serves both
/// sets; the cost is a small fraction of the build that produced `index`.
RestrictionEstimate EstimateRestrictionCost(
    const QueryTree& tree, const FlatCeciIndex& index,
    const SymmetryConstraints& min_set, const SymmetryConstraints& max_set);

/// Single-worker backtracking enumerator over a refined CECI frozen into
/// its arena (FlatCeciIndex). It runs in *rank space*: TE/NTE entries
/// store ranks into the child's candidate array, arrays go through the
/// SIMD sorted-u32 kernels, bitmap entries through word-wise AND/popcount,
/// and ids materialize only for survivors. Each matched query vertex
/// carries its rank beside its id, and entries are found by rank: a TE
/// entry is one array read (the list is keyed by exactly the parent's
/// candidates), an NTE entry a search of the few keys its rank window
/// allows (FlatCeciIndex::NteAt). Ranks of a prefix or a caller's mapping
/// are looked up once per call, so no lookup searches a whole key list.
class Enumerator {
 public:
  Enumerator(const Graph& data, const QueryTree& tree,
             const FlatCeciIndex& index, const EnumOptions& options);

  /// Graph-free variant: enumeration by intersection never touches the
  /// data graph, so index-only callers (e.g. the out-of-core §5 path,
  /// where no in-memory Graph exists) can omit it. Requires
  /// options.nte_intersection == true.
  Enumerator(const QueryTree& tree, const FlatCeciIndex& index,
             const EnumOptions& options);

  // The enumerator reads the index in place; it must outlive the worker.
  Enumerator(const Graph&, const QueryTree&, FlatCeciIndex&&,
             const EnumOptions&) = delete;
  Enumerator(const QueryTree&, FlatCeciIndex&&, const EnumOptions&) = delete;

  /// Installs a cross-worker emission budget: enumeration stops once
  /// `counter` (shared by all workers) reaches `limit`.
  ///
  /// A visitor takes one ticket from `counter` per embedding (Emit). The
  /// counting path (no visitor) instead adds its embeddings to a local
  /// tally and *publishes* it with one fetch_add: when EnumerateFromRanks
  /// returns, and earlier only once the tally reaches half of what the
  /// limit leaves (tally >= ceil((limit - the counter value last read) /
  /// 2)). A publish that finds `before` on the counter admits
  /// min(tally, limit - before) embeddings into stats().embeddings; if
  /// that clips the tally, the worker stops.
  /// A worker stops early only after it reads counter >= limit, and the
  /// counter is the sum of published tallies, so the admitted shares of
  /// all workers sum to exactly min(total, limit). When any call returns,
  /// `counter` holds everything that call counted.
  void SetSharedLimit(std::atomic<std::uint64_t>* counter,
                      std::uint64_t limit);

  /// Installs a cross-worker abort flag: set when any worker's visitor
  /// returns false, checked by every worker like the shared limit.
  void SetAbortFlag(std::atomic<bool>* flag) { abort_flag_ = flag; }

  /// Installs a cooperative execution budget (deadline / memory /
  /// cancellation; see util/budget.h). An exhausted budget stops the
  /// recursion like the abort flag (one relaxed load per level); the
  /// deadline and token are additionally polled every
  /// `tracker->stride()` recursive calls.
  void SetBudget(BudgetTracker* tracker) {
    budget_ = tracker;
    budget_countdown_ = tracker != nullptr ? tracker->stride() : 0;
  }

  /// Bytes of per-worker enumeration state (mapping, injectivity bitmap,
  /// per-depth scratch); charged against the memory budget by the
  /// scheduler. Scratch growth during the search is not re-charged — the
  /// bound is the initial allocation, documented in docs/robustness.md.
  std::size_t StateBytes() const;

  /// True once this worker observed a stop condition (visitor false,
  /// shared limit, or the abort flag).
  bool stopped() const { return stopped_; }

  /// Enumerates every embedding cluster (all pivots, in rank order).
  /// Returns embeddings emitted by this call. `visitor` may be null (count
  /// only).
  std::uint64_t EnumerateAll(const EmbeddingVisitor* visitor);

  /// Enumerates the cluster of one pivot; 0 when it is no root candidate.
  std::uint64_t EnumerateCluster(VertexId pivot,
                                 const EmbeddingVisitor* visitor);

  /// The enumeration core: enumerates from a partial embedding given by
  /// ranks, ranks[i] being the rank of matching_order()[i]'s match in its
  /// candidate array. The matches must form a valid partial embedding. A
  /// one-rank prefix is one embedding cluster: the scheduler enters here
  /// with an entry of the root order (extreme_cluster.h).
  std::uint64_t EnumerateFromRanks(std::span<const std::uint32_t> ranks,
                                   const EmbeddingVisitor* visitor);

  /// Enumerates from a partial embedding given by ids: prefix[i] is the
  /// match of matching_order()[i]. Looks the ranks up once and runs
  /// EnumerateFromRanks; 0 when a match is not a candidate of its vertex.
  /// The prefix must be a valid partial embedding (extreme-cluster
  /// decomposition produces exactly these).
  std::uint64_t EnumerateFromPrefix(std::span<const VertexId> prefix,
                                    const EmbeddingVisitor* visitor);

  /// Candidate extensions for u given an explicit partial mapping
  /// (mapping[w] = kInvalidVertex when unmatched). Applies TE/NTE
  /// intersection, injectivity, and symmetry bounds — the same rule the
  /// recursion uses. Exposed for extreme-cluster decomposition.
  void CollectExtensions(std::span<const VertexId> mapping, VertexId u,
                         std::vector<VertexId>* out);

  const EnumStats& stats() const { return stats_; }

  /// Read-only views of the enumeration state for invariant auditing (see
  /// analysis/invariant_auditor.h): the partial mapping indexed by query
  /// vertex and the injectivity bitset (64-bit blocks by data vertex id).
  /// Only meaningful while the enumerator is quiescent — between calls, or
  /// from inside an embedding visitor.
  std::span<const VertexId> mapping_snapshot() const { return mapping_; }
  std::span<const std::uint64_t> used_bitmap() const { return used_; }

 private:
  Enumerator(const Graph* data, const QueryTree& tree,
             const FlatCeciIndex& index, const EnumOptions& options);

  bool Recurse(std::size_t pos);
  bool Emit();
  // Reads the stop conditions; a shared-counter read refreshes seen_.
  bool LimitReached();
  // Counting path: adds `n` embeddings to the unpublished tally, and
  // publishes it at once when it reaches half of what the limit leaves.
  void Tally(std::uint64_t n);
  // Moves the tally into stats_.embeddings, through the shared counter
  // when one is installed; sets stopped_ when the limit clipped it.
  void Publish();
  // Shared candidate-generation core, in rank space (see class comment):
  // writes the ranks into candidates(u) of u's admissible, unused
  // candidates. `match_ranks[w]` is the rank of mapping[w] in candidates(w)
  // (CandidateRanks::kAbsent when it is none). Requires used_ to mirror
  // the data vertices present in `mapping`.
  void Candidates(std::span<const VertexId> mapping,
                  std::span<const std::uint32_t> match_ranks, VertexId u,
                  std::vector<std::uint32_t>* out);
  // Counting twin of Candidates for the last matching-order position:
  // computes |candidates| without building the final level's id list. A
  // lone entry is counted by arithmetic; an intersection of two or more is
  // materialized and its survivors probed against the injectivity bitmap,
  // so counting never costs more than Candidates. Requires
  // options_.nte_intersection (the edge-verification ablation must probe
  // each candidate).
  std::uint64_t CountLeafCandidates(VertexId u);
  // The edge-verification ablation filter over the ranks in `out` (no-op
  // when options_.nte_intersection is on or u has no incoming NTEs).
  void ApplyEdgeVerification(std::span<const VertexId> mapping, VertexId u,
                             std::vector<std::uint32_t>* out);
  // Collects the TE (+ NTE when `with_nte`) entry refs for u into
  // entry_scratch_ and computes the symmetry id window [lo, hi) — kept in
  // id space; consumers clamp rank arrays through the cand[] projection.
  // Returns false when the result is certainly empty (empty window or an
  // absent/empty entry).
  bool GatherFlatRefs(std::span<const VertexId> mapping,
                      std::span<const std::uint32_t> match_ranks,
                      VertexId u, bool with_nte, VertexId* lo, VertexId* hi);
  // Splits entry_scratch_ into span_scratch_ (the rank arrays, the first
  // clamped to [lo, hi) through cand[]) and records the intersection stats
  // when two or more entries take part. Returns whether any entry is a
  // bitmap.
  bool SplitFlatRefs(std::span<const VertexId> cand, VertexId lo,
                     VertexId hi);
  // Intersects the split entries into rank_scratch_; needs at least one
  // rank array and, without a bitmap, at least two.
  void IntersectFlatRanks(bool have_bitmap);
  // All-bitmap case: ANDs every entry, windowed to [lo, hi), into
  // bitmap_scratch_. Returns false when the window holds no rank.
  bool AndFlatBitmaps(VertexId u, std::span<const VertexId> cand,
                      VertexId lo, VertexId hi);
  // The symmetry-breaking [lo, hi) admissible window for u under `mapping`
  // (hi == kInvalidVertex when unbounded above).
  void SymmetryRange(std::span<const VertexId> mapping, VertexId u,
                     VertexId* lo, VertexId* hi) const;
  // Rank of data vertex v in candidates(u); CandidateRanks::kAbsent when
  // v is not one, which then yields no entry, as an id lookup would.
  std::uint32_t RankOf(VertexId u, VertexId v) const;

  // Injectivity bitmap over data vertex ids, kept in sync with mapping_ by
  // Recurse / EnumerateFromRanks (and mirrored temporarily by
  // CollectExtensions). Replaces an O(|mapping|) scan per candidate.
  void MarkUsed(VertexId v) {
    const std::size_t w = v >> 6;
    if (w >= used_.size()) used_.resize(w + 1, 0);
    used_[w] |= std::uint64_t{1} << (v & 63);
  }
  void UnmarkUsed(VertexId v) {
    const std::size_t w = v >> 6;
    if (w < used_.size()) used_[w] &= ~(std::uint64_t{1} << (v & 63));
  }
  bool IsUsed(VertexId v) const {
    const std::size_t w = v >> 6;
    return w < used_.size() && ((used_[w] >> (v & 63)) & 1) != 0;
  }

  const Graph* data_;  // null only in the graph-free intersection mode
  const QueryTree& tree_;
  const FlatCeciIndex& flat_;
  EnumOptions options_;
  const SymmetryConstraints* symmetry_;

  std::vector<VertexId> mapping_;             // by query vertex id
  std::vector<std::uint32_t> ranks_;          // rank of mapping_[u] in C(u)
  std::vector<std::uint32_t> collect_ranks_;  // CollectExtensions' ranks
  std::vector<std::uint32_t> prefix_ranks_;   // EnumerateFromPrefix's ranks
  std::vector<std::uint64_t> used_;           // injectivity bitmap, by data id
  std::vector<VertexId> flipped_scratch_;     // CollectExtensions bookkeeping
  // One candidate-rank buffer per matching-order depth.
  std::vector<std::vector<std::uint32_t>> scratch_;  // lint: not-per-key
  std::vector<std::span<const VertexId>> span_scratch_;
  // Gathered entry refs, surviving ranks, the array-side intersection
  // result, and the bitmap accumulator.
  std::vector<FlatCeciIndex::EntryRef> entry_scratch_;
  std::vector<VertexId> rank_scratch_;
  std::vector<VertexId> rank_tmp_;
  std::vector<std::uint64_t> bitmap_scratch_;
  EnumStats stats_;
  const EmbeddingVisitor* visitor_ = nullptr;
  std::atomic<std::uint64_t>* shared_counter_ = nullptr;
  std::uint64_t shared_limit_ = 0;
  // Embeddings counted but not yet published, and the shared counter's
  // value when this worker last read or advanced it.
  std::uint64_t tally_ = 0;
  std::uint64_t seen_ = 0;
  std::atomic<bool>* abort_flag_ = nullptr;
  BudgetTracker* budget_ = nullptr;
  std::uint64_t budget_countdown_ = 0;
  bool stopped_ = false;
};

}  // namespace ceci

#endif  // CECI_CECI_ENUMERATOR_H_
