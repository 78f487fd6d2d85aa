// Aggregated per-query statistics reported by CeciMatcher. Feeds Table 2
// (index size), Fig. 18 (recursive calls), Fig. 19 (phase breakdown), and
// Fig. 15 (phase timings).
#ifndef CECI_CECI_STATS_H_
#define CECI_CECI_STATS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/extreme_cluster.h"
#include "ceci/profiler.h"
#include "ceci/refinement.h"
#include "graph/types.h"
#include "util/budget.h"

namespace ceci {

struct MatchStats {
  // Phase wall times (seconds).
  double preprocess_seconds = 0.0;
  double build_seconds = 0.0;
  double refine_seconds = 0.0;
  /// Conversion of the refined index to the flat arena (zero when the
  /// index came from a cache).
  double freeze_seconds = 0.0;
  /// Choosing the restriction set from the frozen index (zero when the
  /// query has no automorphism to break, or came from a cache).
  double plan_seconds = 0.0;
  double enumerate_seconds = 0.0;
  double total_seconds = 0.0;

  // Index accounting (§3.4 / Table 2).
  std::size_t ceci_bytes = 0;
  std::size_t ceci_bytes_unrefined = 0;
  std::size_t theoretical_bytes = 0;
  std::size_t candidate_edges = 0;
  std::size_t candidate_edges_unrefined = 0;

  // Flat-layout accounting (arena-backed index). flat_bytes is *exact* —
  // the arena size enumeration reads — where ceci_bytes estimates the
  // mutable pointer-rich index build and refinement hold; the entry split
  // shows how the hybrid rule fell.
  std::size_t flat_bytes = 0;
  std::size_t flat_array_entries = 0;
  std::size_t flat_bitmap_entries = 0;

  // Cluster accounting (§4.2-4.3).
  std::size_t embedding_clusters = 0;
  Cardinality total_cardinality = 0;
  DecomposeStats decomposition;

  // Sub-phase details.
  BuildStats build;
  RefineStats refine;
  EnumStats enumeration;
  std::vector<double> worker_seconds;
  /// Embeddings emitted per enumeration worker; their sum equals
  /// MatchResult::embedding_count (the invariant auditor checks this —
  /// see AuditMatchResult). Empty when enumeration never ran (infeasible
  /// query or a budget tripped earlier in the pipeline).
  std::vector<std::uint64_t> worker_embeddings;

  // Symmetry.
  std::size_t automorphisms_broken = 0;
  /// The restriction-set choice (§2.2): both estimates (zero when no
  /// choice ran) and whether the mirror set won.
  RestrictionEstimate restriction_estimate;
  bool restrictions_mirrored = false;

  /// The prepared query came from the CachedMatcher's memo (no prepare ran
  /// for this request); always false for uncached matchers.
  bool index_cache_hit = false;

  /// Execution-budget outcome (resilient execution layer); budget.active
  /// is false when MatchOptions::budget was default (unbounded).
  BudgetStats budget;
};

struct MatchResult {
  std::uint64_t embedding_count = 0;
  /// Why the match stopped. Anything but kCompleted means
  /// embedding_count is a partial (lower-bound) count.
  TerminationReason termination = TerminationReason::kCompleted;
  MatchStats stats;
  /// Per-query EXPLAIN data; present only when MatchOptions::profile.
  /// Empty-but-present (no vertices) for infeasible queries, where no
  /// index is ever built.
  std::optional<QueryProfile> profile;
};

}  // namespace ceci

#endif  // CECI_CECI_STATS_H_
