// Preprocessing (paper §2.2): per-query-vertex candidate filtering with the
// label/degree/NLC filters, root selection by argmin |candidate(u)|/degree(u),
// BFS query-tree construction, and matching-order selection.
//
// The filters run once per query: every (query vertex, data vertex) verdict
// lands in one FilterTable, which CeciBuilder::Build reads instead of
// re-testing the filters on every neighbour it scans (§3.2, Algorithm 1).
//
// The data source is a template parameter: a resident Graph, or an
// OnDemandCsr (graphio/binary_csr.h) for §5's shared-storage mode. Both
// are explicitly instantiated in preprocess.cc. Preprocessing reads only
// degrees and labels, which the store keeps resident.
#ifndef CECI_CECI_PREPROCESS_H_
#define CECI_CECI_PREPROCESS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ceci/matching_order.h"
#include "ceci/query_tree.h"
#include "graph/graph.h"
#include "graph/nlc_index.h"
#include "util/budget.h"
#include "util/status.h"

namespace ceci {

class ThreadPool;

struct PreprocessOptions {
  /// Matching-order heuristic (§2.2); see MatchOptions::order.
  OrderStrategy order = OrderStrategy::kEdgeRanked;
  /// Workers of the filter scan (FilterTable::Compute), the calling
  /// thread included; workers 1..threads-1 run on `pool`.
  std::size_t threads = 1;
  /// Pool for the filter scan's extra workers. Null scans on the calling
  /// thread alone.
  ThreadPool* pool = nullptr;
};

/// One contiguous nq × |V| byte buffer, row u holding query vertex u's
/// verdict for every data vertex. The low bits of a byte name the first
/// filter that rejects the pair, tested in the order label containment,
/// degree, NLC; bit 7 is left to the builder, which keeps its candidate
/// membership flag there while it builds.
class FilterTable {
 public:
  enum Verdict : std::uint8_t { kPass = 0, kLabel = 1, kDegree = 2, kNlc = 3 };
  static constexpr std::uint8_t kVerdictMask = 0x7f;
  static constexpr std::uint8_t kAlive = 0x80;

  /// Runs the filters over each query vertex's scan bucket (its least
  /// frequent label's vertices); vertices outside the bucket read kLabel.
  /// The NLC verdict is the neighbour-label mask test, then the count
  /// merge only where the mask cannot decide (NlcIndex::PresenceDecides).
  /// `candidate_counts`, when non-null, receives |candidate(u)| per u.
  ///
  /// The buckets are cut into fixed-size chunks, pulled by `threads`
  /// workers: the calling thread and threads - 1 more on `pool` (one
  /// worker when `pool` is null). The table and the counts do not depend
  /// on the workers. `budget`, when non-null, is polled every
  /// budget->stride() vertices a worker scans, across chunk boundaries;
  /// after a trip no chunk filters further, and the rest of the table
  /// stays unfiltered.
  template <typename Source>
  static FilterTable Compute(const Source& data, const NlcIndex& data_nlc,
                             const Graph& query,
                             std::vector<std::size_t>* candidate_counts,
                             BudgetTracker* budget = nullptr,
                             ThreadPool* pool = nullptr,
                             std::size_t threads = 1);

  std::uint8_t* row(VertexId u) { return bytes_.data() + u * num_data_; }
  const std::uint8_t* row(VertexId u) const {
    return bytes_.data() + u * num_data_;
  }
  std::size_t bytes() const { return bytes_.size(); }

  /// Sorted data vertices whose verdict for u is kPass, read from u's
  /// scan bucket.
  template <typename Source>
  std::vector<VertexId> Candidates(const Source& data, const Graph& query,
                                   VertexId u) const;

  /// Sorted data vertices whose alive flag is set in u's row, given that
  /// exactly `count` are. Only kPass vertices may carry the flag, and they
  /// all sit in u's scan bucket, so the walk reads that bucket in id order
  /// and stops at the `count`th flag.
  template <typename Source>
  std::vector<VertexId> AliveCandidates(const Source& data, const Graph& query,
                                        VertexId u, std::size_t count) const;

  /// Frees the buffer.
  void Release() { *this = FilterTable(); }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t num_data_ = 0;
};

/// Output of preprocessing: the chosen root, the query tree with its
/// matching order applied, the per-vertex candidate counts that drove the
/// choices, and the filter verdicts for CeciBuilder::Build.
struct Preprocessed {
  VertexId root = kInvalidVertex;
  QueryTree tree;
  /// |candidate(u)| after label, degree, and NLC filtering.
  std::vector<std::size_t> candidate_counts;
  /// Sorted candidates of `root`: the cluster pivots.
  std::vector<VertexId> root_candidates;
  /// Every query vertex's verdicts (BuildOptions::filter_table). Build()
  /// writes its alive flags into the table, so one table serves one
  /// build; release it once the build returns.
  FilterTable filter;
  /// True iff some query vertex has zero candidates (no embeddings exist).
  bool infeasible = false;

  /// Drops the build inputs (filter table and root candidates) that only
  /// CeciBuilder::Build reads.
  void ReleaseBuildInputs() {
    filter.Release();
    root_candidates = std::vector<VertexId>();
  }
};

/// Runs the full preprocessing pipeline. Fails only on malformed input
/// (empty or disconnected query). `budget`, when non-null, is polled
/// during the filter scan (FilterTable::Compute); when it trips there,
/// Preprocess returns at once with no tree and no root candidates, and
/// the caller must check budget->Exhausted() before building anything.
template <typename Source>
Result<Preprocessed> Preprocess(const Source& data, const NlcIndex& data_nlc,
                                const Graph& query,
                                const PreprocessOptions& options,
                                BudgetTracker* budget = nullptr);

}  // namespace ceci

#endif  // CECI_CECI_PREPROCESS_H_
