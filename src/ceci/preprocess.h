// Preprocessing (paper §2.2): per-query-vertex candidate filtering with the
// label/degree/NLC filters, root selection by argmin |candidate(u)|/degree(u),
// BFS query-tree construction, and matching-order selection.
//
// The filters run once per query: every (query vertex, data vertex) verdict
// lands in one FilterTable, which CeciBuilder::Build reads instead of
// re-testing the filters on every neighbour it scans (§3.2, Algorithm 1).
#ifndef CECI_CECI_PREPROCESS_H_
#define CECI_CECI_PREPROCESS_H_

#include <cstdint>
#include <vector>

#include "ceci/matching_order.h"
#include "ceci/query_tree.h"
#include "graph/graph.h"
#include "graph/nlc_index.h"
#include "util/status.h"

namespace ceci {

struct PreprocessOptions {
  OrderStrategy order = OrderStrategy::kBfs;
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
  /// `candidate_counts`, when non-null, receives |candidate(u)| per u.
  static FilterTable Compute(const Graph& data, const NlcIndex& data_nlc,
                             const Graph& query,
                             std::vector<std::size_t>* candidate_counts);

  std::uint8_t* row(VertexId u) { return bytes_.data() + u * num_data_; }
  const std::uint8_t* row(VertexId u) const {
    return bytes_.data() + u * num_data_;
  }
  std::size_t bytes() const { return bytes_.size(); }

  /// Sorted data vertices whose verdict for u is kPass, read from u's
  /// scan bucket.
  std::vector<VertexId> Candidates(const Graph& data, const Graph& query,
                                   VertexId u) const;

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
/// (empty or disconnected query).
Result<Preprocessed> Preprocess(const Graph& data, const NlcIndex& data_nlc,
                                const Graph& query,
                                const PreprocessOptions& options);

}  // namespace ceci

#endif  // CECI_CECI_PREPROCESS_H_
