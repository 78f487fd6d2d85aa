#include "ceci/preprocess.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace ceci {
namespace {

// Chooses the label bucket to scan: the least frequent label of u.
Label ScanLabel(const Graph& data, const Graph& query, VertexId u) {
  Label best = query.label(u);
  std::size_t best_size = std::numeric_limits<std::size_t>::max();
  for (Label l : query.labels(u)) {
    std::size_t size = data.VerticesWithLabel(l).size();
    if (size < best_size) {
      best_size = size;
      best = l;
    }
  }
  return best;
}

}  // namespace

FilterTable FilterTable::Compute(const Graph& data, const NlcIndex& data_nlc,
                                 const Graph& query,
                                 std::vector<std::size_t>* candidate_counts) {
  const std::size_t nq = query.num_vertices();
  FilterTable table;
  table.num_data_ = data.num_vertices();
  table.bytes_.assign(nq * table.num_data_, kLabel);
  if (candidate_counts != nullptr) candidate_counts->assign(nq, 0);
  for (VertexId u = 0; u < nq; ++u) {
    const auto labels = query.labels(u);
    const std::size_t degree = query.degree(u);
    const auto profile = NlcIndex::Profile(query, u);
    std::uint8_t* verdicts = table.row(u);
    std::size_t count = 0;
    for (VertexId v : data.VerticesWithLabel(ScanLabel(data, query, u))) {
      // Every bucket vertex carries the scan label, so a single-label u
      // needs no containment test.
      Verdict verdict = kPass;
      if (labels.size() > 1 && !data.HasAllLabels(v, labels)) {
        verdict = kLabel;
      } else if (data.degree(v) < degree) {
        verdict = kDegree;
      } else if (!data_nlc.Covers(v, profile)) {
        verdict = kNlc;
      }
      verdicts[v] = verdict;
      count += verdict == kPass;
    }
    if (candidate_counts != nullptr) (*candidate_counts)[u] = count;
  }
  return table;
}

std::vector<VertexId> FilterTable::Candidates(const Graph& data,
                                              const Graph& query,
                                              VertexId u) const {
  const std::uint8_t* verdicts = row(u);
  std::vector<VertexId> out;
  for (VertexId v : data.VerticesWithLabel(ScanLabel(data, query, u))) {
    if ((verdicts[v] & kVerdictMask) == kPass) out.push_back(v);
  }
  // Label buckets are sorted by vertex id, so `out` is already sorted.
  return out;
}

Result<Preprocessed> Preprocess(const Graph& data, const NlcIndex& data_nlc,
                                const Graph& query,
                                const PreprocessOptions& options) {
  if (query.num_vertices() == 0) {
    return Status::InvalidArgument("empty query graph");
  }
  Preprocessed out;
  const std::size_t nq = query.num_vertices();
  out.filter =
      FilterTable::Compute(data, data_nlc, query, &out.candidate_counts);
  out.infeasible = std::find(out.candidate_counts.begin(),
                             out.candidate_counts.end(),
                             0u) != out.candidate_counts.end();

  // Root selection (§2.2): argmin |candidate(u)| / degree(u). Isolated
  // query vertices are rejected by QueryTree::Build (disconnected query).
  VertexId root = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (VertexId u = 0; u < nq; ++u) {
    if (query.degree(u) == 0) continue;
    double cost = static_cast<double>(out.candidate_counts[u]) /
                  static_cast<double>(query.degree(u));
    if (cost < best_cost) {
      best_cost = cost;
      root = u;
    }
  }
  if (nq == 1) root = 0;  // single-vertex query: trivial tree
  out.root = root;
  out.root_candidates = out.filter.Candidates(data, query, root);

  auto tree = QueryTree::Build(query, root);
  if (!tree.ok()) return tree.status();
  out.tree = std::move(tree).value();

  std::vector<VertexId> order = ComputeMatchingOrder(
      query, out.tree, out.candidate_counts, options.order);
  CECI_RETURN_IF_ERROR(out.tree.SetMatchingOrder(std::move(order)));
  return out;
}

}  // namespace ceci
