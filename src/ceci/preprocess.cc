#include "ceci/preprocess.h"

#include <algorithm>
#include <limits>

#include "graphio/binary_csr.h"
#include "util/check.h"
#include "util/logging.h"

namespace ceci {
namespace {

// Chooses the label bucket to scan: the least frequent label of u.
template <typename Source>
Label ScanLabel(const Source& data, const Graph& query, VertexId u) {
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

template <typename Source>
FilterTable FilterTable::Compute(const Source& data, const NlcIndex& data_nlc,
                                 const Graph& query,
                                 std::vector<std::size_t>* candidate_counts,
                                 BudgetTracker* budget) {
  const std::size_t nq = query.num_vertices();
  FilterTable table;
  table.num_data_ = data.num_vertices();
  table.bytes_.assign(nq * table.num_data_, kLabel);
  if (candidate_counts != nullptr) candidate_counts->assign(nq, 0);
  // Bucket vertices left before the next budget poll.
  std::uint64_t until_poll = budget != nullptr ? budget->stride() : 0;
  for (VertexId u = 0; u < nq; ++u) {
    const auto labels = query.labels(u);
    const std::size_t degree = query.degree(u);
    const auto profile = NlcIndex::Profile(query, u);
    // The mask test rejects without the merge; the merge runs only where
    // folded labels or counts above 1 can still reject a mask pass.
    const std::uint64_t need = NlcIndex::MaskOf(profile);
    const bool counts_decide = !data_nlc.PresenceDecides(profile);
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
      } else if ((data_nlc.mask(v) & need) != need ||
                 (counts_decide && !data_nlc.Covers(v, profile))) {
        verdict = kNlc;
      }
      verdicts[v] = verdict;
      count += verdict == kPass;
      if (budget != nullptr && --until_poll == 0) {
        if (budget->Poll()) return table;
        until_poll = budget->stride();
      }
    }
    if (candidate_counts != nullptr) (*candidate_counts)[u] = count;
  }
  return table;
}

template <typename Source>
std::vector<VertexId> FilterTable::Candidates(const Source& data,
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

template <typename Source>
std::vector<VertexId> FilterTable::AliveCandidates(const Source& data,
                                                   const Graph& query,
                                                   VertexId u,
                                                   std::size_t count) const {
  const std::uint8_t* flags = row(u);
  const auto bucket = data.VerticesWithLabel(ScanLabel(data, query, u));
  std::vector<VertexId> out(count);
  std::size_t n = 0;
  // Branch-free: every bucket vertex is written to the next free slot,
  // which advances only past flagged ones.
  for (std::size_t i = 0; n < count && i < bucket.size(); ++i) {
    out[n] = bucket[i];
    n += (flags[bucket[i]] & kAlive) != 0;
  }
  CECI_DCHECK_EQ(n, count) << "alive flag outside u" << u
                           << "'s scan bucket";
  return out;
}

template <typename Source>
Result<Preprocessed> Preprocess(const Source& data, const NlcIndex& data_nlc,
                                const Graph& query,
                                const PreprocessOptions& options,
                                BudgetTracker* budget) {
  if (query.num_vertices() == 0) {
    return Status::InvalidArgument("empty query graph");
  }
  Preprocessed out;
  const std::size_t nq = query.num_vertices();
  out.filter = FilterTable::Compute(data, data_nlc, query,
                                    &out.candidate_counts, budget);
  // A trip mid-scan leaves rows unfiltered: nothing below may read them.
  if (budget != nullptr && budget->Exhausted()) return out;
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

template FilterTable FilterTable::Compute(const Graph&, const NlcIndex&,
                                          const Graph&,
                                          std::vector<std::size_t>*,
                                          BudgetTracker*);
template FilterTable FilterTable::Compute(const OnDemandCsr&,
                                          const NlcIndex&, const Graph&,
                                          std::vector<std::size_t>*,
                                          BudgetTracker*);
template std::vector<VertexId> FilterTable::Candidates(const Graph&,
                                                       const Graph&,
                                                       VertexId) const;
template std::vector<VertexId> FilterTable::Candidates(const OnDemandCsr&,
                                                       const Graph&,
                                                       VertexId) const;
template std::vector<VertexId> FilterTable::AliveCandidates(
    const Graph&, const Graph&, VertexId, std::size_t) const;
template std::vector<VertexId> FilterTable::AliveCandidates(
    const OnDemandCsr&, const Graph&, VertexId, std::size_t) const;
template Result<Preprocessed> Preprocess(const Graph&, const NlcIndex&,
                                         const Graph&,
                                         const PreprocessOptions&,
                                         BudgetTracker*);
template Result<Preprocessed> Preprocess(const OnDemandCsr&, const NlcIndex&,
                                         const Graph&,
                                         const PreprocessOptions&,
                                         BudgetTracker*);

}  // namespace ceci
