#include "ceci/preprocess.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <span>

#include "graphio/binary_csr.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ceci {
namespace {

// Bucket vertices per filter-scan chunk: small against a query's buckets
// (tens of thousands of vertices on adhoc-sized graphs), so two to four
// workers finish together, and large enough that they rarely touch the
// shared chunk cursor.
constexpr std::size_t kScanChunk = 2048;

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
                                 BudgetTracker* budget, ThreadPool* pool,
                                 std::size_t threads) {
  const std::size_t nq = query.num_vertices();
  FilterTable table;
  table.num_data_ = data.num_vertices();
  table.bytes_.assign(nq * table.num_data_, kLabel);
  if (candidate_counts != nullptr) candidate_counts->assign(nq, 0);

  // What the filters test for each query vertex, and its scan bucket.
  struct VertexScan {
    std::span<const Label> labels;
    std::size_t degree = 0;
    std::vector<NlcIndex::Entry> profile;
    // The mask test rejects without the merge; the merge runs only where
    // folded labels or counts above 1 can still reject a mask pass.
    std::uint64_t need = 0;
    bool counts_decide = false;
    std::span<const VertexId> bucket;
  };
  // Bucket positions [begin, end) of one query vertex, and how many of
  // them passed.
  struct Chunk {
    VertexId u = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t passed = 0;
  };
  std::vector<VertexScan> scans(nq);
  std::vector<Chunk> chunks;
  for (VertexId u = 0; u < nq; ++u) {
    VertexScan& s = scans[u];
    s.labels = query.labels(u);
    s.degree = query.degree(u);
    s.profile = NlcIndex::Profile(query, u);
    s.need = NlcIndex::MaskOf(s.profile);
    s.counts_decide = !data_nlc.PresenceDecides(s.profile);
    s.bucket = data.VerticesWithLabel(ScanLabel(data, query, u));
    for (std::size_t b = 0; b < s.bucket.size(); b += kScanChunk) {
      chunks.push_back({u, b, std::min(b + kScanChunk, s.bucket.size())});
    }
  }

  // Chunks write disjoint verdict bytes (a bucket lists each vertex once),
  // so they run in any order on any thread. Each worker pulls chunks from
  // one cursor and keeps its own poll countdown across them.
  std::atomic<std::size_t> next_chunk{0};
  const auto scan_chunks = [&] {
    // Bucket vertices left before this worker's next budget poll.
    std::uint64_t until_poll = budget != nullptr ? budget->stride() : 0;
    for (;;) {
      const std::size_t c =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks.size()) return;
      // After a trip on any worker no chunk filters further.
      if (budget != nullptr && budget->Exhausted()) return;
      Chunk& chunk = chunks[c];
      const VertexScan& s = scans[chunk.u];
      std::uint8_t* verdicts = table.row(chunk.u);
      std::size_t passed = 0;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        const VertexId v = s.bucket[i];
        // Every bucket vertex carries the scan label, so a single-label u
        // needs no containment test.
        Verdict verdict = kPass;
        if (s.labels.size() > 1 && !data.HasAllLabels(v, s.labels)) {
          verdict = kLabel;
        } else if (data.degree(v) < s.degree) {
          verdict = kDegree;
        } else if ((data_nlc.mask(v) & s.need) != s.need ||
                   (s.counts_decide && !data_nlc.Covers(v, s.profile))) {
          verdict = kNlc;
        }
        verdicts[v] = verdict;
        passed += verdict == kPass;
        if (budget != nullptr && --until_poll == 0) {
          if (budget->Poll()) return;
          until_poll = budget->stride();
        }
      }
      chunk.passed = passed;
    }
  };
  // The caller is worker 0; workers 1..N-1 run on the pool as one batch.
  const std::size_t workers =
      pool != nullptr ? std::min(std::max<std::size_t>(threads, 1),
                                 std::max<std::size_t>(chunks.size(), 1))
                      : 1;
  TaskGroup group(pool);
  for (std::size_t w = 1; w < workers; ++w) group.Run(scan_chunks);
  scan_chunks();
  group.Wait();
  if (candidate_counts != nullptr) {
    for (const Chunk& chunk : chunks) {
      (*candidate_counts)[chunk.u] += chunk.passed;
    }
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
                                    &out.candidate_counts, budget,
                                    options.pool, options.threads);
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
                                          BudgetTracker*, ThreadPool*,
                                          std::size_t);
template FilterTable FilterTable::Compute(const OnDemandCsr&,
                                          const NlcIndex&, const Graph&,
                                          std::vector<std::size_t>*,
                                          BudgetTracker*, ThreadPool*,
                                          std::size_t);
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
