#include "ceci/ceci_builder.h"

#include <algorithm>
#include <string>
#include <type_traits>

#include "graphio/binary_csr.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/trace.h"

namespace ceci {
namespace {

// Thread-private expansion bin (§3.6): one contiguous chunk of the frontier
// expands into a private list, appended in chunk order afterwards so the
// result is identical to serial execution.
struct ExpansionBin {
  RunPool entries;
  std::vector<VertexId> dead_frontier;
  BuildStats stats;
};

// Frontier vertices expanded between deadline/token polls. Each expansion
// scans a full adjacency list, so one stride bounds the reaction time to
// ~1k adjacency scans per worker.
constexpr std::uint64_t kBuildPollStride = 1024;

}  // namespace

template <typename Source>
BuildResult<Source> CeciBuilder<Source>::Build(const Graph& query,
                                               const QueryTree& tree,
                                               const BuildOptions& options,
                                               BuildStats* stats) const {
  constexpr bool kStore = !std::is_same_v<Source, Graph>;
  CECI_CHECK(!kStore || options.pool == nullptr)
      << "a build over a store runs serially";
  BuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = BuildStats{};

  const std::size_t nq = query.num_vertices();
  CeciIndex index(nq);

  // Filter verdicts; bit 7 of each byte is the candidate-set membership
  // flag that drives the cascading deletions.
  FilterTable own_table;
  FilterTable* table = options.filter_table;
  if (table == nullptr) {
    own_table = FilterTable::Compute(data_, nlc_, query, nullptr);
    table = &own_table;
  }
  CECI_CHECK(table->bytes() == nq * data_.num_vertices())
      << "filter table is " << table->bytes() << " bytes for " << nq
      << " query vertices over " << data_.num_vertices() << " data vertices";
  CECI_DCHECK(std::none_of(table->row(0), table->row(0) + table->bytes(),
                           [](std::uint8_t b) {
                             return (b & FilterTable::kAlive) != 0;
                           }))
      << "filter table already carries another build's alive flags";

  const VertexId root = tree.root();
  if (options.root_candidates != nullptr) {
    index.at(root).candidates = *options.root_candidates;
  } else {
    index.at(root).candidates = table->Candidates(data_, query, root);
  }
  std::uint8_t* root_row = table->row(root);
  for (VertexId v : index.at(root).candidates) {
    root_row[v] |= FilterTable::kAlive;
  }

  BudgetTracker* budget = options.budget;
  if (budget != nullptr) {
    budget->ChargeBytes(CeciBytes(index.at(root)));
    if (budget->Poll()) return index;  // partial: root candidates only
  }

  if (options.vertex_stats != nullptr) {
    options.vertex_stats->clear();
    BuildVertexStats root_stats;
    root_stats.u = root;
    root_stats.candidates_filtered = index.at(root).candidates.size();
    options.vertex_stats->push_back(root_stats);
  }

  // Expands one frontier vertex of u into the list's pool, reading each
  // neighbour's LF / DF / NLCF verdict from the table. A frontier vertex
  // that found nothing gets no run and is returned dead for the cascade.
  auto expand_te = [&](VertexId u, VertexId v_f, RunPool* list,
                       std::vector<VertexId>* dead, BuildStats* s) {
    ++s->frontier_expansions;
    s->neighbors_scanned += data_.degree(v_f);
    const std::uint8_t* verdicts = table->row(u);
    std::uint64_t rejected[4] = {};
    const std::size_t begin = list->pool.size();
    for (VertexId v : data_.neighbors(v_f)) {
      const std::uint8_t verdict = verdicts[v] & FilterTable::kVerdictMask;
      ++rejected[verdict];
      // Neighbors are sorted, so the run is sorted.
      if (verdict == FilterTable::kPass) list->pool.push_back(v);
    }
    s->rejected_label += rejected[FilterTable::kLabel];
    s->rejected_degree += rejected[FilterTable::kDegree];
    s->rejected_nlc += rejected[FilterTable::kNlc];
    if (list->pool.size() == begin) {
      dead->push_back(v_f);
    } else {
      list->CloseRun(begin);
    }
  };

  // Removes `dead` vertices from the candidate set of `u_owner` and drops
  // their entries from the TE lists of u_owner's already-built children
  // (Algorithm 1 lines 9-12 / the analogous NTE cascade).
  std::vector<char> processed(nq, 0);
  processed[root] = 1;
  auto cascade_remove = [&](VertexId u_owner,
                            const std::vector<VertexId>& dead) {
    if (dead.empty()) return;
    std::uint8_t* owner_alive = table->row(u_owner);
    for (VertexId v : dead) owner_alive[v] &= FilterTable::kVerdictMask;
    auto is_alive = [owner_alive](VertexId v) {
      return (owner_alive[v] & FilterTable::kAlive) != 0;
    };
    // A built child's TE run i belongs to candidate i and goes with it.
    auto& cands = index.at(u_owner).candidates;
    for (VertexId u_c : tree.children(u_owner)) {
      if (!processed[u_c]) continue;
      RunPool& te = index.at(u_c).te;
      CECI_DCHECK_EQ(te.num_runs(), cands.size());
      te.KeepRuns([&](std::size_t i) { return is_alive(cands[i]); });
    }
    cands.erase(std::remove_if(cands.begin(), cands.end(),
                               [&](VertexId v) { return !is_alive(v); }),
                cands.end());
    // NTE lists built earlier whose parent is u_owner also key by it.
    for (std::uint32_t e : tree.nte_out(u_owner)) {
      VertexId u_c = tree.non_tree_edges()[e].child;
      if (!processed[u_c] || index.at(u_c).nte.empty()) continue;
      auto ids = tree.nte_in(u_c);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        if (ids[k] == e) {
          index.at(u_c).nte[k].Prune(is_alive, [](VertexId v) { return v; });
        }
      }
    }
  };

  // Matching order, not raw BFS order: it is a topological order of the
  // tree and additionally guarantees every NTE parent is built before its
  // NTE child (the BFS default makes the two coincide, per the paper).
  for (VertexId u : tree.matching_order()) {
    if (u == root) continue;
    // Cooperative budget check: one poll per matching-order vertex plus
    // stride polls inside the frontier loops below. A break leaves the
    // index partial; the matcher reports kDeadline/kMemoryBudget/
    // kCancelled instead of refining or enumerating it.
    if (budget != nullptr && budget->Poll()) break;
    TraceSpan level_span(
        [&] { return "build/u" + std::to_string(u); });
    const VertexId u_p = tree.parent(u);
    CeciVertexData& ud = index.at(u);
    const std::vector<VertexId>& frontier = index.at(u_p).candidates;
    // Filter rejections attributable to this vertex are deltas of the
    // aggregate counters around its TE expansion (the parallel path merges
    // its bins into `stats` before the union loop, so deltas hold there
    // too). Zero cost when vertex_stats is unset.
    const BuildStats before_expand = *stats;

    // --- TE expansion (Algorithm 1) ---
    std::vector<VertexId> dead_frontier;
    const bool parallel = options.pool != nullptr &&
                          frontier.size() >= options.parallel_threshold;
    if (!parallel) {
      std::uint64_t since_poll = 0;
      for (VertexId v_f : frontier) {
        expand_te(u, v_f, &ud.te, &dead_frontier, stats);
        if (budget != nullptr && ++since_poll == kBuildPollStride) {
          since_poll = 0;
          if (budget->Poll()) break;
        }
      }
    } else {
      // The calling thread expands chunks too (ThreadPool::ParallelFor).
      const std::size_t chunks =
          std::min(frontier.size(), (options.pool->num_threads() + 1) * 4);
      std::vector<ExpansionBin> bins(chunks);
      const std::size_t per = (frontier.size() + chunks - 1) / chunks;
      options.pool->ParallelFor(chunks, 1, [&](std::size_t c) {
        ExpansionBin& bin = bins[c];
        std::size_t begin = c * per;
        std::size_t end = std::min(begin + per, frontier.size());
        std::uint64_t since_poll = 0;
        for (std::size_t i = begin; i < end; ++i) {
          expand_te(u, frontier[i], &bin.entries, &bin.dead_frontier,
                    &bin.stats);
          // Each chunk polls on its own stride; an exhausted budget stops
          // every sibling chunk at its next relaxed-flag read.
          if (budget != nullptr && ++since_poll == kBuildPollStride) {
            since_poll = 0;
            if (budget->Poll()) break;
          }
          if (budget != nullptr && budget->Exhausted()) break;
        }
      });
      for (ExpansionBin& bin : bins) {
        ud.te.Append(bin.entries);
        dead_frontier.insert(dead_frontier.end(), bin.dead_frontier.begin(),
                             bin.dead_frontier.end());
        stats->rejected_label += bin.stats.rejected_label;
        stats->rejected_degree += bin.stats.rejected_degree;
        stats->rejected_nlc += bin.stats.rejected_nlc;
        stats->frontier_expansions += bin.stats.frontier_expansions;
        stats->neighbors_scanned += bin.stats.neighbors_scanned;
      }
    }

    // Candidate set of u = union of TE values. The pool holds exactly
    // the runs: nothing has been pruned from this list yet. Marking the
    // alive flags dedups the union; u's scan bucket, walked in id order,
    // then lists it strictly ascending — the property every binary search
    // and intersection downstream depends on — without a sort.
    std::uint8_t* u_alive = table->row(u);
    std::size_t union_size = 0;
    for (VertexId v : ud.te.pool) {
      union_size += !(u_alive[v] & FilterTable::kAlive);
      u_alive[v] |= FilterTable::kAlive;
    }
    ud.candidates = table->AliveCandidates(data_, query, u, union_size);
    CECI_DCHECK(std::adjacent_find(ud.candidates.begin(),
                                   ud.candidates.end()) ==
                ud.candidates.end())
        << "duplicate candidate for u" << u;

    if (options.vertex_stats != nullptr) {
      BuildVertexStats vs;
      vs.u = u;
      vs.candidates_filtered = ud.candidates.size();
      vs.rejected_label = stats->rejected_label - before_expand.rejected_label;
      vs.rejected_degree =
          stats->rejected_degree - before_expand.rejected_degree;
      vs.rejected_nlc = stats->rejected_nlc - before_expand.rejected_nlc;
      options.vertex_stats->push_back(vs);
    }

    stats->cascade_removals += dead_frontier.size();
    cascade_remove(u_p, dead_frontier);

    if (budget != nullptr && budget->Exhausted()) break;

    // --- NTE expansion (§3.2, last paragraph) ---
    auto nte_ids = tree.nte_in(u);
    if (!options.build_nte_lists) nte_ids = {};
    ud.nte.resize(nte_ids.size());
    std::uint64_t nte_since_poll = 0;
    for (std::size_t k = 0; k < nte_ids.size(); ++k) {
      const VertexId u_n = tree.non_tree_edges()[nte_ids[k]].parent;
      std::vector<VertexId> dead_nte;
      KeyedRuns& list = ud.nte[k];
      for (VertexId v_n : index.at(u_n).candidates) {
        ++stats->frontier_expansions;
        stats->neighbors_scanned += data_.degree(v_n);
        const std::size_t begin = list.pool.size();
        for (VertexId v : data_.neighbors(v_n)) {
          if (u_alive[v] & FilterTable::kAlive) list.pool.push_back(v);
        }
        if (list.pool.size() == begin) {
          dead_nte.push_back(v_n);
        } else {
          list.CloseRun(v_n, begin);
        }
        if (budget != nullptr && ++nte_since_poll == kBuildPollStride) {
          nte_since_poll = 0;
          if (budget->Poll()) break;
        }
      }
      stats->nte_cascade_removals += dead_nte.size();
      cascade_remove(u_n, dead_nte);
      if (budget != nullptr && budget->Exhausted()) break;
    }

    // Incremental byte accounting: the vertex's lists are final now
    // (later cascades only shrink them), so their size is an upper bound
    // on what they will occupy.
    if (budget != nullptr) {
      if (budget->ChargeBytes(CeciBytes(ud))) {
        processed[u] = 1;
        break;
      }
    }

    processed[u] = 1;
  }

  if constexpr (kStore) {
    if (!data_.status().ok()) return data_.status();
  }
  return index;
}

template class CeciBuilder<Graph>;
template class CeciBuilder<OnDemandCsr>;

}  // namespace ceci
