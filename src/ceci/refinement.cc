#include "ceci/refinement.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"
#include "util/trace.h"

namespace ceci {

void RefineCeci(const QueryTree& tree, std::size_t data_num_vertices,
                CeciIndex* index, RefineStats* stats,
                std::vector<std::uint64_t>* pruned_per_vertex,
                BudgetTracker* budget) {
  RefineStats local;
  if (stats == nullptr) stats = &local;
  *stats = RefineStats{};

  const std::size_t nq = tree.num_vertices();
  if (pruned_per_vertex != nullptr) pruned_per_vertex->assign(nq, 0);
  // The one O(|V|) structure: a list value is looked up by its rank among
  // the candidates of the vertex loaded at the time. A value that is not a
  // candidate of its owner (left behind by the build's cascade) is absent.
  // Every Load below is paired with an Unload.
  CandidateRanks ranks(data_num_vertices);

  bool budget_tripped = false;
  const auto& order = tree.matching_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    // Cooperative budget check, once per reverse-BFS vertex (plus per
    // child below). A trip leaves the index semi-refined; the caller
    // must not enumerate it.
    if (budget != nullptr && budget->Poll()) {
      budget_tripped = true;
      break;
    }
    const VertexId u = *it;
    CeciVertexData& ud = index->at(u);
    // The per-candidate product over tree children; zero prunes.
    std::vector<Cardinality> cards(ud.candidates.size(), 1);

    // NTE membership: a candidate of u must appear in the value union of
    // every incoming NTE list (Algorithm 2 line 5). lists_seen[r] counts
    // the lists 0..k-1 holding rank r; it steps to k + 1 on list k only
    // if it is k, so duplicates within a list and a list missed earlier
    // both leave it short of the list count.
    if (!ud.nte.empty()) {
      std::vector<std::uint32_t> lists_seen(ud.candidates.size(), 0);
      ranks.Load(ud.candidates);
      for (std::uint32_t k = 0; k < ud.nte.size(); ++k) {
        const RunPool& values = ud.nte[k];
        for (std::size_t i = 0; i < values.num_runs(); ++i) {
          for (VertexId v : values.values_at(i)) {
            const std::uint32_t r = ranks.Find(v);
            if (r != CandidateRanks::kAbsent && lists_seen[r] == k) {
              lists_seen[r] = k + 1;
            }
          }
        }
      }
      ranks.Unload(ud.candidates);
      for (std::size_t i = 0; i < cards.size(); ++i) {
        if (lists_seen[i] != ud.nte.size()) cards[i] = 0;
      }
    }

    for (VertexId u_c : tree.children(u)) {
      if (budget != nullptr && budget->Poll()) {
        budget_tripped = true;
        break;
      }
      const CeciVertexData& cd = index->at(u_c);
      // Reverse-BFS order guarantees every child was already refined, so
      // its cardinalities are present and parallel to its candidates; the
      // dead ones are still in place and add 0.
      CECI_DCHECK_EQ(cd.cardinalities.size(), cd.candidates.size())
          << "child u" << u_c << " visited before refinement";
      CECI_CHECK(cd.te.num_runs() == cards.size())
          << "TE list of u" << u_c << " is not one run per candidate of u"
          << u;
      ranks.Load(cd.candidates);
      for (std::size_t i = 0; i < cards.size(); ++i) {
        if (cards[i] == 0) continue;
        Cardinality sum = 0;
        for (VertexId v_c : cd.te.values_at(i)) {
          const std::uint32_t r = ranks.Find(v_c);
          if (r != CandidateRanks::kAbsent) {
            sum = SaturatingAdd(sum, cd.cardinalities[r]);
          }
        }
        cards[i] = SaturatingMul(cards[i], sum);
      }
      ranks.Unload(cd.candidates);
    }
    if (budget_tripped) break;  // leave this half-done vertex unrefined
    const auto pruned = static_cast<std::uint64_t>(
        std::count(cards.begin(), cards.end(), Cardinality{0}));
    stats->pruned_candidates += pruned;
    if (pruned_per_vertex != nullptr) (*pruned_per_vertex)[u] = pruned;
    ud.cardinalities = std::move(cards);
  }

  // Compaction sweep, in reverse matching order again: when u is swept,
  // its tree parent and NTE parents still hold their dead candidates (at
  // cardinality 0), and its children are done with its own. Skipped on a
  // budget trip: the matcher discards the semi-refined index anyway.
  if (!budget_tripped) {
    TraceSpan compact_span("refine/compact");
    auto alive = [](const CeciVertexData& d, std::size_t i) {
      return d.cardinalities[i] != 0;
    };
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const VertexId u = *it;
      CeciVertexData& ud = index->at(u);
      std::size_t write = 0;
      for (std::size_t i = 0; i < ud.candidates.size(); ++i) {
        if (!alive(ud, i)) continue;
        ud.candidates[write] = ud.candidates[i];
        ud.cardinalities[write] = ud.cardinalities[i];
        ++write;
      }
      ud.candidates.resize(write);
      ud.cardinalities.resize(write);
      // Every surviving value becomes its rank among the survivors.
      ranks.Load(ud.candidates);
      auto to_rank = [&ranks](VertexId v) { return ranks.Find(v); };
      if (u != tree.root()) {
        // A TE run survives iff the parent's candidate of its rank does.
        const CeciVertexData& pd = index->at(tree.parent(u));
        stats->pruned_edges +=
            ud.te.KeepRuns([&](std::size_t i) { return alive(pd, i); });
        for (std::size_t i = 0; i < ud.te.num_runs(); ++i) {
          stats->pruned_edges += ud.te.MapRun(i, to_rank);
        }
      }
      auto nte_ids = tree.nte_in(u);
      for (std::size_t k = 0; k < ud.nte.size(); ++k) {
        // An NTE key survives iff it names a live NTE-parent candidate.
        // Prune offers the keys in ascending order: one forward cursor
        // over the parent's sorted candidates answers them all.
        const CeciVertexData& nd =
            index->at(tree.non_tree_edges()[nte_ids[k]].parent);
        std::size_t at = 0;
        auto live_key = [&](VertexId key) {
          while (at < nd.candidates.size() && nd.candidates[at] < key) ++at;
          return at < nd.candidates.size() && nd.candidates[at] == key &&
                 alive(nd, at);
        };
        stats->pruned_edges += ud.nte[k].Prune(live_key, to_rank);
      }
      ranks.Unload(ud.candidates);
    }
  }

  const CeciVertexData& rd = index->at(tree.root());
  for (Cardinality c : rd.cardinalities) {
    stats->total_cardinality = SaturatingAdd(stats->total_cardinality, c);
  }
}

}  // namespace ceci
