#include "ceci/refinement.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"
#include "util/trace.h"

namespace ceci {

void RefineCeci(const QueryTree& tree, CandidateRanks* ranks,
                CeciIndex* index, RefineStats* stats,
                std::vector<std::uint64_t>* pruned_per_vertex,
                BudgetTracker* budget) {
  RefineStats local;
  if (stats == nullptr) stats = &local;
  *stats = RefineStats{};

  const std::size_t nq = tree.num_vertices();
  if (pruned_per_vertex != nullptr) pruned_per_vertex->assign(nq, 0);
  // The one O(|V|) structure: a list value is looked up by its rank among
  // the candidates of the vertex loaded at the time. A value that is no
  // longer a candidate of its owner (left behind by the build's cascade,
  // or pruned below) is absent. Every Load below is paired with an Unload.

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
      ranks->Load(ud.candidates);
      for (std::uint32_t k = 0; k < ud.nte.size(); ++k) {
        const CandidateRuns& list = ud.nte[k];
        for (std::size_t i = 0; i < list.num_keys(); ++i) {
          for (VertexId v : list.values_at(i)) {
            const std::uint32_t r = ranks->Find(v);
            if (r != CandidateRanks::kAbsent && lists_seen[r] == k) {
              lists_seen[r] = k + 1;
            }
          }
        }
      }
      ranks->Unload(ud.candidates);
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
      // its cardinalities are present and parallel to its candidates.
      CECI_DCHECK_EQ(cd.cardinalities.size(), cd.candidates.size())
          << "child u" << u_c << " visited before refinement";
      ranks->Load(cd.candidates);
      // u's candidates and the child's TE keys both ascend: one forward
      // cursor over the keys finds each candidate's entry.
      const std::vector<VertexId>& keys = cd.te.keys;
      std::size_t at = 0;
      for (std::size_t i = 0; i < cards.size(); ++i) {
        if (cards[i] == 0) continue;
        const VertexId v = ud.candidates[i];
        while (at < keys.size() && keys[at] < v) ++at;
        const bool keyed = at < keys.size() && keys[at] == v;
        Cardinality sum = 0;
        for (VertexId v_c : keyed ? cd.te.values_at(at)
                                  : std::span<const VertexId>()) {
          const std::uint32_t r = ranks->Find(v_c);
          if (r != CandidateRanks::kAbsent) {
            sum = SaturatingAdd(sum, cd.cardinalities[r]);
          }
        }
        cards[i] = SaturatingMul(cards[i], sum);
      }
      ranks->Unload(cd.candidates);
    }
    if (budget_tripped) break;  // skip the prune for this half-done vertex
    std::size_t write = 0;
    for (std::size_t i = 0; i < cards.size(); ++i) {
      if (cards[i] == 0) continue;
      ud.candidates[write] = ud.candidates[i];
      cards[write] = cards[i];
      ++write;
    }
    stats->pruned_candidates += cards.size() - write;
    if (pruned_per_vertex != nullptr) {
      (*pruned_per_vertex)[u] = cards.size() - write;
    }
    ud.candidates.resize(write);
    cards.resize(write);
    ud.cardinalities = std::move(cards);
  }

  // Compaction sweep: a key survives iff it is a surviving candidate of
  // the list's parent, a value iff it is one of u's. Skipped on a budget
  // trip: the matcher discards the semi-refined index anyway.
  if (!budget_tripped) {
    TraceSpan compact_span("refine/compact");
    for (VertexId u = 0; u < nq; ++u) {
      CeciVertexData& ud = index->at(u);
      ranks->Load(ud.candidates);
      auto survives = [ranks](VertexId v) {
        return ranks->Find(v) != CandidateRanks::kAbsent;
      };
      auto prune = [&](CandidateRuns* list, VertexId key_owner) {
        // Prune offers the keys in ascending order: one forward cursor
        // over the key owner's sorted survivors answers them all.
        const std::vector<VertexId>& keys = index->at(key_owner).candidates;
        std::size_t at = 0;
        stats->pruned_edges += list->Prune(
            [&](VertexId key) {
              while (at < keys.size() && keys[at] < key) ++at;
              return at < keys.size() && keys[at] == key;
            },
            survives);
      };
      if (u != tree.root()) prune(&ud.te, tree.parent(u));
      auto nte_ids = tree.nte_in(u);
      for (std::size_t k = 0; k < ud.nte.size(); ++k) {
        prune(&ud.nte[k], tree.non_tree_edges()[nte_ids[k]].parent);
      }
      ranks->Unload(ud.candidates);
    }
  }

  const CeciVertexData& rd = index->at(tree.root());
  for (Cardinality c : rd.cardinalities) {
    stats->total_cardinality = SaturatingAdd(stats->total_cardinality, c);
  }
}

}  // namespace ceci
