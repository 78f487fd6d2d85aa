#include "baselines/turbo_iso.h"

#include <algorithm>

#include "ceci/ceci_index.h"
#include "ceci/preprocess.h"
#include "ceci/query_tree.h"
#include "ceci/symmetry.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ceci {
namespace {

// Tri-state memo of filter outcomes for the boosted variant.
enum class Memo : char { kUnknown = 0, kPass = 1, kFail = 2 };

class TurboIsoEngine {
 public:
  TurboIsoEngine(const Graph& data, const NlcIndex& nlc, const Graph& query,
                 const TurboIsoOptions& options,
                 const EmbeddingVisitor* visitor, TurboIsoResult* result)
      : data_(data),
        nlc_(nlc),
        query_(query),
        options_(options),
        visitor_(visitor),
        result_(result) {
    const std::size_t nq = query.num_vertices();
    profiles_.resize(nq);
    for (VertexId u = 0; u < nq; ++u) {
      profiles_[u] = NlcIndex::Profile(query, u);
    }
    if (options.boosted) {
      memo_.assign(nq, std::vector<Memo>(data.num_vertices(), Memo::kUnknown));
    }
    mapping_.assign(nq, kInvalidVertex);
  }

  void Run() {
    // Start vertex: argmin |candidates| / degree (same rule as TurboIso).
    auto pre = Preprocess(data_, nlc_, query_, PreprocessOptions{});
    CECI_CHECK(pre.ok()) << pre.status().ToString();
    if (pre->infeasible) return;
    tree_ = std::move(pre->tree);
    const std::vector<VertexId> starts = std::move(pre->root_candidates);
    pre->filter.Release();  // only the CECI builder reads the table
    symmetry_ = options_.break_automorphisms
                    ? SymmetryConstraints::Compute(query_)
                    : SymmetryConstraints::None(query_.num_vertices());

    region_.assign(query_.num_vertices(), KeyedRuns{});
    region_candidates_.assign(query_.num_vertices(), {});
    for (VertexId v_s : starts) {
      ++result_->regions_explored;
      if (ExploreRegion(v_s)) {
        OrderRegion();
        mapping_[tree_.root()] = v_s;
        bool keep_going = Recurse(1);
        mapping_[tree_.root()] = kInvalidVertex;
        if (!keep_going) return;
      }
    }
  }

 private:
  bool PassesFilters(VertexId u, VertexId v) {
    if (options_.boosted) {
      Memo& m = memo_[u][v];
      if (m != Memo::kUnknown) return m == Memo::kPass;
      ++result_->filter_evaluations;
      bool pass = data_.degree(v) >= query_.degree(u) &&
                  data_.HasAllLabels(v, query_.labels(u)) &&
                  nlc_.Covers(v, profiles_[u]);
      m = pass ? Memo::kPass : Memo::kFail;
      return pass;
    }
    ++result_->filter_evaluations;
    return data_.degree(v) >= query_.degree(u) &&
           data_.HasAllLabels(v, query_.labels(u)) &&
           nlc_.Covers(v, profiles_[u]);
  }

  // Builds the candidate region of pivot v_s: per query vertex a TE-style
  // candidate list restricted to this cluster. Returns false if some query
  // vertex has no candidate in the region (region pruned).
  bool ExploreRegion(VertexId v_s) {
    const std::size_t nq = query_.num_vertices();
    for (VertexId u = 0; u < nq; ++u) {
      region_[u].clear();
      region_candidates_[u].clear();
    }
    region_candidates_[tree_.root()] = {v_s};
    for (VertexId u : tree_.bfs_order()) {
      if (u == tree_.root()) continue;
      const VertexId u_p = tree_.parent(u);
      KeyedRuns& list = region_[u];
      for (VertexId v_f : region_candidates_[u_p]) {
        const std::size_t begin = list.pool.size();
        for (VertexId v : data_.neighbors(v_f)) {
          if (PassesFilters(u, v)) list.pool.push_back(v);
        }
        if (list.pool.size() > begin) list.CloseRun(v_f, begin);
      }
      // Nothing is pruned from a region, so its pool holds exactly its
      // runs: the candidates are the pool's distinct values.
      std::vector<VertexId>& cands = region_candidates_[u];
      cands = list.pool;
      std::sort(cands.begin(), cands.end());
      cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
      if (region_candidates_[u].empty()) return false;
    }
    return true;
  }

  // TurboIso's locally optimized order: children visited in ascending
  // region-candidate-count order, realized as a DFS pre-order (a valid
  // topological order of the tree).
  void OrderRegion() {
    order_.clear();
    std::vector<VertexId> stack = {tree_.root()};
    while (!stack.empty()) {
      VertexId u = stack.back();
      stack.pop_back();
      order_.push_back(u);
      std::vector<VertexId> kids(tree_.children(u).begin(),
                                 tree_.children(u).end());
      std::sort(kids.begin(), kids.end(), [&](VertexId a, VertexId b) {
        auto ca = region_candidates_[a].size();
        auto cb = region_candidates_[b].size();
        if (ca != cb) return ca > cb;  // descending: smallest popped first
        return a > b;
      });
      for (VertexId c : kids) stack.push_back(c);
    }
    pos_of_.assign(order_.size(), 0);
    for (std::size_t i = 0; i < order_.size(); ++i) pos_of_[order_[i]] = i;
  }

  bool Recurse(std::size_t pos) {
    ++result_->recursive_calls;
    if (pos == order_.size()) {
      ++result_->embeddings;
      if (visitor_ != nullptr && !(*visitor_)(mapping_)) return false;
      return options_.limit == 0 || result_->embeddings < options_.limit;
    }
    const VertexId u = order_[pos];
    auto cands = region_[u].Find(mapping_[tree_.parent(u)]);
    for (VertexId v : cands) {
      bool ok = true;
      for (VertexId m : mapping_) {
        if (m == v) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (VertexId w : symmetry_.must_be_less(u)) {
        if (mapping_[w] != kInvalidVertex && mapping_[w] >= v) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (VertexId w : symmetry_.must_be_greater(u)) {
        if (mapping_[w] != kInvalidVertex && mapping_[w] <= v) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      // Edge verification of every matched non-tree neighbor.
      for (VertexId w : query_.neighbors(u)) {
        if (w != tree_.parent(u) && mapping_[w] != kInvalidVertex &&
            !data_.HasEdge(v, mapping_[w])) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      mapping_[u] = v;
      bool keep_going = Recurse(pos + 1);
      mapping_[u] = kInvalidVertex;
      if (!keep_going) return false;
    }
    return true;
  }

  const Graph& data_;
  const NlcIndex& nlc_;
  const Graph& query_;
  const TurboIsoOptions& options_;
  const EmbeddingVisitor* visitor_;
  TurboIsoResult* result_;

  QueryTree tree_;
  SymmetryConstraints symmetry_;
  std::vector<std::vector<NlcIndex::Entry>> profiles_;
  std::vector<std::vector<Memo>> memo_;
  std::vector<KeyedRuns> region_;
  std::vector<std::vector<VertexId>> region_candidates_;
  std::vector<VertexId> order_;
  std::vector<std::size_t> pos_of_;
  std::vector<VertexId> mapping_;
};

}  // namespace

TurboIsoResult TurboIsoCount(const Graph& data, const NlcIndex& data_nlc,
                             const Graph& query,
                             const TurboIsoOptions& options,
                             const EmbeddingVisitor* visitor) {
  Timer timer;
  TurboIsoResult result;
  TurboIsoEngine engine(data, data_nlc, query, options, visitor, &result);
  engine.Run();
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace ceci
