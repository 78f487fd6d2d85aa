#include "ceci/extreme_cluster.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ceci {
namespace {

class Decomposer {
 public:
  Decomposer(const Graph& data, const QueryTree& tree,
             const FlatCeciIndex& index,
             const EnumOptions& enum_options, Cardinality threshold,
             std::vector<WorkUnit>* out)
      : tree_(tree),
        index_(index),
        threshold_(threshold),
        out_(out),
        helper_(data, tree, index, enum_options) {
    mapping_.assign(tree.num_vertices(), kInvalidVertex);
  }

  // Algorithm 3's prepare_work: extend the prefix at the next matching
  // order position, splitting the estimated workload proportionally to the
  // extensions' cardinalities.
  void Split(std::vector<VertexId>* prefix, Cardinality workload) {
    const auto& order = tree_.matching_order();
    if (prefix->size() == order.size()) {
      // Fully instantiated embedding; emit as a trivial unit.
      out_->push_back(WorkUnit{*prefix, workload});
      return;
    }
    const VertexId u_next = order[prefix->size()];
    std::vector<VertexId> extensions;
    helper_.CollectExtensions(mapping_, u_next, &extensions);
    if (extensions.empty()) return;  // prefix extends to no embedding

    Cardinality total = 0;
    std::vector<Cardinality> cards(extensions.size(), 0);
    for (std::size_t i = 0; i < extensions.size(); ++i) {
      cards[i] = index_.CardinalityOf(u_next, extensions[i]);
      total = SaturatingAdd(total, cards[i]);
    }
    if (total == 0) return;

    for (std::size_t i = 0; i < extensions.size(); ++i) {
      if (cards[i] == 0) continue;
      // myWork = card(u_next, v') / total × workload, in floating point to
      // dodge saturation artifacts; clamp to at least 1.
      double share = static_cast<double>(workload) *
                     (static_cast<double>(cards[i]) /
                      static_cast<double>(total));
      auto my_work = static_cast<Cardinality>(std::max(share, 1.0));
      prefix->push_back(extensions[i]);
      mapping_[u_next] = extensions[i];
      if (my_work <= threshold_) {
        out_->push_back(WorkUnit{*prefix, my_work});
      } else {
        Split(prefix, my_work);
      }
      mapping_[u_next] = kInvalidVertex;
      prefix->pop_back();
    }
  }

  void SeedRoot(VertexId pivot) {
    mapping_[tree_.root()] = pivot;
  }
  void ClearRoot() { mapping_[tree_.root()] = kInvalidVertex; }

 private:
  const QueryTree& tree_;
  const FlatCeciIndex& index_;
  const Cardinality threshold_;
  std::vector<WorkUnit>* out_;
  Enumerator helper_;
  std::vector<VertexId> mapping_;
};

}  // namespace

std::vector<std::uint32_t> RootOrder(const FlatCeciIndex& index,
                                     VertexId root) {
  const std::span<const Cardinality> cards = index.cardinalities(root);
  // Cardinalities rank the clusters; an unrefined index (empty or
  // mis-sized vector) would silently yield no clusters.
  CECI_DCHECK_EQ(cards.size(), index.candidates(root).size())
      << "RootOrder needs a refined index";
  std::vector<std::uint32_t> order;
  for (std::uint32_t r = 0; r < cards.size(); ++r) {
    if (cards[r] > 0) order.push_back(r);
  }
  std::sort(order.begin(), order.end(),
            [cards](std::uint32_t a, std::uint32_t b) {
              return cards[a] != cards[b] ? cards[a] > cards[b] : a < b;
            });
  return order;
}

std::vector<WorkUnit> DecomposeRootOrder(
    const Graph& data, const QueryTree& tree, const FlatCeciIndex& index,
    const EnumOptions& enum_options, std::span<const std::uint32_t> root_order,
    std::size_t workers, double beta, DecomposeStats* stats) {
  Timer timer;
  DecomposeStats local;
  if (stats == nullptr) stats = &local;
  *stats = DecomposeStats{};

  const std::span<const VertexId> root_cands = index.candidates(tree.root());
  const std::span<const Cardinality> root_cards =
      index.cardinalities(tree.root());
  Cardinality total = 0;
  for (std::uint32_t r : root_order) {
    total = SaturatingAdd(total, root_cards[r]);
  }
  std::vector<WorkUnit> units;

  Cardinality threshold = kCardinalityCap;
  if (workers > 0 && total > 0) {
    const double expected =
        static_cast<double>(total) / static_cast<double>(workers);
    threshold = static_cast<Cardinality>(
        std::max(beta * expected, 1.0));
  }
  stats->threshold = threshold;

  Decomposer decomposer(data, tree, index, enum_options, threshold, &units);
  for (std::uint32_t r : root_order) {
    const VertexId pivot = root_cands[r];
    const Cardinality card = root_cards[r];
    if (card <= threshold) {
      units.push_back(WorkUnit{{pivot}, card});
    } else {
      ++stats->extreme_clusters;
      decomposer.SeedRoot(pivot);
      std::vector<VertexId> prefix = {pivot};
      decomposer.Split(&prefix, card);
      decomposer.ClearRoot();
    }
  }

  // Larger work first so stragglers are small (§4.3). RootOrder already
  // lists the whole-cluster units largest first; split units are placed
  // among them by cardinality, ties by pivot — pivot order is rank order
  // — and then in split order.
  if (stats->extreme_clusters > 0) {
    std::stable_sort(units.begin(), units.end(),
                     [](const WorkUnit& a, const WorkUnit& b) {
                       if (a.cardinality != b.cardinality) {
                         return a.cardinality > b.cardinality;
                       }
                       return a.prefix[0] < b.prefix[0];
                     });
  }
  stats->work_units = units.size();
  stats->seconds = timer.Seconds();
  return units;
}

}  // namespace ceci
