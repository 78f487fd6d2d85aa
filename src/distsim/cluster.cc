#include "distsim/cluster.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "util/check.h"
#include "util/intersection.h"
#include "util/logging.h"

namespace ceci::distsim {

double PivotWorkload(const Graph& data, VertexId v, bool neighbors_visible) {
  double w = static_cast<double>(data.degree(v));
  if (neighbors_visible) {
    for (VertexId u : data.neighbors(v)) {
      w += static_cast<double>(data.degree(u));
    }
  }
  // Vertex-id scaling: smaller ids do more work under id-ordered
  // automorphism breaking, so weight them higher: (|V| - v) / |V|.
  const double n = static_cast<double>(data.num_vertices());
  return w * ((n - static_cast<double>(v)) / n);
}

double JaccardSimilarity(const Graph& data, VertexId a, VertexId b) {
  auto na = data.neighbors(a);
  auto nb = data.neighbors(b);
  if (na.empty() && nb.empty()) return 0.0;
  std::size_t inter = IntersectionSize(na, nb);
  std::size_t uni = na.size() + nb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

namespace {

struct RankedPivot {
  double workload = 0.0;
  VertexId vertex = 0;
  /// Position in the caller's pivot list.
  std::uint32_t index = 0;
};

/// Common-neighbour counts of the first `k` pivots of `order`:
/// entry [r * k + t], for ranks r < t, is |N(order[r]) ∩ N(order[t])|.
/// One walk over their adjacency lists: every vertex keeps a chain of the
/// ranks adjacent to it so far, and each visit pairs the current rank
/// with that chain, one wedge order[r] - w - order[t] per count.
std::vector<std::uint32_t> CommonNeighborTable(
    const Graph& data, const std::vector<RankedPivot>& order, std::size_t k) {
  std::vector<std::uint32_t> common(k * k, 0);
  if (k < 2) return common;
  struct Link {
    std::uint32_t rank;
    std::uint32_t next;
  };
  constexpr std::uint32_t kEnd = std::numeric_limits<std::uint32_t>::max();
  std::size_t wedge_ends = 0;
  for (std::size_t t = 0; t < k; ++t) {
    wedge_ends += data.degree(order[t].vertex);
  }
  std::vector<Link> links;
  links.reserve(wedge_ends);
  std::vector<std::uint32_t> head(data.num_vertices(), kEnd);
  for (std::size_t t = 0; t < k; ++t) {
    std::uint32_t* column = common.data() + t;
    for (VertexId w : data.neighbors(order[t].vertex)) {
      for (std::uint32_t e = head[w]; e != kEnd; e = links[e].next) {
        ++column[static_cast<std::size_t>(links[e].rank) * k];
      }
      links.push_back({static_cast<std::uint32_t>(t), head[w]});
      head[w] = static_cast<std::uint32_t>(links.size() - 1);
    }
  }
  return common;
}

}  // namespace

PivotAssignment AssignPivots(const Graph& data,
                             const std::vector<VertexId>& pivots,
                             const AssignOptions& options) {
  CECI_CHECK(options.num_machines >= 1);
  CECI_DCHECK(std::is_sorted(pivots.begin(), pivots.end()));
  PivotAssignment out;
  out.per_machine.assign(options.num_machines, {});
  out.workloads.assign(options.num_machines, 0.0);
  if (pivots.empty()) return out;

  // Largest workload first (LPT greedy gives good balance); ties go to
  // the smaller vertex id, so the order is total.
  std::vector<RankedPivot> order(pivots.size());
  double total = 0.0;
  for (std::size_t i = 0; i < pivots.size(); ++i) {
    order[i] = {PivotWorkload(data, pivots[i], options.neighbors_visible),
                pivots[i], static_cast<std::uint32_t>(i)};
    total += order[i].workload;
  }
  std::sort(order.begin(), order.end(),
            [](const RankedPivot& a, const RankedPivot& b) {
              if (a.workload != b.workload) return a.workload > b.workload;
              return a.vertex < b.vertex;
            });
  const double max_allowed =
      options.max_load_factor * total /
      static_cast<double>(options.num_machines);

  auto least_loaded = [&] {
    std::size_t best = 0;
    for (std::size_t m = 1; m < options.num_machines; ++m) {
      if (out.workloads[m] < out.workloads[best]) best = m;
    }
    return best;
  };

  // Similarity is only visible with neighbor lists, and only evaluated
  // among the top_k largest pivots.
  const std::size_t top_k =
      options.neighbors_visible ? std::min(options.jaccard_top_k, order.size())
                                : 0;
  const std::vector<std::uint32_t> common =
      CommonNeighborTable(data, order, top_k);
  // Machine of each top-k placement, by rank.
  std::vector<std::size_t> placed_top(top_k);
  std::vector<std::uint32_t> machine_of(pivots.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const RankedPivot& pivot = order[rank];
    std::size_t target = least_loaded();
    if (rank < top_k) {
      const std::size_t deg_i = data.degree(pivot.vertex);
      for (std::size_t r = 0; r < rank; ++r) {
        const std::size_t machine = placed_top[r];
        if (out.workloads[machine] + pivot.workload > max_allowed) continue;
        // Size early-exit: J(a,b) <= min/max of the neighborhood sizes,
        // so a size ratio below the threshold cannot qualify.
        const std::size_t deg_j = data.degree(order[r].vertex);
        const std::size_t lo = std::min(deg_i, deg_j);
        const std::size_t hi = std::max(deg_i, deg_j);
        if (hi == 0 ||
            static_cast<double>(lo) <
                options.jaccard_threshold * static_cast<double>(hi)) {
          continue;
        }
        // Jaccard similarity from the table, as JaccardSimilarity
        // computes it from a merge.
        const std::size_t inter = common[r * top_k + rank];
        if (static_cast<double>(inter) /
                static_cast<double>(deg_i + deg_j - inter) >=
            options.jaccard_threshold) {
          target = machine;
          ++out.jaccard_colocations;
          break;
        }
      }
      placed_top[rank] = target;
    }
    machine_of[pivot.index] = static_cast<std::uint32_t>(target);
    out.workloads[target] += pivot.workload;
  }

  // Emitting in input order keeps each machine's list ascending.
  for (std::size_t i = 0; i < pivots.size(); ++i) {
    out.per_machine[machine_of[i]].push_back(pivots[i]);
  }
  return out;
}

}  // namespace ceci::distsim
