// Dedicated tests for extreme-cluster decomposition (§4.3, Algorithm 3).
#include <gtest/gtest.h>

#include <map>

#include "ceci/ceci_builder.h"
#include "ceci/extreme_cluster.h"
#include "ceci/refinement.h"
#include "ceci/scheduler.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeUnlabeled;

struct Fixture {
  Fixture(Graph d, Graph q) : data(std::move(d)), query(std::move(q)),
                              nlc(data) {
    auto t = QueryTree::Build(query, 0);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciBuilder builder(data, nlc);
    CeciIndex built = builder.Build(query, tree, BuildOptions{}, nullptr);
    RefineCeci(tree, data.num_vertices(), &built, nullptr);
    index = FlatCeciIndex::Build(built, tree);
    symmetry = SymmetryConstraints::Compute(query);
    enum_options.symmetry = &symmetry;
  }

  std::vector<WorkUnit> Units(std::size_t workers, double beta,
                              DecomposeStats* stats) {
    return DecomposeRootOrder(data, tree, index, enum_options,
                              RootOrder(index, tree.root()), workers, beta,
                              stats);
  }

  Graph data;
  Graph query;
  NlcIndex nlc;
  QueryTree tree;
  FlatCeciIndex index;
  SymmetryConstraints symmetry;
  EnumOptions enum_options;
};

// One hub with many triangles through it makes the hub pivot extreme.
Fixture HubTriangles() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  // Hub 0 connected to 1..40; consecutive spokes connected (wheel).
  for (VertexId v = 1; v <= 40; ++v) {
    edges.push_back({0, v});
    if (v > 1) edges.push_back({v - 1, v});
  }
  // A sprinkling of detached small triangles.
  for (VertexId base = 41; base + 2 < 60; base += 3) {
    edges.push_back({base, base + 1});
    edges.push_back({base + 1, base + 2});
    edges.push_back({base, base + 2});
  }
  return Fixture(MakeUnlabeled(60, edges),
                 MakePaperQuery(PaperQuery::kQG1));
}

TEST(ExtremeClusterTest, DecompositionConservesEmbeddings) {
  Fixture f = HubTriangles();
  DecomposeStats stats;
  auto units = f.Units(4, 0.2, &stats);
  ASSERT_GT(stats.extreme_clusters, 0u);
  Enumerator e(f.data, f.tree, f.index, f.enum_options);
  std::uint64_t via_units = 0;
  for (const WorkUnit& unit : units) {
    via_units += e.EnumerateFromPrefix(unit.prefix, nullptr);
  }
  Enumerator whole(f.data, f.tree, f.index, f.enum_options);
  EXPECT_EQ(via_units, whole.EnumerateAll(nullptr));
}

TEST(ExtremeClusterTest, NoUnitDuplication) {
  Fixture f = HubTriangles();
  DecomposeStats stats;
  auto units = f.Units(4, 0.1, &stats);
  // A decomposed cluster's pivot must not also appear as a whole-cluster
  // unit: group units by pivot and check prefix lengths are consistent.
  std::map<VertexId, std::vector<std::size_t>> by_pivot;
  for (const WorkUnit& unit : units) {
    by_pivot[unit.prefix[0]].push_back(unit.prefix.size());
  }
  for (const auto& [pivot, lengths] : by_pivot) {
    bool has_whole = false;
    bool has_split = false;
    for (std::size_t len : lengths) {
      if (len == 1) has_whole = true;
      if (len > 1) has_split = true;
    }
    EXPECT_FALSE(has_whole && has_split) << "pivot " << pivot;
  }
}

TEST(ExtremeClusterTest, PrefixesAreValidPartialEmbeddings) {
  Fixture f = HubTriangles();
  DecomposeStats stats;
  auto units = f.Units(8, 0.05, &stats);
  for (const WorkUnit& unit : units) {
    const auto& order = f.tree.matching_order();
    // Every consecutive pair respecting a query edge must be a data edge.
    for (std::size_t i = 0; i < unit.prefix.size(); ++i) {
      for (std::size_t j = i + 1; j < unit.prefix.size(); ++j) {
        EXPECT_NE(unit.prefix[i], unit.prefix[j]);  // injective
        if (f.query.HasEdge(order[i], order[j])) {
          EXPECT_TRUE(f.data.HasEdge(unit.prefix[i], unit.prefix[j]));
        }
      }
    }
  }
}

TEST(ExtremeClusterTest, ThresholdScalesWithBetaAndWorkers) {
  Fixture f = HubTriangles();
  DecomposeStats a, b, c;
  f.Units(4, 0.2, &a);
  f.Units(4, 0.4, &b);
  f.Units(8, 0.2, &c);
  EXPECT_LT(a.threshold, b.threshold);  // bigger beta, bigger threshold
  EXPECT_LT(c.threshold, a.threshold);  // more workers, smaller threshold
}

TEST(ExtremeClusterTest, WorkloadSharesSumToCluster) {
  Fixture f = HubTriangles();
  DecomposeStats stats;
  auto units = f.Units(4, 0.2, &stats);
  // Per pivot, decomposed shares approximate the cluster cardinality.
  std::map<VertexId, Cardinality> share_sum;
  for (const WorkUnit& unit : units) {
    share_sum[unit.prefix[0]] += unit.cardinality;
  }
  for (const auto& [pivot, sum] : share_sum) {
    Cardinality cluster = f.index.CardinalityOf(f.tree.root(), pivot);
    // Shares are proportional allocations with rounding, so allow slack.
    EXPECT_GE(static_cast<double>(sum), 0.5 * static_cast<double>(cluster));
    EXPECT_LE(static_cast<double>(sum), 2.0 * static_cast<double>(cluster) +
                                            static_cast<double>(
                                                share_sum.size()));
  }
}

TEST(ExtremeClusterTest, NoDecompositionWhenDisabled) {
  // One worker at β = 1 puts the threshold at the total cardinality, so
  // no cluster exceeds it.
  Fixture f = HubTriangles();
  DecomposeStats stats;
  auto units = f.Units(1, 1.0, &stats);
  for (const WorkUnit& unit : units) {
    EXPECT_EQ(unit.prefix.size(), 1u);
  }
  EXPECT_EQ(stats.extreme_clusters, 0u);
}

TEST(ExtremeClusterTest, EmptyIndexYieldsNoUnits) {
  // Triangle query on a triangle-free graph: refinement empties the index.
  Fixture f(MakeUnlabeled(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
            MakePaperQuery(PaperQuery::kQG1));
  DecomposeStats stats;
  auto units = f.Units(4, 0.2, &stats);
  EXPECT_TRUE(units.empty());
}

}  // namespace
}  // namespace ceci
