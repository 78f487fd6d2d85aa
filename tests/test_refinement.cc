// Dedicated tests for reverse-BFS refinement and cardinality (§3.3).
#include <gtest/gtest.h>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/flat_index.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeGraph;
using ::ceci::testing::MakeUnlabeled;

struct Built {
  Built(const Graph& data, const Graph& query, VertexId root) : nlc(data) {
    auto t = QueryTree::Build(query, root);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciBuilder builder(data, nlc);
    index = builder.Build(query, tree, BuildOptions{}, nullptr);
  }

  NlcIndex nlc;
  QueryTree tree;
  CeciIndex index;
};

TEST(RefinementTest, LeafCardinalityIsOne) {
  // Path query A-B: B is a leaf; every surviving candidate scores 1.
  Graph data = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  Built b(data, query, 0);
  RefineCeci(b.tree, data.num_vertices(), &b.index, nullptr);
  for (std::size_t i = 0; i < b.index.at(1).candidates.size(); ++i) {
    EXPECT_EQ(b.index.at(1).cardinalities[i], 1u);
  }
  // Root: sum over its single child branch = 2.
  EXPECT_EQ(b.index.CardinalityOf(0, 0), 2u);
}

TEST(RefinementTest, CardinalityMultipliesAcrossBranches) {
  // Query: center 0 with two leaves. Data: center with 3 leaves of each
  // label -> cardinality 3 * 3 = 9.
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {0, 2}});
  GraphBuilder db;
  db.AddLabel(0, 0);
  for (VertexId v = 1; v <= 3; ++v) db.AddLabel(v, 1);
  for (VertexId v = 4; v <= 6; ++v) db.AddLabel(v, 2);
  for (VertexId v = 1; v <= 6; ++v) db.AddEdge(0, v);
  auto data = db.Build();
  ASSERT_TRUE(data.ok());
  Built b(*data, query, 0);
  RefineCeci(b.tree, data->num_vertices(), &b.index, nullptr);
  EXPECT_EQ(b.index.CardinalityOf(0, 0), 9u);
}

TEST(RefinementTest, ZeroCardinalityCandidatesPruned) {
  // Data has a root candidate whose child candidate cannot reach a leaf.
  // Query path A-B-C. Data: v0(A)-v1(B)-v2(C) complete; v3(A)-v4(B) with
  // v4 lacking any C neighbor — v4 dies at build (empty key), and the
  // cascade or refinement must kill v3 too.
  Graph data = MakeGraph({0, 1, 2, 0, 1}, {{0, 1}, {1, 2}, {3, 4}});
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}});
  Built b(data, query, 0);
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  EXPECT_EQ(b.index.at(0).candidates, (std::vector<VertexId>{0}));
  EXPECT_EQ(stats.total_cardinality, 1u);
}

TEST(RefinementTest, NteMembershipKillsCandidates) {
  // Triangle query A-B-C. v3 (label C) passes LF/DF/NLCF and is adjacent
  // to the pivot, but no candidate of u_B reaches it: v3 is absent from
  // the NTE (B,C) value union and refinement must prune it (Alg. 2 l. 5).
  Graph data = MakeGraph({0, 1, 2, 2, 3, 1},
                         {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}, {3, 5}});
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  Built b(data, query, 0);
  // Before refinement both v2 and v3 are candidates of u_C.
  EXPECT_EQ(b.index.at(2).candidates, (std::vector<VertexId>{2, 3}));
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  EXPECT_EQ(b.index.at(2).candidates, (std::vector<VertexId>{2}));
  EXPECT_GT(stats.pruned_candidates, 0u);
  EXPECT_EQ(stats.total_cardinality, 1u);
}

TEST(RefinementTest, CompleteButNotMinimal) {
  // §3.5: a square data graph under a triangle query keeps false
  // candidates — every vertex passes every static filter and appears in
  // every NTE union, yet no embedding exists. Refinement must NOT promise
  // minimality; enumeration must still find nothing.
  Graph data = MakeUnlabeled(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  Built b(data, query, 0);
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  EXPECT_FALSE(b.index.at(0).candidates.empty());  // false candidates live
  EXPECT_GT(stats.total_cardinality, 0u);          // the bound over-counts
  SymmetryConstraints sym = SymmetryConstraints::Compute(query);
  EnumOptions eo;
  eo.symmetry = &sym;
  const FlatCeciIndex flat = FlatCeciIndex::Build(b.index, b.tree);
  Enumerator e(data, b.tree, flat, eo);
  EXPECT_EQ(e.EnumerateAll(nullptr), 0u);  // verification catches them
}

TEST(RefinementTest, CardinalityUpperBoundsTrueCount) {
  // The §4.3 property: pivot cardinality >= true embeddings per cluster.
  Graph data = GenerateSocialGraph(500, 8, 77);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  Built b(data, query, 0);
  RefineCeci(b.tree, data.num_vertices(), &b.index, nullptr);
  SymmetryConstraints none = SymmetryConstraints::None(4);
  EnumOptions eo;
  eo.symmetry = &none;
  const FlatCeciIndex flat = FlatCeciIndex::Build(b.index, b.tree);
  Enumerator e(data, b.tree, flat, eo);
  const auto& root = b.index.at(b.tree.root());
  for (std::size_t i = 0; i < root.candidates.size(); ++i) {
    std::uint64_t actual = e.EnumerateCluster(root.candidates[i], nullptr);
    EXPECT_GE(root.cardinalities[i], actual)
        << "pivot " << root.candidates[i];
  }
}

TEST(RefinementTest, RefinementNeverLosesEmbeddings) {
  // Counts with and without the refinement pass must agree (completeness,
  // Lemma 1): refinement only removes provably-dead candidates.
  Graph data = GenerateSocialGraph(800, 8, 13);
  Graph query = MakePaperQuery(PaperQuery::kQG5);
  SymmetryConstraints sym = SymmetryConstraints::Compute(query);
  EnumOptions eo;
  eo.symmetry = &sym;

  Built unrefined(data, query, 0);
  const FlatCeciIndex unrefined_flat =
      FlatCeciIndex::Build(unrefined.index, unrefined.tree);
  Enumerator e1(data, unrefined.tree, unrefined_flat, eo);
  std::uint64_t count_unrefined = e1.EnumerateAll(nullptr);

  Built refined(data, query, 0);
  RefineCeci(refined.tree, data.num_vertices(), &refined.index, nullptr);
  const FlatCeciIndex refined_flat =
      FlatCeciIndex::Build(refined.index, refined.tree);
  Enumerator e2(data, refined.tree, refined_flat, eo);
  std::uint64_t count_refined = e2.EnumerateAll(nullptr);

  EXPECT_EQ(count_refined, count_unrefined);
  // And refinement must not *increase* the search space.
  EXPECT_LE(e2.stats().recursive_calls, e1.stats().recursive_calls);
}

TEST(RefinementTest, CompactionDropsDeadEntries) {
  Graph data = GenerateSocialGraph(600, 6, 21);
  Graph query = MakePaperQuery(PaperQuery::kQG4);
  Built b(data, query, 0);
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  // After compaction, every TE key must be an alive candidate of the
  // parent and every value an alive candidate of the child.
  for (VertexId u = 0; u < 4; ++u) {
    const auto& ud = b.index.at(u);
    if (u == b.tree.root()) continue;
    const auto& parent_cands = b.index.at(b.tree.parent(u)).candidates;
    for (std::size_t k = 0; k < ud.te.num_keys(); ++k) {
      EXPECT_TRUE(std::binary_search(parent_cands.begin(),
                                     parent_cands.end(), ud.te.keys()[k]));
      for (VertexId v : ud.te.values_at(k)) {
        EXPECT_TRUE(std::binary_search(ud.candidates.begin(),
                                       ud.candidates.end(), v));
      }
    }
  }
}

TEST(RefinementTest, SaturationOnDenseGraph) {
  // A clique makes cardinalities explode; saturating arithmetic must cap
  // rather than wrap.
  std::vector<std::pair<VertexId, VertexId>> edges;
  const VertexId n = 24;
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) edges.push_back({a, b});
  }
  Graph data = MakeUnlabeled(n, edges);
  Graph query = MakePaperQuery(PaperQuery::kQG5);
  Built b(data, query, 0);
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  EXPECT_GT(stats.total_cardinality, 0u);
  EXPECT_LE(stats.total_cardinality, kCardinalityCap);
}

}  // namespace
}  // namespace ceci
