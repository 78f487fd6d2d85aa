// Dedicated tests for reverse-BFS refinement and cardinality (§3.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/flat_index.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "gen/labels.h"
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

// The refined contract: each TE list holds one run per candidate of the
// parent, and every TE and NTE value is a rank, strictly ascending within
// its run and below the owner's candidate count.
void ExpectRankValues(const CeciIndex& index, const QueryTree& tree) {
  for (VertexId u = 0; u < index.num_query_vertices(); ++u) {
    const CeciVertexData& ud = index.at(u);
    auto expect_ranks = [&](std::span<const VertexId> run) {
      EXPECT_EQ(std::adjacent_find(run.begin(), run.end(),
                                   std::greater_equal<VertexId>()),
                run.end())
          << "u" << u << ": run not strictly ascending";
      for (VertexId r : run) {
        EXPECT_LT(r, ud.candidates.size()) << "u" << u;
      }
    };
    if (u != tree.root()) {
      EXPECT_EQ(ud.te.num_runs(), index.at(tree.parent(u)).candidates.size())
          << "u" << u;
      for (std::size_t i = 0; i < ud.te.num_runs(); ++i) {
        expect_ranks(ud.te.values_at(i));
      }
    }
    for (const KeyedRuns& list : ud.nte) {
      for (std::size_t i = 0; i < list.num_keys(); ++i) {
        expect_ranks(list.values_at(i));
      }
    }
  }
}

// Rewrites every TE and NTE value of an unrefined index from a data-vertex
// id to its rank among the owner's candidates, the form the freeze copies.
// Every value must be a candidate (no cascade leftovers).
void RewriteIdsToRanks(CeciIndex* index, std::size_t data_num_vertices) {
  CandidateRanks ranks(data_num_vertices);
  for (VertexId u = 0; u < index->num_query_vertices(); ++u) {
    CeciVertexData& ud = index->at(u);
    ranks.Load(ud.candidates);
    auto to_rank = [&](VertexId v) {
      const std::uint32_t r = ranks.Find(v);
      CECI_CHECK(r != CandidateRanks::kAbsent) << "leftover v" << v;
      return r;
    };
    for (std::size_t i = 0; i < ud.te.num_runs(); ++i) {
      ud.te.MapRun(i, to_rank);
    }
    for (KeyedRuns& list : ud.nte) {
      list.Prune([](VertexId) { return true; }, to_rank);
    }
    ranks.Unload(ud.candidates);
  }
}

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
  EXPECT_EQ(FlatCeciIndex::Build(b.index, b.tree).CardinalityOf(0, 0), 2u);
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
  EXPECT_EQ(FlatCeciIndex::Build(b.index, b.tree).CardinalityOf(0, 0), 9u);
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
  RewriteIdsToRanks(&unrefined.index, data.num_vertices());
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
  // Labeled data under the 5-clique: the sweep has dead entries to drop.
  Graph data = AssignRandomLabels(GenerateSocialGraph(600, 8, 21), 2, 22);
  Graph query = MakePaperQuery(PaperQuery::kQG5);
  Built b(data, query, 0);
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  EXPECT_GT(stats.pruned_edges, 0u);
  // After compaction, every TE run belongs to an alive candidate of the
  // parent and every value is the rank of an alive candidate of the child.
  ExpectRankValues(b.index, b.tree);
}

TEST(RefinementTest, EveryValueIsARankAfterRefinement) {
  // Labeled data makes the sweep drop runs, keys and values.
  std::uint64_t pruned_edges = 0;
  for (std::uint64_t seed : {3u, 13u, 29u}) {
    Graph data =
        AssignRandomLabels(GenerateSocialGraph(400, 8, seed), 2, seed + 1);
    for (PaperQuery pq : kAllPaperQueries) {
      SCOPED_TRACE(std::string(PaperQueryName(pq)) + " seed " +
                   std::to_string(seed));
      Built b(data, MakePaperQuery(pq), 0);
      RefineStats stats;
      RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
      pruned_edges += stats.pruned_edges;
      ExpectRankValues(b.index, b.tree);
    }
  }
  EXPECT_GT(pruned_edges, 0u);
}

// Appends `values` as the next run of `list`.
void AddRun(RunPool* list, const std::vector<VertexId>& values) {
  const std::size_t begin = list->pool.size();
  list->pool.insert(list->pool.end(), values.begin(), values.end());
  list->CloseRun(begin);
}

// Appends the run `key` -> `values` to `list`.
void AddRun(KeyedRuns* list, VertexId key,
            const std::vector<VertexId>& values) {
  const std::size_t begin = list->pool.size();
  list->pool.insert(list->pool.end(), values.begin(), values.end());
  list->CloseRun(key, begin);
}

// The runs of `list`, in order.
std::vector<std::vector<VertexId>> Runs(const RunPool& list) {
  std::vector<std::vector<VertexId>> runs;
  for (std::size_t i = 0; i < list.num_runs(); ++i) {
    const auto values = list.values_at(i);
    runs.emplace_back(values.begin(), values.end());
  }
  return runs;
}

using RunList = std::vector<std::pair<VertexId, std::vector<VertexId>>>;

// The (key, values) pairs of `list`, in key order.
RunList Runs(const KeyedRuns& list) {
  RunList runs;
  for (std::size_t i = 0; i < list.num_keys(); ++i) {
    const auto values = list.values_at(i);
    runs.emplace_back(list.keys[i],
                      std::vector<VertexId>(values.begin(), values.end()));
  }
  return runs;
}

TEST(RefinementTest, CascadeLeftoversAddNothingAndAreCompacted) {
  // Triangle query, root u0: tree edges u0-u1 and u0-u2, NTE u1 -> u2.
  // The index is written by hand the way the build's cascade leaves it:
  // v5 and v6 were candidates of u1 and u2 and are no longer, yet still
  // sit among the TE and NTE values (and v5 as an NTE key). v7 is the
  // last data vertex, the upper bound of the candidate-rank map.
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {0, 2}, {1, 2}});
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->children(0).size(), 2u);
  ASSERT_EQ(tree->nte_in(2).size(), 1u);
  ASSERT_EQ(tree->non_tree_edges()[tree->nte_in(2)[0]].parent, 1u);
  constexpr std::size_t kDataVertices = 8;

  // TE run i belongs to u0's candidate at rank i: v0, then v3.
  CeciIndex index(3);
  index.at(0).candidates = {0, 3};
  index.at(1).candidates = {1, 4};
  index.at(2).candidates = {2, 7};
  AddRun(&index.at(1).te, {1, 5});
  AddRun(&index.at(1).te, {4, 5});
  AddRun(&index.at(2).te, {2, 6, 7});
  AddRun(&index.at(2).te, {6});
  index.at(2).nte.resize(1);
  AddRun(&index.at(2).nte[0], 1, {2, 6, 7});
  AddRun(&index.at(2).nte[0], 4, {6, 7});
  AddRun(&index.at(2).nte[0], 5, {2});

  RefineStats stats;
  RefineCeci(*tree, kDataVertices, &index, &stats);

  // The leaves score 1. Pivot v0 reaches u1 through {v1, v5} and u2
  // through {v2, v6, v7}: 1 × 2, the leftovers adding 0. Pivot v3 reaches
  // u2 only through v6, so it scores 0 and is pruned.
  EXPECT_EQ(index.at(1).cardinalities, (std::vector<Cardinality>{1, 1}));
  EXPECT_EQ(index.at(2).candidates, (std::vector<VertexId>{2, 7}));
  EXPECT_EQ(index.at(2).cardinalities, (std::vector<Cardinality>{1, 1}));
  EXPECT_EQ(index.at(0).candidates, (std::vector<VertexId>{0}));
  EXPECT_EQ(index.at(0).cardinalities, (std::vector<Cardinality>{2}));
  EXPECT_EQ(stats.total_cardinality, 2u);
  EXPECT_EQ(stats.pruned_candidates, 1u);

  // Compaction drops every leftover value, the dead pivot's runs and the
  // leftover NTE key v5: 3 edges from u1's TE, 2 from u2's, 3 from the NTE.
  // What is left is one run per surviving pivot, and ranks: v1 is u1's
  // rank 0, v2 and v7 are u2's ranks 0 and 1.
  using Positional = std::vector<std::vector<VertexId>>;
  EXPECT_EQ(index.at(1).candidates, (std::vector<VertexId>{1, 4}));
  EXPECT_EQ(Runs(index.at(1).te), (Positional{{0}}));
  EXPECT_EQ(Runs(index.at(2).te), (Positional{{0, 1}}));
  EXPECT_EQ(Runs(index.at(2).nte[0]), (RunList{{1, {0, 1}}, {4, {1}}}));
  EXPECT_EQ(stats.pruned_edges, 8u);
  ExpectRankValues(index, *tree);

  // The compacted index freezes: every value is a rank.
  const FlatCeciIndex flat = FlatCeciIndex::Build(index, *tree);
  EXPECT_EQ(flat.CardinalityOf(0, 0), 2u);
  EXPECT_EQ(flat.TotalCandidateEdges(), 6u);
}

TEST(RefinementTest, LastDataVertexIsACandidate) {
  // u1's only candidate is v5, the data graph's top id and so the last
  // slot of the map sized by data_num_vertices. Each root puts it in
  // another role: pivot, TE value and key, NTE value or key.
  Graph data = MakeGraph({1, 1, 1, 0, 2, 1}, {{3, 4}, {3, 5}, {4, 5}});
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {0, 2}, {1, 2}});
  for (VertexId root : {0u, 1u, 2u}) {
    Built b(data, query, root);
    RefineStats stats;
    RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
    EXPECT_EQ(b.index.at(1).candidates, (std::vector<VertexId>{5}));
    EXPECT_EQ(stats.total_cardinality, 1u) << "root u" << root;
    EXPECT_EQ(stats.pruned_edges, 0u);
    const FlatCeciIndex flat = FlatCeciIndex::Build(b.index, b.tree);
    EXPECT_EQ(flat.TotalCandidateEdges(), 3u);
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
