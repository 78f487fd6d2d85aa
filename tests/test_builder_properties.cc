// Randomized property tests for CECI construction (Algorithm 1).
//
// The load-bearing invariants:
//  * soundness  — every stored candidate edge is a real data edge with
//    compatible labels/degrees;
//  * completeness (Lemma 1) — every vertex participating in a true
//    embedding survives as a candidate of the query vertex it matches,
//    and every matched edge appears in the corresponding TE/NTE list;
//  * determinism — parallel construction equals serial construction.
#include <gtest/gtest.h>

#include "baselines/vf2.h"
#include "ceci/ceci_builder.h"
#include "ceci/refinement.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace ceci {
namespace {

struct Scenario {
  Graph data;
  Graph query;
};

Scenario MakeScenario(int seed) {
  Graph data = AssignRandomLabels(
      GenerateSocialGraph(200 + 40 * (seed % 5), 8,
                          static_cast<std::uint64_t>(seed)),
      1 + seed % 4, static_cast<std::uint64_t>(seed) + 100);
  if (seed % 3 == 0) {
    return {std::move(data), MakePaperQuery(kAllPaperQueries[seed / 3 % 5])};
  }
  QueryGenOptions qopt;
  qopt.num_vertices = 3 + seed % 4;
  qopt.seed = static_cast<std::uint64_t>(seed) * 31 + 7;
  auto query = GenerateQuery(data, qopt);
  CECI_CHECK(query.has_value());
  return {std::move(data), std::move(*query)};
}

struct Built {
  Built(const Graph& data, const Graph& query, bool refine,
        ThreadPool* pool = nullptr) : nlc(data) {
    auto t = QueryTree::Build(query, 0);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    BuildOptions options;
    options.pool = pool;
    options.parallel_threshold = 1;
    CeciBuilder builder(data, nlc);
    index = builder.Build(query, tree, options, nullptr);
    if (refine) RefineCeci(tree, data.num_vertices(), &index, nullptr);
  }

  NlcIndex nlc;
  QueryTree tree;
  CeciIndex index;
};

class BuilderPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BuilderPropertyTest, StoredCandidateEdgesAreSound) {
  Scenario s = MakeScenario(GetParam());
  Built b(s.data, s.query, /*refine=*/true);
  for (VertexId u = 0; u < s.query.num_vertices(); ++u) {
    const auto& ud = b.index.at(u);
    // TE values: real edges, label containment, degree bound.
    for (std::size_t k = 0; k < ud.te.num_keys(); ++k) {
      VertexId key = ud.te.keys[k];
      for (VertexId v : ud.te.values_at(k)) {
        EXPECT_TRUE(s.data.HasEdge(key, v));
        EXPECT_TRUE(s.data.HasAllLabels(v, s.query.labels(u)));
        EXPECT_GE(s.data.degree(v), s.query.degree(u));
      }
    }
    for (const auto& nte : ud.nte) {
      for (std::size_t k = 0; k < nte.num_keys(); ++k) {
        VertexId key = nte.keys[k];
        for (VertexId v : nte.values_at(k)) {
          EXPECT_TRUE(s.data.HasEdge(key, v));
        }
      }
    }
  }
}

TEST_P(BuilderPropertyTest, TrueEmbeddingsSurviveFilteringAndRefinement) {
  Scenario s = MakeScenario(GetParam());
  Built b(s.data, s.query, /*refine=*/true);
  const auto& tree = b.tree;

  // Collect the ground truth with the VF2 oracle (no symmetry breaking so
  // every matched (u, v) pair is exercised).
  Vf2Options oracle_options;
  oracle_options.break_automorphisms = false;
  oracle_options.limit = 2000;  // plenty of pairs, bounded runtime
  std::size_t checked = 0;
  EmbeddingVisitor check = [&](std::span<const VertexId> m) {
    ++checked;
    for (VertexId u = 0; u < m.size(); ++u) {
      const auto& cands = b.index.at(u).candidates;
      EXPECT_TRUE(std::binary_search(cands.begin(), cands.end(), m[u]))
          << "matched v" << m[u] << " missing from candidates of u" << u;
    }
    // Every tree edge of the query must be present as a TE entry.
    for (VertexId u = 0; u < m.size(); ++u) {
      if (u == tree.root()) continue;
      auto vals = b.index.at(u).te.Find(m[tree.parent(u)]);
      EXPECT_TRUE(std::binary_search(vals.begin(), vals.end(), m[u]))
          << "TE entry missing for u" << u;
    }
    // And every non-tree edge as an NTE entry.
    auto ntes = tree.non_tree_edges();
    for (VertexId u = 0; u < m.size(); ++u) {
      auto ids = tree.nte_in(u);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        auto vals = b.index.at(u).nte[k].Find(m[ntes[ids[k]].parent]);
        EXPECT_TRUE(std::binary_search(vals.begin(), vals.end(), m[u]))
            << "NTE entry missing for u" << u;
      }
    }
    return true;
  };
  Vf2Count(s.data, s.query, oracle_options, &check);
  // The scenario generator guarantees at least one embedding for
  // DFS-extracted queries; paper queries may legitimately have none.
  (void)checked;
}

TEST_P(BuilderPropertyTest, ParallelBuildEqualsSerial) {
  Scenario s = MakeScenario(GetParam());
  Built serial(s.data, s.query, /*refine=*/true);
  ThreadPool pool(4);
  Built parallel(s.data, s.query, /*refine=*/true, &pool);
  for (VertexId u = 0; u < s.query.num_vertices(); ++u) {
    EXPECT_EQ(serial.index.at(u).candidates,
              parallel.index.at(u).candidates);
    EXPECT_EQ(serial.index.at(u).cardinalities,
              parallel.index.at(u).cardinalities);
    EXPECT_EQ(serial.index.at(u).te.TotalValues(),
              parallel.index.at(u).te.TotalValues());
  }
}

TEST_P(BuilderPropertyTest, TeValueUnionsSubsetOfCandidatesAfterRefine) {
  // After refinement the compaction can orphan a candidate whose only TE
  // keys died when the *parent* was processed later in the reverse pass —
  // harmless (enumeration cannot reach it), so only ⊆ holds.
  Scenario s = MakeScenario(GetParam());
  Built b(s.data, s.query, /*refine=*/true);
  for (VertexId u = 0; u < s.query.num_vertices(); ++u) {
    if (u == b.tree.root()) continue;
    const auto& cands = b.index.at(u).candidates;
    const CandidateRuns& te = b.index.at(u).te;
    for (std::size_t k = 0; k < te.num_keys(); ++k) {
      for (VertexId v : te.values_at(k)) {
        EXPECT_TRUE(std::binary_search(cands.begin(), cands.end(), v))
            << "u" << u << " v" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderPropertyTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace ceci
