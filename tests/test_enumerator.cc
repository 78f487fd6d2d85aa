// Unit tests for the set-intersection enumerator: limits, visitors,
// prefixes, symmetry enforcement, ablation equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <mutex>

#include "baselines/vf2.h"
#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/refinement.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::EmbeddingCollector;
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
    none = SymmetryConstraints::None(query.num_vertices());
  }

  EnumOptions Options(bool with_symmetry = true, bool intersect = true) {
    EnumOptions o;
    o.symmetry = with_symmetry ? &symmetry : &none;
    o.nte_intersection = intersect;
    return o;
  }

  Graph data;
  Graph query;
  NlcIndex nlc;
  QueryTree tree;
  FlatCeciIndex index;  // the frozen form the enumerator reads
  SymmetryConstraints symmetry;
  SymmetryConstraints none;
};

Fixture TriangleInK4() {
  return Fixture(MakeUnlabeled(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3},
                                   {2, 3}}),
                 MakePaperQuery(PaperQuery::kQG1));
}

TEST(EnumeratorTest, TrianglesInK4WithSymmetryBreaking) {
  Fixture f = TriangleInK4();
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  EXPECT_EQ(e.EnumerateAll(nullptr), 4u);  // C(4,3) distinct triangles
}

TEST(EnumeratorTest, TrianglesInK4WithoutSymmetryBreaking) {
  Fixture f = TriangleInK4();
  auto opts = f.Options(/*with_symmetry=*/false);
  Enumerator e(f.data, f.tree, f.index, opts);
  EXPECT_EQ(e.EnumerateAll(nullptr), 24u);  // 4 triangles × |Aut| = 6
}

TEST(EnumeratorTest, EdgeVerificationAblationAgrees) {
  Fixture f = TriangleInK4();
  auto intersect_opts = f.Options(true, true);
  auto verify_opts = f.Options(true, false);
  Enumerator a(f.data, f.tree, f.index, intersect_opts);
  Enumerator b(f.data, f.tree, f.index, verify_opts);
  EXPECT_EQ(a.EnumerateAll(nullptr), b.EnumerateAll(nullptr));
  EXPECT_GT(a.stats().intersections, 0u);
  EXPECT_GT(b.stats().edge_verifications, 0u);
}

TEST(EnumeratorTest, VisitorReceivesValidEmbeddings) {
  Fixture f = TriangleInK4();
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  EmbeddingVisitor visitor = [&](std::span<const VertexId> m) {
    EXPECT_EQ(m.size(), 3u);
    // Every query edge must be a data edge.
    EXPECT_TRUE(f.data.HasEdge(m[0], m[1]));
    EXPECT_TRUE(f.data.HasEdge(m[1], m[2]));
    EXPECT_TRUE(f.data.HasEdge(m[0], m[2]));
    // Symmetry order enforced (triangle: fully chained).
    EXPECT_LT(m[0], m[1]);
    EXPECT_LT(m[1], m[2]);
    return true;
  };
  EXPECT_EQ(e.EnumerateAll(&visitor), 4u);
}

TEST(EnumeratorTest, VisitorCanStopEnumeration) {
  Fixture f = TriangleInK4();
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  int seen = 0;
  EmbeddingVisitor visitor = [&](std::span<const VertexId>) {
    return ++seen < 2;  // stop after the second embedding
  };
  EXPECT_EQ(e.EnumerateAll(&visitor), 2u);
}

TEST(EnumeratorTest, SharedLimitStopsGlobally) {
  Fixture f = TriangleInK4();
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  std::atomic<std::uint64_t> counter{0};
  e.SetSharedLimit(&counter, 3);
  EXPECT_EQ(e.EnumerateAll(nullptr), 3u);
}

TEST(EnumeratorTest, SharedLimitAcrossInstances) {
  Fixture f = TriangleInK4();
  auto opts = f.Options();
  std::atomic<std::uint64_t> counter{0};
  Enumerator a(f.data, f.tree, f.index, opts);
  Enumerator b(f.data, f.tree, f.index, opts);
  a.SetSharedLimit(&counter, 3);
  b.SetSharedLimit(&counter, 3);
  std::uint64_t total = a.EnumerateAll(nullptr) + b.EnumerateAll(nullptr);
  EXPECT_EQ(total, 3u);
}

TEST(EnumeratorTest, ClusterEnumerationPartitionsWork) {
  Fixture f = TriangleInK4();
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  std::uint64_t total = 0;
  for (VertexId pivot : f.index.candidates(f.tree.root())) {
    total += e.EnumerateCluster(pivot, nullptr);
  }
  EXPECT_EQ(total, 4u);
}

TEST(EnumeratorTest, PrefixEnumeration) {
  Fixture f = TriangleInK4();
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  // Matching order starts at root 0; cluster pivot 0, second vertex 1.
  std::vector<VertexId> prefix = {0, 1};
  std::uint64_t n = e.EnumerateFromPrefix(prefix, nullptr);
  // Triangles through data edge (0,1) with ordered corners: (0,1,2),(0,1,3).
  EXPECT_EQ(n, 2u);
}

TEST(EnumeratorTest, CollectExtensionsMatchesRecursionRule) {
  Fixture f = TriangleInK4();
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  std::vector<VertexId> mapping(3, kInvalidVertex);
  mapping[f.tree.matching_order()[0]] = 0;
  std::vector<VertexId> out;
  e.CollectExtensions(mapping, f.tree.matching_order()[1], &out);
  // Candidates of the second query vertex under pivot 0 with symmetry
  // (must exceed 0): {1, 2, 3}.
  EXPECT_EQ(out, (std::vector<VertexId>{1, 2, 3}));
}

TEST(EnumeratorTest, SquareQueryOnGrid) {
  // 2x3 grid graph has exactly two unit squares.
  //  0-1-2
  //  | | |
  //  3-4-5
  Fixture f(MakeUnlabeled(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4},
                              {2, 5}}),
            MakePaperQuery(PaperQuery::kQG2));
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  EXPECT_EQ(e.EnumerateAll(nullptr), 2u);
}

TEST(EnumeratorTest, NoEmbeddingsWhenQueryTooDense) {
  // 4-clique query, triangle-free data (square).
  Fixture f(MakeUnlabeled(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}}),
            MakePaperQuery(PaperQuery::kQG4));
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  EXPECT_EQ(e.EnumerateAll(nullptr), 0u);
}

// Replicates the candidate rule with independent primitives, without the
// index's TE/NTE entries: a refined entry keyed by a matched parent holds
// exactly the parent's data neighbours among u's candidates, so chained
// std::set_intersection of u's candidate array with the data adjacency of
// the tree parent's and every NTE parent's match, then a symmetry
// post-filter, then the O(|mapping|) linear injectivity scan that the
// bitmap replaced.
std::vector<VertexId> OldPathCandidates(const Fixture& f,
                                        std::span<const VertexId> mapping,
                                        VertexId u) {
  const auto cands = f.index.candidates(u);
  const auto te = f.data.neighbors(mapping[f.tree.parent(u)]);
  std::vector<VertexId> out;
  std::set_intersection(cands.begin(), cands.end(), te.begin(), te.end(),
                        std::back_inserter(out));
  const auto nte_ids = f.tree.nte_in(u);
  for (std::size_t k = 0; k < nte_ids.size(); ++k) {
    const VertexId u_n = f.tree.non_tree_edges()[nte_ids[k]].parent;
    auto list = f.data.neighbors(mapping[u_n]);
    std::vector<VertexId> next;
    std::set_intersection(out.begin(), out.end(), list.begin(), list.end(),
                          std::back_inserter(next));
    out = std::move(next);
  }
  VertexId lo = 0;
  VertexId hi = kInvalidVertex;
  for (VertexId w : f.symmetry.must_be_less(u)) {
    if (mapping[w] != kInvalidVertex) lo = std::max(lo, mapping[w] + 1);
  }
  for (VertexId w : f.symmetry.must_be_greater(u)) {
    if (mapping[w] != kInvalidVertex) hi = std::min(hi, mapping[w]);
  }
  std::erase_if(out, [&](VertexId v) { return v < lo || v >= hi; });
  std::erase_if(out, [&](VertexId v) {
    return std::find(mapping.begin(), mapping.end(), v) != mapping.end();
  });
  return out;
}

// Walks partial embeddings depth-first and checks CollectExtensions (the
// clamped-span + bitmap path) against OldPathCandidates at every node, up
// to `budget` comparisons; then the whole enumeration against the VF2
// oracle's embedding set under the same restrictions.
void CheckCandidatesAgainstOldPath(Fixture& f, std::size_t budget) {
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  const auto& order = f.tree.matching_order();
  std::vector<VertexId> mapping(f.tree.num_vertices(), kInvalidVertex);
  std::size_t checked = 0;
  std::vector<VertexId> got;
  std::function<void(std::size_t)> dfs = [&](std::size_t pos) {
    if (pos == order.size() || checked >= budget) return;
    const VertexId u = order[pos];
    e.CollectExtensions(mapping, u, &got);
    ASSERT_EQ(got, OldPathCandidates(f, mapping, u))
        << "pos=" << pos << " u=" << u;
    ++checked;
    const std::vector<VertexId> cands = got;
    for (VertexId v : cands) {
      if (checked >= budget) break;
      mapping[u] = v;
      dfs(pos + 1);
      mapping[u] = kInvalidVertex;
    }
  };
  for (VertexId pivot : f.index.candidates(f.tree.root())) {
    if (checked >= budget) break;
    mapping[order[0]] = pivot;
    dfs(1);
    mapping[order[0]] = kInvalidVertex;
  }
  EXPECT_GT(checked, 0u);

  EmbeddingCollector oracle;
  EmbeddingVisitor oracle_visitor = std::ref(oracle);
  Vf2Count(f.data, f.query, Vf2Options{}, &oracle_visitor);
  EmbeddingCollector listed;
  EmbeddingVisitor listed_visitor = std::ref(listed);
  Enumerator(f.data, f.tree, f.index, opts).EnumerateAll(&listed_visitor);
  EXPECT_EQ(listed.AsSet(), oracle.AsSet());
  EXPECT_EQ(listed.raw().size(), listed.AsSet().size());
}

TEST(EnumeratorRegressionTest, CandidatesMatchOldPathOnRandomGraphs) {
  for (std::uint64_t seed : {11, 12, 13}) {
    for (PaperQuery q : kAllPaperQueries) {
      SCOPED_TRACE(PaperQueryName(q) + " seed " + std::to_string(seed));
      Fixture f(GenerateSocialGraph(150, 4, seed), MakePaperQuery(q));
      CheckCandidatesAgainstOldPath(f, 1500);
    }
  }
}

TEST(EnumeratorRegressionTest, CandidatesMatchOldPathOnErdosRenyi) {
  for (std::uint64_t seed : {21, 22}) {
    for (PaperQuery q : kAllPaperQueries) {
      SCOPED_TRACE(PaperQueryName(q) + " seed " + std::to_string(seed));
      Fixture f(GenerateErdosRenyi(120, 600, seed), MakePaperQuery(q));
      CheckCandidatesAgainstOldPath(f, 1500);
    }
  }
}

TEST(EnumeratorRegressionTest, LeafCountShortcutMatchesMaterializedCount) {
  // The shortcut routes the last level through CountLeafCandidates — a
  // lone list counted by arithmetic, an intersection materialized and
  // probed for injectivity, both under the clamped symmetry window — and
  // must agree with full materialization everywhere.
  for (std::uint64_t seed : {31, 32}) {
    for (bool with_symmetry : {true, false}) {
      for (PaperQuery q : kAllPaperQueries) {
        SCOPED_TRACE(PaperQueryName(q) + " seed " + std::to_string(seed) +
                     (with_symmetry ? " sym" : " nosym"));
        Fixture f(GenerateSocialGraph(150, 4, seed), MakePaperQuery(q));
        auto slow_opts = f.Options(with_symmetry);
        slow_opts.leaf_count_shortcut = false;
        auto fast_opts = slow_opts;
        fast_opts.leaf_count_shortcut = true;
        Enumerator slow(f.data, f.tree, f.index, slow_opts);
        Enumerator fast(f.data, f.tree, f.index, fast_opts);
        const std::uint64_t expected = slow.EnumerateAll(nullptr);
        EXPECT_EQ(fast.EnumerateAll(nullptr), expected);
        EXPECT_LE(fast.stats().recursive_calls, slow.stats().recursive_calls);
      }
    }
  }
}

TEST(EnumeratorRegressionTest, LeafCountShortcutHonorsSharedLimit) {
  Fixture f(GenerateSocialGraph(150, 4, 41), MakePaperQuery(PaperQuery::kQG1));
  auto opts = f.Options();
  opts.leaf_count_shortcut = false;
  Enumerator full(f.data, f.tree, f.index, opts);
  const std::uint64_t total = full.EnumerateAll(nullptr);
  ASSERT_GT(total, 4u);
  auto fast_opts = opts;
  fast_opts.leaf_count_shortcut = true;
  Enumerator fast(f.data, f.tree, f.index, fast_opts);
  std::atomic<std::uint64_t> counter{0};
  fast.SetSharedLimit(&counter, total - 2);
  EXPECT_EQ(fast.EnumerateAll(nullptr), total - 2);
}

}  // namespace
}  // namespace ceci
