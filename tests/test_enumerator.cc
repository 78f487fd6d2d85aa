// Unit tests for the set-intersection enumerator: limits, visitors,
// prefixes, symmetry enforcement, ablation equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <mutex>

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
    refined = builder.Build(query, tree, BuildOptions{}, nullptr);
    RefineCeci(tree, data.num_vertices(), &refined, nullptr);
    index = FlatCeciIndex::Build(refined, tree);
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
  CeciIndex refined;    // the mutable form, for independent reference rules
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

// Replicates the pre-PR candidate rule with independent primitives:
// chained std::set_intersection over the full TE/NTE lists, then a symmetry
// post-filter over the output, then the O(|mapping|) linear injectivity
// scan that the bitmap replaced.
std::vector<VertexId> OldPathCandidates(const Fixture& f,
                                        std::span<const VertexId> mapping,
                                        VertexId u) {
  const CeciVertexData& ud = f.refined.at(u);
  auto te = ud.te.Find(mapping[f.tree.parent(u)]);
  std::vector<VertexId> out(te.begin(), te.end());
  const auto nte_ids = f.tree.nte_in(u);
  for (std::size_t k = 0; k < nte_ids.size(); ++k) {
    const VertexId u_n = f.tree.non_tree_edges()[nte_ids[k]].parent;
    auto list = ud.nte[k].Find(mapping[u_n]);
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
// to `budget` comparisons.
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
