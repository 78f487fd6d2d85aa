// Unit tests for the set-intersection enumerator: limits, visitors,
// prefixes, symmetry enforcement, ablation equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <string>

#include "baselines/vf2.h"
#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/extreme_cluster.h"
#include "ceci/refinement.h"
#include "ceci/scheduler.h"
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

TEST(EnumeratorTest, CollectExtensionsOfANonCandidateMatchIsEmpty) {
  // A matched data vertex that is no candidate of its query vertex has no
  // rank, so it keys no TE or NTE entry: nothing extends the mapping.
  Fixture f(GenerateSocialGraph(150, 4, 11), MakePaperQuery(PaperQuery::kQG4));
  auto opts = f.Options();
  Enumerator e(f.data, f.tree, f.index, opts);
  const auto& order = f.tree.matching_order();
  // The clique's third vertex hangs off the root and closes a non-tree
  // edge from the second.
  ASSERT_EQ(f.tree.parent(order[2]), order[0]);
  ASSERT_EQ(f.tree.nte_in(order[2]).size(), 1u);
  auto non_candidate = [&](VertexId u, VertexId not_this) {
    const auto cands = f.index.candidates(u);
    for (VertexId v = 0; v < f.data.num_vertices(); ++v) {
      if (v != not_this && !std::binary_search(cands.begin(), cands.end(), v)) {
        return v;
      }
    }
    return kInvalidVertex;
  };
  std::vector<VertexId> mapping(f.query.num_vertices(), kInvalidVertex);
  std::vector<VertexId> out;

  mapping[order[0]] = non_candidate(order[0], kInvalidVertex);
  ASSERT_NE(mapping[order[0]], kInvalidVertex);
  e.CollectExtensions(mapping, order[1], &out);
  EXPECT_TRUE(out.empty());

  // A pivot that extends at the second vertex, then a non-candidate there.
  for (VertexId pivot : f.index.candidates(order[0])) {
    mapping[order[0]] = pivot;
    e.CollectExtensions(mapping, order[1], &out);
    if (!out.empty()) break;
  }
  ASSERT_FALSE(out.empty());
  mapping[order[1]] = non_candidate(order[1], mapping[order[0]]);
  ASSERT_NE(mapping[order[1]], kInvalidVertex);
  e.CollectExtensions(mapping, order[2], &out);
  EXPECT_TRUE(out.empty());
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

// Counting workers tally embeddings locally; the tally reaches the shared
// counter before EnumerateFromRanks returns, so between calls the counter
// holds everything counted, and stats().embeddings the share the limit
// admitted of it.
TEST(EnumeratorRegressionTest, EveryCallPublishesWhatItCounted) {
  Fixture f(GenerateSocialGraph(150, 4, 41), MakePaperQuery(PaperQuery::kQG1));
  const std::uint32_t roots =
      static_cast<std::uint32_t>(f.index.candidates(f.tree.root()).size());
  for (const bool shortcut : {true, false}) {
    auto opts = f.Options();
    opts.leaf_count_shortcut = shortcut;
    Enumerator reference(f.data, f.tree, f.index, opts);
    const std::uint64_t total = reference.EnumerateAll(nullptr);
    ASSERT_GT(total, 4u);
    for (const std::uint64_t limit :
         {std::numeric_limits<std::uint64_t>::max(), total / 2}) {
      SCOPED_TRACE(std::string(shortcut ? "shortcut" : "per leaf") +
                   " limit " + std::to_string(limit));
      Enumerator e(f.data, f.tree, f.index, opts);
      std::atomic<std::uint64_t> counter{0};
      e.SetSharedLimit(&counter, limit);
      Enumerator unlimited(f.data, f.tree, f.index, opts);
      std::uint64_t returned = 0;
      std::uint64_t counted = 0;
      for (std::uint32_t r = 0; r < roots; ++r) {
        const std::span<const std::uint32_t> rank(&r, 1);
        returned += e.EnumerateFromRanks(rank, nullptr);
        // Until the limit stops it, e counts what an unlimited run does.
        if (counter.load() < limit) {
          counted += unlimited.EnumerateFromRanks(rank, nullptr);
          EXPECT_EQ(counter.load(), counted) << "root rank " << r;
        }
        EXPECT_EQ(e.stats().embeddings, returned);
        EXPECT_EQ(returned, std::min(counter.load(), limit));
      }
      EXPECT_EQ(returned, std::min(total, limit));
    }
  }
}

// Decomposed (FGD) work units hand EnumerateFromPrefix prefixes of two or
// more vertices, whose ranks it looks up once per unit. Under either
// restriction set the units together list the oracle's embeddings that
// the set admits, each once.
TEST(EnumeratorRegressionTest, DeepWorkUnitsListTheOracleSet) {
  const Graph data = GenerateBarabasiAlbert(200, 4, 61);
  for (PaperQuery q : kAllPaperQueries) {
    Fixture f(data, MakePaperQuery(q));
    EmbeddingCollector oracle;
    EmbeddingVisitor oracle_visitor = std::ref(oracle);
    Vf2Options all;
    all.break_automorphisms = false;
    Vf2Count(f.data, f.query, all, &oracle_visitor);
    for (const bool mirror : {false, true}) {
      SCOPED_TRACE(PaperQueryName(q) + (mirror ? " mirrored" : ""));
      const SymmetryConstraints set =
          mirror ? f.symmetry.Mirrored() : f.symmetry;
      EnumOptions opts;
      opts.symmetry = &set;
      const std::vector<WorkUnit> units =
          DecomposeRootOrder(f.data, f.tree, f.index, opts,
                             RootOrder(f.index, f.tree.root()),
                             /*workers=*/64, /*beta=*/0.01, nullptr);
      EXPECT_TRUE(std::any_of(units.begin(), units.end(),
                              [](const WorkUnit& unit) {
                                return unit.prefix.size() >= 2;
                              }));
      EmbeddingCollector listed;
      EmbeddingVisitor visitor = std::ref(listed);
      Enumerator e(f.data, f.tree, f.index, opts);
      for (const WorkUnit& unit : units) {
        e.EnumerateFromPrefix(unit.prefix, &visitor);
      }
      std::set<std::vector<VertexId>> admitted;
      for (const std::vector<VertexId>& m : oracle.AsSet()) {
        if (std::all_of(set.constraints().begin(), set.constraints().end(),
                        [&](const SymmetryConstraints::Constraint& c) {
                          return m[c.smaller] < m[c.larger];
                        })) {
          admitted.insert(m);
        }
      }
      EXPECT_FALSE(admitted.empty());
      EXPECT_EQ(listed.AsSet(), admitted);
      EXPECT_EQ(listed.raw().size(), admitted.size());
    }
  }
}

// Work counters of one seeded graph × QG1–QG5, recorded before TE/NTE
// lookups moved from keys to ranks. How an entry is found must not change
// which entries are intersected: the counters stay exactly as recorded.
TEST(EnumeratorRegressionTest, WorkCountersArePinned) {
  struct Pinned {
    PaperQuery query;
    std::uint64_t embeddings;
    std::uint64_t recursive_calls;
    std::uint64_t intersections;
    std::uint64_t elements_in;
    std::uint64_t elements_out;
  };
  const Pinned kPinned[] = {
      {PaperQuery::kQG1, 345, 941, 702, 18818, 345},
      {PaperQuery::kQG2, 1594, 6755, 5814, 91873, 1594},
      {PaperQuery::kQG3, 1274, 2492, 2300, 74157, 2260},
      {PaperQuery::kQG4, 47, 1126, 934, 33660, 368},
      {PaperQuery::kQG5, 18672, 30344, 29119, 720376, 50915},
  };
  const Graph data = GenerateSocialGraph(300, 5, 51);
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(PaperQueryName(p.query));
    Fixture f(data, MakePaperQuery(p.query));
    Enumerator e(f.data, f.tree, f.index, f.Options());
    EXPECT_EQ(e.EnumerateAll(nullptr), p.embeddings);
    const EnumStats& s = e.stats();
    EXPECT_EQ(s.recursive_calls, p.recursive_calls);
    EXPECT_EQ(s.intersections, p.intersections);
    EXPECT_EQ(s.intersection_elements_in, p.elements_in);
    EXPECT_EQ(s.intersection_elements_out, p.elements_out);
  }
}

// Rank of each prefix match in its query vertex's candidate array.
std::vector<std::uint32_t> PrefixRanks(const Fixture& f,
                                       std::span<const VertexId> prefix) {
  const auto& order = f.tree.matching_order();
  std::vector<std::uint32_t> ranks;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    const std::span<const VertexId> cand = f.index.candidates(order[i]);
    const auto it = std::lower_bound(cand.begin(), cand.end(), prefix[i]);
    EXPECT_TRUE(it != cand.end() && *it == prefix[i]);
    ranks.push_back(static_cast<std::uint32_t>(it - cand.begin()));
  }
  return ranks;
}

void ExpectSameStats(const EnumStats& a, const EnumStats& b) {
  EXPECT_EQ(a.recursive_calls, b.recursive_calls);
  EXPECT_EQ(a.intersections, b.intersections);
  EXPECT_EQ(a.intersection_elements_in, b.intersection_elements_in);
  EXPECT_EQ(a.intersection_elements_out, b.intersection_elements_out);
  EXPECT_EQ(a.edge_verifications, b.edge_verifications);
  EXPECT_EQ(a.embeddings, b.embeddings);
  EXPECT_EQ(a.calls_per_position, b.calls_per_position);
}

// EnumerateFromPrefix is a rank lookup in front of EnumerateFromRanks:
// entering at a root's rank or at its id, or at a deep FGD prefix's ranks
// or ids, lists the same embeddings in the same order and does the same
// work, listed or counted.
void ExpectRankEntryEqualsIdEntry(Fixture& f) {
  const std::span<const VertexId> roots = f.index.candidates(f.tree.root());
  for (const bool listed : {false, true}) {
    SCOPED_TRACE(listed ? "listed" : "counted");
    EnumOptions opts = f.Options();
    opts.per_position_stats = true;
    Enumerator by_rank(f.data, f.tree, f.index, opts);
    Enumerator by_id(f.data, f.tree, f.index, opts);
    EmbeddingCollector rank_list;
    EmbeddingCollector id_list;
    EmbeddingVisitor rank_visitor = std::ref(rank_list);
    EmbeddingVisitor id_visitor = std::ref(id_list);
    const EmbeddingVisitor* rv = listed ? &rank_visitor : nullptr;
    const EmbeddingVisitor* iv = listed ? &id_visitor : nullptr;
    for (std::uint32_t r = 0; r < roots.size(); ++r) {
      EXPECT_EQ(
          by_rank.EnumerateFromRanks(std::span<const std::uint32_t>(&r, 1), rv),
          by_id.EnumerateFromPrefix(roots.subspan(r, 1), iv));
    }
    const std::vector<WorkUnit> units =
        DecomposeRootOrder(f.data, f.tree, f.index, opts,
                           RootOrder(f.index, f.tree.root()),
                           /*workers=*/64, /*beta=*/0.01, nullptr);
    for (const WorkUnit& unit : units) {
      EXPECT_EQ(by_rank.EnumerateFromRanks(PrefixRanks(f, unit.prefix), rv),
                by_id.EnumerateFromPrefix(unit.prefix, iv));
    }
    EXPECT_GT(by_rank.stats().embeddings, 0u);
    EXPECT_EQ(rank_list.raw(), id_list.raw());
    ExpectSameStats(by_rank.stats(), by_id.stats());
  }
}

TEST(EnumeratorRegressionTest, RankEntryEqualsIdEntry) {
  {
    SCOPED_TRACE("triangle in K4");
    Fixture f = TriangleInK4();
    ExpectRankEntryEqualsIdEntry(f);
  }
  const Graph data = GenerateBarabasiAlbert(200, 4, 61);
  for (PaperQuery q : kAllPaperQueries) {
    SCOPED_TRACE(PaperQueryName(q));
    Fixture f(data, MakePaperQuery(q));
    ExpectRankEntryEqualsIdEntry(f);
  }
}

#ifdef CECI_ENABLE_DCHECKS
// A root order is ranks into the root's candidates; a rank past them
// would read another vertex's candidates. The scheduler checks the whole
// order once, before any worker enters it (a DCHECK, so the test exists
// only where DCHECKs are compiled in).
TEST(RootOrderDeathTest, RankPastTheRootCandidatesDies) {
  Fixture f = TriangleInK4();
  ScheduleOptions options;
  options.enumeration = f.Options();
  std::vector<std::uint32_t> order = RootOrder(f.index, f.tree.root());
  ASSERT_FALSE(order.empty());
  order.push_back(
      static_cast<std::uint32_t>(f.index.candidates(f.tree.root()).size()));
  EXPECT_DEATH(RunParallelEnumeration(f.data, f.tree, f.index, order,
                                      options, nullptr),
               "root order rank past the root's candidates");
}
#endif  // CECI_ENABLE_DCHECKS

}  // namespace
}  // namespace ceci
