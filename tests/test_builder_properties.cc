// Randomized property tests for CECI construction (Algorithm 1).
//
// The load-bearing invariants:
//  * soundness  — every stored candidate edge is a real data edge with
//    compatible labels/degrees;
//  * completeness (Lemma 1) — every vertex participating in a true
//    embedding survives as a candidate of the query vertex it matches,
//    and every matched edge appears in the corresponding TE/NTE list;
//  * determinism — parallel construction equals serial construction;
//  * candidate sets — each is strictly ascending, and wherever a build
//    stops, its last-built vertex lists exactly the union of its TE runs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>

#include "baselines/vf2.h"
#include "ceci/ceci_builder.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "graphio/binary_csr.h"
#include "test_support.h"
#include "util/budget.h"
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
    // Refined values are ranks into u's candidates; TE run k belongs to
    // the parent's candidate at rank k. TE values: real edges, label
    // containment, degree bound.
    for (std::size_t k = 0; k < ud.te.num_runs(); ++k) {
      VertexId key = b.index.at(b.tree.parent(u)).candidates[k];
      for (VertexId r : ud.te.values_at(k)) {
        const VertexId v = ud.candidates[r];
        EXPECT_TRUE(s.data.HasEdge(key, v));
        EXPECT_TRUE(s.data.HasAllLabels(v, s.query.labels(u)));
        EXPECT_GE(s.data.degree(v), s.query.degree(u));
      }
    }
    for (const auto& nte : ud.nte) {
      for (std::size_t k = 0; k < nte.num_keys(); ++k) {
        VertexId key = nte.keys[k];
        for (VertexId r : nte.values_at(k)) {
          EXPECT_TRUE(s.data.HasEdge(key, ud.candidates[r]));
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
  // Rank of v among u's candidates; the candidate count if it is none.
  auto rank_of = [&](VertexId u, VertexId v) {
    const auto& cands = b.index.at(u).candidates;
    const auto it = std::lower_bound(cands.begin(), cands.end(), v);
    return static_cast<VertexId>(
        it != cands.end() && *it == v ? it - cands.begin() : cands.size());
  };
  EmbeddingVisitor check = [&](std::span<const VertexId> m) {
    ++checked;
    for (VertexId u = 0; u < m.size(); ++u) {
      const auto& cands = b.index.at(u).candidates;
      EXPECT_TRUE(std::binary_search(cands.begin(), cands.end(), m[u]))
          << "matched v" << m[u] << " missing from candidates of u" << u;
    }
    // Every tree edge of the query must be present as a TE entry: the
    // parent match's run holds the child match's rank.
    for (VertexId u = 0; u < m.size(); ++u) {
      if (u == tree.root()) continue;
      const RunPool& te = b.index.at(u).te;
      const VertexId parent_rank = rank_of(tree.parent(u), m[tree.parent(u)]);
      EXPECT_LT(parent_rank, te.num_runs()) << "TE run missing for u" << u;
      if (parent_rank >= te.num_runs()) continue;
      auto vals = te.values_at(parent_rank);
      EXPECT_TRUE(
          std::binary_search(vals.begin(), vals.end(), rank_of(u, m[u])))
          << "TE entry missing for u" << u;
    }
    // And every non-tree edge as an NTE entry.
    auto ntes = tree.non_tree_edges();
    for (VertexId u = 0; u < m.size(); ++u) {
      auto ids = tree.nte_in(u);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        auto vals = b.index.at(u).nte[k].Find(m[ntes[ids[k]].parent]);
        EXPECT_TRUE(
            std::binary_search(vals.begin(), vals.end(), rank_of(u, m[u])))
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
  // runs died when the *parent* was processed later in the reverse pass —
  // harmless (enumeration cannot reach it), so only ⊆ holds: every value
  // is the rank of a candidate.
  Scenario s = MakeScenario(GetParam());
  Built b(s.data, s.query, /*refine=*/true);
  for (VertexId u = 0; u < s.query.num_vertices(); ++u) {
    if (u == b.tree.root()) continue;
    const auto& cands = b.index.at(u).candidates;
    const RunPool& te = b.index.at(u).te;
    for (std::size_t k = 0; k < te.num_runs(); ++k) {
      for (VertexId r : te.values_at(k)) {
        EXPECT_LT(r, cands.size()) << "u" << u << " rank " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderPropertyTest, ::testing::Range(0, 15));

// --- Candidate sets (Algorithm 1's union of TE values) ---
//
// Build lists u's candidates by marking alive flags for its TE values and
// walking u's scan bucket for them. Cascades later shrink a built vertex's
// candidates (dead frontier vertices) or its TE runs (dead parent
// candidates), but neither can reach the last vertex a build touched. So
// wherever a build stops — at its end, or where a budget trips — that
// vertex's candidates equal the sorted, deduplicated union of its TE run
// values, and every built vertex's candidates are strictly ascending.
// Where a build stops between vertices, every built non-root vertex holds
// one TE run per candidate of its parent: the cascade erases a dead
// parent candidate and its runs together.

// Writes `g` as a binary CSR and opens it as an on-demand store.
OnDemandCsr OpenStore(const Graph& g) {
  static int counter = 0;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ceci_candidates_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++) + ".csr"))
          .string();
  CECI_CHECK(WriteBinaryCsr(g, path).ok());
  auto store = OnDemandCsr::Open(path);
  std::filesystem::remove(path);  // the open stream keeps it readable
  CECI_CHECK(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

// Builds `query` over `data` with the builder's own filter table,
// recording one BuildVertexStats per vertex built.
template <typename Source>
CeciIndex BuildWith(const Source& data, const NlcIndex& nlc,
                    const Graph& query, const QueryTree& tree,
                    ThreadPool* pool, BudgetTracker* budget,
                    std::vector<BuildVertexStats>* built) {
  BuildOptions options;
  options.pool = pool;
  options.parallel_threshold = 1;
  options.budget = budget;
  built->clear();  // a trip at the root returns before Build records it
  options.vertex_stats = built;
  auto index = CeciBuilder(data, nlc).Build(query, tree, options, nullptr);
  if constexpr (std::is_same_v<Source, Graph>) {
    return index;
  } else {
    CECI_CHECK(index.ok()) << index.status().ToString();
    return std::move(index).value();
  }
}

// The checks above, on a build that recorded `built`.
void ExpectCandidateSets(const CeciIndex& index, const QueryTree& tree,
                         const std::vector<BuildVertexStats>& built,
                         const std::string& where) {
  auto ascending = [&](VertexId u) {
    const auto& c = index.at(u).candidates;
    EXPECT_EQ(std::adjacent_find(c.begin(), c.end(),
                                 std::greater_equal<VertexId>()),
              c.end())
        << where << ": candidates of u" << u << " not strictly ascending";
  };
  ascending(tree.root());
  for (const BuildVertexStats& vs : built) ascending(vs.u);
  if (built.empty() || built.back().u == tree.root()) return;
  const VertexId last = built.back().u;
  const RunPool& te = index.at(last).te;
  std::vector<VertexId> expected;
  for (std::size_t k = 0; k < te.num_runs(); ++k) {
    const auto run = te.values_at(k);
    expected.insert(expected.end(), run.begin(), run.end());
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(index.at(last).candidates, expected)
      << where << ": candidates of last-built u" << last;
  EXPECT_EQ(built.back().candidates_filtered, expected.size()) << where;
}

// Stops the build at every vertex in turn, for every choice of root (BFS
// tree and order): a memory cap of the bytes the previous run charged
// lets one more vertex through, until a run completes. The first run
// (cap 1) trips at the root.
template <typename Source>
void SweepStopPoints(const Source& data, const Graph& query, ThreadPool* pool,
                     const std::string& where) {
  const NlcIndex nlc(data);
  for (VertexId root = 0; root < query.num_vertices(); ++root) {
    auto tree = QueryTree::Build(query, root);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    const std::string at = where + " root u" + std::to_string(root);
    std::vector<BuildVertexStats> built;
    std::size_t cap = 1;
    std::size_t stops = 0;
    for (;;) {
      ExecutionBudget budget;
      budget.memory_budget_bytes = cap;
      BudgetTracker tracker(budget);
      const std::size_t before = built.size();
      const CeciIndex index =
          BuildWith(data, nlc, query, *tree, pool, &tracker, &built);
      ExpectCandidateSets(index, *tree, built,
                          at + " cap " + std::to_string(cap));
      // A memory cap trips only once a vertex is complete.
      for (const BuildVertexStats& vs : built) {
        if (vs.u == tree->root()) continue;
        EXPECT_EQ(index.at(vs.u).te.num_runs(),
                  index.at(tree->parent(vs.u)).candidates.size())
            << at << " cap " << cap << ": TE runs of u" << vs.u;
      }
      ++stops;
      if (!tracker.Exhausted()) break;
      ASSERT_TRUE(stops == 1 || built.size() > before) << at;
      cap = tracker.charged_bytes();
    }
    // The root, every vertex after it, and the completed build.
    EXPECT_EQ(built.size(), query.num_vertices()) << at;
    EXPECT_GE(stops, 2u) << at;
  }
}

// A data graph whose every fifth vertex also carries label 7, rarer than
// each of its three random labels, and the query it induces on a label-7
// vertex a, two of a's neighbours and a neighbour of the first, every
// label copied: query vertex 0 is labelled {l, 7}, so it scans bucket 7,
// not its first label's.
struct MultiLabelCase {
  Graph data;
  Graph query;
};

MultiLabelCase MakeMultiLabelCase() {
  const Graph base =
      AssignRandomLabels(GenerateBarabasiAlbert(400, 4, 61), 3, 62);
  GraphBuilder builder;
  builder.ReserveVertices(base.num_vertices());
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    builder.AddLabel(v, base.label(v));
    if (v % 5 == 0) builder.AddLabel(v, 7);
    for (VertexId w : base.neighbors(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  auto data = builder.Build();
  CECI_CHECK(data.ok()) << data.status().ToString();
  const VertexId a = 5;  // a non-root BA vertex: degree >= 4
  const auto adj = data->neighbors(a);
  const VertexId b = adj[0];
  const VertexId c = adj[1];
  VertexId d = kInvalidVertex;
  for (VertexId w : data->neighbors(b)) {
    if (w != a && w != c) d = w;
  }
  CECI_CHECK(d != kInvalidVertex);
  const std::vector<VertexId> picked = {a, b, c, d};
  GraphBuilder qb;
  for (VertexId i = 0; i < picked.size(); ++i) {
    for (Label l : data->labels(picked[i])) qb.AddLabel(i, l);
    for (VertexId j = 0; j < i; ++j) {
      if (data->HasEdge(picked[i], picked[j])) qb.AddEdge(i, j);
    }
  }
  auto query = qb.Build();
  CECI_CHECK(query.ok()) << query.status().ToString();
  const auto labels = query->labels(0);
  CECI_CHECK(labels.size() == 2 && labels[1] == 7);
  CECI_CHECK(data->VerticesWithLabel(7).size() <
             data->VerticesWithLabel(labels[0]).size());
  return {std::move(data).value(), std::move(query).value()};
}

Graph GeneratedQuery(const Graph& data, std::uint64_t seed) {
  QueryGenOptions qopt;
  qopt.num_vertices = 5;
  qopt.seed = seed;
  auto query = GenerateQuery(data, qopt);
  CECI_CHECK(query.has_value());
  return std::move(*query);
}

TEST(BuilderCandidateSetTest, EveryStopPointListsTheTeUnion) {
  const Graph ba =
      AssignRandomLabels(GenerateBarabasiAlbert(400, 4, 51), 3, 52);
  const Graph er = AssignRandomLabels(GenerateErdosRenyi(400, 2400, 53), 2, 54);
  const MultiLabelCase multi = MakeMultiLabelCase();
  struct Case {
    const char* name;
    const Graph& data;
    Graph query;
  };
  const Case cases[] = {
      {"ba", ba, GeneratedQuery(ba, 55)},
      {"ba-qg3", ba, MakePaperQuery(PaperQuery::kQG3)},
      {"er", er, GeneratedQuery(er, 56)},
      {"multi", multi.data, multi.query},
  };
  ThreadPool pool(2);
  for (const Case& c : cases) {
    const Graph& data = c.data;
    const std::string name = c.name;
    SweepStopPoints(data, c.query, nullptr, name + " serial");
    SweepStopPoints(data, c.query, &pool, name + " pooled");
    const OnDemandCsr store = OpenStore(data);
    SweepStopPoints(store, c.query, nullptr, name + " store");
  }
}

// A cancellation that lands inside a frontier loop leaves the vertex with
// a partial TE list; its candidates are still exactly that list's union.
// The token flips once the build has polled past the root and the first
// vertex's start, so the trip usually lands between the stride polls of
// that vertex's expansion; the checks hold wherever it lands.
template <typename Source>
void CancelMidExpansion(const Source& data, const Graph& query,
                        ThreadPool* pool, const std::string& where) {
  const NlcIndex nlc(data);
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{});
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  CancellationToken token;
  ExecutionBudget budget;
  budget.token = &token;
  BudgetTracker tracker(budget);
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    while (tracker.polls() < 2 && !done.load()) std::this_thread::yield();
    token.RequestCancel();
  });
  std::vector<BuildVertexStats> built;
  const CeciIndex index =
      BuildWith(data, nlc, query, pre->tree, pool, &tracker, &built);
  done = true;
  canceller.join();
  ExpectCandidateSets(index, pre->tree, built, where);
}

TEST(BuilderCandidateSetTest, CancelMidExpansionListsTheTeUnion) {
  // The first vertex's frontier is the root's ~10k candidates, so each of
  // the pooled build's eight chunks also spans a stride poll.
  const Graph data = GenerateErdosRenyi(10000, 40000, 57);
  const Graph query = ::ceci::testing::MakeUnlabeled(
      4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  ThreadPool pool(1);
  for (int rep = 0; rep < 3; ++rep) {
    CancelMidExpansion(data, query, nullptr, "serial");
    CancelMidExpansion(data, query, &pool, "pooled");
    CancelMidExpansion(OpenStore(data), query, nullptr, "store");
  }
}

}  // namespace
}  // namespace ceci
