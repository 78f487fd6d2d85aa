// Property-based cross-validation: every matcher in the repository must
// report the same embedding count on randomized (data, query) pairs, and
// the CECI visitor output must equal the VF2 oracle's embedding set under
// the restriction set CECI's plan chose.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>

#include "baselines/bare_enumerator.h"
#include "baselines/cfl_enumerator.h"
#include "baselines/dual_sim.h"
#include "baselines/psgl.h"
#include "baselines/quicksi.h"
#include "baselines/turbo_iso.h"
#include "baselines/vf2.h"
#include "ceci/cached_matcher.h"
#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/flat_index.h"
#include "ceci/matcher.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "graphio/binary_csr.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::EmbeddingCollector;

struct Scenario {
  Graph data;
  Graph query;
  std::string name;
};

Scenario MakeScenario(int seed) {
  // Alternate between unlabeled power-law + paper query, and labeled
  // Erdős–Rényi + DFS-extracted query.
  if (seed % 2 == 0) {
    Graph data = GenerateBarabasiAlbert(120 + 30 * (seed % 5), 3,
                                        static_cast<std::uint64_t>(seed));
    PaperQuery pq = kAllPaperQueries[seed / 2 % 5];
    return {std::move(data), MakePaperQuery(pq),
            "BA+" + PaperQueryName(pq)};
  }
  Graph data = AssignRandomLabels(
      GenerateErdosRenyi(150, 900 + 40 * (seed % 7),
                         static_cast<std::uint64_t>(seed)),
      3 + seed % 4, static_cast<std::uint64_t>(seed) * 7 + 1);
  QueryGenOptions qopt;
  qopt.num_vertices = 3 + seed % 4;
  qopt.seed = static_cast<std::uint64_t>(seed) * 13 + 5;
  auto query = GenerateQuery(data, qopt);
  CECI_CHECK(query.has_value());
  return {std::move(data), std::move(*query), "ER+dfs"};
}

class EquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceTest, AllMatchersAgreeOnCount) {
  Scenario s = MakeScenario(GetParam());
  NlcIndex nlc(s.data);

  Vf2Result oracle = Vf2Count(s.data, s.query, Vf2Options{});

  CeciMatcher matcher(s.data);
  auto ceci = matcher.Count(s.query, /*threads=*/2);
  ASSERT_TRUE(ceci.ok());
  EXPECT_EQ(*ceci, oracle.embeddings) << s.name << " (ceci)";

  BareOptions bare_options;
  bare_options.threads = 2;
  EXPECT_EQ(BareCount(s.data, s.query, bare_options).embeddings,
            oracle.embeddings)
      << s.name << " (bare)";

  EXPECT_EQ(CflCount(s.data, nlc, s.query, CflOptions{}).embeddings,
            oracle.embeddings)
      << s.name << " (cfl)";

  EXPECT_EQ(TurboIsoCount(s.data, nlc, s.query, TurboIsoOptions{}).embeddings,
            oracle.embeddings)
      << s.name << " (turboiso)";

  TurboIsoOptions boosted;
  boosted.boosted = true;
  EXPECT_EQ(TurboIsoCount(s.data, nlc, s.query, boosted).embeddings,
            oracle.embeddings)
      << s.name << " (boosted-turboiso)";

  EXPECT_EQ(QuickSiCount(s.data, s.query, QuickSiOptions{}).embeddings,
            oracle.embeddings)
      << s.name << " (quicksi)";

  PsglOptions psgl_options;
  psgl_options.threads = 2;
  PsglResult psgl = PsglCount(s.data, s.query, psgl_options);
  ASSERT_FALSE(psgl.overflowed);
  EXPECT_EQ(psgl.embeddings, oracle.embeddings) << s.name << " (psgl)";

  DualSimOptions ds_options;
  ds_options.threads = 2;
  EXPECT_EQ(DualSimCount(s.data, s.query, ds_options).embeddings,
            oracle.embeddings)
      << s.name << " (dualsim)";
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, EquivalenceTest,
                         ::testing::Range(0, 20));

class EmbeddingSetTest : public ::testing::TestWithParam<int> {};

// VF2's embedding set of `query` in `data`, listed under the mirror of
// the Grochow–Kellis restrictions: the mirror set on `data` is the
// Grochow–Kellis set on `data` with every id v renamed n-1-v, so VF2 runs
// on the renamed graph and its embeddings are renamed back.
std::set<std::vector<VertexId>> MirroredOracleSet(const Graph& data,
                                                  const Graph& query) {
  const Graph reversed = ::ceci::testing::ReverseVertexIds(data);
  EmbeddingCollector collector;
  EmbeddingVisitor visitor = std::ref(collector);
  Vf2Count(reversed, query, Vf2Options{}, &visitor);
  const VertexId last = static_cast<VertexId>(data.num_vertices()) - 1;
  std::set<std::vector<VertexId>> out;
  for (std::vector<VertexId> embedding : collector.raw()) {
    for (VertexId& v : embedding) v = last - v;
    out.insert(std::move(embedding));
  }
  return out;
}

// Every CECI path on (data, query) lists VF2's embedding set under the
// restriction set its plan chose.
void ExpectOracleSets(const Graph& data, const Graph& query,
                      const std::string& name, int id) {
  const Scenario s{data, query, name};
  EmbeddingCollector oracle_collector;
  EmbeddingVisitor oracle_visitor = std::ref(oracle_collector);
  Vf2Count(s.data, s.query, Vf2Options{}, &oracle_visitor);
  // Each path lists one embedding per automorphism orbit; which one
  // depends on the restriction set its plan chose.
  const std::set<std::vector<VertexId>> min_oracle = oracle_collector.AsSet();
  const std::set<std::vector<VertexId>> max_oracle =
      MirroredOracleSet(s.data, s.query);
  ASSERT_EQ(max_oracle.size(), min_oracle.size());
  auto oracle_for = [&](bool mirrored) -> const auto& {
    return mirrored ? max_oracle : min_oracle;
  };

  CeciMatcher matcher(s.data);
  EmbeddingCollector ceci_collector;
  EmbeddingVisitor ceci_visitor = std::ref(ceci_collector);
  auto result = matcher.Match(s.query, MatchOptions{}, &ceci_visitor);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(ceci_collector.AsSet(),
            oracle_for(result->stats.restrictions_mirrored))
      << s.name;
  // No duplicates either.
  EXPECT_EQ(ceci_collector.raw().size(), ceci_collector.AsSet().size());

  // Both valid restriction sets, whichever the plan picks: the mirror set
  // must list VF2's embedding set of the id-reversed graph, renamed back.
  for (bool mirror : {false, true}) {
    auto prepared = matcher.Prepare(s.query, MatchOptions{});
    ASSERT_TRUE(prepared.ok());
    if (prepared->symmetry.mirrored() != mirror) {
      prepared->symmetry = prepared->symmetry.Mirrored();
    }
    EmbeddingCollector collector;
    EmbeddingVisitor visitor = std::ref(collector);
    matcher.Execute(*prepared, MatchOptions{}, &visitor);
    EXPECT_EQ(collector.AsSet(), oracle_for(mirror))
        << s.name << (mirror ? " (max set)" : " (min set)");
    EXPECT_EQ(collector.raw().size(), collector.AsSet().size());
  }

  // The serving path: a cache miss prepares the entry, a hit on the same
  // instance only executes it. Both must list the oracle's set.
  CachedMatcher cached(s.data);
  for (bool hit : {false, true}) {
    EmbeddingCollector collector;
    EmbeddingVisitor visitor = std::ref(collector);
    auto cached_result = cached.Match(s.query, MatchOptions{}, &visitor);
    ASSERT_TRUE(cached_result.ok());
    ASSERT_EQ(cached_result->stats.index_cache_hit, hit);
    EXPECT_EQ(collector.AsSet(),
              oracle_for(cached_result->stats.restrictions_mirrored))
        << s.name << (hit ? " (cache hit)" : " (cache miss)");
    EXPECT_EQ(collector.raw().size(), collector.AsSet().size());
  }

  // The shared-storage path (§5): the data graph only in a CSR file read
  // on demand, through Preprocess → Build → refine → freeze → graph-free
  // enumeration, under both restriction sets.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ceci_equiv_" + std::to_string(::getpid()) + "_" +
        std::to_string(id) + ".csr"))
          .string();
  ASSERT_TRUE(WriteBinaryCsr(s.data, path).ok());
  auto store = OnDemandCsr::Open(path);
  std::filesystem::remove(path);  // the open stream keeps it readable
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const NlcIndex store_nlc(*store);
  auto pre = Preprocess(*store, store_nlc, s.query, PreprocessOptions{});
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  BuildOptions build_options;
  build_options.filter_table = &pre->filter;
  build_options.root_candidates = &pre->root_candidates;
  auto index = CeciBuilder(*store, store_nlc)
                   .Build(s.query, pre->tree, build_options, nullptr);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  RefineCeci(pre->tree, store->num_vertices(), &index.value(), nullptr);
  const FlatCeciIndex flat = FlatCeciIndex::Build(*index, pre->tree);
  const SymmetryConstraints symmetry = SymmetryConstraints::Compute(s.query);
  for (bool mirror : {false, true}) {
    const SymmetryConstraints chosen =
        mirror ? symmetry.Mirrored() : symmetry;
    EnumOptions enum_options;
    enum_options.symmetry = &chosen;
    EmbeddingCollector store_collector;
    EmbeddingVisitor store_visitor = std::ref(store_collector);
    Enumerator(pre->tree, flat, enum_options).EnumerateAll(&store_visitor);
    EXPECT_EQ(store_collector.AsSet(), oracle_for(mirror))
        << s.name << " (store-backed build, "
        << (mirror ? "max set)" : "min set)");
    EXPECT_EQ(store_collector.raw().size(), store_collector.AsSet().size());
  }
}

TEST_P(EmbeddingSetTest, CeciEmbeddingSetEqualsOracle) {
  const Scenario s = MakeScenario(GetParam());
  ExpectOracleSets(s.data, s.query, s.name, 2 * GetParam());
  // The id-reversed copy flips which restriction direction is cheaper, so
  // between the two inputs both directions run through build, refine and
  // freeze.
  ExpectOracleSets(::ceci::testing::ReverseVertexIds(s.data), s.query,
                   s.name + " (ids reversed)", 2 * GetParam() + 1);
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, EmbeddingSetTest,
                         ::testing::Range(0, 10));

class NoSymmetryEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(NoSymmetryEquivalenceTest, CountsScaleByAutomorphismGroup) {
  Scenario s = MakeScenario(GetParam());
  auto sym = SymmetryConstraints::Compute(s.query);
  if (sym.automorphism_count() == 0) GTEST_SKIP();

  CeciMatcher matcher(s.data);
  MatchOptions broken;
  MatchOptions unbroken;
  unbroken.break_automorphisms = false;
  auto a = matcher.Match(s.query, broken);
  auto b = matcher.Match(s.query, unbroken);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->embedding_count,
            a->embedding_count * sym.automorphism_count())
      << s.name;
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, NoSymmetryEquivalenceTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace ceci
