// Integration tests for the CeciMatcher facade.
#include <gtest/gtest.h>

#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "baselines/vf2.h"
#include "ceci/matcher.h"
#include "ceci/stats_json.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "json_test_util.h"
#include "test_support.h"
#include "util/metrics_registry.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeGraph;
using ::ceci::testing::MakeUnlabeled;

TEST(MatcherTest, CountTrianglesInK5) {
  Graph data = MakeUnlabeled(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2},
                                 {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}});
  CeciMatcher matcher(data);
  auto count = matcher.Count(MakePaperQuery(PaperQuery::kQG1));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 10u);  // C(5,3)
}

TEST(MatcherTest, CountFourCliquesInK5) {
  Graph data = MakeUnlabeled(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2},
                                 {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}});
  CeciMatcher matcher(data);
  auto count = matcher.Count(MakePaperQuery(PaperQuery::kQG4));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5u);  // C(5,4)
}

TEST(MatcherTest, LimitReturnsFirstK) {
  Graph data = GenerateBarabasiAlbert(300, 4, 5);
  CeciMatcher matcher(data);
  MatchOptions options;
  options.limit = 17;
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 17u);
}

TEST(MatcherTest, ZeroEmbeddingsOnInfeasibleLabels) {
  Graph data = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  Graph query = MakeGraph({0, 0, 9}, {{0, 1}, {1, 2}, {0, 2}});
  CeciMatcher matcher(data);
  auto result = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 0u);
}

TEST(MatcherTest, DisconnectedQueryIsError) {
  Graph data = MakeUnlabeled(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph query = MakeUnlabeled(4, {{0, 1}, {2, 3}});
  CeciMatcher matcher(data);
  auto result = matcher.Match(query, MatchOptions{});
  EXPECT_FALSE(result.ok());
}

TEST(MatcherTest, SingleVertexQueryCountsLabelMatches) {
  Graph data = MakeGraph({3, 3, 5}, {{0, 1}, {1, 2}});
  Graph query = MakeGraph({3}, {});
  CeciMatcher matcher(data);
  auto result = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 2u);
}

TEST(MatcherTest, StatsArePopulated) {
  Graph data = GenerateBarabasiAlbert(500, 4, 7);
  CeciMatcher matcher(data);
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG3), MatchOptions{});
  ASSERT_TRUE(result.ok());
  const MatchStats& s = result->stats;
  EXPECT_GT(s.total_seconds, 0.0);
  EXPECT_GT(s.ceci_bytes, 0u);
  // Table-2 accounting: stored candidate edges at 8 bytes each stay below
  // the |E_q| × |E_g| theoretical bound.
  EXPECT_GE(s.theoretical_bytes, s.candidate_edges * 8);
  EXPECT_GT(s.embedding_clusters, 0u);
  EXPECT_GT(s.enumeration.recursive_calls, 0u);
  EXPECT_GT(s.total_cardinality, 0u);
  EXPECT_GE(s.automorphisms_broken, 1u);
}

TEST(MatcherTest, MatchIsRepeatable) {
  Graph data = GenerateErdosRenyi(400, 2400, 21);
  CeciMatcher matcher(data);
  auto a = matcher.Count(MakePaperQuery(PaperQuery::kQG2));
  auto b = matcher.Count(MakePaperQuery(PaperQuery::kQG2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(MatcherTest, ThreadsDoNotChangeCounts) {
  Graph data = GenerateBarabasiAlbert(600, 5, 13);
  CeciMatcher matcher(data);
  auto serial = matcher.Count(MakePaperQuery(PaperQuery::kQG3), 1);
  auto parallel = matcher.Count(MakePaperQuery(PaperQuery::kQG3), 8);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*serial, *parallel);
}

TEST(MatcherTest, OrderStrategiesAgreeOnCounts) {
  Graph data =
      AssignRandomLabels(GenerateBarabasiAlbert(400, 4, 3), 4, 17);
  CeciMatcher matcher(data);
  std::uint64_t reference = 0;
  bool first = true;
  for (OrderStrategy s : {OrderStrategy::kBfs, OrderStrategy::kEdgeRanked,
                          OrderStrategy::kPathRanked}) {
    MatchOptions options;
    options.order = s;
    auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG5), options);
    ASSERT_TRUE(result.ok()) << OrderStrategyName(s);
    if (first) {
      reference = result->embedding_count;
      first = false;
    } else {
      EXPECT_EQ(result->embedding_count, reference) << OrderStrategyName(s);
    }
  }
}

TEST(MatcherTest, DefaultOrderIntersectsLessThanBfsOnTheDiamond) {
  // Edge-ranked places the chord's far end before the two degree-2
  // vertices, so both of them close a cycle when they extend; BFS extends
  // one of them from the root's whole neighbourhood first.
  for (std::uint64_t seed : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Graph data = GenerateSocialGraph(2000, 8, seed);
    CeciMatcher matcher(data);
    const Graph query = MakePaperQuery(PaperQuery::kQG3);
    MatchOptions bfs;
    bfs.order = OrderStrategy::kBfs;
    auto by_default = matcher.Match(query, MatchOptions{});
    auto by_bfs = matcher.Match(query, bfs);
    ASSERT_TRUE(by_default.ok());
    ASSERT_TRUE(by_bfs.ok());
    ASSERT_GT(by_bfs->embedding_count, 0u);
    EXPECT_EQ(by_default->embedding_count, by_bfs->embedding_count);
    EXPECT_LT(by_default->stats.enumeration.intersection_elements_in,
              by_bfs->stats.enumeration.intersection_elements_in);
  }
}

TEST(MatcherTest, IntersectionAblationAgrees) {
  Graph data = GenerateBarabasiAlbert(500, 4, 29);
  CeciMatcher matcher(data);
  MatchOptions with;
  MatchOptions without;
  without.nte_intersection = false;
  auto a = matcher.Match(MakePaperQuery(PaperQuery::kQG4), with);
  auto b = matcher.Match(MakePaperQuery(PaperQuery::kQG4), without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->embedding_count, b->embedding_count);
  EXPECT_GT(b->stats.enumeration.edge_verifications, 0u);
}

TEST(MatcherTest, AutomorphismTogglesScaleCounts) {
  Graph data = GenerateErdosRenyi(200, 1200, 31);
  CeciMatcher matcher(data);
  MatchOptions broken;
  MatchOptions unbroken;
  unbroken.break_automorphisms = false;
  auto a = matcher.Match(MakePaperQuery(PaperQuery::kQG1), broken);
  auto b = matcher.Match(MakePaperQuery(PaperQuery::kQG1), unbroken);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->embedding_count, a->embedding_count * 6);  // |Aut(K3)| = 6
}

TEST(MatcherTest, ConcurrentMatchCallsAreSafe) {
  Graph data = GenerateBarabasiAlbert(300, 3, 41);
  CeciMatcher matcher(data);
  auto expected = matcher.Count(MakePaperQuery(PaperQuery::kQG1));
  ASSERT_TRUE(expected.ok());
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> counts(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto c = matcher.Count(MakePaperQuery(PaperQuery::kQG1));
      counts[t] = c.ok() ? *c : 0;
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint64_t c : counts) EXPECT_EQ(c, *expected);
}

// Collects embeddings and the ids of the threads that emitted them.
struct LockedCollector {
  std::mutex mutex;
  std::set<std::vector<VertexId>> embeddings;
  std::set<std::thread::id> threads;
  EmbeddingVisitor visitor = [this](std::span<const VertexId> m) {
    std::lock_guard<std::mutex> lock(mutex);
    embeddings.emplace(m.begin(), m.end());
    threads.insert(std::this_thread::get_id());
    return true;
  };
};

// `threads` counts every thread a query runs on: without an external
// pool, Match makes threads - 1 helpers and the caller is worker 0 of the
// build and of enumeration. Static distribution hands worker 0 a fixed
// share of the roots, so the caller is sure to emit embeddings there.
TEST(MatcherThreadsTest, CallerIsOneOfTheWorkers) {
  const Graph data = GenerateErdosRenyi(300, 1800, 71);
  const Graph query = MakeUnlabeled(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  Vf2Options oracle_options;
  oracle_options.break_automorphisms = false;
  LockedCollector oracle;
  Vf2Count(data, query, oracle_options, &oracle.visitor);
  ASSERT_FALSE(oracle.embeddings.empty());

  CeciMatcher matcher(data);
  MatchOptions options;
  options.break_automorphisms = false;
  auto serial = matcher.Match(query, options);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->embedding_count, oracle.embeddings.size());

  const auto caller = std::this_thread::get_id();
  for (std::size_t threads : {2u, 3u}) {
    for (Distribution d : {Distribution::kStatic, Distribution::kCoarseDynamic,
                           Distribution::kFineDynamic}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " " +
                   DistributionName(d));
      options.threads = threads;
      options.distribution = d;
      auto count = matcher.Match(query, options);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(count->embedding_count, serial->embedding_count);
      LockedCollector seen;
      auto listed = matcher.Match(query, options, &seen.visitor);
      ASSERT_TRUE(listed.ok());
      EXPECT_EQ(seen.embeddings, oracle.embeddings);
      EXPECT_LE(seen.threads.size(), threads);
      if (d == Distribution::kStatic) {
        EXPECT_TRUE(seen.threads.count(caller));
      }
    }
    // Execute on its own, with no pool, spawns the helpers itself.
    SCOPED_TRACE("Execute, threads " + std::to_string(threads));
    options.distribution = Distribution::kStatic;
    auto prepared = matcher.Prepare(query, options);
    ASSERT_TRUE(prepared.ok());
    LockedCollector seen;
    const MatchResult listed =
        matcher.Execute(*prepared, options, &seen.visitor);
    EXPECT_EQ(listed.embedding_count, serial->embedding_count);
    EXPECT_EQ(seen.embeddings, oracle.embeddings);
    EXPECT_LE(seen.threads.size(), threads);
    EXPECT_TRUE(seen.threads.count(caller));
  }
}

// Without MatchOptions::pool the matcher keeps its helpers from call to
// call: twenty calls at two threads run on the caller and one kept helper.
TEST(MatcherThreadsTest, KeptHelpersServeEveryCall) {
  const Graph data = GenerateErdosRenyi(300, 1800, 71);
  const Graph query = MakeUnlabeled(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  CeciMatcher matcher(data);
  MatchOptions options;
  options.threads = 2;
  LockedCollector seen;
  std::size_t listed = 0;
  for (int call = 0; call < 20; ++call) {
    options.distribution = call % 2 == 0 ? Distribution::kCoarseDynamic
                                         : Distribution::kFineDynamic;
    auto result = matcher.Match(query, options, &seen.visitor);
    ASSERT_TRUE(result.ok());
    listed = result->embedding_count;
  }
  EXPECT_GT(listed, 0u);
  EXPECT_EQ(seen.embeddings.size(), listed);
  EXPECT_LE(seen.threads.size(), 2u);
}

// Kept helpers follow the call's thread count: calls at two threads
// after one at three run on at most two, the caller and one helper.
TEST(MatcherThreadsTest, FewerThreadsAfterMoreStayCapped) {
  const Graph data = GenerateErdosRenyi(300, 1800, 71);
  const Graph query = MakeUnlabeled(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  CeciMatcher matcher(data);
  MatchOptions options;
  options.distribution = Distribution::kStatic;
  options.threads = 3;
  LockedCollector wide;
  auto first = matcher.Match(query, options, &wide.visitor);
  ASSERT_TRUE(first.ok());
  EXPECT_LE(wide.threads.size(), 3u);
  options.threads = 2;
  LockedCollector narrow;
  for (int call = 0; call < 10; ++call) {
    auto result = matcher.Match(query, options, &narrow.visitor);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->embedding_count, first->embedding_count);
  }
  EXPECT_LE(narrow.threads.size(), 2u);
  EXPECT_TRUE(narrow.threads.count(std::this_thread::get_id()));
}

// Concurrent calls without a pool each run on helpers of their own (the
// kept ones when idle, else new ones that may replace them, as their
// thread counts differ); every count still equals the serial one.
TEST(MatcherThreadsTest, ConcurrentCallsWithoutAPoolCountSerially) {
  const Graph data = GenerateBarabasiAlbert(400, 4, 43);
  const Graph query = MakePaperQuery(PaperQuery::kQG3);
  CeciMatcher matcher(data);
  auto serial = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->embedding_count, 0u);
  std::vector<std::thread> callers;
  std::vector<std::uint64_t> counts(4 * 5, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      MatchOptions options;
      options.threads = 2 + t % 2;
      for (std::size_t i = 0; i < 5; ++i) {
        auto result = matcher.Match(query, options);
        counts[t * 5 + i] = result.ok() ? result->embedding_count : 0;
      }
    });
  }
  for (std::thread& c : callers) c.join();
  for (std::uint64_t c : counts) EXPECT_EQ(c, serial->embedding_count);
}

TEST(MatcherObservabilityTest, PhaseSecondsSumToTotal) {
  Graph data = GenerateBarabasiAlbert(500, 4, 7);
  CeciMatcher matcher(data);
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG3), MatchOptions{});
  ASSERT_TRUE(result.ok());
  const MatchStats& s = result->stats;
  const double phase_sum = s.preprocess_seconds + s.build_seconds +
                           s.refine_seconds + s.freeze_seconds +
                           s.plan_seconds + s.enumerate_seconds;
  // The phases partition the match: their sum accounts for nearly all of
  // total_seconds (slack covers stats assembly between phase timers).
  EXPECT_LE(phase_sum, s.total_seconds);
  EXPECT_GT(phase_sum, 0.5 * s.total_seconds);
}

TEST(MatcherObservabilityTest, FreezeOfAGeneratedQueryIsTimed) {
  Graph data = AssignRandomLabels(GenerateSocialGraph(3000, 8, 5), 3, 6);
  QueryGenOptions qopt;
  qopt.num_vertices = 5;
  qopt.seed = 7;
  const std::optional<Graph> query = GenerateQuery(data, qopt);
  ASSERT_TRUE(query.has_value());
  CeciMatcher matcher(data);
  auto result = matcher.Match(*query, MatchOptions{});
  ASSERT_TRUE(result.ok());
  const MatchStats& s = result->stats;
  ASSERT_GT(s.flat_bytes, 0u);
  EXPECT_GT(s.freeze_seconds, 0.0);
  EXPECT_LE(s.preprocess_seconds + s.build_seconds + s.refine_seconds +
                s.freeze_seconds + s.plan_seconds + s.enumerate_seconds,
            s.total_seconds);
}

TEST(MatcherObservabilityTest, MetricsReportJsonRoundTrips) {
  Graph data = GenerateBarabasiAlbert(500, 4, 7);
  CeciMatcher matcher(data);
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG3), MatchOptions{});
  ASSERT_TRUE(result.ok());

  const std::string json = MetricsReportJson(*result);
  auto parsed = ceci::testing::ParseJson(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  const auto& root = *parsed;
  EXPECT_EQ(root.Num("schema_version"), kMetricsSchemaVersion);
  EXPECT_EQ(root.Num("embeddings"),
            static_cast<double>(result->embedding_count));

  // The per-query stats section mirrors MatchStats exactly.
  const auto& stats = root.At("stats");
  const auto& phases = stats.At("phases");
  EXPECT_DOUBLE_EQ(phases.Num("total_seconds"), result->stats.total_seconds);
  EXPECT_DOUBLE_EQ(phases.Num("freeze_seconds"),
                   result->stats.freeze_seconds);
  EXPECT_DOUBLE_EQ(phases.Num("plan_seconds"), result->stats.plan_seconds);
  const auto& symmetry = stats.At("symmetry");
  EXPECT_EQ(symmetry.At("mirrored").boolean,
            result->stats.restrictions_mirrored);
  EXPECT_EQ(symmetry.Num("estimate_min"),
            static_cast<double>(result->stats.restriction_estimate.min_set));
  EXPECT_EQ(symmetry.Num("estimate_max"),
            static_cast<double>(result->stats.restriction_estimate.max_set));
  EXPECT_GT(symmetry.Num("estimate_min"), 0.0);  // QG3 has automorphisms
  EXPECT_EQ(stats.At("enumeration").Num("recursive_calls"),
            static_cast<double>(result->stats.enumeration.recursive_calls));
  EXPECT_EQ(stats.At("clusters").Num("embedding_clusters"),
            static_cast<double>(result->stats.embedding_clusters));

  // The registry join carries the process-cumulative counters, which by now
  // include at least this query's contribution.
  const auto& counters = root.At("registry").At("counters");
  EXPECT_GE(counters.Num("ceci.match.queries"), 1.0);
  EXPECT_GE(counters.Num("ceci.enumerate.recursive_calls"),
            static_cast<double>(result->stats.enumeration.recursive_calls));
  EXPECT_GE(counters.Num("ceci.enumerate.intersection_elements_in"),
            counters.Num("ceci.enumerate.intersection_elements_out"));
}

TEST(MatcherObservabilityTest, RegistryAccumulatesAcrossQueries) {
  Graph data = GenerateBarabasiAlbert(400, 4, 9);
  CeciMatcher matcher(data);
  Counter& queries =
      MetricsRegistry::Global().GetCounter("ceci.match.queries");
  const std::uint64_t before = queries.Value();
  ASSERT_TRUE(matcher.Count(MakePaperQuery(PaperQuery::kQG1)).ok());
  ASSERT_TRUE(matcher.Count(MakePaperQuery(PaperQuery::kQG2)).ok());
  EXPECT_EQ(queries.Value(), before + 2);
}

}  // namespace
}  // namespace ceci
