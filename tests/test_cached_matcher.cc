// Tests for the memoizing multi-query session.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>

#include "analysis/invariant_auditor.h"
#include "baselines/quicksi.h"
#include "ceci/cached_matcher.h"
#include "ceci/index_io.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "graphio/pattern_parser.h"
#include "test_support.h"
#include "util/metrics_registry.h"

namespace ceci {
namespace {

TEST(CachedMatcherTest, SecondMatchHitsCache) {
  Graph data = GenerateSocialGraph(400, 8, 1);
  CachedMatcher matcher(data);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  auto a = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(matcher.cache_misses(), 1u);
  EXPECT_EQ(matcher.cache_hits(), 0u);
  auto b = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(matcher.cache_hits(), 1u);
  EXPECT_EQ(b->embedding_count, a->embedding_count);
}

TEST(CachedMatcherTest, HitReportsOnlyItsOwnEnumeration) {
  Graph data = GenerateSocialGraph(400, 8, 1);
  CachedMatcher matcher(data);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  auto miss = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(miss.ok());
  const MatchStats& m = miss->stats;
  EXPECT_FALSE(m.index_cache_hit);
  EXPECT_GT(m.build_seconds, 0.0);
  EXPECT_GT(m.freeze_seconds, 0.0);
  EXPECT_DOUBLE_EQ(m.total_seconds,
                   m.preprocess_seconds + m.build_seconds +
                       m.refine_seconds + m.freeze_seconds +
                       m.plan_seconds + m.enumerate_seconds);

  auto hit = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(hit.ok());
  const MatchStats& h = hit->stats;
  EXPECT_TRUE(h.index_cache_hit);
  EXPECT_EQ(h.preprocess_seconds, 0.0);
  EXPECT_EQ(h.build_seconds, 0.0);
  EXPECT_EQ(h.refine_seconds, 0.0);
  EXPECT_EQ(h.freeze_seconds, 0.0);
  EXPECT_EQ(h.plan_seconds, 0.0);
  EXPECT_EQ(h.total_seconds, h.enumerate_seconds);
  // The entry's index-size accounting is still reported on a hit.
  EXPECT_EQ(h.flat_bytes, m.flat_bytes);
  EXPECT_EQ(h.candidate_edges, m.candidate_edges);
  EXPECT_EQ(hit->embedding_count, miss->embedding_count);
}

TEST(CachedMatcherTest, AgreesWithUncachedMatcher) {
  Graph data =
      AssignRandomLabels(GenerateSocialGraph(500, 8, 2), 4, 3);
  auto query = ParsePattern("(a:0)-(b:1)-(c:2); (a)-(c)");
  ASSERT_TRUE(query.ok());
  CeciMatcher plain(data);
  CachedMatcher cached(data);
  auto expected = plain.Count(*query);
  ASSERT_TRUE(expected.ok());
  for (int round = 0; round < 3; ++round) {
    auto got = cached.Count(*query);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *expected);
  }
}

TEST(CachedMatcherTest, StructurallyEqualQueriesShareEntries) {
  Graph data = GenerateSocialGraph(300, 8, 4);
  CachedMatcher matcher(data);
  // Two separately-built but identical triangles.
  Graph q1 = MakePaperQuery(PaperQuery::kQG1);
  Graph q2 = testing::MakeUnlabeled(3, {{0, 1}, {1, 2}, {0, 2}});
  ASSERT_TRUE(matcher.Match(q1, MatchOptions{}).ok());
  ASSERT_TRUE(matcher.Match(q2, MatchOptions{}).ok());
  EXPECT_EQ(matcher.cache_entries(), 1u);
  EXPECT_EQ(matcher.cache_hits(), 1u);
}

TEST(CachedMatcherTest, OptionsThatChangeTheIndexSplitEntries) {
  Graph data = AssignRandomLabels(GenerateSocialGraph(300, 8, 5), 3, 6);
  CachedMatcher matcher(data);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  MatchOptions bfs;
  bfs.order = OrderStrategy::kBfs;
  MatchOptions ranked;
  ranked.order = OrderStrategy::kEdgeRanked;
  MatchOptions no_sym;
  no_sym.break_automorphisms = false;
  ASSERT_TRUE(matcher.Match(query, bfs).ok());
  ASSERT_TRUE(matcher.Match(query, ranked).ok());
  ASSERT_TRUE(matcher.Match(query, no_sym).ok());
  EXPECT_EQ(matcher.cache_entries(), 3u);
}

TEST(CachedMatcherTest, RuntimeOnlyOptionsShareEntries) {
  Graph data = GenerateSocialGraph(300, 8, 7);
  CachedMatcher matcher(data);
  Graph query = MakePaperQuery(PaperQuery::kQG2);
  MatchOptions one;
  MatchOptions other;
  other.threads = 4;
  other.limit = 10;
  other.nte_intersection = false;
  auto a = matcher.Match(query, one);
  auto b = matcher.Match(query, other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(matcher.cache_entries(), 1u);
  EXPECT_EQ(b->embedding_count, 10u);
}

TEST(CachedMatcherTest, InfeasibleQueryCachedAsZero) {
  Graph data = testing::MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  Graph query = testing::MakeGraph({7, 7, 7}, {{0, 1}, {1, 2}, {0, 2}});
  CachedMatcher matcher(data);
  for (int i = 0; i < 2; ++i) {
    auto result = matcher.Match(query, MatchOptions{});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->embedding_count, 0u);
  }
  EXPECT_EQ(matcher.cache_misses(), 1u);
}

// Every request, hit or miss, is one answered query in the registry; only
// a miss builds an index, and both enumerate.
TEST(CachedMatcherTest, HitsAndMissesExportMatchMetrics) {
  Graph data = GenerateSocialGraph(400, 8, 1);
  CachedMatcher matcher(data);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& queries = reg.GetCounter("ceci.match.queries");
  Counter& scanned = reg.GetCounter("ceci.build.neighbors_scanned");
  Counter& frontier = reg.GetCounter("ceci.build.frontier_expansions");
  Counter& calls = reg.GetCounter("ceci.enumerate.recursive_calls");
  Counter& elements_in =
      reg.GetCounter("ceci.enumerate.intersection_elements_in");
  for (bool hit : {false, true}) {
    SCOPED_TRACE(hit ? "hit" : "miss");
    const std::uint64_t queries0 = queries.Value();
    const std::uint64_t scanned0 = scanned.Value();
    const std::uint64_t frontier0 = frontier.Value();
    const std::uint64_t calls0 = calls.Value();
    const std::uint64_t elements_in0 = elements_in.Value();
    auto result = matcher.Match(query, MatchOptions{});
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->stats.index_cache_hit, hit);
    const EnumStats& e = result->stats.enumeration;
    ASSERT_GT(e.recursive_calls, 0u);
    ASSERT_GT(e.intersection_elements_in, 0u);
    EXPECT_EQ(queries.Value() - queries0, 1u);
    EXPECT_EQ(calls.Value() - calls0, e.recursive_calls);
    EXPECT_EQ(elements_in.Value() - elements_in0, e.intersection_elements_in);
    const BuildStats& b = result->stats.build;
    ASSERT_GT(b.neighbors_scanned, 0u);
    EXPECT_EQ(scanned.Value() - scanned0, hit ? 0u : b.neighbors_scanned);
    EXPECT_EQ(frontier.Value() - frontier0,
              hit ? 0u : b.frontier_expansions);
  }
}

// The profile of a cached request describes the entry's frozen arena,
// whether this request built it or not.
TEST(CachedMatcherTest, ProfileOnMissAndHitPassesTheAudit) {
  Graph data = GenerateSocialGraph(500, 8, 2);
  Graph query = MakePaperQuery(PaperQuery::kQG2);
  CeciMatcher reference(data);
  auto prepared = reference.Prepare(query, MatchOptions{});
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->complete());
  ASSERT_FALSE(prepared->infeasible);

  CachedMatcher matcher(data);
  MatchOptions options;
  options.profile = true;
  for (bool hit : {false, true}) {
    SCOPED_TRACE(hit ? "hit" : "miss");
    auto result = matcher.Match(query, options);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->stats.index_cache_hit, hit);
    ASSERT_TRUE(result->profile.has_value());
    const QueryProfile& profile = *result->profile;
    AuditReport report;
    AuditQueryProfile(prepared->tree, prepared->flat, profile, &report);
    EXPECT_TRUE(report.ok()) << report.ToString();
    // The build counts survive the cache: the root's filtered count is
    // never below its refined count.
    ASSERT_FALSE(profile.vertices.empty());
    EXPECT_GE(profile.vertices[0].candidates_filtered,
              profile.vertices[0].candidates_refined);
    EXPECT_GT(profile.vertices[0].candidates_refined, 0u);
  }
}

TEST(CachedMatcherTest, ClearCacheForcesRebuild) {
  Graph data = GenerateSocialGraph(200, 6, 8);
  CachedMatcher matcher(data);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  ASSERT_TRUE(matcher.Match(query, MatchOptions{}).ok());
  matcher.ClearCache();
  EXPECT_EQ(matcher.cache_entries(), 0u);
  ASSERT_TRUE(matcher.Match(query, MatchOptions{}).ok());
  EXPECT_EQ(matcher.cache_misses(), 2u);
}

TEST(CachedMatcherTest, PrebuiltEntryReportsTheSameCeciBytes) {
  // EXPLAIN's index_bytes is MatchStats::ceci_bytes: an entry installed
  // from a CEIX image reports what a fresh Prepare of its pattern does.
  Graph data = AssignRandomLabels(GenerateSocialGraph(500, 8, 2), 4, 3);
  const char* kPattern = "(a:0)-(b:1)-(c:2); (a)-(c)";
  auto query = ParsePattern(kPattern);
  ASSERT_TRUE(query.ok());
  auto prepared = CeciMatcher(data).Prepare(*query, MatchOptions{});
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->complete());
  ASSERT_FALSE(prepared->infeasible);
  ASSERT_GT(prepared->stats.ceci_bytes, 0u);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ceci_prebuilt_bytes_" + std::to_string(::getpid()) + ".ceix"))
          .string();
  ASSERT_TRUE(WriteFlatIndex(prepared->flat, prepared->tree,
                             prepared->symmetry, kPattern, path)
                  .ok());

  CachedMatcher matcher(data);
  ASSERT_TRUE(matcher.InstallPrebuilt(path).ok());
  auto hit = matcher.Match(*query, MatchOptions{});
  std::filesystem::remove(path);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->stats.index_cache_hit);
  EXPECT_EQ(hit->stats.ceci_bytes, prepared->stats.ceci_bytes);
  EXPECT_EQ(hit->stats.flat_bytes, prepared->stats.flat_bytes);
  EXPECT_EQ(hit->stats.candidate_edges, prepared->stats.candidate_edges);
}

TEST(CachedMatcherTest, ConcurrentMatchesAreConsistent) {
  Graph data = GenerateSocialGraph(400, 8, 9);
  CachedMatcher matcher(data);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  QuickSiResult oracle = QuickSiCount(data, query, QuickSiOptions{});
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> counts(6, 0);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      auto c = matcher.Count(query);
      counts[t] = c.ok() ? *c : 0;
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint64_t c : counts) EXPECT_EQ(c, oracle.embeddings);
}

// TSan regression (tier-1 `--serving` runs this suite under the tsan
// preset): cache_hits()/cache_misses() used to read the mutex-guarded
// tallies without the lock, racing the increments inside Match(). Readers
// polling the stats while matches run must stay race-free.
TEST(CachedMatcherTest, StatReadersDoNotRaceMatchers) {
  Graph data = GenerateSocialGraph(200, 6, 8);
  CachedMatcher matcher(data);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(matcher.Match(query, MatchOptions{}).ok());
      }
    });
  }
  std::uint64_t observed_hits = 0;
  std::uint64_t observed_misses = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      observed_hits = matcher.cache_hits();
      observed_misses = matcher.cache_misses();
      (void)matcher.cache_entries();
    }
  });
  for (int t = 0; t < 4; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(matcher.cache_hits() + matcher.cache_misses(), 32u);
  EXPECT_GE(matcher.cache_misses(), 1u);
  EXPECT_LE(observed_hits + observed_misses, 32u);
}

TEST(CachedMatcherTest, QueryKeyDistinguishesLabelsAndEdges) {
  MatchOptions options;
  Graph a = testing::MakeGraph({0, 1}, {{0, 1}});
  Graph b = testing::MakeGraph({0, 2}, {{0, 1}});
  Graph c = testing::MakeUnlabeled(3, {{0, 1}, {1, 2}});
  Graph d = testing::MakeUnlabeled(3, {{0, 1}, {0, 2}});
  EXPECT_NE(CachedMatcher::QueryKey(a, options),
            CachedMatcher::QueryKey(b, options));
  EXPECT_NE(CachedMatcher::QueryKey(c, options),
            CachedMatcher::QueryKey(d, options));
}

}  // namespace
}  // namespace ceci
