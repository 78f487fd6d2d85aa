// Tests for the memoizing multi-query session.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "baselines/quicksi.h"
#include "ceci/cached_matcher.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "graphio/pattern_parser.h"
#include "test_support.h"

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
                       m.enumerate_seconds);

  auto hit = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(hit.ok());
  const MatchStats& h = hit->stats;
  EXPECT_TRUE(h.index_cache_hit);
  EXPECT_EQ(h.preprocess_seconds, 0.0);
  EXPECT_EQ(h.build_seconds, 0.0);
  EXPECT_EQ(h.refine_seconds, 0.0);
  EXPECT_EQ(h.freeze_seconds, 0.0);
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

TEST(CachedMatcherTest, CachedEntriesCarryNoFilterTable) {
  // Preprocess's nq x |V| verdict table feeds one build; an entry that
  // kept it would hold it for the life of the cache.
  Graph data = GenerateSocialGraph(400, 8, 1);
  CachedMatcher matcher(data);
  MatchOptions pointer_layout;
  pointer_layout.flat_index = false;
  ASSERT_TRUE(matcher.Match(MakePaperQuery(PaperQuery::kQG1), {}).ok());
  ASSERT_TRUE(
      matcher.Match(MakePaperQuery(PaperQuery::kQG2), pointer_layout).ok());
  Graph infeasible = testing::MakeGraph({7, 7, 7}, {{0, 1}, {1, 2}, {0, 2}});
  ASSERT_TRUE(matcher.Match(infeasible, {}).ok());
  EXPECT_EQ(matcher.cache_entries(), 3u);
  EXPECT_EQ(matcher.cached_filter_bytes(), 0u);
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
