// Tests for the counting fast path (leaf shortcut) and count-oriented
// matcher behaviour.
#include <gtest/gtest.h>

#include "baselines/vf2.h"
#include "ceci/matcher.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "test_support.h"

namespace ceci {
namespace {

TEST(LeafShortcutTest, AgreesOnPaperExample) {
  Graph data = testing::PaperExample::Data();
  Graph query = testing::PaperExample::Query();
  CeciMatcher matcher(data);
  MatchOptions plain;
  plain.leaf_count_shortcut = false;
  MatchOptions fast;
  fast.leaf_count_shortcut = true;
  auto a = matcher.Match(query, plain);
  auto b = matcher.Match(query, fast);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->embedding_count, b->embedding_count);
}

class LeafShortcutSweep : public ::testing::TestWithParam<int> {};

TEST_P(LeafShortcutSweep, CountsMatchAcrossWorkloads) {
  const int seed = GetParam();
  Graph data = AssignRandomLabels(
      GenerateSocialGraph(400 + 50 * (seed % 4), 8, seed), 1 + seed % 5,
      seed + 1);
  QueryGenOptions qopt;
  qopt.num_vertices = 3 + seed % 4;
  qopt.seed = seed * 3 + 1;
  auto query = GenerateQuery(data, qopt);
  ASSERT_TRUE(query.has_value());
  CeciMatcher matcher(data);
  MatchOptions plain;
  plain.leaf_count_shortcut = false;
  MatchOptions fast;
  fast.leaf_count_shortcut = true;
  fast.threads = 2;
  auto a = matcher.Match(*query, plain);
  auto b = matcher.Match(*query, fast);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->embedding_count, b->embedding_count);
  // The shortcut strictly reduces the search-tree node count whenever
  // anything was found.
  if (a->embedding_count > 0) {
    EXPECT_LT(b->stats.enumeration.recursive_calls,
              a->stats.enumeration.recursive_calls);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafShortcutSweep, ::testing::Range(0, 12));

TEST(LeafShortcutTest, RespectsLimit) {
  Graph data = GenerateSocialGraph(600, 10, 5);
  CeciMatcher matcher(data);
  MatchOptions options;
  options.leaf_count_shortcut = true;
  options.limit = 37;
  options.threads = 4;
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 37u);
}

TEST(LeafShortcutTest, LimitLargerThanCountReturnsAll) {
  Graph data = testing::PaperExample::Data();
  CeciMatcher matcher(data);
  MatchOptions options;
  options.leaf_count_shortcut = true;
  options.limit = 1000000;
  auto result = matcher.Match(testing::PaperExample::Query(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 2u);
}

TEST(LeafShortcutTest, IgnoredWhenVisitorPresent) {
  // A visitor needs every mapping, so the facade must disable the shortcut.
  Graph data = GenerateSocialGraph(300, 8, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  CeciMatcher matcher(data);
  MatchOptions options;
  options.leaf_count_shortcut = true;
  std::uint64_t visited = 0;
  EmbeddingVisitor visitor = [&](std::span<const VertexId>) {
    ++visited;
    return true;
  };
  auto result = matcher.Match(query, options, &visitor);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(visited, result->embedding_count);
  EXPECT_GT(visited, 0u);
}

TEST(LeafShortcutTest, MatchesOracleOnDenseGraph) {
  Graph data = GenerateErdosRenyi(150, 2000, 9);
  Graph query = MakePaperQuery(PaperQuery::kQG4);
  Vf2Result oracle = Vf2Count(data, query, Vf2Options{});
  CeciMatcher matcher(data);
  MatchOptions options;
  options.leaf_count_shortcut = true;
  auto result = matcher.Match(query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, oracle.embeddings);
}

// QG2, QG3 and QG5 close a cycle at their last vertex: a matched vertex
// adjacent to both of the leaf's matched neighbours lies in the leaf's
// intersection, and the count must leave it out. With and without
// symmetry breaking, on a sparse graph (rank-array entries) and a dense one
// (bitmap entries).
TEST(LeafShortcutTest, MatchedVertexInsideTheLeafIntersection) {
  const Graph sparse = GenerateSocialGraph(500, 8, 11);
  const Graph dense = GenerateErdosRenyi(150, 2000, 12);
  for (const Graph* data : {&sparse, &dense}) {
    CeciMatcher matcher(*data);
    for (PaperQuery pq :
         {PaperQuery::kQG2, PaperQuery::kQG3, PaperQuery::kQG5}) {
      const Graph query = MakePaperQuery(pq);
      for (bool symmetry : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << (data == &sparse ? "sparse " : "dense ")
                     << PaperQueryName(pq) << (symmetry ? " sym" : " nosym"));
        MatchOptions plain;
        plain.break_automorphisms = symmetry;
        plain.leaf_count_shortcut = false;
        MatchOptions fast = plain;
        fast.leaf_count_shortcut = true;
        auto a = matcher.Match(query, plain);
        auto b = matcher.Match(query, fast);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_GT(a->embedding_count, 0u);
        EXPECT_EQ(b->embedding_count, a->embedding_count);
        EXPECT_LT(b->stats.enumeration.recursive_calls,
                  a->stats.enumeration.recursive_calls);
        EXPECT_GT(data == &sparse ? b->stats.flat_array_entries
                                  : b->stats.flat_bitmap_entries,
                  0u);
      }
    }
  }
}

TEST(LeafShortcutTest, SingleVertexQuery) {
  Graph data = testing::MakeGraph({3, 3, 5}, {{0, 1}, {1, 2}});
  Graph query = testing::MakeGraph({3}, {});
  CeciMatcher matcher(data);
  MatchOptions options;
  options.leaf_count_shortcut = true;
  auto result = matcher.Match(query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 2u);
}

}  // namespace
}  // namespace ceci
