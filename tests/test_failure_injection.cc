// Failure-injection and robustness tests: malformed inputs, hostile
// visitors, degenerate graphs, and resource-pressure paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "baselines/psgl.h"
#include "ceci/ceci_builder.h"
#include "ceci/matcher.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "graphio/edge_list.h"
#include "graphio/pattern_parser.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeGraph;
using ::ceci::testing::MakeUnlabeled;

TEST(FailureInjectionTest, MalformedEdgeListsNeverCrash) {
  const char* inputs[] = {
      "",                 // empty
      "\n\n\n",           // blank lines only
      "# only comments",
      "1",                // one token
      "1 2 3",            // three tokens
      "x y",              // non-numeric
      "4294967295 0",     // max u32 vertex id
      "1 2\ngarbage",
      "1 -2",             // negative
  };
  for (const char* text : inputs) {
    auto g = ParseEdgeList(text);  // must return a Status, never crash
    (void)g;
  }
}

TEST(FailureInjectionTest, HostilePatternsNeverCrash) {
  const char* patterns[] = {
      "((((",
      "(a:99999999999999999999)-(b)",  // overflowing label digits
      "(a)-(b)-",
      "(a)-(b);;;(c)-(d)",
      ")(",
      "(a:1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16)-(b)",
      "(verylongname_______________________________x)-(b)",
  };
  for (const char* p : patterns) {
    auto q = ParsePattern(p);  // must return a Status, never crash/throw
    (void)q;
  }
}

TEST(FailureInjectionTest, VisitorThatAlwaysStops) {
  Graph data = GenerateSocialGraph(300, 8, 1);
  CeciMatcher matcher(data);
  EmbeddingVisitor stop_immediately = [](std::span<const VertexId>) {
    return false;
  };
  MatchOptions options;
  options.threads = 4;
  auto result =
      matcher.Match(MakePaperQuery(PaperQuery::kQG1), options,
                    &stop_immediately);
  ASSERT_TRUE(result.ok());
  // Each worker stops after its first emission at most.
  EXPECT_LE(result->embedding_count, 4u);
}

TEST(FailureInjectionTest, VisitorStopsAtExactThreshold) {
  Graph data = GenerateSocialGraph(300, 8, 2);
  CeciMatcher matcher(data);
  std::atomic<int> seen{0};
  EmbeddingVisitor visitor = [&](std::span<const VertexId>) {
    return seen.fetch_add(1) + 1 < 25;
  };
  auto result =
      matcher.Match(MakePaperQuery(PaperQuery::kQG1), MatchOptions{},
                    &visitor);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 25u);
}

TEST(FailureInjectionTest, LimitOfOne) {
  Graph data = GenerateSocialGraph(300, 8, 3);
  CeciMatcher matcher(data);
  MatchOptions options;
  options.limit = 1;
  options.threads = 8;
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 1u);
}

TEST(FailureInjectionTest, QueryLargerThanData) {
  Graph data = MakeUnlabeled(3, {{0, 1}, {1, 2}, {0, 2}});
  Graph query = MakePaperQuery(PaperQuery::kQG4);  // needs 4 vertices
  CeciMatcher matcher(data);
  auto result = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 0u);
}

TEST(FailureInjectionTest, QueryEqualsData) {
  Graph g = MakePaperQuery(PaperQuery::kQG5);
  CeciMatcher matcher(g);
  auto result = matcher.Match(g, MatchOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 1u);  // itself, automorphisms broken
}

TEST(FailureInjectionTest, DataWithIsolatedVertices) {
  GraphBuilder builder;
  builder.ReserveVertices(100);  // 90 isolated vertices
  for (VertexId v = 0; v + 1 < 10; ++v) builder.AddEdge(v, v + 1);
  builder.AddEdge(0, 2);
  auto data = builder.Build();
  ASSERT_TRUE(data.ok());
  CeciMatcher matcher(*data);
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG1),
                              MatchOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 1u);  // {0,1,2}
}

TEST(FailureInjectionTest, StarDataStarQuery) {
  // Degenerate high-symmetry case: star query on star data. One
  // embedding once symmetry is broken (leaves interchangeable).
  Graph data = MakeUnlabeled(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  Graph query = MakeUnlabeled(4, {{0, 1}, {0, 2}, {0, 3}});
  CeciMatcher matcher(data);
  auto result = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(result.ok());
  // Choose 3 of 5 leaves, order fixed: C(5,3) = 10.
  EXPECT_EQ(result->embedding_count, 10u);
}

TEST(FailureInjectionTest, PsglOverflowIsCleanAndReported) {
  Graph data = GenerateSocialGraph(2000, 10, 4);
  PsglOptions options;
  options.max_intermediate = 64;  // absurdly small
  PsglResult result =
      PsglCount(data, MakePaperQuery(PaperQuery::kQG5), options);
  EXPECT_TRUE(result.overflowed);
  EXPECT_EQ(result.embeddings, 0u);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(FailureInjectionTest, ManyThreadsOnTinyWorkload) {
  // More workers than clusters must not deadlock or double-count.
  Graph data = testing::PaperExample::Data();
  CeciMatcher matcher(data);
  MatchOptions options;
  options.threads = 32;
  options.distribution = Distribution::kFineDynamic;
  auto result = matcher.Match(testing::PaperExample::Query(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 2u);
}

TEST(FailureInjectionTest, RepeatedMatchesDoNotLeakState) {
  Graph data = GenerateSocialGraph(200, 6, 5);
  CeciMatcher matcher(data);
  Graph query = MakePaperQuery(PaperQuery::kQG2);
  auto first = matcher.Count(query);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 10; ++i) {
    auto again = matcher.Count(query);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *first);
  }
}

// --- Execution budget: deadlines, memory caps, cancellation tokens ---

TEST(ExecutionBudgetTest, CompletedRunIsLabelledAndPartitioned) {
  Graph data = GenerateSocialGraph(300, 8, 7);
  CeciMatcher matcher(data);
  MatchOptions options;
  options.threads = 4;
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kCompleted);
  EXPECT_FALSE(result->stats.budget.active);  // no caps set, zero overhead
  ASSERT_EQ(result->stats.worker_embeddings.size(), 4u);
  std::uint64_t sum = 0;
  for (std::uint64_t e : result->stats.worker_embeddings) sum += e;
  EXPECT_EQ(sum, result->embedding_count);
}

TEST(ExecutionBudgetTest, LimitIsReportedAsLimitTermination) {
  Graph data = GenerateSocialGraph(300, 8, 7);
  CeciMatcher matcher(data);
  MatchOptions options;
  options.limit = 1;
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 1u);
  EXPECT_EQ(result->termination, TerminationReason::kLimit);
}

TEST(ExecutionBudgetTest, AbortingVisitorIsReportedAsCancelled) {
  Graph data = GenerateSocialGraph(300, 8, 7);
  CeciMatcher matcher(data);
  EmbeddingVisitor stop = [](std::span<const VertexId>) { return false; };
  auto result =
      matcher.Match(MakePaperQuery(PaperQuery::kQG1), MatchOptions{}, &stop);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kCancelled);
  EXPECT_TRUE(result->stats.budget.cancelled);
}

TEST(ExecutionBudgetTest, ExpiredDeadlineStopsBeforeAnyIndexWork) {
  Graph data = GenerateSocialGraph(300, 8, 7);
  CeciMatcher matcher(data);
  MatchOptions options;
  options.budget.deadline_seconds = 1e-9;  // expired by the first poll
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kDeadline);
  EXPECT_EQ(result->embedding_count, 0u);
  EXPECT_EQ(result->stats.ceci_bytes_unrefined, 0u);  // build never ran
  EXPECT_TRUE(result->stats.budget.deadline_exceeded);
  EXPECT_GT(result->stats.budget.polls, 0u);
}

TEST(ExecutionBudgetTest, DeadlineTripsDuringRefinement) {
  Graph data = GenerateSocialGraph(300, 8, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  NlcIndex nlc(data);
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{});
  ASSERT_TRUE(pre.ok());
  ASSERT_FALSE(pre->infeasible);
  ExecutionBudget budget;
  budget.deadline_seconds = 0.05;
  budget.check_stride = 1;
  BudgetTracker tracker(budget);
  BuildOptions build;
  build.budget = &tracker;
  build.filter_table = &pre->filter;
  build.root_candidates = &pre->root_candidates;
  CeciIndex index =
      CeciBuilder(data, nlc).Build(query, pre->tree, build, nullptr);
  ASSERT_FALSE(tracker.Exhausted());  // the build completed
  ASSERT_GT(index.TotalCandidateEdges(), 0u);
  // Burn the deadline between build and refinement: the trip lands in
  // RefineCeci's first poll, before any vertex is refined.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  RefineStats stats;
  RefineCeci(pre->tree, data.num_vertices(), &index, &stats, nullptr,
             &tracker);
  EXPECT_EQ(tracker.reason(), TerminationReason::kDeadline);
  EXPECT_EQ(stats.pruned_candidates, 0u);
  EXPECT_EQ(stats.total_cardinality, 0u);
  EXPECT_TRUE(index.at(pre->tree.root()).cardinalities.empty());
}

TEST(ExecutionBudgetTest, DeadlineTripsDuringEnumeration) {
  Graph data = GenerateSocialGraph(300, 8, 7);
  CeciMatcher matcher(data);
  MatchOptions options;
  options.budget.deadline_seconds = 0.05;
  options.budget.check_stride = 1;
  // Burn the deadline at the first embedding: build and refine complete,
  // the trip lands in the enumeration phase.
  bool slept = false;
  EmbeddingVisitor stall = [&](std::span<const VertexId>) {
    if (!slept) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    slept = true;
    return true;
  };
  auto result =
      matcher.Match(MakePaperQuery(PaperQuery::kQG1), options, &stall);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kDeadline);
  EXPECT_GT(result->stats.refine_seconds, 0.0);
  EXPECT_TRUE(slept);
  // The enumeration saw at most a stride's worth of work before stopping.
  const std::uint64_t unbounded =
      matcher.Count(MakePaperQuery(PaperQuery::kQG1)).value();
  EXPECT_LT(result->embedding_count, unbounded);
}

TEST(ExecutionBudgetTest, FilterTableCountsAgainstTheMemoryBudget) {
  // 100k data vertices, ten labeled pairs: the index of (a:1)-(b:2) and
  // the enumeration state take a few KB, Preprocess's filter table one
  // byte per (query vertex, data vertex) = 200 KB.
  constexpr VertexId kVertices = 100000;
  std::vector<Label> labels(kVertices, 0);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i < 10; ++i) {
    labels[i] = 1;
    labels[10 + i] = 2;
    edges.push_back({i, 10 + i});
  }
  Graph data = MakeGraph(labels, edges);
  Graph query = MakeGraph({1, 2}, {{0, 1}});
  CeciMatcher matcher(data);
  MatchOptions options;
  options.budget.memory_budget_bytes = 64 << 10;
  auto result = matcher.Match(query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kMemoryBudget);
  EXPECT_TRUE(result->stats.budget.memory_exceeded);
  EXPECT_EQ(result->stats.budget.charged_bytes, 2u * kVertices);
  EXPECT_EQ(result->stats.build_seconds, 0.0);  // no build ran
  EXPECT_EQ(result->stats.ceci_bytes_unrefined, 0u);
  EXPECT_EQ(result->embedding_count, 0u);

  // With room for the table the same query completes, and the table is
  // the first charge.
  options.budget.memory_budget_bytes = 256 << 10;
  result = matcher.Match(query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kCompleted);
  EXPECT_EQ(result->embedding_count, 10u);
  EXPECT_GT(result->stats.budget.charged_bytes, 2u * kVertices);
}

TEST(ExecutionBudgetTest, MemoryBudgetOfOneByteTripsInBuild) {
  Graph data = GenerateSocialGraph(300, 8, 7);
  CeciMatcher matcher(data);
  MatchOptions options;
  options.budget.memory_budget_bytes = 1;
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kMemoryBudget);
  EXPECT_EQ(result->embedding_count, 0u);
  EXPECT_TRUE(result->stats.budget.memory_exceeded);
  EXPECT_GT(result->stats.budget.charged_bytes, 1u);
}

TEST(ExecutionBudgetTest, GenerousBudgetCompletesAndAccountsBytes) {
  Graph data = GenerateSocialGraph(300, 8, 7);
  CeciMatcher matcher(data);
  const std::uint64_t unbounded =
      matcher.Count(MakePaperQuery(PaperQuery::kQG1)).value();
  MatchOptions options;
  options.threads = 2;
  options.budget.memory_budget_bytes = 256u << 20;  // far above any need
  options.budget.deadline_seconds = 300.0;
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kCompleted);
  EXPECT_EQ(result->embedding_count, unbounded);
  EXPECT_TRUE(result->stats.budget.active);
  // The charge covers at least the built index.
  EXPECT_GE(result->stats.budget.charged_bytes,
            result->stats.ceci_bytes_unrefined);
}

TEST(ExecutionBudgetTest, PreCancelledTokenStopsImmediately) {
  Graph data = GenerateSocialGraph(300, 8, 7);
  CeciMatcher matcher(data);
  CancellationToken token;
  token.RequestCancel();
  MatchOptions options;
  options.budget.token = &token;
  auto result = matcher.Match(MakePaperQuery(PaperQuery::kQG1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kCancelled);
  EXPECT_EQ(result->embedding_count, 0u);
  EXPECT_TRUE(result->stats.budget.cancelled);
}

TEST(ExecutionBudgetTest, MidEnumerationCancellationRaceIsClean) {
  // Multithreaded cancellation: a visitor requests cancel mid-stream
  // while 4 workers poll the shared token. Must be TSAN-clean and stop
  // without enumerating everything.
  Graph data = GenerateSocialGraph(300, 8, 7);
  CeciMatcher matcher(data);
  const std::uint64_t total =
      matcher.Count(MakePaperQuery(PaperQuery::kQG1)).value();
  ASSERT_GT(total, 20u);  // enough headroom for a mid-stream cancel

  CancellationToken token;
  std::atomic<std::uint64_t> seen{0};
  const std::uint64_t cancel_at = total / 2;
  EmbeddingVisitor visitor = [&](std::span<const VertexId>) {
    if (seen.fetch_add(1, std::memory_order_relaxed) + 1 >= cancel_at) {
      token.RequestCancel();
    }
    return true;
  };
  MatchOptions options;
  options.threads = 4;
  options.budget.token = &token;
  options.budget.check_stride = 1;
  auto result =
      matcher.Match(MakePaperQuery(PaperQuery::kQG1), options, &visitor);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kCancelled);
  EXPECT_GE(result->embedding_count, cancel_at);
  EXPECT_LT(result->embedding_count, total);
  EXPECT_TRUE(result->stats.budget.cancelled);
}

TEST(ExecutionBudgetTest, RepeatedBudgetedMatchesStayConsistent) {
  // Budget trackers are per-call; a tripped call must not poison the
  // matcher for later unbudgeted calls.
  Graph data = GenerateSocialGraph(300, 8, 7);
  CeciMatcher matcher(data);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  const std::uint64_t expect = matcher.Count(query).value();
  for (int i = 0; i < 3; ++i) {
    MatchOptions capped;
    capped.budget.memory_budget_bytes = 1;
    auto tripped = matcher.Match(query, capped);
    ASSERT_TRUE(tripped.ok());
    EXPECT_EQ(tripped->termination, TerminationReason::kMemoryBudget);
    auto clean = matcher.Count(query);
    ASSERT_TRUE(clean.ok());
    EXPECT_EQ(*clean, expect);
  }
}

}  // namespace
}  // namespace ceci
