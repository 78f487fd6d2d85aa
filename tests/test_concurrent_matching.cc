// Concurrent matching over one shared index and one shared ThreadPool —
// the serving-mode contract: N frontend threads issuing Match() calls
// against the same CeciMatcher/CachedMatcher, enumeration workers drawn
// from a single process-wide pool, results identical to serial runs, and
// budgets/cancellations confined to the query that carries them. This
// suite is the tier the `tsan` preset exists for (scripts/tier1.sh
// --serving runs it under ThreadSanitizer).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "baselines/vf2.h"
#include "ceci/cached_matcher.h"
#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/index_io.h"
#include "ceci/matcher.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "util/thread_pool.h"

namespace ceci {
namespace {

Graph TestData() {
  return AssignRandomLabels(GenerateSocialGraph(1500, 5, 21), 4, 21);
}

std::vector<Graph> TestQueries(const Graph& data) {
  std::vector<Graph> queries;
  for (PaperQuery q : kAllPaperQueries) {
    queries.push_back(MakePaperQuery(q));
  }
  QueryGenOptions gen;
  gen.num_vertices = 4;
  gen.seed = 5;
  for (Graph& q : GenerateQueries(data, 3, gen)) {
    queries.push_back(std::move(q));
  }
  return queries;
}

// ---------------------------------------------------------------------
// TaskGroup: the batch-local completion primitive under the refactor.

TEST(TaskGroupTest, NullPoolRunsInline) {
  int ran = 0;
  TaskGroup group(nullptr);
  group.Run([&] { ++ran; });
  group.Run([&] { ++ran; });
  // Serial mode: tasks completed inside Run(), before Wait().
  EXPECT_EQ(ran, 2);
  group.Wait();
  EXPECT_EQ(ran, 2);
}

TEST(TaskGroupTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 100; ++i) {
      group.Run([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    EXPECT_EQ(ran.load(), 100);
    group.Wait();  // idempotent
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(TaskGroupTest, WaitHelpsInlineWhenPoolIsSaturated) {
  // One pool thread, parked on another "query's" long task. The group's
  // Wait() must still finish by running its own tasks inline — a
  // saturated pool can never stall a batch.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([released] { released.wait(); });

  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 8);
  release.set_value();
}

TEST(TaskGroupTest, ConcurrentGroupsStayIndependent) {
  ThreadPool pool(2);
  constexpr int kDrivers = 6;
  constexpr int kTasksPer = 40;
  std::vector<std::atomic<int>> counts(kDrivers);
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      TaskGroup group(&pool);
      for (int i = 0; i < kTasksPer; ++i) {
        group.Run([&, d] {
          counts[d].fetch_add(1, std::memory_order_relaxed);
        });
      }
      group.Wait();
      // Batch-local: this driver's tasks are all done at its Wait(),
      // regardless of what the other drivers are doing on the same pool.
      EXPECT_EQ(counts[d].load(), kTasksPer);
    });
  }
  for (auto& t : drivers) t.join();
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsAreCorrect) {
  ThreadPool pool(3);
  constexpr int kDrivers = 4;
  constexpr std::size_t kN = 10000;
  std::vector<std::thread> drivers;
  std::vector<std::uint64_t> sums(kDrivers, 0);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      std::atomic<std::uint64_t> sum{0};
      pool.ParallelFor(kN, 64, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
      sums[d] = sum.load();
    });
  }
  for (auto& t : drivers) t.join();
  const std::uint64_t want = kN * (kN - 1) / 2;
  for (int d = 0; d < kDrivers; ++d) EXPECT_EQ(sums[d], want);
}

// ---------------------------------------------------------------------
// Shared-matcher, shared-pool matching.

TEST(ConcurrentMatchingTest, SharedPoolMatchesEqualSerialCounts) {
  const Graph data = TestData();
  const std::vector<Graph> queries = TestQueries(data);
  const CeciMatcher matcher(data);

  std::vector<std::uint64_t> serial;
  for (const Graph& q : queries) {
    serial.push_back(matcher.Count(q, 1).value());
  }

  ThreadPool pool(4);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t qi = (t + round) % queries.size();
        MatchOptions options;
        options.threads = 3;
        options.pool = &pool;
        auto result = matcher.Match(queries[qi], options);
        if (!result.ok() || result->embedding_count != serial[qi] ||
            result->termination != TerminationReason::kCompleted) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentMatchingTest, SharedCachedMatcherEqualsSerialCounts) {
  const Graph data = TestData();
  const std::vector<Graph> queries = TestQueries(data);
  const CeciMatcher reference(data);
  std::vector<std::uint64_t> serial;
  for (const Graph& q : queries) {
    serial.push_back(reference.Count(q, 1).value());
  }

  CachedMatcher cached(data);
  ThreadPool pool(4);
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread sweeps every query: the first sweep races to build
      // cache entries (first writer wins), later sweeps hit.
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        MatchOptions options;
        options.threads = 2;
        options.pool = &pool;
        auto result = cached.Match(queries[(qi + t) % queries.size()],
                                   options);
        const std::uint64_t want = serial[(qi + t) % queries.size()];
        if (!result.ok() || result->embedding_count != want) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(cached.cache_hits(), 0u);
}

TEST(ConcurrentMatchingTest, MixedDeadlinesOnlyAffectTheirOwnQuery) {
  const Graph data = TestData();
  const Graph query = MakePaperQuery(PaperQuery::kQG3);
  const CeciMatcher matcher(data);
  const std::uint64_t serial = matcher.Count(query, 1).value();

  ThreadPool pool(4);
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MatchOptions options;
      options.threads = 2;
      options.pool = &pool;
      const bool tight = t % 2 == 0;
      if (tight) {
        // Microsecond-scale deadline: termination must be truthful —
        // either the deadline (count is a lower bound) or, if the query
        // squeaked through first, completed with the exact count.
        options.budget.deadline_seconds = 1e-6;
        options.budget.check_stride = 16;
      }
      auto result = matcher.Match(query, options);
      if (!result.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (tight) {
        const bool honest =
            (result->termination == TerminationReason::kDeadline &&
             result->embedding_count <= serial) ||
            (result->termination == TerminationReason::kCompleted &&
             result->embedding_count == serial);
        if (!honest) failures.fetch_add(1);
      } else {
        // Unbudgeted neighbours must be untouched by others' deadlines.
        if (result->termination != TerminationReason::kCompleted ||
            result->embedding_count != serial) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentMatchingTest, CrossThreadCancellationIsConfined) {
  const Graph data = TestData();
  const Graph cancelled_query = MakePaperQuery(PaperQuery::kQG5);
  const Graph bystander_query = MakePaperQuery(PaperQuery::kQG1);
  const CeciMatcher matcher(data);
  const std::uint64_t serial_bystander =
      matcher.Count(bystander_query, 1).value();

  ThreadPool pool(4);
  CancellationToken token;
  std::atomic<int> failures{0};

  std::thread victim([&] {
    MatchOptions options;
    options.threads = 2;
    options.pool = &pool;
    options.budget.token = &token;
    options.budget.check_stride = 16;
    auto result = matcher.Match(cancelled_query, options);
    if (!result.ok() ||
        (result->termination != TerminationReason::kCancelled &&
         result->termination != TerminationReason::kCompleted)) {
      failures.fetch_add(1);
    }
  });
  std::thread bystander([&] {
    MatchOptions options;
    options.threads = 2;
    options.pool = &pool;
    auto result = matcher.Match(bystander_query, options);
    if (!result.ok() ||
        result->termination != TerminationReason::kCompleted ||
        result->embedding_count != serial_bystander) {
      failures.fetch_add(1);
    }
  });
  token.RequestCancel();
  victim.join();
  bystander.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------
// Shared frozen flat index: N threads enumerating from ONE mmap'd arena
// (the `ceci_serve --index` serving mode). The arena is immutable and
// read-only, so workers need no synchronization; every thread must see
// the VF2 oracle's count.

TEST(SharedFlatIndexTest, ManyThreadsEnumerateOneMappedArena) {
  const Graph data = TestData();
  const Graph query = MakePaperQuery(PaperQuery::kQG3);
  NlcIndex nlc(data);
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  CeciBuilder builder(data, nlc);
  CeciIndex index = builder.Build(query, *tree, BuildOptions{}, nullptr);
  RefineCeci(*tree, data.num_vertices(), &index, nullptr);
  const SymmetryConstraints sym = SymmetryConstraints::Compute(query);
  EnumOptions eo;
  eo.symmetry = &sym;

  const std::uint64_t want =
      Vf2Count(data, query, Vf2Options{}).embeddings;
  ASSERT_GT(want, 0u);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("ceci_shared_idx_" + std::to_string(::getpid()) + ".idx");
  {
    const FlatCeciIndex flat = FlatCeciIndex::Build(index, *tree);
    ASSERT_TRUE(WriteFlatIndex(flat, *tree, sym, "", path.string()).ok());
  }
  IndexLoadOptions load;
  load.use_mmap = true;
  auto shared = ReadFlatIndex(*tree, path.string(), load);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  ASSERT_TRUE(shared->mapped());

  constexpr int kThreads = 8;
  std::vector<std::uint64_t> counts(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Enumerator e(data, *tree, *shared, eo);
      counts[i] = e.EnumerateAll(nullptr);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(counts[i], want) << "thread " << i;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ceci
