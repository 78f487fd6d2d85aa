// Exact first-k at every thread count. Counting workers tally embeddings
// locally and publish to the shared emission counter in batches, visitor
// workers take one ticket per embedding; either way a limited run must
// report exactly min(total, limit) embeddings, split across the workers
// that admitted them, and the same termination as one ticket per
// embedding gave.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "ceci/ceci_builder.h"
#include "ceci/matcher.h"
#include "ceci/refinement.h"
#include "ceci/scheduler.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"

namespace ceci {
namespace {

struct Fixture {
  Fixture()
      : data(GenerateSocialGraph(400, 6, 77)),
        query(MakePaperQuery(PaperQuery::kQG3)),
        nlc(data) {
    auto t = QueryTree::Build(query, 0);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciIndex built =
        CeciBuilder(data, nlc).Build(query, tree, BuildOptions{}, nullptr);
    RefineCeci(tree, data.num_vertices(), &built, nullptr);
    index = FlatCeciIndex::Build(built, tree);
    symmetry = SymmetryConstraints::Compute(query);
    ScheduleOptions serial;
    serial.enumeration.symmetry = &symmetry;
    total = RunParallelEnumeration(data, tree, index, serial, nullptr)
                .embeddings;
  }

  Graph data;
  Graph query;
  NlcIndex nlc;
  QueryTree tree;
  FlatCeciIndex index;
  SymmetryConstraints symmetry;
  std::uint64_t total = 0;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = new Fixture();  // lint: leaky-singleton
  return *fixture;
}

// The limits around the total, and none.
std::vector<std::uint64_t> Limits(std::uint64_t total) {
  return {1, total - 1, total, total + 1, 0};
}

std::uint64_t Expected(std::uint64_t total, std::uint64_t limit) {
  return limit == 0 ? total : std::min(total, limit);
}

// The limit is hit exactly when the embeddings reach it: a run that admits
// all of a total equal to its limit stops at the limit.
bool LimitHit(std::uint64_t total, std::uint64_t limit) {
  return limit > 0 && total >= limit;
}

std::uint64_t Sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

const Distribution kDistributions[] = {Distribution::kStatic,
                                       Distribution::kCoarseDynamic,
                                       Distribution::kFineDynamic};

TEST(ExactFirstKTest, ScheduleAdmitsExactlyTheLimit) {
  const Fixture& f = SharedFixture();
  ASSERT_GT(f.total, 100u);
  for (std::size_t threads : {1u, 2u, 3u, 4u}) {
    for (Distribution d : kDistributions) {
      for (std::uint64_t limit : Limits(f.total)) {
        for (bool listed : {false, true}) {
          SCOPED_TRACE("threads " + std::to_string(threads) + " " +
                       DistributionName(d) + " limit " +
                       std::to_string(limit) +
                       (listed ? " listed" : " counted"));
          ScheduleOptions options;
          options.threads = threads;
          options.distribution = d;
          options.limit = limit;
          options.enumeration.symmetry = &f.symmetry;
          std::atomic<std::uint64_t> visits{0};
          const EmbeddingVisitor visitor = [&](std::span<const VertexId>) {
            visits.fetch_add(1, std::memory_order_relaxed);
            return true;
          };
          const ScheduleResult r = RunParallelEnumeration(
              f.data, f.tree, f.index, options, listed ? &visitor : nullptr);
          EXPECT_EQ(r.embeddings, Expected(f.total, limit));
          EXPECT_EQ(Sum(r.worker_embeddings), r.embeddings);
          EXPECT_EQ(r.limit_hit, LimitHit(f.total, limit));
          EXPECT_FALSE(r.visitor_abort);
          if (listed) {
            EXPECT_EQ(visits.load(), r.embeddings);
          }
        }
      }
    }
  }
}

TEST(ExactFirstKTest, MatchAdmitsExactlyTheLimit) {
  const Fixture& f = SharedFixture();
  CeciMatcher matcher(f.data);
  for (std::size_t threads : {1u, 2u, 3u, 4u}) {
    for (Distribution d : kDistributions) {
      for (std::uint64_t limit : Limits(f.total)) {
        for (bool listed : {false, true}) {
          SCOPED_TRACE("threads " + std::to_string(threads) + " " +
                       DistributionName(d) + " limit " +
                       std::to_string(limit) +
                       (listed ? " listed" : " counted"));
          MatchOptions options;
          options.threads = threads;
          options.distribution = d;
          options.limit = limit;
          std::atomic<std::uint64_t> visits{0};
          const EmbeddingVisitor visitor = [&](std::span<const VertexId>) {
            visits.fetch_add(1, std::memory_order_relaxed);
            return true;
          };
          auto result =
              matcher.Match(f.query, options, listed ? &visitor : nullptr);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_EQ(result->embedding_count, Expected(f.total, limit));
          EXPECT_EQ(Sum(result->stats.worker_embeddings),
                    result->embedding_count);
          EXPECT_EQ(result->termination, LimitHit(f.total, limit)
                                             ? TerminationReason::kLimit
                                             : TerminationReason::kCompleted);
          if (listed) {
            EXPECT_EQ(visits.load(), result->embedding_count);
          }
          AuditReport report;
          AuditMatchResult(*result, &report);
          EXPECT_TRUE(report.ok()) << report.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace ceci
