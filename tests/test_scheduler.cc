// Unit tests for work units, extreme-cluster decomposition, and the
// ST/CGD/FGD parallel schedulers.
#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "ceci/ceci_builder.h"
#include "ceci/refinement.h"
#include "ceci/scheduler.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "test_support.h"

namespace ceci {
namespace {

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
  }

  ScheduleOptions Schedule(std::size_t threads, Distribution dist) {
    ScheduleOptions o;
    o.threads = threads;
    o.distribution = dist;
    o.enumeration.symmetry = &symmetry;
    return o;
  }

  Graph data;
  Graph query;
  NlcIndex nlc;
  QueryTree tree;
  FlatCeciIndex index;
  SymmetryConstraints symmetry;
};

Fixture SkewedTriangles() {
  // Power-law-ish graph: triangles concentrated around hubs.
  return Fixture(GenerateBarabasiAlbert(400, 4, 99),
                 MakePaperQuery(PaperQuery::kQG1));
}

TEST(WorkUnitTest, OnePerPivotWithoutDecomposition) {
  Fixture f = SkewedTriangles();
  EnumOptions eo;
  eo.symmetry = &f.symmetry;
  DecomposeStats stats;
  // One worker at β = 1: the threshold is the total, so nothing splits.
  auto units = DecomposeRootOrder(f.data, f.tree, f.index, eo,
                                  RootOrder(f.index, f.tree.root()), 1, 1.0,
                                  &stats);
  EXPECT_EQ(units.size(), f.index.candidates(f.tree.root()).size());
  EXPECT_EQ(stats.extreme_clusters, 0u);
  // Sorted descending by cardinality.
  for (std::size_t i = 1; i < units.size(); ++i) {
    EXPECT_GE(units[i - 1].cardinality, units[i].cardinality);
  }
}

TEST(WorkUnitTest, DecompositionSplitsExtremeClusters) {
  Fixture f = SkewedTriangles();
  EnumOptions eo;
  eo.symmetry = &f.symmetry;
  DecomposeStats stats;
  auto units = DecomposeRootOrder(f.data, f.tree, f.index, eo,
                                  RootOrder(f.index, f.tree.root()), 8, 0.2,
                                  &stats);
  EXPECT_GT(stats.extreme_clusters, 0u);
  EXPECT_GT(units.size(), f.index.candidates(f.tree.root()).size());
  for (const WorkUnit& unit : units) {
    EXPECT_GE(unit.prefix.size(), 1u);
    EXPECT_LE(unit.prefix.size(), f.query.num_vertices());
  }
}

TEST(WorkUnitTest, SmallBetaMeansSmallerUnits) {
  Fixture f = SkewedTriangles();
  EnumOptions eo;
  eo.symmetry = &f.symmetry;
  DecomposeStats coarse_stats;
  DecomposeStats fine_stats;
  const std::vector<std::uint32_t> roots = RootOrder(f.index, f.tree.root());
  auto coarse = DecomposeRootOrder(f.data, f.tree, f.index, eo, roots, 4, 1.0,
                                   &coarse_stats);
  auto fine = DecomposeRootOrder(f.data, f.tree, f.index, eo, roots, 4, 0.1,
                                 &fine_stats);
  EXPECT_GE(fine.size(), coarse.size());
  EXPECT_LE(fine_stats.threshold, coarse_stats.threshold);
}

class DistributionCountTest
    : public ::testing::TestWithParam<std::tuple<Distribution, std::size_t>> {
};

TEST_P(DistributionCountTest, AllPoliciesAndThreadCountsAgree) {
  auto [dist, threads] = GetParam();
  Fixture f = SkewedTriangles();
  auto serial = RunParallelEnumeration(
      f.data, f.tree, f.index,
      f.Schedule(1, Distribution::kCoarseDynamic), nullptr);
  auto parallel = RunParallelEnumeration(f.data, f.tree, f.index,
                                         f.Schedule(threads, dist), nullptr);
  EXPECT_EQ(parallel.embeddings, serial.embeddings);
  EXPECT_GT(parallel.embeddings, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DistributionCountTest,
    ::testing::Combine(::testing::Values(Distribution::kStatic,
                                         Distribution::kCoarseDynamic,
                                         Distribution::kFineDynamic),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(SchedulerTest, LimitIsRespectedAcrossWorkers) {
  Fixture f = SkewedTriangles();
  auto options = f.Schedule(4, Distribution::kCoarseDynamic);
  options.limit = 10;
  auto result =
      RunParallelEnumeration(f.data, f.tree, f.index, options, nullptr);
  EXPECT_EQ(result.embeddings, 10u);
}

TEST(SchedulerTest, VisitorSeesEveryEmbeddingExactlyOnce) {
  Fixture f = SkewedTriangles();
  std::mutex mu;
  std::set<std::vector<VertexId>> seen;
  std::size_t duplicates = 0;
  EmbeddingVisitor visitor = [&](std::span<const VertexId> m) {
    std::lock_guard<std::mutex> lock(mu);
    if (!seen.emplace(m.begin(), m.end()).second) ++duplicates;
    return true;
  };
  auto result = RunParallelEnumeration(
      f.data, f.tree, f.index, f.Schedule(4, Distribution::kFineDynamic),
      &visitor);
  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(seen.size(), result.embeddings);
}

TEST(SchedulerTest, WorkerTimesReported) {
  Fixture f = SkewedTriangles();
  auto result = RunParallelEnumeration(
      f.data, f.tree, f.index, f.Schedule(3, Distribution::kCoarseDynamic),
      nullptr);
  EXPECT_LE(result.worker_seconds.size(), 3u);
  EXPECT_FALSE(result.worker_seconds.empty());
  for (double t : result.worker_seconds) EXPECT_GE(t, 0.0);
}

TEST(SchedulerTest, DistributionNames) {
  EXPECT_EQ(DistributionName(Distribution::kStatic), "ST");
  EXPECT_EQ(DistributionName(Distribution::kCoarseDynamic), "CGD");
  EXPECT_EQ(DistributionName(Distribution::kFineDynamic), "FGD");
}

}  // namespace
}  // namespace ceci
