// Parameterized sweeps over the scheduler's configuration space:
// (distribution × worker count × β × limit) must never change counts, and
// the accounting invariants must hold everywhere.
#include <gtest/gtest.h>

#include "ceci/ceci_builder.h"
#include "ceci/refinement.h"
#include "ceci/scheduler.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "test_support.h"

namespace ceci {
namespace {

struct Fixture {
  Fixture() : data(GenerateSocialGraph(700, 10, 321)), nlc(data) {
    query = MakePaperQuery(PaperQuery::kQG3);
    auto t = QueryTree::Build(query, 0);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciBuilder builder(data, nlc);
    CeciIndex built = builder.Build(query, tree, BuildOptions{}, nullptr);
    RefineCeci(tree, data.num_vertices(), &built, nullptr);
    index = FlatCeciIndex::Build(built, tree);
    symmetry = SymmetryConstraints::Compute(query);

    ScheduleOptions serial;
    serial.enumeration.symmetry = &symmetry;
    reference = RunParallelEnumeration(data, tree, index, serial, nullptr)
                    .embeddings;
  }

  Graph data;
  Graph query;
  NlcIndex nlc;
  QueryTree tree;
  FlatCeciIndex index;
  SymmetryConstraints symmetry;
  std::uint64_t reference = 0;
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();  // lint: leaky-singleton
  return *fixture;
}

using SweepParam = std::tuple<Distribution, std::size_t, double>;

class SchedulerSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SchedulerSweepTest, CountsInvariantUnderConfiguration) {
  auto [dist, threads, beta] = GetParam();
  Fixture& f = SharedFixture();
  ScheduleOptions options;
  options.distribution = dist;
  options.threads = threads;
  options.beta = beta;
  options.enumeration.symmetry = &f.symmetry;
  auto result =
      RunParallelEnumeration(f.data, f.tree, f.index, options, nullptr);
  EXPECT_EQ(result.embeddings, f.reference);
  EXPECT_GT(result.embeddings, 0u);
  // Worker accounting: every reported time non-negative, stats consistent.
  EXPECT_LE(result.worker_seconds.size(), threads);
  for (double w : result.worker_seconds) EXPECT_GE(w, 0.0);
  EXPECT_EQ(result.stats.embeddings, result.embeddings);
  EXPECT_GE(result.SimulatedMakespan(), 0.0);
  EXPECT_GE(result.TotalWork(), result.SimulatedMakespan() - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, SchedulerSweepTest,
    ::testing::Combine(::testing::Values(Distribution::kStatic,
                                         Distribution::kCoarseDynamic,
                                         Distribution::kFineDynamic),
                       ::testing::Values(1u, 3u, 7u),
                       ::testing::Values(1.0, 0.2, 0.05)));

class LimitSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LimitSweepTest, LimitsAreExact) {
  const std::uint64_t limit = GetParam();
  Fixture& f = SharedFixture();
  ScheduleOptions options;
  options.threads = 4;
  options.distribution = Distribution::kFineDynamic;
  options.limit = limit;
  options.enumeration.symmetry = &f.symmetry;
  auto result =
      RunParallelEnumeration(f.data, f.tree, f.index, options, nullptr);
  EXPECT_EQ(result.embeddings, std::min<std::uint64_t>(limit, f.reference));
}

INSTANTIATE_TEST_SUITE_P(Limits, LimitSweepTest,
                         ::testing::Values(1u, 2u, 7u, 64u, 1000u,
                                           1u << 30));

TEST(SchedulerSweepTest, LeafShortcutInvariantAcrossConfigs) {
  Fixture& f = SharedFixture();
  for (Distribution dist : {Distribution::kStatic,
                            Distribution::kCoarseDynamic,
                            Distribution::kFineDynamic}) {
    ScheduleOptions options;
    options.distribution = dist;
    options.threads = 4;
    options.enumeration.symmetry = &f.symmetry;
    options.enumeration.leaf_count_shortcut = true;
    auto result =
        RunParallelEnumeration(f.data, f.tree, f.index, options, nullptr);
    EXPECT_EQ(result.embeddings, f.reference)
        << DistributionName(dist);
  }
}

}  // namespace
}  // namespace ceci
