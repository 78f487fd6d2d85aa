// Seeded failure-plan fuzz for the simulated distributed runtime: 200+
// randomly generated valid FailurePlans (crashes at random times, random
// straggler slowdowns) against the same graph/query, each asserting the
// recovery contract — embedding totals exactly equal the failure-free
// run, crash and reassignment accounting self-consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "distsim/dist_matcher.h"
#include "distsim/failure.h"
#include "gen/random_graphs.h"
#include "graphio/pattern_parser.h"
#include "test_support.h"

namespace ceci {
namespace {

using distsim::DistOptions;
using distsim::DistributedMatch;
using distsim::FailurePlan;
using distsim::MachineCrash;
using distsim::MachineStraggler;

/// One random Validate()-passing plan: 1..n-1 distinct crash machines
/// (always leaving a survivor), crash times spanning "before any work"
/// through "after everything finished", and 0..2 stragglers.
FailurePlan RandomPlan(std::mt19937_64* rng, std::size_t num_machines) {
  FailurePlan plan;
  plan.enabled = true;
  plan.seed = (*rng)();
  std::uniform_int_distribution<std::size_t> crash_count(1, num_machines - 1);
  std::uniform_real_distribution<double> crash_time(0.0, 2e-4);
  std::vector<std::uint32_t> machines(num_machines);
  for (std::size_t i = 0; i < num_machines; ++i) {
    machines[i] = static_cast<std::uint32_t>(i);
  }
  std::shuffle(machines.begin(), machines.end(), *rng);
  const std::size_t crashes = crash_count(*rng);
  for (std::size_t i = 0; i < crashes; ++i) {
    MachineCrash crash;
    crash.machine = machines[i];
    crash.at_seconds = crash_time(*rng);
    plan.crashes.push_back(crash);
  }
  std::uniform_int_distribution<int> straggler_count(0, 2);
  std::uniform_real_distribution<double> slowdown(1.0, 8.0);
  const int stragglers = straggler_count(*rng);
  for (int i = 0; i < stragglers; ++i) {
    MachineStraggler s;
    s.machine = machines[(crashes + static_cast<std::size_t>(i)) %
                         num_machines];
    s.slowdown = slowdown(*rng);
    plan.stragglers.push_back(s);
  }
  return plan;
}

TEST(FailurePlanFuzzTest, TwoHundredRandomPlansRecoverExactTotals) {
  const Graph data = GenerateErdosRenyi(260, 1400, 11);
  auto query = ParsePattern("(a)-(b); (b)-(c); (a)-(c)");
  ASSERT_TRUE(query.ok());

  DistOptions base;
  base.num_machines = 4;
  base.threads_per_machine = 1;
  base.config.jaccard_top_k = 64;
  auto baseline = DistributedMatch(data, *query, base);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::mt19937_64 rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    DistOptions options = base;
    options.config.failure_plan = RandomPlan(&rng, options.num_machines);
    ASSERT_TRUE(
        options.config.failure_plan.Validate(options.num_machines).ok())
        << "trial " << trial;
    auto result = DistributedMatch(data, *query, options);
    ASSERT_TRUE(result.ok()) << "trial " << trial << ": "
                             << result.status().ToString();

    EXPECT_EQ(result->embeddings, baseline->embeddings)
        << "trial " << trial << " lost or duplicated embeddings";
    EXPECT_EQ(result->crashed_machines,
              options.config.failure_plan.crashes.size())
        << "trial " << trial;

    // Crashed machines are exactly the scripted ones. A machine that
    // dies late may have adopted clusters from an earlier crash before
    // its own death (chained adoption), but the earliest crasher has
    // nobody before it, so its adoption count must be zero.
    std::set<std::uint32_t> scripted;
    std::uint32_t first_victim = 0;
    double first_crash = std::numeric_limits<double>::infinity();
    for (const auto& crash : options.config.failure_plan.crashes) {
      scripted.insert(crash.machine);
      if (crash.at_seconds < first_crash) {
        first_crash = crash.at_seconds;
        first_victim = crash.machine;
      }
    }
    EXPECT_EQ(result->machines[first_victim].reassigned_clusters, 0u)
        << "trial " << trial << ": the first machine to die adopted clusters";
    std::uint64_t reassigned = 0;
    std::uint64_t machine_embeddings = 0;
    for (std::size_t m = 0; m < result->machines.size(); ++m) {
      const auto& report = result->machines[m];
      EXPECT_EQ(report.crashed,
                scripted.count(static_cast<std::uint32_t>(m)) > 0)
          << "trial " << trial << " machine " << m;
      reassigned += report.reassigned_clusters;
      machine_embeddings += report.embeddings;
    }
    EXPECT_EQ(machine_embeddings, result->embeddings) << "trial " << trial;
    EXPECT_EQ(reassigned, result->total_reassigned_clusters)
        << "trial " << trial;
  }
}

TEST(FailurePlanFuzzTest, RandomPlansWithStealingDisabled) {
  // The recovery path must not depend on work stealing being on.
  const Graph data = GenerateErdosRenyi(180, 900, 5);
  auto query = ParsePattern("(a)-(b); (b)-(c)");
  ASSERT_TRUE(query.ok());

  DistOptions base;
  base.num_machines = 3;
  base.threads_per_machine = 1;
  base.config.work_stealing = false;
  base.config.jaccard_top_k = 64;
  auto baseline = DistributedMatch(data, *query, base);
  ASSERT_TRUE(baseline.ok());

  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    DistOptions options = base;
    options.config.failure_plan = RandomPlan(&rng, options.num_machines);
    auto result = DistributedMatch(data, *query, options);
    ASSERT_TRUE(result.ok()) << "trial " << trial;
    EXPECT_EQ(result->embeddings, baseline->embeddings) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ceci
