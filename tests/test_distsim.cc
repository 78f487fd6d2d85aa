// Tests for the simulated distributed runtime (§5).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/vf2.h"
#include "dist/cost_model.h"
#include "distsim/cluster.h"
#include "distsim/dist_matcher.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::PaperExample;
using dist::CostModel;
using distsim::AssignOptions;
using distsim::AssignPivots;
using distsim::DistOptions;
using distsim::DistResultJson;
using distsim::DistributedMatch;
using distsim::FailurePlan;
using distsim::GraphStorage;
using distsim::JaccardSimilarity;
using distsim::MachineCrash;
using distsim::MachineStraggler;
using distsim::PivotWorkload;

TEST(CostModelTest, MessageAndStorageCosts) {
  CostModel model;
  EXPECT_GT(model.MessageSeconds(0), 0.0);  // latency floor
  EXPECT_GT(model.MessageSeconds(1 << 20), model.MessageSeconds(1));
  EXPECT_GT(model.StorageSeconds(100, 1 << 20),
            model.StorageSeconds(1, 1 << 10));
}

TEST(PivotWorkloadTest, NeighborsVisibleAddsNeighborDegrees) {
  Graph g = testing::MakeUnlabeled(4, {{0, 1}, {0, 2}, {0, 3}});
  double shallow = PivotWorkload(g, 0, /*neighbors_visible=*/false);
  double deep = PivotWorkload(g, 0, /*neighbors_visible=*/true);
  EXPECT_GT(deep, shallow);
}

TEST(PivotWorkloadTest, VertexIdScalingFavorsSmallIds) {
  // Two vertices of equal degree: the smaller id gets a larger workload
  // (id-ordered symmetry breaking loads small ids more).
  Graph g = testing::MakeUnlabeled(10, {{0, 1}, {8, 9}});
  EXPECT_GT(PivotWorkload(g, 0, false), PivotWorkload(g, 8, false));
}

TEST(JaccardTest, IdenticalAndDisjointNeighborhoods) {
  Graph g = testing::MakeUnlabeled(6, {{0, 2}, {0, 3}, {1, 2}, {1, 3},
                                       {4, 5}});
  EXPECT_DOUBLE_EQ(JaccardSimilarity(g, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(g, 0, 4), 0.0);
}

TEST(AssignPivotsTest, CoversAllPivotsOnce) {
  Graph g = GenerateBarabasiAlbert(200, 3, 1);
  std::vector<VertexId> pivots;
  for (VertexId v = 0; v < 200; v += 2) pivots.push_back(v);
  AssignOptions options;
  options.num_machines = 4;
  auto assignment = AssignPivots(g, pivots, options);
  std::size_t total = 0;
  for (const auto& list : assignment.per_machine) {
    total += list.size();
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  }
  EXPECT_EQ(total, pivots.size());
}

TEST(AssignPivotsTest, BalancesWorkloadRoughly) {
  Graph g = GenerateBarabasiAlbert(500, 4, 2);
  std::vector<VertexId> pivots(500);
  for (VertexId v = 0; v < 500; ++v) pivots[v] = v;
  AssignOptions options;
  options.num_machines = 4;
  auto assignment = AssignPivots(g, pivots, options);
  double min_load = 1e300;
  double max_load = 0;
  for (double w : assignment.workloads) {
    min_load = std::min(min_load, w);
    max_load = std::max(max_load, w);
  }
  EXPECT_LT(max_load, 2.0 * min_load);  // LPT keeps spread small
}

TEST(AssignPivotsTest, JaccardColocatesTwins) {
  // Vertices 0 and 1 share the identical neighborhood {2,3}; a heavy hub
  // (vertex 5) carries most of the workload so the co-location cap does
  // not trip, and the twins must land on the same machine.
  std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 2}, {0, 3}, {1, 2}, {1, 3}};
  for (VertexId leaf = 6; leaf < 30; ++leaf) edges.push_back({5, leaf});
  Graph g = testing::MakeUnlabeled(30, edges);
  AssignOptions options;
  options.num_machines = 2;
  auto assignment = AssignPivots(g, {0, 1, 5}, options);
  EXPECT_GT(assignment.jaccard_colocations, 0u);
  for (const auto& list : assignment.per_machine) {
    bool has0 = std::binary_search(list.begin(), list.end(), 0u);
    bool has1 = std::binary_search(list.begin(), list.end(), 1u);
    EXPECT_EQ(has0, has1);
  }
}

TEST(DistributedMatchTest, PaperExample) {
  DistOptions options;
  options.num_machines = 2;
  auto result =
      DistributedMatch(PaperExample::Data(), PaperExample::Query(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embeddings, 2u);
  EXPECT_EQ(result->machines.size(), 2u);
}

class DistMachineCountTest : public ::testing::TestWithParam<int> {};

TEST_P(DistMachineCountTest, CountsMatchOracleAcrossMachineCounts) {
  Graph data = GenerateBarabasiAlbert(300, 3, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  Vf2Result oracle = Vf2Count(data, query, Vf2Options{});
  DistOptions options;
  options.num_machines = static_cast<std::size_t>(GetParam());
  options.threads_per_machine = 2;
  auto result = DistributedMatch(data, query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embeddings, oracle.embeddings);
}

INSTANTIATE_TEST_SUITE_P(Machines, DistMachineCountTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(DistributedMatchTest, SharedStorageChargesIo) {
  Graph data = GenerateBarabasiAlbert(400, 4, 11);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  DistOptions replicated;
  replicated.num_machines = 4;
  replicated.storage = GraphStorage::kReplicated;
  DistOptions shared = replicated;
  shared.storage = GraphStorage::kShared;
  auto a = DistributedMatch(data, query, replicated);
  auto b = DistributedMatch(data, query, shared);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->embeddings, b->embeddings);
  EXPECT_EQ(a->build_io_seconds, 0.0);
  // The Fig. 17/20 effect: shared storage charges modeled IO for every
  // adjacency read during construction. (Makespans are not compared:
  // measured compute noise at this scale dwarfs the modeled charge.)
  EXPECT_GT(b->build_io_seconds, 0.0);
}

TEST(DistributedMatchTest, CommChargedForPivotDistribution) {
  Graph data = GenerateBarabasiAlbert(300, 3, 13);
  DistOptions options;
  options.num_machines = 4;
  auto result =
      DistributedMatch(data, MakePaperQuery(PaperQuery::kQG1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->build_comm_seconds, 0.0);
}

TEST(DistributedMatchTest, WorkStealingCanBeDisabled) {
  Graph data = GenerateBarabasiAlbert(300, 3, 17);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  DistOptions with;
  with.num_machines = 4;
  DistOptions without = with;
  without.work_stealing = false;
  auto a = DistributedMatch(data, query, with);
  auto b = DistributedMatch(data, query, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->embeddings, b->embeddings);
  std::uint64_t stolen_without = 0;
  for (const auto& m : b->machines) stolen_without += m.stolen_units;
  EXPECT_EQ(stolen_without, 0u);
}

TEST(DistributedMatchTest, InvalidOptionsRejected) {
  Graph data = testing::MakeUnlabeled(3, {{0, 1}, {1, 2}});
  DistOptions options;
  options.num_machines = 0;
  auto result =
      DistributedMatch(data, MakePaperQuery(PaperQuery::kQG1), options);
  EXPECT_FALSE(result.ok());
}

TEST(DistributedMatchTest, InfeasibleQueryYieldsZero) {
  Graph data = testing::MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  Graph query = testing::MakeGraph({5, 5, 5}, {{0, 1}, {1, 2}, {0, 2}});
  DistOptions options;
  options.num_machines = 2;
  auto result = DistributedMatch(data, query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embeddings, 0u);
}

// --- Failure injection and recovery ---

TEST(FailurePlanTest, ValidationRejectsBadPlans) {
  FailurePlan plan;
  plan.enabled = true;
  EXPECT_TRUE(plan.Validate(4).ok());  // empty plan = deterministic mode

  plan.crashes = {{5, 1.0}};  // machine out of range
  EXPECT_FALSE(plan.Validate(4).ok());

  plan.crashes = {{0, 1.0}, {0, 2.0}};  // duplicate crash
  EXPECT_FALSE(plan.Validate(4).ok());

  plan.crashes = {{0, 1.0}, {1, 1.0}};  // every machine dies
  EXPECT_FALSE(plan.Validate(2).ok());

  plan.crashes = {{0, -1.0}};  // negative time
  EXPECT_FALSE(plan.Validate(4).ok());

  plan.crashes.clear();
  plan.stragglers = {{1, 0.5}};  // a "slowdown" that speeds up
  EXPECT_FALSE(plan.Validate(4).ok());

  plan.stragglers.clear();
  plan.storage_error_rate = 1.0;  // every read fails forever
  EXPECT_FALSE(plan.Validate(4).ok());

  plan.storage_error_rate = 0.1;
  plan.max_storage_retries = 0;
  EXPECT_FALSE(plan.Validate(4).ok());

  // Scripted failures behind a disabled switch would be a silent no-op.
  FailurePlan off;
  off.crashes = {{0, 1.0}};
  EXPECT_FALSE(off.Validate(4).ok());
  auto result = DistributedMatch(
      PaperExample::Data(), PaperExample::Query(), [] {
        DistOptions o;
        o.num_machines = 2;
        o.failure_plan.crashes = {{0, 1.0}};  // enabled left false
        return o;
      }());
  EXPECT_FALSE(result.ok());
}

TEST(DistRecoveryTest, CrashMidEnumerationPreservesEmbeddingTotals) {
  Graph data = GenerateBarabasiAlbert(300, 3, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG3);

  DistOptions base;
  base.num_machines = 3;
  base.failure_plan.enabled = true;  // deterministic replay, no failures
  base.failure_plan.seed = 42;
  auto clean = DistributedMatch(data, query, base);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->embeddings, 0u);
  ASSERT_EQ(clean->crashed_machines, 0u);
  ASSERT_EQ(clean->total_reassigned_clusters, 0u);

  // Crash machine 0 halfway through its modeled enumeration window. The
  // modeled timeline is identical to `clean`'s because both runs share
  // the plan's deterministic compute rates.
  const auto& m0 = clean->machines[0];
  const double enum_start =
      m0.build_compute_seconds + m0.io_seconds + m0.comm_seconds;
  DistOptions crashed = base;
  crashed.failure_plan.crashes = {
      {0, enum_start + m0.enum_compute_seconds / 2.0}};
  auto recovered = DistributedMatch(data, query, crashed);
  ASSERT_TRUE(recovered.ok());

  // The acceptance invariant: exact same total as the failure-free run.
  EXPECT_EQ(recovered->embeddings, clean->embeddings);
  std::uint64_t per_machine_sum = 0;
  for (const auto& m : recovered->machines) per_machine_sum += m.embeddings;
  EXPECT_EQ(per_machine_sum, recovered->embeddings);

  EXPECT_EQ(recovered->crashed_machines, 1u);
  EXPECT_TRUE(recovered->machines[0].crashed);
  if (m0.enum_compute_seconds > 0.0 && m0.pivots > 0) {
    // Some of machine 0's clusters were orphaned and adopted elsewhere.
    EXPECT_GT(recovered->total_reassigned_clusters, 0u);
    EXPECT_GT(recovered->total_recovery_seconds, 0.0);
    EXPECT_EQ(recovered->machines[0].reassigned_clusters, 0u);
    EXPECT_LT(recovered->machines[0].embeddings, clean->machines[0].embeddings +
                                                     1);
  }
}

TEST(DistRecoveryTest, CrashAtTimeZeroRedistributesEverything) {
  Graph data = GenerateBarabasiAlbert(300, 3, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  DistOptions clean_options;
  clean_options.num_machines = 3;
  auto clean = DistributedMatch(data, query, clean_options);
  ASSERT_TRUE(clean.ok());

  DistOptions options = clean_options;
  options.failure_plan.enabled = true;
  options.failure_plan.crashes = {{1, 0.0}};  // dies before doing anything
  auto result = DistributedMatch(data, query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embeddings, clean->embeddings);
  EXPECT_TRUE(result->machines[1].crashed);
  EXPECT_EQ(result->machines[1].embeddings, 0u);
  EXPECT_EQ(result->machines[1].recovery_seconds, 0.0);
}

TEST(DistRecoveryTest, SameSeedReproducesCountersExactly) {
  Graph data = GenerateBarabasiAlbert(300, 3, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  DistOptions options;
  options.num_machines = 4;
  options.threads_per_machine = 2;
  options.storage = GraphStorage::kShared;
  options.failure_plan.enabled = true;
  options.failure_plan.seed = 7;
  options.failure_plan.crashes = {{2, 0.001}};
  options.failure_plan.stragglers = {{1, 3.0}};
  options.failure_plan.storage_error_rate = 0.2;

  auto a = DistributedMatch(data, query, options);
  auto b = DistributedMatch(data, query, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->embeddings, b->embeddings);
  EXPECT_EQ(a->crashed_machines, b->crashed_machines);
  EXPECT_EQ(a->total_reassigned_clusters, b->total_reassigned_clusters);
  EXPECT_EQ(a->total_storage_retries, b->total_storage_retries);
  EXPECT_DOUBLE_EQ(a->total_recovery_seconds, b->total_recovery_seconds);
  ASSERT_EQ(a->machines.size(), b->machines.size());
  for (std::size_t i = 0; i < a->machines.size(); ++i) {
    EXPECT_EQ(a->machines[i].embeddings, b->machines[i].embeddings) << i;
    EXPECT_EQ(a->machines[i].stolen_units, b->machines[i].stolen_units) << i;
    EXPECT_EQ(a->machines[i].reassigned_clusters,
              b->machines[i].reassigned_clusters)
        << i;
    EXPECT_EQ(a->machines[i].storage_retries, b->machines[i].storage_retries)
        << i;
    EXPECT_DOUBLE_EQ(a->machines[i].recovery_seconds,
                     b->machines[i].recovery_seconds)
        << i;
    EXPECT_DOUBLE_EQ(a->machines[i].enum_compute_seconds,
                     b->machines[i].enum_compute_seconds)
        << i;
    EXPECT_DOUBLE_EQ(a->machines[i].build_compute_seconds,
                     b->machines[i].build_compute_seconds)
        << i;
  }
}

TEST(DistRecoveryTest, StragglerSlowsItsMachineOnly) {
  Graph data = GenerateBarabasiAlbert(300, 3, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  DistOptions nominal;
  nominal.num_machines = 3;
  nominal.work_stealing = false;  // isolate the slowdown from rebalancing
  nominal.failure_plan.enabled = true;
  auto fast = DistributedMatch(data, query, nominal);
  ASSERT_TRUE(fast.ok());

  DistOptions dragged = nominal;
  dragged.failure_plan.stragglers = {{0, 4.0}};
  auto slow = DistributedMatch(data, query, dragged);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->embeddings, fast->embeddings);
  EXPECT_GT(slow->machines[0].build_compute_seconds,
            fast->machines[0].build_compute_seconds);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(slow->machines[i].build_compute_seconds,
                     fast->machines[i].build_compute_seconds)
        << i;
  }
}

TEST(DistRecoveryTest, StorageFlakesRetryWithoutChangingResults) {
  Graph data = GenerateBarabasiAlbert(400, 4, 11);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  DistOptions stable;
  stable.num_machines = 4;
  stable.storage = GraphStorage::kShared;
  stable.failure_plan.enabled = true;
  stable.failure_plan.seed = 3;
  auto a = DistributedMatch(data, query, stable);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->total_storage_retries, 0u);

  DistOptions flaky = stable;
  flaky.failure_plan.storage_error_rate = 0.25;
  auto b = DistributedMatch(data, query, flaky);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->embeddings, a->embeddings);
  EXPECT_GT(b->total_storage_retries, 0u);
  // Retries pay modeled latency + backoff through the cost model.
  EXPECT_GT(b->build_io_seconds, a->build_io_seconds);
}

TEST(DistRecoveryTest, RecoveryCountersSurfaceInJson) {
  Graph data = GenerateBarabasiAlbert(300, 3, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  DistOptions options;
  options.num_machines = 3;
  options.failure_plan.enabled = true;
  options.failure_plan.crashes = {{0, 0.0}};
  auto result = DistributedMatch(data, query, options);
  ASSERT_TRUE(result.ok());
  const std::string json = DistResultJson(*result);
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"crashed_machines\":1"), std::string::npos);
  EXPECT_NE(json.find("\"reassigned_clusters\""), std::string::npos);
  EXPECT_NE(json.find("\"storage_retries\""), std::string::npos);
  EXPECT_NE(json.find("\"crashed\":true"), std::string::npos);
}


// --- Golden pin of the failure replay ---
//
// Exact deterministic fields of failure-plan runs: counters compare
// exactly, modeled seconds with EXPECT_DOUBLE_EQ. preprocess_seconds and
// makespan_seconds are measured and are not pinned. Any change to the
// replay's event order, tie breaks, adoption rule or cost arithmetic
// shows up here.

struct GoldenMachine {
  bool crashed;
  std::uint64_t embeddings;
  std::uint64_t stolen_units;
  std::uint64_t reassigned_clusters;
  std::uint64_t storage_retries;
  std::uint64_t messages_received;
  std::uint64_t bytes_received;
  double build_compute_seconds;
  double enum_compute_seconds;
  double io_seconds;
  double comm_seconds;
  double recovery_seconds;
};

struct GoldenScenario {
  std::size_t machines;
  std::size_t lanes;
  GraphStorage storage;
  bool work_stealing;
  std::uint64_t seed;
  std::vector<MachineCrash> crashes;
  std::vector<MachineStraggler> stragglers;
  double storage_error_rate;
};

void ExpectGolden(const GoldenScenario& scenario,
                  const std::vector<GoldenMachine>& expected) {
  Graph data = GenerateBarabasiAlbert(300, 3, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  DistOptions options;
  options.num_machines = scenario.machines;
  options.threads_per_machine = scenario.lanes;
  options.storage = scenario.storage;
  options.work_stealing = scenario.work_stealing;
  options.failure_plan.enabled = true;
  options.failure_plan.seed = scenario.seed;
  options.failure_plan.crashes = scenario.crashes;
  options.failure_plan.stragglers = scenario.stragglers;
  options.failure_plan.storage_error_rate = scenario.storage_error_rate;
  auto result = DistributedMatch(data, query, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->embeddings, 250u);
  ASSERT_EQ(result->machines.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& got = result->machines[i];
    const GoldenMachine& want = expected[i];
    EXPECT_EQ(got.crashed, want.crashed) << "machine " << i;
    EXPECT_EQ(got.embeddings, want.embeddings) << "machine " << i;
    EXPECT_EQ(got.stolen_units, want.stolen_units) << "machine " << i;
    EXPECT_EQ(got.reassigned_clusters, want.reassigned_clusters)
        << "machine " << i;
    EXPECT_EQ(got.storage_retries, want.storage_retries) << "machine " << i;
    EXPECT_EQ(got.messages_received, want.messages_received)
        << "machine " << i;
    EXPECT_EQ(got.bytes_received, want.bytes_received) << "machine " << i;
    EXPECT_DOUBLE_EQ(got.build_compute_seconds, want.build_compute_seconds)
        << "machine " << i;
    EXPECT_DOUBLE_EQ(got.enum_compute_seconds, want.enum_compute_seconds)
        << "machine " << i;
    EXPECT_DOUBLE_EQ(got.io_seconds, want.io_seconds) << "machine " << i;
    EXPECT_DOUBLE_EQ(got.comm_seconds, want.comm_seconds) << "machine " << i;
    EXPECT_DOUBLE_EQ(got.recovery_seconds, want.recovery_seconds)
        << "machine " << i;
  }
}

// A mid-enumeration crash plus a straggler, one lane per machine.
TEST(DistReplayGoldenTest, ReplicatedOneLaneCrashAndStraggler) {
  ExpectGolden({4, 1, GraphStorage::kReplicated, true, 11,
                {{1, 3e-4}}, {{3, 2.5}}, 0.0},
               {
                   {false, 77, 0, 8, 0, 40, 14440, 8.4040000000000012e-06,
                    0.0015686382000000023, 0, 6.0713600000000008e-05,
                    0.0010419682000000043},
                   {true, 99, 0, 0, 0, 1, 300, 8.2460000000000003e-06,
                    0.00027069000000000003, 0, 2.0240000000000003e-05, 0},
                   {false, 29, 1, 47, 0, 49, 17626, 8.3720000000000005e-06,
                    0.0016512728000000025, 0, 2.0236800000000002e-05,
                    0.001025287400000004},
                   {false, 45, 0, 15, 0, 16, 5711, 2.0635000000000001e-05,
                    0.0015912319999999999, 0, 2.0236800000000002e-05,
                    0.00030985700000000062}
               });
}

// Machine 1 adopts clusters from machine 0, then dies itself: the
// orphans follow the adopter chain to machine 2.
TEST(DistReplayGoldenTest, ReplicatedTwoLanesChainedDoubleCrash) {
  ExpectGolden({3, 2, GraphStorage::kReplicated, true, 12,
                {{0, 1e-4}, {1, 2e-4}}, {}, 0.0},
               {
                   {true, 1, 0, 0, 0, 0, 0, 9.9180000000000006e-06,
                    4.6304999999999991e-05, 0, 4.0633600000000003e-05, 0},
                   {true, 102, 0, 47, 0, 87, 27486, 9.1800000000000002e-06,
                    0.00016991499999999995, 0, 2.0316800000000002e-05, 0},
                   {false, 147, 0, 191, 0, 287, 85844, 1.0022e-05,
                    0.0038227042000000206, 0, 2.0316800000000002e-05,
                    0.0066644984000000362}
               });
}

// Orphans are adopted even with stealing off; nothing is stolen.
TEST(DistReplayGoldenTest, ReplicatedTwoLanesNoStealing) {
  ExpectGolden({4, 2, GraphStorage::kReplicated, false, 13,
                {{3, 1.5e-4}}, {{0, 4.0}}, 0.0},
               {
                   {false, 70, 0, 0, 0, 0, 0, 3.3616000000000005e-05,
                    0.0010533599999999999, 0, 6.0713600000000008e-05, 0},
                   {false, 109, 0, 41, 0, 56, 17185, 8.2460000000000003e-06,
                    0.0009270417999999996, 0, 2.0240000000000003e-05,
                    0.0012624479999999993},
                   {false, 46, 0, 29, 0, 53, 16260, 8.3720000000000005e-06,
                    0.00089574059999999989, 0, 2.0236800000000002e-05,
                    0.0011825112000000003},
                   {true, 25, 0, 0, 0, 1, 296, 8.2540000000000009e-06,
                    0.00012005500000000002, 0, 2.0236800000000002e-05, 0}
               });
}

// Shared storage with flaky reads, a straggler and a crash.
TEST(DistReplayGoldenTest, SharedOneLaneFlakyStorage) {
  ExpectGolden({4, 1, GraphStorage::kShared, true, 7,
                {{2, 2.1e-3}}, {{1, 3.0}}, 0.2},
               {
                   {false, 44, 41, 45, 0, 86, 31910, 8.3720000000000005e-06,
                    0.0024815106000000073, 0.00056988375000000002,
                    6.0710400000000007e-05, 0.00098220460000000322},
                   {false, 60, 0, 7, 1, 8, 2900, 2.5290000000000004e-05,
                    0.0012739056000000046, 0.0017693725000000001,
                    2.0236800000000002e-05, 0.00012421560000000151},
                   {true, 113, 0, 0, 1, 1, 296, 8.3280000000000006e-06,
                    0.00030362500000000051, 0.00176085, 2.0236800000000002e-05,
                    0},
                   {false, 33, 44, 17, 0, 85, 31456, 8.2700000000000004e-06,
                    0.0025214080000000071, 0.00055735500000000005,
                    2.0236800000000002e-05, 0.0010021240000000035}
               });
}

// Machine 0 dies before doing anything; every unit moves.
TEST(DistReplayGoldenTest, SharedTwoLanesCrashAtZero) {
  ExpectGolden({4, 2, GraphStorage::kShared, true, 21,
                {{0, 0.0}}, {}, 0.1},
               {
                   {true, 0, 0, 0, 0, 0, 0, 8.3720000000000005e-06, 0,
                    0.00056988375000000002, 6.0710400000000007e-05, 0},
                   {false, 64, 0, 2, 1, 42, 15302, 8.4300000000000006e-06,
                    0.00027396499999999971, 0.0017693725000000001,
                    2.0236800000000002e-05, 0},
                   {false, 139, 50, 37, 0, 88, 29088, 8.3280000000000006e-06,
                    0.0014996384000000016, 0.00056085, 2.0236800000000002e-05,
                    0.0014283096000000004},
                   {false, 47, 48, 36, 0, 85, 28112, 8.2700000000000004e-06,
                    0.0014892212000000005, 0.00055735500000000005,
                    2.0236800000000002e-05, 0.0014586946000000006}
               });
}

}  // namespace
}  // namespace ceci
