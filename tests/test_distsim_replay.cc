// Tests for the deterministic work-stealing replay and simulated-time
// accounting of the distributed runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "dist/cost_model.h"
#include "distsim/dist_matcher.h"
#include "distsim/replay.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "test_support.h"

namespace ceci {
namespace {

using distsim::AdopterMap;
using distsim::DistOptions;
using distsim::DistributedMatch;
using distsim::GraphStorage;
using distsim::kNoMachine;
using distsim::Replay;
using distsim::ReplayMachine;
using distsim::ReplayOutcome;
using distsim::ReplayStep;
using distsim::ReplayUnit;

TEST(DistReplayTest, EmbeddingCountsAreStealingInvariant) {
  // Stealing redistributes *time*, never work: counts must be identical.
  Graph data = GenerateSocialGraph(500, 8, 3);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  DistOptions with;
  with.num_machines = 4;
  DistOptions without = with;
  without.config.work_stealing = false;
  auto a = DistributedMatch(data, query, with);
  auto b = DistributedMatch(data, query, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->embeddings, b->embeddings);
}

TEST(DistReplayTest, StealingNeverSlowsTheSlowestMachine) {
  // The replay moves tail units to idle machines; the resulting makespan
  // must not exceed the no-stealing one. Modeled unit times of 1–20 ms
  // against a 20 µs steal transfer, and skewed queues so steals do
  // happen: machine m holds 4·m units, machine 0 none at all.
  const dist::CostModel model;
  std::vector<ReplayMachine> input(8);
  std::uint64_t next_id = 0;
  for (std::size_t m = 0; m < input.size(); ++m) {
    input[m].start_seconds = 1e-3 * static_cast<double>(m % 3);
    input[m].steal_bytes = 4096;
    for (std::size_t u = 0; u < 4 * m; ++u) {
      const double seconds = 1e-3 * static_cast<double>(1 + (7 * u + m) % 20);
      input[m].queue.push_back(
          ReplayUnit{next_id++, seconds, static_cast<VertexId>(m)});
    }
  }
  auto makespan = [&](const ReplayOutcome& out) {
    double latest = 0.0;
    for (std::size_t m = 0; m < input.size(); ++m) {
      latest = std::max(latest,
                        input[m].start_seconds + out.machines[m].busy_seconds);
    }
    return latest;
  };

  const ReplayOutcome with = Replay(input, /*work_stealing=*/true, model);
  const ReplayOutcome without = Replay(input, /*work_stealing=*/false, model);
  std::uint64_t steals = 0;
  std::size_t steps = 0;
  for (const auto& machine : with.machines) {
    steals += machine.stolen_units;
    steps += machine.steps.size();
  }
  EXPECT_GT(steals, 0u);
  EXPECT_EQ(steps, next_id);
  EXPECT_LE(makespan(with), makespan(without));
  // Without stealing the slowest machine runs its own queue alone.
  double own = 0.0;
  for (const ReplayUnit& unit : input.back().queue) own += unit.base_seconds;
  EXPECT_DOUBLE_EQ(makespan(without), input.back().start_seconds + own);
}

TEST(DistReplayTest, StealsHappenOnlyWhenImbalanced) {
  // A single machine cannot steal from anyone.
  Graph data = GenerateSocialGraph(300, 6, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  DistOptions options;
  options.num_machines = 1;
  auto result = DistributedMatch(data, query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->machines[0].stolen_units, 0u);
}

TEST(DistReplayTest, MoreMachinesNeverIncreaseWork) {
  // Total own-enumeration CPU is partition-invariant up to small jitter.
  Graph data = GenerateSocialGraph(600, 8, 9);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  double totals[2] = {0, 0};
  std::size_t machine_counts[2] = {1, 8};
  std::uint64_t counts[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    DistOptions options;
    options.num_machines = machine_counts[i];
    auto result = DistributedMatch(data, query, options);
    ASSERT_TRUE(result.ok());
    counts[i] = result->embeddings;
    for (const auto& m : result->machines) {
      totals[i] += m.enum_compute_seconds;
    }
  }
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(DistReplayTest, ThreadsPerMachineShortenEnumWindow) {
  Graph data = GenerateSocialGraph(1500, 10, 11);
  Graph query = MakePaperQuery(PaperQuery::kQG5);
  double windows[2] = {0, 0};
  std::size_t lanes[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    DistOptions options;
    options.num_machines = 2;
    options.threads_per_machine = lanes[i];
    auto result = DistributedMatch(data, query, options);
    ASSERT_TRUE(result.ok());
    for (const auto& m : result->machines) {
      windows[i] = std::max(windows[i], m.enum_compute_seconds);
    }
  }
  // Four lanes over the same unit set must not be slower than one.
  EXPECT_LE(windows[1], windows[0] * 1.25 + 1e-3);
}

TEST(DistReplayTest, SharedModeBuildIoScalesWithWork) {
  // Doubling the machine count re-reads overlapping frontiers: the total
  // modeled IO cannot shrink.
  Graph data = GenerateSocialGraph(800, 8, 13);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  double io[2] = {0, 0};
  std::size_t machine_counts[2] = {2, 8};
  for (int i = 0; i < 2; ++i) {
    DistOptions options;
    options.num_machines = machine_counts[i];
    options.storage = GraphStorage::kShared;
    auto result = DistributedMatch(data, query, options);
    ASSERT_TRUE(result.ok());
    io[i] = result->build_io_seconds;
  }
  EXPECT_GE(io[1], io[0] * 0.9);
}

TEST(DistReplayTest, ReportsConsistentTotals) {
  Graph data = GenerateSocialGraph(400, 8, 17);
  Graph query = MakePaperQuery(PaperQuery::kQG2);
  DistOptions options;
  options.num_machines = 3;
  auto result = DistributedMatch(data, query, options);
  ASSERT_TRUE(result.ok());
  std::uint64_t sum = 0;
  for (const auto& m : result->machines) {
    sum += m.embeddings;
    EXPECT_GE(m.total_seconds,
              m.build_compute_seconds + m.enum_compute_seconds - 1e-9);
  }
  EXPECT_EQ(sum, result->embeddings);
  EXPECT_GE(result->makespan_seconds, result->preprocess_seconds);
}

// A failure-free simulation credits each unit's embeddings to the machine
// whose replay steps ran it. Two hubs (label 1) with 3000 and 2000 leaves
// and the edge query (a:1)-(b:0): two pivots on four machines, so
// machines 2 and 3 own nothing and start first. Each hub's cluster is
// extreme and splits into one-edge units of exactly one embedding, so an
// empty machine's steps are its steals and its embeddings equal their
// number.
TEST(DistReplayTest, EmbeddingsFollowTheMachineThatRanTheUnit) {
  std::vector<Label> labels(5002, 0);
  labels[0] = labels[1] = 1;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId leaf = 2; leaf < 5002; ++leaf) {
    edges.push_back({leaf < 3002 ? VertexId{0} : VertexId{1}, leaf});
  }
  const Graph data = testing::MakeGraph(labels, edges);
  const Graph query = testing::MakeGraph({1, 0}, {{0, 1}});
  DistOptions options;
  options.num_machines = 4;
  for (bool stealing : {true, false}) {
    options.config.work_stealing = stealing;
    auto result = DistributedMatch(data, query, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->machines.size(), 4u);
    EXPECT_EQ(result->embeddings, 5000u);
    std::uint64_t sum = 0;
    std::uint64_t empty_steals = 0;
    for (std::size_t m = 0; m < 4; ++m) {
      const auto& machine = result->machines[m];
      sum += machine.embeddings;
      if (machine.pivots == 0) {
        EXPECT_EQ(machine.embeddings, machine.stolen_units) << "m" << m;
        empty_steals += machine.stolen_units;
      }
    }
    EXPECT_EQ(sum, result->embeddings);
    if (stealing) {
      EXPECT_GT(empty_steals, 0u);
    } else {
      // Nothing moves: each hub's machine keeps its own cluster.
      EXPECT_EQ(result->machines[0].embeddings +
                    result->machines[1].embeddings,
                5000u);
      EXPECT_EQ(std::max(result->machines[0].embeddings,
                         result->machines[1].embeddings),
                3000u);
    }
  }
}

// --- The shared replay on synthetic unit tables (no graph, no processes) ---

/// `machines` machines with `units_each` units apiece, numbered globally
/// in machine order; unit u belongs to cluster u / 3 and takes 1 + u % 5
/// microseconds.
std::vector<ReplayMachine> SyntheticCluster(std::size_t machines,
                                            std::size_t units_each) {
  std::vector<ReplayMachine> out(machines);
  std::uint64_t id = 0;
  for (std::size_t k = 0; k < machines; ++k) {
    out[k].start_seconds = 1e-6 * static_cast<double>(k);
    out[k].steal_bytes = 64;
    for (std::size_t u = 0; u < units_each; ++u, ++id) {
      out[k].queue.push_back(
          ReplayUnit{id, 1e-6 * static_cast<double>(1 + id % 5),
                     static_cast<VertexId>(id / 3)});
    }
  }
  return out;
}

std::uint64_t TotalUnits(const std::vector<ReplayMachine>& machines) {
  std::uint64_t total = 0;
  for (const ReplayMachine& m : machines) total += m.queue.size();
  return total;
}

/// Every unit appears in exactly one completed step across the cluster.
void ExpectEachUnitOnce(const std::vector<ReplayMachine>& input,
                        const ReplayOutcome& outcome) {
  std::vector<int> runs(TotalUnits(input), 0);
  for (const auto& machine : outcome.machines) {
    for (const ReplayStep& step : machine.steps) {
      ASSERT_LT(step.unit_id, runs.size());
      ++runs[step.unit_id];
    }
  }
  for (std::size_t id = 0; id < runs.size(); ++id) {
    EXPECT_EQ(runs[id], 1) << "unit " << id;
  }
}

TEST(ReplayCoreTest, CrashAtTimeZeroHandsEveryUnitToASurvivor) {
  std::vector<ReplayMachine> input = SyntheticCluster(3, 12);
  input[0].crash_seconds = 0.0;
  const ReplayOutcome out = Replay(input, true, dist::CostModel{});
  EXPECT_TRUE(out.machines[0].crashed);
  EXPECT_TRUE(out.machines[0].steps.empty());
  EXPECT_EQ(out.machines[0].reassigned_clusters, 0u);
  EXPECT_EQ(out.orphan_events.size(), input[0].queue.size());
  std::set<std::uint64_t> adopted;
  for (std::size_t k = 1; k < 3; ++k) {
    for (const ReplayStep& step : out.machines[k].steps) {
      if (step.unit_id >= input[0].queue.size()) continue;
      EXPECT_TRUE(step.adopted) << "unit " << step.unit_id;
      EXPECT_EQ(step.gate, 0u) << "unit " << step.unit_id;
      adopted.insert(step.unit_id);
    }
  }
  EXPECT_EQ(adopted.size(), input[0].queue.size());
  ExpectEachUnitOnce(input, out);
}

TEST(ReplayCoreTest, CascadingCrashesAdoptEachClusterOnceAndOnlyToTheLiving) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> crash_time(0.0, 4e-5);
  int cascades = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ReplayMachine> input = SyntheticCluster(4, 10);
    // Two or three machines die at random times; machine 3 survives.
    const std::size_t crashes = 2 + static_cast<std::size_t>(trial % 2);
    for (std::size_t k = 0; k < crashes; ++k) {
      input[k].crash_seconds = crash_time(rng);
    }
    const ReplayOutcome out = Replay(input, trial % 3 != 0,
                                     dist::CostModel{});
    ExpectEachUnitOnce(input, out);

    // Each (dead machine, cluster) pair went to exactly one adopter (the
    // executor, unless a thief took the unit afterwards), and whoever ran
    // an adopted unit was alive when its releaser crashed.
    std::map<std::pair<std::uint32_t, VertexId>, std::size_t> adopter_of;
    for (std::size_t k = 0; k < out.machines.size(); ++k) {
      for (const ReplayStep& step : out.machines[k].steps) {
        if (!step.adopted) continue;
        EXPECT_NE(k, step.gate) << "trial " << trial;
        EXPECT_GT(input[k].crash_seconds, input[step.gate].crash_seconds)
            << "trial " << trial << ": machine " << k << " ran a unit of "
            << "machine " << step.gate << " after dying";
        if (step.stolen) continue;
        const VertexId pivot = static_cast<VertexId>(step.unit_id / 3);
        auto [it, fresh] = adopter_of.emplace(std::pair{step.gate, pivot}, k);
        EXPECT_EQ(it->second, k) << "trial " << trial << " pivot " << pivot;
      }
    }
    std::set<std::pair<std::uint32_t, VertexId>> distinct(
        out.orphan_events.begin(), out.orphan_events.end());
    std::uint64_t reassigned = 0;
    for (const auto& machine : out.machines) {
      reassigned += machine.reassigned_clusters;
      // An adopter that died later passed its adopted clusters on.
      if (machine.crashed && machine.reassigned_clusters > 0) ++cascades;
    }
    EXPECT_EQ(distinct.size(), reassigned) << "trial " << trial;
  }
  EXPECT_GT(cascades, 0) << "no trial crashed an adopter";
}

TEST(ReplayCoreTest, AdopterMapWalksPastADeadAdopter) {
  AdopterMap adopters(4);
  std::vector<bool> alive = {false, true, true, true};
  std::vector<double> load = {0.0, 3.0, 1.0, 2.0};
  auto is_alive = [&](std::size_t j) { return alive[j]; };
  auto load_of = [&](std::size_t j) { return load[j]; };

  // The first orphan of (0, 7) decides: least-loaded live machine 2.
  AdopterMap::Adoption first = adopters.Adopt(0, 7, is_alive, load_of);
  EXPECT_EQ(first.adopter, 2u);
  EXPECT_TRUE(first.new_cluster);
  // Siblings follow the decision, whatever the loads say now.
  load[2] = 10.0;
  AdopterMap::Adoption sibling = adopters.Adopt(0, 7, is_alive, load_of);
  EXPECT_EQ(sibling.adopter, 2u);
  EXPECT_FALSE(sibling.new_cluster);
  // Once the adopter dies, the walk continues from its own decisions:
  // machine 2 has none for cluster 7, so a new survivor is chosen there.
  alive[2] = false;
  AdopterMap::Adoption hop = adopters.Adopt(0, 7, is_alive, load_of);
  EXPECT_EQ(hop.adopter, 3u);
  EXPECT_TRUE(hop.new_cluster);
  EXPECT_EQ(adopters.Adopt(2, 7, is_alive, load_of).adopter, 3u);
  // Nobody left alive: no adopter.
  alive[1] = alive[3] = false;
  EXPECT_EQ(adopters.Adopt(0, 8, is_alive, load_of).adopter, kNoMachine);
}

TEST(ReplayCoreTest, TwoLanesNeverLengthenTheBusyWindow) {
  for (std::size_t units : {1u, 2u, 7u, 30u}) {
    std::vector<ReplayMachine> one = SyntheticCluster(3, units);
    std::vector<ReplayMachine> two = one;
    for (ReplayMachine& m : two) m.lanes = 2;
    const ReplayOutcome a = Replay(one, false, dist::CostModel{});
    const ReplayOutcome b = Replay(two, false, dist::CostModel{});
    for (std::size_t k = 0; k < one.size(); ++k) {
      EXPECT_LE(b.machines[k].busy_seconds, a.machines[k].busy_seconds)
          << units << " units, machine " << k;
    }
    ExpectEachUnitOnce(two, b);
  }
}

TEST(ReplayCoreTest, StealingOffStealsNothing) {
  std::vector<ReplayMachine> input = SyntheticCluster(4, 9);
  // A slow machine next to idle ones: stealing would move its tail.
  input[2].slowdown = 5.0;
  input[3].queue.clear();
  const ReplayOutcome off = Replay(input, false, dist::CostModel{});
  for (std::size_t k = 0; k < input.size(); ++k) {
    EXPECT_EQ(off.machines[k].stolen_units, 0u) << k;
    EXPECT_EQ(off.machines[k].steps.size(), input[k].queue.size()) << k;
    for (const ReplayStep& step : off.machines[k].steps) {
      EXPECT_FALSE(step.stolen);
    }
  }
  const ReplayOutcome on = Replay(input, true, dist::CostModel{});
  EXPECT_GT(on.machines[3].stolen_units, 0u);
  ExpectEachUnitOnce(input, on);
}

}  // namespace
}  // namespace ceci
