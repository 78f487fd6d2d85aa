// End-to-end tests for the real multi-process runtime (dist/supervisor.h):
// failure-free totals against the single-process matcher, the kill-9 chaos
// harness (genuine SIGKILL of workers mid-enumeration, 20+ seeded trials),
// and the sim-vs-real differential — the same FailurePlan must produce
// identical recovery accounting in distsim::DistributedMatch and
// dist::RunDistributed — plus an unscripted SIGKILL under the default deep
// dispatch window. Needs the ceci_worker binary, so this target
// depends on the tools build (CECI_TOOLS_DIR).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ceci/matcher.h"
#include "dist/supervisor.h"
#include "distsim/dist_matcher.h"
#include "distsim/failure.h"
#include "gen/random_graphs.h"
#include "graphio/pattern_parser.h"
#include "util/logging.h"

#ifndef CECI_TOOLS_DIR
#error "CECI_TOOLS_DIR must point at the built tool binaries"
#endif

namespace ceci {
namespace {

const char* WorkerBinary() { return CECI_TOOLS_DIR "/ceci_worker"; }

dist::DistProcessOptions BaseOptions(std::size_t workers) {
  dist::DistProcessOptions options;
  options.num_workers = workers;
  options.worker_binary = WorkerBinary();
  options.jaccard_top_k = 64;
  return options;
}

/// The matching simulation configuration: same partitioning, same cluster
/// decomposition, same stealing policy, one lane per machine (the process
/// runtime enumerates single-threaded per worker).
distsim::DistOptions MirrorSimOptions(const dist::DistProcessOptions& real) {
  distsim::DistOptions sim;
  sim.num_machines = real.num_workers;
  sim.threads_per_machine = 1;
  sim.storage = distsim::GraphStorage::kReplicated;
  sim.beta = real.beta;
  sim.decompose_extreme_clusters = real.decompose_extreme_clusters;
  sim.break_automorphisms = real.break_automorphisms;
  sim.work_stealing = real.work_stealing;
  sim.jaccard_top_k = real.jaccard_top_k;
  sim.failure_plan = real.failure_plan;
  return sim;
}

class DistProcessTest : public ::testing::Test {
 protected:
  DistProcessTest()
      : data_(GenerateErdosRenyi(240, 1500, 13)),
        query_(ParsePattern("(a)-(b); (b)-(c); (a)-(c)").value()) {}

  std::uint64_t SingleProcessCount() const {
    CeciMatcher matcher(data_);
    auto count = matcher.Count(query_);
    CECI_CHECK(count.ok()) << count.status().ToString();
    return *count;
  }

  Graph data_;
  Graph query_;
};

TEST_F(DistProcessTest, FailureFreeRunMatchesSingleProcessTotals) {
  auto report = dist::RunDistributed(data_, query_, BaseOptions(3));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->embeddings, SingleProcessCount());
  EXPECT_EQ(report->crashed_workers, 0u);
  EXPECT_EQ(report->total_redelivered_units, 0u);
  EXPECT_EQ(report->total_reassigned_clusters, 0u);
  EXPECT_TRUE(report->audit_ok) << report->audit_summary;
  ASSERT_EQ(report->workers.size(), 3u);
  std::uint64_t sum = 0;
  std::uint64_t units = 0;
  for (const auto& w : report->workers) {
    EXPECT_FALSE(w.crashed);
    EXPECT_TRUE(w.exited);
    EXPECT_EQ(w.exit_code, 0);
    sum += w.embeddings;
    units += w.units_executed;
  }
  EXPECT_EQ(sum, report->embeddings);
  EXPECT_EQ(units, report->total_units);
}

TEST_F(DistProcessTest, QueryThatFormatPatternRenumbersCountsExactly) {
  // The 4-cycle a-b-c-d-a formats with d before c, so workers parse the
  // pattern with c and d swapped relative to the caller's numbering.
  Graph data = GenerateSocialGraph(3000, 8, 21);
  auto query = ParsePattern("(a:0)-(b:0)-(c:0)-(d:0)-(a)");
  ASSERT_TRUE(query.ok());
  auto reparsed = ParsePattern(FormatPattern(*query));
  ASSERT_TRUE(reparsed.ok());
  ASSERT_NE(FormatPattern(*reparsed), FormatPattern(*query));
  CeciMatcher matcher(data);
  auto expected = matcher.Count(*query);
  ASSERT_TRUE(expected.ok());
  auto report = dist::RunDistributed(data, *query, BaseOptions(3));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->embeddings, *expected);
  EXPECT_TRUE(report->audit_ok) << report->audit_summary;
}

TEST_F(DistProcessTest, CopyModeAndNoStealingStillExact) {
  auto options = BaseOptions(3);
  options.use_mmap = false;
  options.work_stealing = false;
  auto report = dist::RunDistributed(data_, query_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->embeddings, SingleProcessCount());
  EXPECT_EQ(report->total_stolen_units, 0u);
  EXPECT_TRUE(report->audit_ok) << report->audit_summary;
}

TEST_F(DistProcessTest, RejectsInvalidConfigurations) {
  auto options = BaseOptions(3);
  options.worker_binary = "/nonexistent/ceci_worker";
  EXPECT_FALSE(dist::RunDistributed(data_, query_, options).ok());

  options = BaseOptions(3);
  options.failure_plan.enabled = true;
  distsim::MachineCrash crash;
  crash.machine = 9;  // out of range for 3 workers
  crash.at_seconds = 1e-6;
  options.failure_plan.crashes.push_back(crash);
  EXPECT_FALSE(dist::RunDistributed(data_, query_, options).ok());

  options = BaseOptions(0);
  EXPECT_FALSE(dist::RunDistributed(data_, query_, options).ok());
}

// The acceptance gate: SIGKILL of any single worker mid-enumeration, 20
// seeded trials varying the victim and the crash time (plus a straggler
// so start offsets shift), every trial bit-identical to the failure-free
// total, with the recovery visible in the report.
TEST_F(DistProcessTest, TwentySeededKillTrialsRecoverExactTotals) {
  const std::uint64_t expected = SingleProcessCount();
  std::mt19937_64 rng(0xd15f);
  std::uniform_real_distribution<double> crash_time(1e-7, 1e-4);
  std::uniform_real_distribution<double> slowdown(1.0, 6.0);
  for (int trial = 0; trial < 20; ++trial) {
    auto options = BaseOptions(3);
    options.failure_plan.enabled = true;
    options.failure_plan.seed = rng();
    distsim::MachineCrash crash;
    crash.machine = static_cast<std::uint32_t>(trial % 3);
    crash.at_seconds = crash_time(rng);
    options.failure_plan.crashes.push_back(crash);
    distsim::MachineStraggler straggler;
    straggler.machine = static_cast<std::uint32_t>((trial + 1) % 3);
    straggler.slowdown = slowdown(rng);
    options.failure_plan.stragglers.push_back(straggler);

    auto report = dist::RunDistributed(data_, query_, options);
    ASSERT_TRUE(report.ok()) << "trial " << trial << ": "
                             << report.status().ToString();
    EXPECT_EQ(report->embeddings, expected)
        << "trial " << trial << " (victim " << crash.machine << " at "
        << crash.at_seconds << "s) lost or duplicated embeddings";
    EXPECT_EQ(report->crashed_workers, 1u) << "trial " << trial;
    EXPECT_TRUE(report->audit_ok)
        << "trial " << trial << ": " << report->audit_summary;

    const auto& victim = report->workers[crash.machine];
    EXPECT_TRUE(victim.crashed) << "trial " << trial;
    EXPECT_TRUE(victim.killed_by_plan) << "trial " << trial;
    EXPECT_TRUE(victim.signaled) << "trial " << trial;
    EXPECT_EQ(victim.term_signal, SIGKILL) << "trial " << trial;
    if (victim.initial_units > 0 && crash.at_seconds < 1e-5) {
      // An early crash of a loaded worker must leave visible recovery.
      EXPECT_GT(report->total_reassigned_clusters, 0u) << "trial " << trial;
      EXPECT_GT(report->total_redelivered_units, 0u) << "trial " << trial;
    }
    // At-most-once adoption: distinct (worker, pivot) orphan events match
    // the reassignment counter, and only survivors adopted.
    std::set<std::pair<std::uint32_t, VertexId>> distinct(
        report->orphan_events.begin(), report->orphan_events.end());
    EXPECT_EQ(distinct.size(), report->total_reassigned_clusters)
        << "trial " << trial;
    for (const auto& [dead, pivot] : report->orphan_events) {
      EXPECT_EQ(dead, crash.machine) << "trial " << trial;
    }
  }
}

TEST_F(DistProcessTest, DoubleCrashWithChainedAdoptionRecovers) {
  auto options = BaseOptions(4);
  options.failure_plan.enabled = true;
  options.failure_plan.seed = 99;
  for (std::uint32_t machine : {0u, 2u}) {
    distsim::MachineCrash crash;
    crash.machine = machine;
    crash.at_seconds = machine == 0 ? 1e-6 : 5e-5;
    options.failure_plan.crashes.push_back(crash);
  }
  auto report = dist::RunDistributed(data_, query_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->embeddings, SingleProcessCount());
  EXPECT_EQ(report->crashed_workers, 2u);
  EXPECT_TRUE(report->audit_ok) << report->audit_summary;
  EXPECT_TRUE(report->workers[0].crashed);
  EXPECT_TRUE(report->workers[2].crashed);
  EXPECT_FALSE(report->workers[1].crashed);
  EXPECT_FALSE(report->workers[3].crashed);
}

// Differential: the scripted real run and the simulation replay the same
// deterministic timeline, so per-machine recovery accounting must agree
// exactly — crash flags, adopted clusters, stolen units, and embeddings.
TEST_F(DistProcessTest, ScriptedRunMatchesSimulationAccounting) {
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> crash_time(1e-7, 1e-4);
  for (int trial = 0; trial < 6; ++trial) {
    auto options = BaseOptions(3);
    options.failure_plan.enabled = true;
    options.failure_plan.seed = rng();
    distsim::MachineCrash crash;
    crash.machine = static_cast<std::uint32_t>(trial % 3);
    crash.at_seconds = crash_time(rng);
    options.failure_plan.crashes.push_back(crash);
    if (trial % 2 == 1) {
      distsim::MachineStraggler straggler;
      straggler.machine = static_cast<std::uint32_t>((trial + 1) % 3);
      straggler.slowdown = 3.5;
      options.failure_plan.stragglers.push_back(straggler);
    }

    auto real = dist::RunDistributed(data_, query_, options);
    ASSERT_TRUE(real.ok()) << "trial " << trial << ": "
                           << real.status().ToString();
    auto sim = distsim::DistributedMatch(data_, query_,
                                         MirrorSimOptions(options));
    ASSERT_TRUE(sim.ok()) << "trial " << trial << ": "
                          << sim.status().ToString();

    EXPECT_EQ(real->embeddings, sim->embeddings) << "trial " << trial;
    EXPECT_EQ(real->crashed_workers, sim->crashed_machines)
        << "trial " << trial;
    EXPECT_EQ(real->total_reassigned_clusters,
              sim->total_reassigned_clusters)
        << "trial " << trial;
    ASSERT_EQ(real->workers.size(), sim->machines.size());
    for (std::size_t m = 0; m < sim->machines.size(); ++m) {
      const auto& rw = real->workers[m];
      const auto& sm = sim->machines[m];
      EXPECT_EQ(rw.crashed, sm.crashed) << "trial " << trial << " w" << m;
      EXPECT_EQ(rw.embeddings, sm.embeddings)
          << "trial " << trial << " w" << m;
      EXPECT_EQ(rw.reassigned_clusters, sm.reassigned_clusters)
          << "trial " << trial << " w" << m;
      EXPECT_EQ(rw.stolen_units, sm.stolen_units)
          << "trial " << trial << " w" << m;
    }
  }
}

// An unscripted death with a deep window: a wrapper execs the real worker
// and, for worker 0 only, SIGKILLs it once it has used 40 ms of CPU — a
// third of the way through its share, with a full dispatch window in
// flight and results queued but not yet flushed. Reactive recovery must
// still count every unit exactly once. The trigger is CPU time, not wall
// time, so a loaded host cannot let the worker finish before the kill.
TEST_F(DistProcessTest, ReactiveKillWithDeepWindowRecoversExactTotals) {
  // The 4-cycle gives each worker about 100 ms of enumeration CPU here.
  Graph data = GenerateSocialGraph(20000, 8, 21);
  auto query = ParsePattern("(a:0)-(b:0)-(c:0)-(d:0)-(a)");
  ASSERT_TRUE(query.ok());
  CeciMatcher matcher(data);
  auto expected = matcher.Count(*query);
  ASSERT_TRUE(expected.ok());

  std::string dir = (std::filesystem::temp_directory_path() /
                     "ceci_reactive_kill.XXXXXX")
                        .string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string wrapper = dir + "/kill_worker0.sh";
  {
    std::ofstream script(wrapper);
    // $$ is the shell that becomes ceci_worker through exec. The watcher
    // reads its utime + stime (fields 14 and 15 of /proc/PID/stat, in
    // 10 ms ticks) and drops the channel descriptor so EOF follows the
    // kill.
    script << "#!/bin/sh\n"
           << "case \" $* \" in *\" --worker-id 0 \"*)\n"
           << "  ( while :; do\n"
           << "      set -- $(cat /proc/$$/stat 2>/dev/null)\n"
           << "      [ $# -ge 15 ] || exit 0\n"
           << "      [ $((${14} + ${15})) -ge 4 ] && break\n"
           << "      sleep 0.002\n"
           << "    done\n"
           << "    kill -9 $$ ) 3>&- & ;;\n"
           << "esac\n"
           << "exec " << WorkerBinary() << " \"$@\"\n";
  }
  ASSERT_EQ(::chmod(wrapper.c_str(), 0755), 0);

  auto options = BaseOptions(3);
  options.worker_binary = wrapper;
  auto report = dist::RunDistributed(data, *query, options);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->total_units, 1000u);
  EXPECT_EQ(report->embeddings, *expected);
  EXPECT_TRUE(report->audit_ok) << report->audit_summary;
  EXPECT_EQ(report->crashed_workers, 1u);
  EXPECT_TRUE(report->workers[0].crashed);
  EXPECT_FALSE(report->workers[0].killed_by_plan);
  EXPECT_TRUE(report->workers[0].signaled);
  EXPECT_EQ(report->workers[0].term_signal, SIGKILL);
  EXPECT_FALSE(report->orphan_events.empty());
  for (const auto& [dead, pivot] : report->orphan_events) {
    EXPECT_EQ(dead, 0u) << "pivot " << pivot;
  }
}

TEST_F(DistProcessTest, ReportJsonCarriesRecoveryFields) {
  auto options = BaseOptions(3);
  options.failure_plan.enabled = true;
  options.failure_plan.seed = 5;
  distsim::MachineCrash crash;
  crash.machine = 1;
  crash.at_seconds = 2e-6;
  options.failure_plan.crashes.push_back(crash);
  auto report = dist::RunDistributed(data_, query_, options);
  ASSERT_TRUE(report.ok());
  const std::string json = dist::DistRunReportJson(*report);
  for (const char* key :
       {"\"embeddings\"", "\"crashed_workers\"", "\"reassigned_clusters\"",
        "\"redelivered_units\"", "\"orphan_events\"", "\"workers\"",
        "\"audit_ok\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// Golden pin of the scripted schedule the supervisor follows: orphan
// events in order, and the per-worker counters and modeled seconds that
// come from the replay rather than from real timing. Worker 0 dies
// mid-enumeration; worker 2 dies later and passes on what it adopted.
TEST(DistReplayGoldenTest, SupervisorScriptedOrphanEvents) {
  Graph data = GenerateErdosRenyi(240, 1500, 13);
  auto query = ParsePattern("(a)-(b); (b)-(c); (a)-(c)");
  ASSERT_TRUE(query.ok());
  auto options = BaseOptions(3);
  options.failure_plan.enabled = true;
  options.failure_plan.seed = 5;
  options.failure_plan.crashes = {{0, 8e-5}, {2, 1.05e-4}};
  auto report = dist::RunDistributed(data, *query, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->embeddings, 394u);
  EXPECT_TRUE(report->audit_ok) << report->audit_summary;

  const std::vector<std::pair<std::uint32_t, VertexId>> expected_events = {
      {0, 1}, {0, 21}, {0, 67}, {0, 92}, {0, 115}, {0, 138}, {0, 141}, {0, 153},
      {0, 179}, {0, 180}, {0, 226}, {0, 89}, {0, 95}, {0, 137}, {0, 151},
      {0, 216}, {0, 23}, {0, 31}, {0, 34}, {0, 37}, {0, 54}, {0, 87}, {0, 128},
      {0, 149}, {0, 185}, {0, 205}, {0, 208}, {0, 32}, {0, 50}, {0, 76},
      {0, 111}, {0, 152}, {0, 189}, {0, 213}, {0, 39}, {0, 74}, {0, 129},
      {0, 132}, {0, 193}, {0, 239}, {0, 10}, {0, 38}, {0, 46}, {0, 59},
      {0, 182}, {0, 183}, {0, 3}, {0, 16}, {0, 120}, {0, 206}, {0, 210},
      {0, 221}, {0, 229}, {0, 109}, {0, 121}, {0, 47}, {0, 119}, {0, 60},
      {0, 196}, {0, 7}, {0, 214}, {2, 92}, {2, 138}, {2, 153}, {2, 180},
      {2, 89}, {2, 137}, {2, 216}, {2, 31}, {2, 37}, {2, 87}, {2, 149},
      {2, 205}, {2, 32}, {2, 76}, {2, 152}, {2, 213}, {2, 74}, {2, 132},
      {2, 239}, {2, 38}, {2, 59}, {2, 183}, {2, 16}, {2, 206}, {2, 221},
      {2, 109}, {2, 47}, {2, 60}, {2, 7}, {2, 21}};
  EXPECT_EQ(report->orphan_events, expected_events);

  struct GoldenWorker {
    bool crashed;
    std::uint64_t reassigned_clusters;
    std::uint64_t stolen_units;
    std::uint64_t adopted_units;
    std::uint64_t embeddings;
    double modeled_start_seconds;
    double modeled_enum_seconds;
    double recovery_seconds;
  };
  const std::vector<GoldenWorker> expected_workers = {
      {true, 0, 0, 0, 58, 5.0890000000000002e-05, 2.9035000000000002e-05, 0},
      {false, 61, 0, 61, 197, 3.0627999999999999e-05, 0.0013584351999999997,
       0.0012873451999999997},
      {true, 30, 0, 0, 139, 3.065e-05, 7.4154999999999875e-05, 0}};
  ASSERT_EQ(report->workers.size(), expected_workers.size());
  for (std::size_t k = 0; k < expected_workers.size(); ++k) {
    const auto& got = report->workers[k];
    const GoldenWorker& want = expected_workers[k];
    EXPECT_EQ(got.crashed, want.crashed) << "worker " << k;
    EXPECT_EQ(got.reassigned_clusters, want.reassigned_clusters)
        << "worker " << k;
    EXPECT_EQ(got.stolen_units, want.stolen_units) << "worker " << k;
    EXPECT_EQ(got.adopted_units, want.adopted_units) << "worker " << k;
    EXPECT_EQ(got.embeddings, want.embeddings) << "worker " << k;
    EXPECT_DOUBLE_EQ(got.modeled_start_seconds, want.modeled_start_seconds)
        << "worker " << k;
    EXPECT_DOUBLE_EQ(got.modeled_enum_seconds, want.modeled_enum_seconds)
        << "worker " << k;
    EXPECT_DOUBLE_EQ(got.recovery_seconds, want.recovery_seconds)
        << "worker " << k;
  }
}

}  // namespace
}  // namespace ceci
