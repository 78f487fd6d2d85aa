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

}  // namespace
}  // namespace ceci
