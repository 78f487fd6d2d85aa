// End-to-end smoke tests for the CLI tools (ceci_generate, ceci_query),
// exercised exactly as a user would run them.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "json_test_util.h"

#ifndef CECI_TOOLS_DIR
#error "CECI_TOOLS_DIR must point at the built tool binaries"
#endif

namespace {

class ToolsTest : public ::testing::Test {
 protected:
  ToolsTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("ceci_tools_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~ToolsTest() override { std::filesystem::remove_all(dir_); }

  std::string File(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Runs a tool with arguments; returns the exit code.
  int Run(const std::string& tool, const std::string& args,
          const std::string& stdout_file = "") {
    std::string cmd = std::string(CECI_TOOLS_DIR) + "/" + tool + " " + args;
    if (!stdout_file.empty()) cmd += " > " + stdout_file;
    int rc = std::system(cmd.c_str());
    return WEXITSTATUS(rc);
  }

  std::string Slurp(const std::string& path) {
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

TEST_F(ToolsTest, GenerateThenQuery) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 2000 --attach 6 --labels 4 --seed 3 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  ASSERT_TRUE(std::filesystem::exists(File("g.txt")));

  ASSERT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled --pattern \"(a:0)-(b:1)-(c:2)\" "
                    "--threads 2 --stats",
                File("out.txt")),
            0);
  std::string out = Slurp(File("out.txt"));
  EXPECT_NE(out.find("embeddings:"), std::string::npos);
  EXPECT_NE(out.find("clusters:"), std::string::npos);
}

TEST_F(ToolsTest, QueryLimitAndPrint) {
  ASSERT_EQ(Run("ceci_generate",
                "--family er --n 500 --m 3000 --seed 5 --out " +
                    File("er.txt") + " --format edgelist"),
            0);
  ASSERT_EQ(Run("ceci_query",
                "--data " + File("er.txt") +
                    " --pattern \"(a)-(b)-(c); (a)-(c)\" --limit 5 --print",
                File("out.txt")),
            0);
  std::string out = Slurp(File("out.txt"));
  EXPECT_NE(out.find("embeddings: 5"), std::string::npos);
  // Five printed mappings.
  std::size_t lines = 0;
  for (std::size_t pos = out.find("{u0->");
       pos != std::string::npos; pos = out.find("{u0->", pos + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 5u);
}

TEST_F(ToolsTest, BinaryFormatsRoundTrip) {
  ASSERT_EQ(Run("ceci_generate",
                "--family ba --n 800 --attach 4 --seed 7 --out " +
                    File("g.bin") + " --format csr"),
            0);
  ASSERT_EQ(Run("ceci_query",
                "--data " + File("g.bin") +
                    " --format csr --pattern \"(a)-(b)-(c); (a)-(c)\"",
                File("out.txt")),
            0);
  EXPECT_NE(Slurp(File("out.txt")).find("embeddings:"), std::string::npos);
}

TEST_F(ToolsTest, CsrStoreFormatIsGone) {
  // The on-demand store reads the one binary CSR file (--format csr); the
  // separate store format no longer exists.
  EXPECT_EQ(Run("ceci_generate",
                "--family kronecker --scale 10 --edge-factor 6 --seed 9 "
                "--out " + File("k.csr2") + " --format csrstore"),
            2);
  EXPECT_FALSE(std::filesystem::exists(File("k.csr2")));
}

TEST_F(ToolsTest, MetricsJsonAndTrace) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 2000 --attach 6 --labels 4 --seed 3 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  ASSERT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled --pattern \"(a:0)-(b:1)-(c:2)\" "
                    "--trace --metrics-json " + File("m.json"),
                File("out.txt")),
            0);

  // --trace prints the span tree after the query output.
  std::string out = Slurp(File("out.txt"));
  EXPECT_NE(out.find("[t0] match"), std::string::npos);
  EXPECT_NE(out.find("enumerate"), std::string::npos);

  // --metrics-json writes a valid document with the query's vitals.
  auto parsed = ceci::testing::ParseJson(Slurp(File("m.json")));
  ASSERT_TRUE(parsed.has_value());
  const auto& root = *parsed;
  EXPECT_EQ(root.Num("schema_version"), 1.0);
  EXPECT_GT(root.Num("embeddings"), 0.0);
  const auto& stats = root.At("stats");
  EXPECT_GT(stats.At("phases").Num("total_seconds"), 0.0);
  EXPECT_GT(stats.At("phases").Num("build_seconds"), 0.0);
  EXPECT_GT(stats.At("enumeration").Num("recursive_calls"), 0.0);
  EXPECT_GT(stats.At("clusters").Num("embedding_clusters"), 0.0);
  EXPECT_GE(root.At("registry").At("counters").Num("ceci.match.queries"),
            1.0);
  ASSERT_TRUE(root.Has("trace"));
  EXPECT_FALSE(root.At("trace").array.empty());
}

TEST_F(ToolsTest, AuditFlagPassesOnHealthyPipeline) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 1200 --attach 5 --labels 3 --seed 11 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  // Audit the full pipeline, including the fine-grained work-unit
  // decomposition (--distribution fgd with a tiny beta forces splitting).
  ASSERT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled "
                    "--pattern \"(a:0)-(b:1)-(c:2); (a)-(c)\" "
                    "--distribution fgd --beta 0.05 --threads 3 --audit",
                File("out.txt")),
            0);
  std::string out = Slurp(File("out.txt"));
  EXPECT_NE(out.find("audit: audit OK"), std::string::npos);
  EXPECT_EQ(out.find("audit FAILED"), std::string::npos);
}

TEST_F(ToolsTest, ExplainPrintsPerVertexReport) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 2000 --attach 6 --labels 4 --seed 3 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  // --explain combined with --audit: the auditor cross-checks the
  // profiler's numbers against the refined index it describes.
  ASSERT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled --pattern \"(a:0)-(b:1)-(c:2)\" "
                    "--threads 2 --explain --audit",
                File("out.txt")),
            0);
  std::string out = Slurp(File("out.txt"));
  EXPECT_NE(out.find("EXPLAIN"), std::string::npos);
  // One row per query vertex, keyed by position and vertex name.
  for (const char* u : {"u0", "u1", "u2"}) {
    EXPECT_NE(out.find(u), std::string::npos) << "missing row for " << u;
  }
  EXPECT_NE(out.find("measured"), std::string::npos);   // index bytes line
  EXPECT_NE(out.find("gini"), std::string::npos);       // skew summary
  EXPECT_NE(out.find("occupancy"), std::string::npos);  // worker timeline
  EXPECT_NE(out.find("audit: audit OK"), std::string::npos);
}

TEST_F(ToolsTest, TraceChromeWritesLoadableTraceDocument) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 2000 --attach 6 --labels 4 --seed 3 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  ASSERT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled --pattern \"(a:0)-(b:1)-(c:2)\" "
                    "--threads 2 --trace-chrome " + File("trace.json"),
                File("out.txt")),
            0);

  auto parsed = ceci::testing::ParseJson(Slurp(File("trace.json")));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->At("displayTimeUnit").str, "ms");
  const auto& events = parsed->At("traceEvents").array;
  ASSERT_FALSE(events.empty());
  std::size_t complete = 0;
  for (const auto& e : events) {
    const std::string& ph = e.At("ph").str;
    ASSERT_TRUE(ph == "M" || ph == "X") << "unexpected phase " << ph;
    if (ph == "X") {
      ++complete;
      EXPECT_TRUE(e.Has("ts"));
      EXPECT_TRUE(e.Has("dur"));
    }
  }
  EXPECT_GT(complete, 0u);
}

TEST_F(ToolsTest, MetricsJsonCarriesProfileBlock) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 2000 --attach 6 --labels 4 --seed 3 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  ASSERT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled --pattern \"(a:0)-(b:1)-(c:2)\" "
                    "--metrics-json " + File("m.json"),
                File("out.txt")),
            0);
  auto parsed = ceci::testing::ParseJson(Slurp(File("m.json")));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->Has("profile"));
  const auto& profile = parsed->At("profile");
  EXPECT_EQ(profile.At("vertices").array.size(), 3u);
  EXPECT_GT(profile.At("index").Num("bytes"), 0.0);
  // Enumeration reads the flat layout by default, so the profile's
  // footprint walk accounts for the arena: equal to flat_bytes up to the
  // < 8 bytes of alignment padding per slab boundary.
  const auto& sidx = parsed->At("stats").At("index");
  EXPECT_LE(profile.At("index").Num("bytes"), sidx.Num("flat_bytes"));
  EXPECT_LT(sidx.Num("flat_bytes") - profile.At("index").Num("bytes"),
            72.0);
}

TEST_F(ToolsTest, BadFlagsFailCleanly) {
  EXPECT_NE(Run("ceci_query", "--data /nonexistent --pattern \"(a)-(b)\""),
            0);
  EXPECT_NE(Run("ceci_query", ""), 0);
  EXPECT_NE(Run("ceci_generate", "--family nope --out " + File("x")), 0);
  EXPECT_NE(Run("ceci_query",
                "--data /nonexistent --pattern \"(a)-(b)\" --query q"),
            0);
  // Flags that only configure a --dist run are usage errors (exit 2)
  // without --dist, before the data graph is read (which exits 1).
  const std::string query = "--data /nonexistent --pattern \"(a)-(b)\"";
  EXPECT_EQ(Run("ceci_query", query), 1);
  for (const std::string& dist_only : std::vector<std::string>{
           "--failure-plan plan.json", "--worker-binary ./ceci_worker",
           "--dist-json " + File("dist.json"), "--no-work-stealing",
           "--heartbeat-ms 500"}) {
    EXPECT_EQ(Run("ceci_query", query + " " + dist_only), 2) << dist_only;
  }
  EXPECT_FALSE(std::filesystem::exists(File("dist.json")));
}

TEST_F(ToolsTest, DeadlineExhaustionExitsFour) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 3000 --attach 8 --labels 4 --seed 13 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  // A deadline of well under a millisecond expires before the pipeline
  // gets anywhere; the exit-code contract says 4, not an error.
  EXPECT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled --pattern \"(a:0)-(b:1)-(c:2)\" "
                    "--deadline-ms 0.001",
                File("out.txt")),
            4);
  EXPECT_NE(Slurp(File("out.txt")).find("termination: deadline"),
            std::string::npos);
}

TEST_F(ToolsTest, MemoryBudgetExhaustionExitsFour) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 3000 --attach 8 --labels 4 --seed 13 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  // A fraction of a megabyte cannot hold the CECI for a 3000-vertex graph.
  EXPECT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled --pattern \"(a:0)-(b:1)-(c:2)\" "
                    "--memory-budget-mb 0.01",
                File("out.txt")),
            4);
  EXPECT_NE(Slurp(File("out.txt")).find("termination: memory_budget"),
            std::string::npos);
}

TEST_F(ToolsTest, GenerousBudgetsCompleteNormally) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 1000 --attach 6 --labels 4 --seed 13 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  EXPECT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled --pattern \"(a:0)-(b:1)-(c:2)\" "
                    "--deadline-ms 60000 --memory-budget-mb 1024 --audit",
                File("out.txt")),
            0);
  std::string out = Slurp(File("out.txt"));
  EXPECT_NE(out.find("termination: completed"), std::string::npos);
  EXPECT_NE(out.find("audit OK"), std::string::npos);
}

TEST_F(ToolsTest, CancelAfterStopsWithExitZero) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 2000 --attach 8 --labels 3 --seed 17 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  // Cancellation is cooperative: whether the query finishes first or the
  // token wins the race, the contract is a clean exit 0 with a truthful
  // termination label.
  ASSERT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled --pattern \"(a:0)-(b:1)-(c:2)\" "
                    "--cancel-after 1",
                File("out.txt")),
            0);
  std::string out = Slurp(File("out.txt"));
  EXPECT_TRUE(out.find("termination: cancelled") != std::string::npos ||
              out.find("termination: completed") != std::string::npos)
      << out;
}

TEST_F(ToolsTest, HelpFlagsDocumentTheCliContract) {
  // --help must exit 0 and mention the flags README documents; this is
  // the drift check keeping the tables in docs and the binaries in sync.
  ASSERT_EQ(Run("ceci_query", "--help", File("q.txt")), 0);
  std::string help = Slurp(File("q.txt"));
  for (const char* flag :
       {"--data", "--pattern", "--threads", "--limit", "--deadline-ms",
        "--memory-budget-mb", "--cancel-after", "--audit", "--explain",
        "--metrics-json", "--help"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << "ceci_query " << flag;
  }
  // The exit-code contract is part of the help text.
  EXPECT_NE(help.find("exit codes:"), std::string::npos);
  EXPECT_NE(help.find("audit violations"), std::string::npos);

  ASSERT_EQ(Run("ceci_serve", "--help", File("s.txt")), 0);
  help = Slurp(File("s.txt"));
  for (const char* flag :
       {"--data", "--host", "--port", "--pool-threads",
        "--threads-per-query", "--max-concurrent", "--max-queue",
        "--degrade-depth", "--default-deadline-ms",
        "--degraded-deadline-ms", "--degraded-limit", "--max-connections",
        "--no-cache", "--duration-s", "--telemetry-port", "--access-log",
        "--slo-availability-target", "--slo-latency-ms",
        "--slo-latency-target"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << "ceci_serve " << flag;
  }
  EXPECT_NE(help.find("MATCHX"), std::string::npos);

  ASSERT_EQ(Run("ceci_loadgen", "--help", File("l.txt")), 0);
  help = Slurp(File("l.txt"));
  for (const char* flag :
       {"--host", "--port", "--connections", "--duration-s", "--requests",
        "--warmup-s", "--mix", "--zipf", "--seed", "--limit",
        "--deadline-ms", "--out", "--label"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << "ceci_loadgen " << flag;
  }
}

TEST_F(ToolsTest, WorkerNoMmapFlagIsGone) {
  // Workers always map their partition images: the copy mode and its
  // flag are gone, so --no-mmap is an unknown flag (usage, exit 2). The
  // channel descriptor is closed so no build could block on it.
  const std::string err = File("worker.err");
  EXPECT_EQ(Run("ceci_worker", "--index-dir " + dir_.string() +
                                   " --worker-id 0 --no-mmap 3<&- 2> " + err),
            2);
  const std::string usage = Slurp(err);
  EXPECT_NE(usage.find("usage: ceci_worker"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("--no-mmap"), std::string::npos) << usage;
}

TEST_F(ToolsTest, ServeToolsRejectBadUsage) {
  EXPECT_EQ(Run("ceci_serve", ""), 2);            // --data is required
  EXPECT_EQ(Run("ceci_loadgen", ""), 2);          // --port is required
  EXPECT_EQ(Run("ceci_loadgen", "--port 1 --duration-s 0"), 2);
  EXPECT_EQ(Run("ceci_serve", "--data x --wat"), 2);
  // Numeric flags are strict: no sign on a count, no trailing junk.
  EXPECT_EQ(Run("ceci_serve", "--data x --max-connections -1"), 2);
  EXPECT_EQ(Run("ceci_serve", "--data x --max-queue 16x"), 2);
  for (const std::string port : {"abc", "80x", "70000", "-5"}) {
    EXPECT_EQ(Run("ceci_serve", "--data x --port " + port), 2) << port;
    EXPECT_EQ(Run("ceci_serve", "--data x --telemetry-port " + port), 2)
        << port;
    EXPECT_EQ(Run("ceci_loadgen", "--port " + port + " --requests 1"), 2)
        << port;
  }
}

TEST_F(ToolsTest, NumericFlagsAreStrictInEveryTool) {
  // A number with a suffix, a sign on a count or a prefix is a usage
  // error (exit 2), never a silently truncated value.
  EXPECT_EQ(Run("ceci_loadgen", "--port 1 --requests 5x"), 2);
  EXPECT_EQ(Run("ceci_loadgen", "--port 1 --connections -2"), 2);
  EXPECT_EQ(Run("ceci_loadgen", "--port 1 --zipf 0.8s --requests 1"), 2);
  EXPECT_EQ(Run("ceci_query", "--data x --pattern \"(a)-(b)\" --threads 2x"),
            2);
  EXPECT_EQ(Run("ceci_query", "--data x --pattern \"(a)-(b)\" --limit -1"),
            2);
  EXPECT_EQ(Run("ceci_query", "--data x --pattern \"(a)-(b)\" --beta x"), 2);
  EXPECT_EQ(Run("ceci_generate",
                "--family er --n 10x --out " + File("never.txt") +
                    " 2>/dev/null"),
            2);
  EXPECT_EQ(Run("ceci_generate",
                "--family kronecker --scale -3 --out " + File("never.txt") +
                    " 2>/dev/null"),
            2);
  EXPECT_FALSE(std::filesystem::exists(File("never.txt")));
  EXPECT_EQ(Run("ceci_top", "--port 1 --iterations 0x1"), 2);
  EXPECT_EQ(Run("ceci_worker", "--index-dir " + dir_.string() +
                                   " --worker-id 1x 3<&- 2>/dev/null"),
            2);
}

TEST_F(ToolsTest, ServeAndLoadgenEndToEnd) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 1500 --attach 5 --labels 4 --seed 23 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  // Start the server on an ephemeral port with a generous self-timeout
  // (the test normally SIGTERMs it long before), scrape the bound port
  // from its banner line, drive it with the load generator, then check
  // both sides shut down cleanly.
  const std::string log = File("serve.log");
  ASSERT_EQ(std::system((std::string(CECI_TOOLS_DIR) +
                         "/ceci_serve --data " + File("g.txt") +
                         " --format labeled --port 0 --pool-threads 2 "
                         "--max-concurrent 2 --duration-s 120 > " + log +
                         " 2>&1 & echo $! > " + File("pid"))
                            .c_str()),
            0);
  int port = 0;
  for (int attempt = 0; attempt < 200 && port == 0; ++attempt) {
    const std::string banner = Slurp(log);
    const std::size_t colon = banner.rfind(':');
    if (banner.find("listening on") != std::string::npos &&
        colon != std::string::npos) {
      port = std::atoi(banner.c_str() + colon + 1);
    } else {
      ::usleep(50 * 1000);
    }
  }
  ASSERT_GT(port, 0) << Slurp(log);

  ASSERT_EQ(Run("ceci_loadgen",
                "--port " + std::to_string(port) +
                    " --connections 2 --requests 100 --duration-s 30 "
                    "--mix qg --zipf 0.8 --limit 1000 --out " +
                    File("run.jsonl") + " --label tools-e2e",
                File("lg.txt")),
            0);
  const std::string report = Slurp(File("lg.txt"));
  EXPECT_NE(report.find("qps:"), std::string::npos);
  EXPECT_NE(report.find("latency_us:"), std::string::npos);

  // The JSON entry carries throughput, percentiles, and repro flags.
  auto parsed = ceci::testing::ParseJson(Slurp(File("run.jsonl")));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_GT(parsed->Num("requests"), 0.0);
  EXPECT_GT(parsed->Num("qps"), 0.0);
  EXPECT_GT(parsed->At("latency_us").Num("p99"), 0.0);
  EXPECT_GT(parsed->At("outcomes").Num("completed") +
                parsed->At("outcomes").Num("limit"),
            0.0);
  EXPECT_NE(parsed->At("command").str.find("--mix qg"), std::string::npos);
  EXPECT_EQ(parsed->At("label").str, "tools-e2e");

  // Graceful termination: SIGTERM, then the banner's shutdown line.
  const std::string pid = Slurp(File("pid"));
  ASSERT_FALSE(pid.empty());
  ASSERT_EQ(std::system(("kill -TERM " + pid).c_str()), 0);
  bool shut_down = false;
  for (int attempt = 0; attempt < 200 && !shut_down; ++attempt) {
    shut_down = Slurp(log).find("shut down") != std::string::npos;
    if (!shut_down) ::usleep(50 * 1000);
  }
  EXPECT_TRUE(shut_down) << Slurp(log);
}

TEST_F(ToolsTest, ServeFromPrebuiltIndexEndToEnd) {
  // ceci_query --save-index writes a flat image; ceci_serve --index mmaps
  // it and serves QG1 traffic (the saved triangle pattern is structurally
  // QG1, so the loadgen qg mix actually hits the prebuilt arena).
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 1200 --attach 5 --labels 4 --seed 31 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  ASSERT_EQ(Run("ceci_query",
                "--data " + File("g.txt") +
                    " --format labeled --pattern "
                    "\"(a)-(b)-(c); (a)-(c)\" --stats --save-index " +
                    File("qg1.idx"),
                File("q.txt")),
            0);
  ASSERT_TRUE(std::filesystem::exists(File("qg1.idx")));
  const std::string direct = Slurp(File("q.txt"));
  EXPECT_NE(direct.find("embeddings:"), std::string::npos);

  const std::string log = File("serve.log");
  ASSERT_EQ(std::system((std::string(CECI_TOOLS_DIR) +
                         "/ceci_serve --data " + File("g.txt") +
                         " --format labeled --index " + File("qg1.idx") +
                         " --port 0 --pool-threads 2 --max-concurrent 2 "
                         "--duration-s 120 > " + log + " 2>&1 & echo $! > " +
                         File("pid"))
                            .c_str()),
            0);
  int port = 0;
  bool installed = false;
  for (int attempt = 0; attempt < 200 && port == 0; ++attempt) {
    const std::string banner = Slurp(log);
    installed =
        banner.find("installed prebuilt index") != std::string::npos;
    const std::size_t colon = banner.rfind(':');
    if (banner.find("listening on") != std::string::npos &&
        colon != std::string::npos) {
      port = std::atoi(banner.c_str() + colon + 1);
    } else {
      ::usleep(50 * 1000);
    }
  }
  ASSERT_GT(port, 0) << Slurp(log);
  EXPECT_TRUE(installed) << Slurp(log);

  ASSERT_EQ(Run("ceci_loadgen",
                "--port " + std::to_string(port) +
                    " --connections 2 --requests 60 --duration-s 30 "
                    "--mix qg --limit 1000 --out " + File("run.jsonl") +
                    " --label prebuilt-e2e",
                File("lg.txt")),
            0);
  auto parsed = ceci::testing::ParseJson(Slurp(File("run.jsonl")));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_GT(parsed->Num("requests"), 0.0);
  EXPECT_GT(parsed->At("outcomes").Num("completed") +
                parsed->At("outcomes").Num("limit"),
            0.0);

  const std::string pid = Slurp(File("pid"));
  ASSERT_FALSE(pid.empty());
  ASSERT_EQ(std::system(("kill -TERM " + pid).c_str()), 0);
  bool shut_down = false;
  for (int attempt = 0; attempt < 200 && !shut_down; ++attempt) {
    shut_down = Slurp(log).find("shut down") != std::string::npos;
    if (!shut_down) ::usleep(50 * 1000);
  }
  EXPECT_TRUE(shut_down) << Slurp(log);
}

// Scrapes "ceci_serve: <what> on HOST:PORT" from the server log; 0 until
// the banner appears.
int BannerPort(const std::string& log, const std::string& what) {
  const std::size_t at = log.find(what + " on ");
  if (at == std::string::npos) return 0;
  const std::size_t eol = log.find('\n', at);
  const std::string line = log.substr(at, eol - at);
  const std::size_t colon = line.rfind(':');
  if (colon == std::string::npos) return 0;
  return std::atoi(line.c_str() + colon + 1);
}

// Minimal HTTP GET against 127.0.0.1:port; returns headers + body, or ""
// on any socket failure (callers assert on content).
std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) < 0) {
    ::close(fd);
    return "";
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpBody(const std::string& response) {
  const std::size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

// The full observability path: ceci_serve with a telemetry listener and
// an access log, driven by ceci_loadgen for an exact request count, then
// reconciled three ways — loadgen's offered tally, the server's
// ceci.serve.submitted counter (via /varz), and the access-log line
// count must all agree. ceci_top renders a frame from the same endpoint.
TEST_F(ToolsTest, TelemetryEndpointAccessLogAndTopEndToEnd) {
  ASSERT_EQ(Run("ceci_generate",
                "--family social --n 1500 --attach 5 --labels 4 --seed 23 "
                "--out " + File("g.txt") + " --format labeled"),
            0);
  const std::string log = File("serve.log");
  const std::string access = File("access.jsonl");
  ASSERT_EQ(std::system((std::string(CECI_TOOLS_DIR) +
                         "/ceci_serve --data " + File("g.txt") +
                         " --format labeled --port 0 --telemetry-port 0 "
                         "--access-log " + access +
                         " --slo-latency-ms 500 --pool-threads 2 "
                         "--max-concurrent 2 --duration-s 120 > " + log +
                         " 2>&1 & echo $! > " + File("pid"))
                            .c_str()),
            0);
  int port = 0, telemetry_port = 0;
  for (int attempt = 0; attempt < 200 && telemetry_port == 0; ++attempt) {
    const std::string banner = Slurp(log);
    port = BannerPort(banner, "listening");
    telemetry_port = BannerPort(banner, "telemetry");
    if (telemetry_port == 0) ::usleep(50 * 1000);
  }
  ASSERT_GT(port, 0) << Slurp(log);
  ASSERT_GT(telemetry_port, 0) << Slurp(log);

  // Health first: the listener must answer before any traffic.
  EXPECT_NE(HttpGet(telemetry_port, "/healthz").find("200 OK"),
            std::string::npos);

  // Exactly 40 requests, no warmup: offered == submitted == log lines.
  constexpr int kRequests = 40;
  ASSERT_EQ(Run("ceci_loadgen",
                "--port " + std::to_string(port) +
                    " --connections 2 --requests " +
                    std::to_string(kRequests) +
                    " --warmup-s 0 --mix qg --limit 1000 --out " +
                    File("run.jsonl") + " --label telemetry-e2e",
                File("lg.txt")),
            0);
  auto run = ceci::testing::ParseJson(Slurp(File("run.jsonl")));
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->Num("offered"), static_cast<double>(kRequests));

  // /metrics: exposition families present, and the cumulative submitted
  // counter reconciles with what the load generator offered.
  const std::string metrics = HttpBody(HttpGet(telemetry_port, "/metrics"));
  ASSERT_FALSE(metrics.empty());
  EXPECT_NE(metrics.find("# TYPE ceci_serve_submitted counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("ceci_serve_submitted " +
                         std::to_string(kRequests) + "\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("ceci_serve_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("ceci_window_qps{window=\"1m\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("ceci_uptime_seconds"), std::string::npos);
  EXPECT_NE(metrics.find("ceci_build_info{"), std::string::npos);

  // /varz: the JSON mirror agrees, and the windows cover the burst.
  auto varz = ceci::testing::ParseJson(HttpBody(HttpGet(telemetry_port,
                                                        "/varz")));
  ASSERT_TRUE(varz.has_value());
  EXPECT_EQ(varz->At("counters").Num("ceci.serve.submitted"),
            static_cast<double>(kRequests));
  EXPECT_EQ(varz->At("windows").At("5m").Num("submitted"),
            static_cast<double>(kRequests));
  EXPECT_FALSE(varz->At("build").At("version").str.empty());
  EXPECT_GT(varz->Num("uptime_s"), 0.0);

  // Access log: one parseable JSONL record per offered request.
  std::ifstream in(access);
  std::string line;
  std::size_t access_lines = 0;
  while (std::getline(in, line)) {
    auto record = ceci::testing::ParseJson(line);
    ASSERT_TRUE(record.has_value()) << line;
    EXPECT_TRUE(record->Has("request_id")) << line;
    EXPECT_TRUE(record->Has("fingerprint")) << line;
    EXPECT_TRUE(record->Has("outcome")) << line;
    EXPECT_TRUE(record->Has("total_us")) << line;
    ++access_lines;
  }
  EXPECT_EQ(access_lines, static_cast<std::size_t>(kRequests));

  // ceci_top renders one frame from the same endpoint and exits 0.
  ASSERT_EQ(Run("ceci_top",
                "--port " + std::to_string(telemetry_port) +
                    " --iterations 1 --no-clear",
                File("top.txt")),
            0);
  const std::string frame = Slurp(File("top.txt"));
  EXPECT_NE(frame.find("ceci_top"), std::string::npos);
  EXPECT_NE(frame.find("window"), std::string::npos);
  EXPECT_NE(frame.find("10s"), std::string::npos);
  EXPECT_NE(frame.find("slo burn"), std::string::npos);

  const std::string pid = Slurp(File("pid"));
  ASSERT_FALSE(pid.empty());
  ASSERT_EQ(std::system(("kill -TERM " + pid).c_str()), 0);
  bool shut_down = false;
  for (int attempt = 0; attempt < 200 && !shut_down; ++attempt) {
    shut_down = Slurp(log).find("shut down") != std::string::npos;
    if (!shut_down) ::usleep(50 * 1000);
  }
  EXPECT_TRUE(shut_down) << Slurp(log);
}

TEST_F(ToolsTest, TopRejectsBadUsageAndUnreachableServer) {
  EXPECT_EQ(Run("ceci_top", ""), 2);  // --port is required
  EXPECT_EQ(Run("ceci_top", "--port 1 --interval-s 0"), 2);
  for (const std::string port : {"abc", "80x", "70000", "-5"}) {
    EXPECT_EQ(Run("ceci_top", "--port " + port + " --iterations 1"), 2)
        << port;
  }
  ASSERT_EQ(Run("ceci_top", "--help", File("t.txt")), 0);
  const std::string help = Slurp(File("t.txt"));
  for (const char* flag : {"--host", "--port", "--interval-s",
                           "--iterations", "--no-clear", "--help"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << "ceci_top " << flag;
  }
  // Nothing listens on this port: connection errors exit 1, not a hang.
  EXPECT_EQ(Run("ceci_top", "--port 1 --iterations 1 2>/dev/null"), 1);
}

TEST_F(ToolsTest, BudgetFlagsRejectBadValues) {
  EXPECT_EQ(Run("ceci_query",
                "--data x --pattern \"(a)-(b)\" --deadline-ms 0"),
            2);
  EXPECT_EQ(Run("ceci_query",
                "--data x --pattern \"(a)-(b)\" --memory-budget-mb -1"),
            2);
  EXPECT_EQ(Run("ceci_query",
                "--data x --pattern \"(a)-(b)\" --cancel-after 0"),
            2);
  EXPECT_EQ(Run("ceci_query", "--data x --pattern \"(a)-(b)\" --deadline-ms"),
            2);
}

}  // namespace
