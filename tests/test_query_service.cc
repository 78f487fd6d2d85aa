// QueryService admission control and lifecycle. Overload is made
// deterministic with ServiceOptions::pre_match_hook: runners block on a
// shared future until the test releases them, so queue depth at each
// Submit() is exactly what the test arranged.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ceci/ceci_builder.h"
#include "ceci/index_io.h"
#include "ceci/matcher.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "gen/labels.h"
#include "gen/random_graphs.h"
#include "graphio/pattern_parser.h"
#include "serve/query_service.h"
#include "serve/tcp_server.h"
#include "telemetry/access_log.h"
#include "util/json_parser.h"
#include "util/metrics_registry.h"

namespace ceci {
namespace {

Graph TestData() {
  return AssignRandomLabels(GenerateSocialGraph(800, 5, 9), 3, 9);
}

/// Deterministic-overload helper: the hook parks every runner until
/// Open(), and AwaitHeld() lets the test wait until a runner has actually
/// popped a session (so later Submits see exactly the queue depth the
/// test arranged).
struct Gate {
  std::atomic<int> entered{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();

  std::function<void()> Hook() {
    std::atomic<int>* counter = &entered;
    std::shared_future<void> future = released;
    return [counter, future] {
      counter->fetch_add(1, std::memory_order_relaxed);
      future.wait();
    };
  }
  void AwaitHeld(int n) {
    while (entered.load(std::memory_order_relaxed) < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void Open() { release.set_value(); }
};

constexpr const char* kTriangle = "(a)-(b)-(c); (a)-(c)";
constexpr const char* kWedge = "(a)-(b)-(c)";

TEST(QueryServiceTest, ExecutesPatternsWithCorrectCounts) {
  const Graph data = TestData();
  const CeciMatcher reference(data);
  const std::uint64_t want =
      reference.Count(ParsePattern(kTriangle).value(), 1).value();

  ServiceOptions options;
  options.pool_threads = 2;
  options.limits.max_concurrent = 2;
  QueryService service(data, options);

  ServeRequest request;
  request.pattern = kTriangle;
  request.explain = true;
  ServeResponse response = service.Execute(request);
  EXPECT_EQ(response.admission, Admission::kAccepted);
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.embeddings, want);
  EXPECT_EQ(response.termination, TerminationReason::kCompleted);
  EXPECT_GT(response.index_bytes, 0u);
  EXPECT_GE(response.total_seconds, response.match_seconds);
}

TEST(QueryServiceTest, ConcurrentSubmitsAllComplete) {
  const Graph data = TestData();
  const CeciMatcher reference(data);
  const std::uint64_t want_triangle =
      reference.Count(ParsePattern(kTriangle).value(), 1).value();
  const std::uint64_t want_wedge =
      reference.Count(ParsePattern(kWedge).value(), 1).value();

  ServiceOptions options;
  options.pool_threads = 4;
  options.threads_per_query = 2;
  options.limits.max_concurrent = 3;
  options.limits.max_queue = 64;
  QueryService service(data, options);

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 24; ++i) {
    ServeRequest request;
    request.pattern = i % 2 == 0 ? kTriangle : kWedge;
    futures.push_back(service.Submit(std::move(request)));
  }
  for (int i = 0; i < 24; ++i) {
    ServeResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.admission, Admission::kAccepted);
    EXPECT_EQ(response.embeddings, i % 2 == 0 ? want_triangle : want_wedge);
    EXPECT_EQ(response.termination, TerminationReason::kCompleted);
  }
}

TEST(QueryServiceTest, QueueFullRejectsImmediately) {
  const Graph data = TestData();
  Gate gate;

  ServiceOptions options;
  options.pool_threads = 0;
  options.limits.max_concurrent = 1;
  options.limits.max_queue = 2;
  options.pre_match_hook = gate.Hook();
  QueryService service(data, options);

  // One session occupies the single runner (held at the hook), two fill
  // the queue; the fourth must bounce without touching the matcher.
  std::vector<std::future<ServeResponse>> admitted;
  for (int i = 0; i < 3; ++i) {
    ServeRequest request;
    request.pattern = kWedge;
    admitted.push_back(service.Submit(std::move(request)));
    if (i == 0) gate.AwaitHeld(1);
  }
  ServeRequest overflow;
  overflow.pattern = kWedge;
  std::future<ServeResponse> rejected = service.Submit(std::move(overflow));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ServeResponse bounce = rejected.get();
  EXPECT_EQ(bounce.admission, Admission::kRejected);
  EXPECT_TRUE(bounce.status.ok());
  EXPECT_EQ(bounce.embeddings, 0u);

  gate.Open();
  for (auto& f : admitted) {
    ServeResponse response = f.get();
    EXPECT_EQ(response.admission, Admission::kAccepted);
    EXPECT_EQ(response.termination, TerminationReason::kCompleted);
  }
}

TEST(QueryServiceTest, DeepQueueDegradesWithClampedLimit) {
  const Graph data = TestData();
  const CeciMatcher reference(data);
  const std::uint64_t full =
      reference.Count(ParsePattern(kWedge).value(), 1).value();
  ASSERT_GT(full, 3u);  // degradation must actually bite

  Gate gate;
  ServiceOptions options;
  options.pool_threads = 0;
  options.limits.max_concurrent = 1;
  options.limits.max_queue = 8;
  options.limits.degrade_depth = 2;
  options.limits.degraded_limit = 3;
  options.pre_match_hook = gate.Hook();
  QueryService service(data, options);

  // Runner holds session 0; sessions 1–2 queue below degrade_depth;
  // session 3 sees depth 2 and is admitted degraded.
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    ServeRequest request;
    request.pattern = kWedge;
    futures.push_back(service.Submit(std::move(request)));
    if (i == 0) gate.AwaitHeld(1);
  }
  gate.Open();

  for (int i = 0; i < 3; ++i) {
    ServeResponse response = futures[i].get();
    EXPECT_EQ(response.admission, Admission::kAccepted);
    EXPECT_EQ(response.embeddings, full);
  }
  ServeResponse degraded = futures[3].get();
  EXPECT_EQ(degraded.admission, Admission::kDegraded);
  EXPECT_EQ(degraded.termination, TerminationReason::kLimit);
  EXPECT_EQ(degraded.embeddings, 3u);
}

TEST(QueryServiceTest, DeadlineSpentInQueueNeverRuns) {
  const Graph data = TestData();
  Gate gate;
  ServiceOptions options;
  options.pool_threads = 0;
  options.limits.max_concurrent = 1;
  options.limits.max_queue = 8;
  options.pre_match_hook = gate.Hook();
  QueryService service(data, options);

  ServeRequest blocker;
  blocker.pattern = kWedge;
  std::future<ServeResponse> blocked = service.Submit(std::move(blocker));
  gate.AwaitHeld(1);

  ServeRequest doomed;
  doomed.pattern = kTriangle;
  doomed.deadline_seconds = 0.02;
  std::future<ServeResponse> expired = service.Submit(std::move(doomed));

  // Hold the runner well past the queued request's whole deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Open();

  EXPECT_EQ(blocked.get().termination, TerminationReason::kCompleted);
  ServeResponse response = expired.get();
  EXPECT_EQ(response.admission, Admission::kAccepted);
  EXPECT_EQ(response.termination, TerminationReason::kDeadline);
  // The match never started: no embeddings, no execution time.
  EXPECT_EQ(response.embeddings, 0u);
  EXPECT_EQ(response.match_seconds, 0.0);
  EXPECT_GE(response.queue_seconds, 0.02);
}

TEST(QueryServiceTest, ShutdownCancelsQueuedSessions) {
  const Graph data = TestData();
  Gate gate;
  ServiceOptions options;
  options.pool_threads = 0;
  options.limits.max_concurrent = 1;
  options.limits.max_queue = 8;
  options.pre_match_hook = gate.Hook();
  QueryService service(data, options);

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    ServeRequest request;
    request.pattern = kWedge;
    futures.push_back(service.Submit(std::move(request)));
    if (i == 0) gate.AwaitHeld(1);
  }

  // Shutdown first marks the service stopping and cancels the token,
  // then joins — release the hook from a helper so the join can finish.
  std::thread releaser([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.Open();
  });
  service.Shutdown();
  releaser.join();

  for (auto& f : futures) {
    ServeResponse response = f.get();
    // Every session either never ran (drained: kCancelled) or observed
    // the cancelled token; none may report success dishonestly.
    EXPECT_EQ(response.termination, TerminationReason::kCancelled);
    EXPECT_TRUE(response.status.ok());
  }

  // Submitting after shutdown bounces instead of hanging.
  ServeRequest late;
  late.pattern = kWedge;
  EXPECT_EQ(service.Execute(std::move(late)).admission,
            Admission::kRejected);
}

TEST(QueryServiceTest, MalformedPatternReturnsErrorStatus) {
  const Graph data = TestData();
  ServiceOptions options;
  options.pool_threads = 0;
  QueryService service(data, options);
  ServeRequest request;
  request.pattern = "((((";
  ServeResponse response = service.Execute(std::move(request));
  EXPECT_EQ(response.admission, Admission::kAccepted);
  EXPECT_FALSE(response.status.ok());
}

// A pattern over the vertex cap is answered with an error before filtering
// allocates its per-vertex verdict rows, and is counted as an error; one
// at the cap still runs. Label 7 occurs nowhere in the data, so the
// at-cap chain is infeasible and cheap.
TEST(QueryServiceTest, PatternOverTheVertexCapIsRejected) {
  const Graph data = TestData();
  ServiceOptions options;
  options.pool_threads = 0;
  QueryService service(data, options);
  auto chain = [](std::size_t vertices) {
    std::string pattern = "(v0:7)";
    for (std::size_t v = 1; v < vertices; ++v) {
      pattern += "-(v" + std::to_string(v) + ":7)";
    }
    return pattern;
  };
  const Counter& errors =
      MetricsRegistry::Global().GetCounter("ceci.serve.errors");

  const std::uint64_t before = errors.Value();
  ServeRequest over;
  over.pattern = chain(QueryService::kMaxQueryVertices + 1);
  const ServeResponse rejected = service.Execute(std::move(over));
  EXPECT_FALSE(rejected.status.ok());
  EXPECT_NE(rejected.status.message().find("limit is 64"), std::string::npos)
      << rejected.status.ToString();
  EXPECT_EQ(errors.Value(), before + 1);

  ServeRequest at_cap;
  at_cap.pattern = chain(QueryService::kMaxQueryVertices);
  const ServeResponse ran = service.Execute(std::move(at_cap));
  EXPECT_TRUE(ran.status.ok()) << ran.status.ToString();
  EXPECT_EQ(ran.embeddings, 0u);
  EXPECT_EQ(errors.Value(), before + 1);
}

// Writes a flat index image built on `query`'s vertex ids that stores
// `stored` as its pattern text: Preprocess picks the tree and the matching
// order, which the image records.
std::string SaveImage(const Graph& data, const Graph& query,
                      const std::string& stored, const std::string& name,
                      const PreprocessOptions& pre_options = {}) {
  NlcIndex nlc(data);
  auto pre = Preprocess(data, nlc, query, pre_options);
  CECI_CHECK(pre.ok() && !pre->infeasible);
  CeciBuilder builder(data, nlc);
  CeciIndex index = builder.Build(query, pre->tree, BuildOptions{}, nullptr);
  RefineCeci(pre->tree, data.num_vertices(), &index, nullptr);
  const FlatCeciIndex flat = FlatCeciIndex::Build(index, pre->tree);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (name + "_" + std::to_string(::getpid()) + ".idx"))
          .string();
  CECI_CHECK(WriteFlatIndex(flat, pre->tree,
                            SymmetryConstraints::Compute(query), stored, path)
                 .ok());
  return path;
}

// Writes an image for `pattern` built on the ids of that text's own parse,
// as `ceci_query --save-index [--order ...]` does.
std::string SavePrebuiltIndex(const Graph& data, const std::string& pattern,
                              const std::string& name,
                              const PreprocessOptions& pre_options = {}) {
  return SaveImage(data, ParsePattern(pattern).value(), pattern, name,
                   pre_options);
}

TEST(QueryServiceTest, PrebuiltIndexServesIdenticalResults) {
  const Graph data = TestData();
  const std::string path = SavePrebuiltIndex(data, kTriangle, "svc_prewarm");

  // Ground truth from a service that builds the index at query time.
  ServiceOptions options;
  options.pool_threads = 2;
  std::uint64_t want = 0;
  {
    QueryService cold(data, options);
    ServeRequest request;
    request.pattern = kTriangle;
    ServeResponse response = cold.Execute(request);
    ASSERT_TRUE(response.status.ok());
    want = response.embeddings;
  }
  ASSERT_GT(want, 0u);

  // The pre-warmed service answers the same pattern from the mmap'd arena.
  QueryService warm(data, options);
  ASSERT_TRUE(warm.InstallPrebuiltIndex(path, /*use_mmap=*/true).ok());
  ServeRequest request;
  request.pattern = kTriangle;
  ServeResponse response = warm.Execute(request);
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.embeddings, want);
  EXPECT_EQ(response.termination, TerminationReason::kCompleted);
  std::filesystem::remove(path);
}

TEST(QueryServiceTest, PrebuiltIndexKeepsTheOrderItWasBuiltUnder) {
  // An image saved under a non-default order (e.g. by an older release
  // whose default differed) must still install and serve exact counts.
  const Graph data = TestData();
  const char* kHouse = "(a:0)-(b:1)-(c:2)-(d:0)-(e:1)-(a); (b)-(e)";
  const Graph query = ParsePattern(kHouse).value();
  NlcIndex nlc(data);
  const PreprocessOptions path_ranked{OrderStrategy::kPathRanked};
  auto by_default = Preprocess(data, nlc, query, PreprocessOptions{});
  auto by_path = Preprocess(data, nlc, query, path_ranked);
  ASSERT_TRUE(by_default.ok());
  ASSERT_TRUE(by_path.ok());
  ASSERT_NE(by_path->tree.matching_order(),
            by_default->tree.matching_order());
  const std::string path =
      SavePrebuiltIndex(data, kHouse, "svc_path_ranked", path_ranked);

  ServiceOptions options;
  options.pool_threads = 2;
  std::uint64_t want = 0;
  {
    QueryService cold(data, options);
    ServeRequest request;
    request.pattern = kHouse;
    ServeResponse response = cold.Execute(request);
    ASSERT_TRUE(response.status.ok());
    want = response.embeddings;
  }
  ASSERT_GT(want, 0u);

  QueryService warm(data, options);
  ASSERT_TRUE(warm.InstallPrebuiltIndex(path, /*use_mmap=*/true).ok());
  ServeRequest request;
  request.pattern = kHouse;
  ServeResponse response = warm.Execute(request);
  EXPECT_TRUE(response.status.ok());
  EXPECT_TRUE(response.cache_hit);  // served from the image
  EXPECT_EQ(response.embeddings, want);
  std::filesystem::remove(path);
}

TEST(QueryServiceTest, PrebuiltIndexOfARenumberedPatternNeverMiscounts) {
  // FormatPattern names vertices by id, but parsing numbers them by first
  // appearance, so these texts parse back with some ids swapped. An image
  // built on the caller's ids that stores FormatPattern's text must be
  // rejected or count exactly. One built on the parse of its stored text,
  // which is what `ceci_query --save-index` writes, must install and count
  // exactly. The cache key follows the parse's ids, so the stored text is
  // what hits the image. Each rotation of the labeled 4-cycle puts the
  // rarest label, and so the root, on another vertex; with the root on `a`
  // the caller's BFS order [a, b, d, c] is also a valid order of the parse.
  const Graph data = AssignRandomLabels(GenerateSocialGraph(800, 5, 9), 4, 9);
  ServiceOptions options;
  options.pool_threads = 2;
  for (const char* pattern :
       {"(a:0)-(b:1)-(c:2)-(d:3)-(a)", "(a:1)-(b:2)-(c:3)-(d:0)-(a)",
        "(a:2)-(b:3)-(c:0)-(d:1)-(a)", "(a:3)-(b:0)-(c:1)-(d:2)-(a)",
        "(a:0)-(b:1)-(c:2)-(d:0)-(e:1)-(a); (b)-(e)",
        "(a)-(b)-(c)-(d)-(a)"}) {
    SCOPED_TRACE(pattern);
    const Graph caller = ParsePattern(pattern).value();
    const std::string text = FormatPattern(caller);
    const Graph reparsed = ParsePattern(text).value();
    ASSERT_NE(FormatPattern(reparsed), text);  // the parse renumbers

    ServeRequest request;
    request.pattern = pattern;
    std::uint64_t want = 0;
    {
      QueryService cold(data, options);
      ServeResponse response = cold.Execute(request);
      ASSERT_TRUE(response.status.ok());
      want = response.embeddings;
    }
    ASSERT_GT(want, 0u);

    request.pattern = text;
    for (OrderStrategy order : {OrderStrategy::kBfs, OrderStrategy::kEdgeRanked,
                                OrderStrategy::kPathRanked}) {
      const std::string stale_path =
          SaveImage(data, caller, text, "svc_renumbered_stale",
                    PreprocessOptions{order});
      QueryService stale(data, options);
      Status installed = stale.InstallPrebuiltIndex(stale_path);
      if (installed.ok()) {
        ServeResponse response = stale.Execute(request);
        EXPECT_TRUE(response.status.ok());
        EXPECT_EQ(response.embeddings, want);
      } else {
        EXPECT_EQ(installed.code(), Status::Code::kInvalidArgument);
      }
      std::filesystem::remove(stale_path);
    }

    const std::string path =
        SaveImage(data, reparsed, text, "svc_renumbered");
    QueryService warm(data, options);
    ASSERT_TRUE(warm.InstallPrebuiltIndex(path).ok());
    ServeResponse response = warm.Execute(request);
    EXPECT_TRUE(response.status.ok());
    EXPECT_TRUE(response.cache_hit);
    EXPECT_EQ(response.embeddings, want);
    std::filesystem::remove(path);
  }
}

TEST(QueryServiceTest, PrebuiltIndexRequiresTheCache) {
  const Graph data = TestData();
  const std::string path = SavePrebuiltIndex(data, kWedge, "svc_nocache");
  ServiceOptions options;
  options.pool_threads = 1;
  options.cache_indexes = false;
  QueryService service(data, options);
  Status status = service.InstallPrebuiltIndex(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  std::filesystem::remove(path);
}

// --------------------------------------------------- telemetry plumbing

TEST(QueryServiceTest, AssignsRequestIdsAndEchoesProvidedOnes) {
  const Graph data = TestData();
  ServiceOptions options;
  options.pool_threads = 0;
  QueryService service(data, options);

  // The frontend mints ids at accept time; the response echoes them.
  ServeRequest tagged;
  tagged.pattern = kWedge;
  tagged.request_id = "r-frontend-7";
  EXPECT_EQ(service.Execute(std::move(tagged)).request_id, "r-frontend-7");

  // Direct submissions (tests, embedded use) get a generated id.
  ServeRequest bare;
  bare.pattern = kWedge;
  ServeResponse response = service.Execute(std::move(bare));
  EXPECT_EQ(response.request_id.rfind("r-", 0), 0u) << response.request_id;
}

std::string AccessLogPath(const char* stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string(stem) + "_" + std::to_string(::getpid()) + ".jsonl"))
      .string();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(QueryServiceTest, AccessLogRecordsEveryOutcome) {
  const Graph data = TestData();
  const std::string path = AccessLogPath("svc_access");
  std::filesystem::remove(path);

  Gate gate;
  ServiceOptions options;
  options.pool_threads = 0;
  options.limits.max_concurrent = 1;
  options.limits.max_queue = 1;
  options.pre_match_hook = gate.Hook();
  options.access_log = std::move(AccessLog::Open(path)).value();
  QueryService service(data, options);

  // Session 0 runs (held at the gate), session 1 queues, session 2 is
  // rejected — and must STILL produce an access-log record.
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    ServeRequest request;
    request.pattern = kWedge;
    request.request_id = "r-outcome-" + std::to_string(i);
    futures.push_back(service.Submit(std::move(request)));
    if (i == 0) gate.AwaitHeld(1);
  }
  ASSERT_EQ(futures[2].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(futures[2].get().admission, Admission::kRejected);
  gate.Open();
  EXPECT_EQ(futures[0].get().termination, TerminationReason::kCompleted);
  EXPECT_EQ(futures[1].get().termination, TerminationReason::kCompleted);

  // An error outcome (malformed pattern) also lands in the log.
  ServeRequest bad;
  bad.pattern = "((((";
  bad.request_id = "r-outcome-err";
  EXPECT_FALSE(service.Execute(std::move(bad)).status.ok());
  service.Shutdown();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);
  std::map<std::string, std::string> outcome_by_id;
  for (const std::string& line : lines) {
    auto record = ParseJson(line);
    ASSERT_TRUE(record.ok()) << line;
    outcome_by_id[record->Get("request_id")->AsString()] =
        record->Get("outcome")->AsString();
    EXPECT_GE(record->Get("total_us")->AsUint(), 0u);
  }
  EXPECT_EQ(outcome_by_id.at("r-outcome-0"), "ok");
  EXPECT_EQ(outcome_by_id.at("r-outcome-1"), "ok");
  EXPECT_EQ(outcome_by_id.at("r-outcome-2"), "busy");
  EXPECT_EQ(outcome_by_id.at("r-outcome-err"), "error");
  std::filesystem::remove(path);
}

TEST(QueryServiceTest, AccessLogCapturesCacheHitAndBudget) {
  const Graph data = TestData();
  const std::string path = AccessLogPath("svc_access_cache");
  std::filesystem::remove(path);

  ServiceOptions options;
  options.pool_threads = 2;
  options.access_log = std::move(AccessLog::Open(path)).value();
  QueryService service(data, options);

  // Same pattern twice: first request builds the index, second hits the
  // cache — both responses and both log records must say which was which.
  for (int i = 0; i < 2; ++i) {
    ServeRequest request;
    request.pattern = kTriangle;
    ServeResponse response = service.Execute(std::move(request));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.cache_hit, i == 1);
  }
  service.Shutdown();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  auto first = ParseJson(lines[0]);
  auto second = ParseJson(lines[1]);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_FALSE(first->Get("cache_hit")->AsBool());
  EXPECT_TRUE(second->Get("cache_hit")->AsBool());
  // Both requests share one fingerprint (same pattern), distinct ids.
  EXPECT_EQ(first->Get("fingerprint")->AsString(),
            second->Get("fingerprint")->AsString());
  EXPECT_NE(first->Get("request_id")->AsString(),
            second->Get("request_id")->AsString());
  EXPECT_GT(first->Get("budget_charged_bytes")->AsUint(), 0u);
  std::filesystem::remove(path);
}

TEST(QueryServiceTest, PerRequestLimitIsHonored) {
  const Graph data = TestData();
  ServiceOptions options;
  options.pool_threads = 2;
  QueryService service(data, options);
  ServeRequest request;
  request.pattern = kWedge;
  request.limit = 7;
  ServeResponse response = service.Execute(std::move(request));
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.termination, TerminationReason::kLimit);
  EXPECT_GE(response.embeddings, 7u);
}

// Reads from `fd` until the peer closes it or the receive timeout fires.
std::string ReadUntilClosed(int fd) {
  std::string got;
  char chunk[256];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    got.append(chunk, static_cast<std::size_t>(n));
  }
  return got;
}

// A client that never sends a newline must not grow its connection's
// buffer without bound: past TcpServer::kMaxLineBytes the server answers
// ERR line_too_long and hangs up.
TEST(TcpServerTest, OversizedRequestLineIsRejected) {
  const Graph data = TestData();
  ServiceOptions options;
  options.pool_threads = 1;
  QueryService service(data, options);
  TcpServer server(service, TcpServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 10;  // bounds the test if the server never answers
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Lines under the cap are served as usual on the same connection.
  const std::string ping = "PING\n";
  ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  char pong[5] = {};
  ASSERT_EQ(::recv(fd, pong, sizeof(pong), MSG_WAITALL), 5);
  EXPECT_EQ(std::string(pong, 5), "PONG\n");

  const std::string oversized(TcpServer::kMaxLineBytes + 1, 'x');
  std::size_t sent = 0;
  while (sent < oversized.size()) {
    const ssize_t n = ::send(fd, oversized.data() + sent,
                             oversized.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(ReadUntilClosed(fd), "ERR line_too_long\n");
  ::close(fd);
  server.Stop();
}

// Each finished connection's thread is joined as later connections
// arrive, so a long run of short connections holds at most
// max_connections threads instead of one per connection ever served.
TEST(TcpServerTest, FinishedConnectionThreadsAreReaped) {
  const Graph data = TestData();
  ServiceOptions options;
  options.pool_threads = 1;
  QueryService service(data, options);
  TcpServerOptions server_options;
  server_options.max_connections = 16;
  TcpServer server(service, server_options);
  ASSERT_TRUE(server.Start().ok());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  const std::string ping = "PING\n";
  for (int i = 0; i < 200; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    timeval timeout{};
    timeout.tv_sec = 10;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    char pong[5] = {};
    ASSERT_EQ(::recv(fd, pong, sizeof(pong), MSG_WAITALL), 5) << i;
    ::close(fd);
    EXPECT_LE(server.held_threads(), server_options.max_connections)
        << "after connection " << i;
  }
  server.Stop();
  EXPECT_EQ(server.held_threads(), 0u);
}

}  // namespace
}  // namespace ceci
