// Serving telemetry: Prometheus exposition grammar, windowed delta
// aggregation (including under concurrent writers — the tsan preset
// gates this suite), SLO burn math, the structured access log, the JSON
// parser that ceci_top relies on, and the /metrics | /varz | /healthz
// HTTP endpoint end to end.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/access_log.h"
#include "telemetry/build_info.h"
#include "telemetry/exposition.h"
#include "telemetry/http_server.h"
#include "telemetry/server_telemetry.h"
#include "telemetry/slo.h"
#include "telemetry/windows.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/metrics_registry.h"
#include "util/tcp.h"

namespace ceci {
namespace {

// ---------------------------------------------------------------- names

TEST(ExpositionTest, NameSanitizesIllegalBytes) {
  EXPECT_EQ(PrometheusName("ceci.serve.latency_us"),
            "ceci_serve_latency_us");
  EXPECT_EQ(PrometheusName("already_legal:name"), "already_legal:name");
  EXPECT_EQ(PrometheusName("weird-chars!here"), "weird_chars_here");
  EXPECT_EQ(PrometheusName("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(PrometheusName(""), "_");
  // Idempotent: sanitizing a sanitized name changes nothing.
  EXPECT_EQ(PrometheusName(PrometheusName("ceci.serve.active")),
            PrometheusName("ceci.serve.active"));
}

TEST(ExpositionTest, LabelValueEscapes) {
  EXPECT_EQ(PrometheusLabelValue("plain"), "plain");
  EXPECT_EQ(PrometheusLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusLabelValue("a\nb"), "a\\nb");
}

// ------------------------------------------------- exposition grammar

bool IsLegalMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_' &&
      name[0] != ':') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != ':') {
      return false;
    }
  }
  return true;
}

/// Structural check of one exposition document: every line is a comment
/// or `<name>[{labels}] <value>` with a legal name.
void CheckExpositionGrammar(const std::string& text) {
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n') << "document must end with a newline";
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, keyword, name, type;
      comment >> hash >> keyword >> name >> type;
      EXPECT_EQ(keyword, "TYPE") << line;
      EXPECT_TRUE(IsLegalMetricName(name)) << line;
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      continue;
    }
    std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_TRUE(IsLegalMetricName(line.substr(0, name_end))) << line;
    std::size_t value_at = line.rfind(' ');
    ASSERT_NE(value_at, std::string::npos) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + value_at + 1, &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
  }
}

TEST(ExpositionTest, DocumentGrammarHolds) {
  MetricsRegistry registry;
  registry.GetCounter("ceci.test.requests").Add(7);
  registry.GetGauge("ceci.test.depth").Set(-3);
  Histogram& h = registry.GetHistogram("ceci.test.latency_us");
  for (std::uint64_t v : {0ull, 1ull, 3ull, 100ull, 5000ull}) h.Record(v);
  const std::string text = RenderExposition(
      registry.Snapshot(),
      {{"ceci_window_qps", {{"window", "10s"}}, 12.5},
       {"ceci_build_info", {{"version", kCeciVersion}}, 1.0}});
  CheckExpositionGrammar(text);
  EXPECT_NE(text.find("# TYPE ceci_test_requests counter\n"
                      "ceci_test_requests 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("ceci_test_depth -3\n"), std::string::npos);
  EXPECT_NE(text.find("ceci_window_qps{window=\"10s\"} 12.5\n"),
            std::string::npos);
}

TEST(ExpositionTest, HistogramBucketsAreCumulativeAndConsistent) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("ceci.test.h");
  std::uint64_t expect_sum = 0;
  for (std::uint64_t v :
       {0ull, 1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 20}) {
    h.Record(v);
    expect_sum += v;
  }
  const HistogramSnapshot snap = h.Snapshot();
  const std::string text = RenderHistogram("ceci_test_h", snap);

  std::istringstream lines(text);
  std::string line;
  std::uint64_t last_bucket = 0;
  std::uint64_t last_le = 0;
  bool first_bucket = true;
  std::uint64_t inf_value = 0, sum_value = 0, count_value = 0;
  while (std::getline(lines, line)) {
    if (line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    const std::uint64_t value = std::strtoull(line.c_str() + space + 1,
                                              nullptr, 10);
    if (line.rfind("ceci_test_h_bucket{le=\"+Inf\"}", 0) == 0) {
      inf_value = value;
    } else if (line.rfind("ceci_test_h_bucket{le=\"", 0) == 0) {
      const char* le_text = line.c_str() + sizeof("ceci_test_h_bucket{le=\"") - 1;
      const std::uint64_t le = std::strtoull(le_text, nullptr, 10);
      if (!first_bucket) {
        EXPECT_GT(le, last_le) << "le bounds must increase: " << line;
        EXPECT_GE(value, last_bucket) << "buckets must be cumulative: "
                                      << line;
      }
      first_bucket = false;
      last_le = le;
      last_bucket = value;
    } else if (line.rfind("ceci_test_h_sum ", 0) == 0) {
      sum_value = value;
    } else if (line.rfind("ceci_test_h_count ", 0) == 0) {
      count_value = value;
    }
  }
  EXPECT_EQ(count_value, snap.count);
  EXPECT_EQ(sum_value, snap.sum);
  EXPECT_EQ(sum_value, expect_sum);
  EXPECT_EQ(inf_value, snap.count) << "+Inf bucket must equal _count";
  EXPECT_EQ(last_bucket, snap.count)
      << "last finite bucket holds every recorded sample here";
}

TEST(ExpositionTest, BucketBoundsMatchHistogramSnapshot) {
  // The le bound of bucket b is the largest value the bucket can hold —
  // the same function Percentile() uses.
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(4), 15u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(64), ~0ull);
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("x");
  h.Record(9);  // bit width 4 -> bucket 4 -> le="15"
  EXPECT_NE(RenderHistogram("x", h.Snapshot()).find("x_bucket{le=\"15\"} 1"),
            std::string::npos);
}

// ------------------------------------------------------ windowed deltas

TEST(WindowDeltaTest, SnapshotDeltaSubtractsExactly) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c");
  Histogram& h = registry.GetHistogram("h");
  c.Add(10);
  h.Record(5);
  const MetricsSnapshot before = registry.Snapshot();
  c.Add(7);
  h.Record(5);
  h.Record(4000);
  registry.GetGauge("g").Set(42);
  const MetricsSnapshot after = registry.Snapshot();

  const MetricsSnapshot delta = SnapshotDelta(after, before);
  EXPECT_EQ(delta.counters.at("c"), 7u);
  EXPECT_EQ(delta.gauges.at("g"), 42);
  EXPECT_EQ(delta.histograms.at("h").count, 2u);
  EXPECT_EQ(delta.histograms.at("h").sum, 4005u);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : delta.histograms.at("h").buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 2u);
}

TEST(WindowDeltaTest, AccumulateIsInverseOfDelta) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c");
  Histogram& h = registry.GetHistogram("h");
  c.Add(3);
  h.Record(100);
  const MetricsSnapshot first = registry.Snapshot();
  c.Add(5);
  h.Record(200);
  const MetricsSnapshot second = registry.Snapshot();

  MetricsSnapshot rebuilt = SnapshotDelta(first, MetricsSnapshot{});
  AccumulateSnapshot(&rebuilt, SnapshotDelta(second, first));
  EXPECT_EQ(rebuilt.counters.at("c"), second.counters.at("c"));
  EXPECT_EQ(rebuilt.histograms.at("h").count, second.histograms.at("h").count);
  EXPECT_EQ(rebuilt.histograms.at("h").sum, second.histograms.at("h").sum);
}

TEST(WindowedAggregatorTest, ManualTicksPartitionTheStream) {
  MetricsRegistry registry;
  WindowedAggregator::Options options;
  options.tick_seconds = 3600.0;  // ticker never fires; Tick() is manual
  options.slots = 4;
  WindowedAggregator aggregator(registry, options);

  Counter& c = registry.GetCounter("ceci.serve.submitted");
  c.Add(10);
  aggregator.Tick();
  c.Add(20);
  aggregator.Tick();
  c.Add(5);  // live partial, not yet ticked

  double covered = 0.0;
  const MetricsSnapshot window = aggregator.WindowDelta(1e9, &covered);
  // Live partial (5) + both slots (20, 10) == everything since start.
  EXPECT_EQ(window.counters.at("ceci.serve.submitted"), 35u);

  // A zero-second window still includes the live partial interval.
  const MetricsSnapshot live = aggregator.WindowDelta(0.0);
  EXPECT_EQ(live.counters.at("ceci.serve.submitted"), 5u);
}

TEST(WindowedAggregatorTest, RingEvictsOldestSlots) {
  MetricsRegistry registry;
  WindowedAggregator::Options options;
  options.tick_seconds = 3600.0;
  options.slots = 2;
  WindowedAggregator aggregator(registry, options);
  Counter& c = registry.GetCounter("c");
  for (std::uint64_t round = 1; round <= 5; ++round) {
    c.Add(round);
    aggregator.Tick();
  }
  // Only the newest two slots (4, 5) remain reachable.
  const MetricsSnapshot window = aggregator.WindowDelta(1e9);
  EXPECT_EQ(window.counters.at("c"), 9u);
}

TEST(WindowedAggregatorTest, ComputeServingWindowProjection) {
  MetricsRegistry registry;
  registry.GetCounter("ceci.serve.submitted").Add(100);
  registry.GetCounter("ceci.serve.accepted").Add(90);
  registry.GetCounter("ceci.serve.rejected").Add(10);
  Histogram& latency = registry.GetHistogram("ceci.serve.latency_us");
  for (int i = 0; i < 10; ++i) latency.Record(1000);
  const ServingWindow window =
      ComputeServingWindow(registry.Snapshot(), 10.0);
  EXPECT_DOUBLE_EQ(window.qps, 10.0);
  EXPECT_DOUBLE_EQ(window.error_rate, 0.1);
  EXPECT_EQ(window.submitted, 100u);
  EXPECT_EQ(window.latency_count, 10u);
  EXPECT_GE(window.p99_us, 1000u);
  EXPECT_LE(window.p99_us, 2047u);  // log2 bucket upper bound
}

// The tsan-gated correctness test: writers hammer the registry while the
// aggregator ticks and readers sum windows; afterwards the window over
// everything must equal the cumulative totals exactly (deltas lose
// nothing and double-count nothing once writers are quiesced).
TEST(WindowedAggregatorTest, ConcurrentWritersConserveCounts) {
  MetricsRegistry registry;
  WindowedAggregator::Options options;
  options.tick_seconds = 3600.0;
  options.slots = 4096;
  WindowedAggregator aggregator(registry, options);

  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> stop_ticking{false};
  std::thread ticker([&] {
    while (!stop_ticking.load(std::memory_order_acquire)) {
      aggregator.Tick();
      (void)aggregator.WindowDelta(1e9);  // concurrent reads
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      Counter& c = registry.GetCounter("ceci.serve.submitted");
      Histogram& h = registry.GetHistogram("ceci.serve.latency_us");
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        c.Increment();
        h.Record((i % 1024) + static_cast<std::uint64_t>(w));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop_ticking.store(true, std::memory_order_release);
  ticker.join();
  aggregator.Tick();  // capture any tail into a slot

  const MetricsSnapshot window = aggregator.WindowDelta(1e9);
  const MetricsSnapshot cumulative = registry.Snapshot();
  EXPECT_EQ(window.counters.at("ceci.serve.submitted"),
            kWriters * kPerWriter);
  EXPECT_EQ(window.counters.at("ceci.serve.submitted"),
            cumulative.counters.at("ceci.serve.submitted"));
  EXPECT_EQ(window.histograms.at("ceci.serve.latency_us").count,
            cumulative.histograms.at("ceci.serve.latency_us").count);
  EXPECT_EQ(window.histograms.at("ceci.serve.latency_us").sum,
            cumulative.histograms.at("ceci.serve.latency_us").sum);
}

TEST(WindowedAggregatorTest, TickerThreadStartStopIsClean) {
  MetricsRegistry registry;
  WindowedAggregator::Options options;
  options.tick_seconds = 0.005;
  WindowedAggregator aggregator(registry, options);
  std::atomic<int> published{0};
  aggregator.set_on_tick([&] {
    published.fetch_add(1, std::memory_order_relaxed);
  });
  aggregator.Start();
  Counter& c = registry.GetCounter("c");
  while (published.load(std::memory_order_relaxed) < 3) {
    c.Increment();
    std::this_thread::yield();
  }
  aggregator.Stop();
  aggregator.Stop();  // idempotent
  EXPECT_GE(published.load(std::memory_order_relaxed), 3);
}

// ----------------------------------------------------------------- SLO

TEST(SloTest, AvailabilityBurnIsBadFractionOverBudget) {
  MetricsRegistry registry;
  registry.GetCounter("ceci.serve.submitted").Add(1000);
  registry.GetCounter("ceci.serve.rejected").Add(2);
  SloConfig config;
  config.availability_target = 0.999;  // budget 0.1%
  const SloBurn burn = ComputeSloBurn(config, registry.Snapshot());
  ASSERT_TRUE(burn.availability_valid);
  // bad fraction 0.002 over budget 0.001 -> burn 2x.
  EXPECT_NEAR(burn.availability_burn, 2.0, 1e-9);
}

TEST(SloTest, NoTrafficMeansNoBurn) {
  SloConfig config;
  const SloBurn burn = ComputeSloBurn(config, MetricsSnapshot{});
  EXPECT_FALSE(burn.availability_valid);
  EXPECT_FALSE(burn.latency_valid);
  EXPECT_DOUBLE_EQ(burn.availability_burn, 0.0);
}

TEST(SloTest, LatencyBurnCountsBucketsOverThreshold) {
  MetricsRegistry registry;
  Histogram& latency = registry.GetHistogram("ceci.serve.latency_us");
  for (int i = 0; i < 90; ++i) latency.Record(500);    // bucket le=1023
  for (int i = 0; i < 10; ++i) latency.Record(50000);  // way over
  SloConfig config;
  config.latency_threshold_us = 1023.0;  // exactly a bucket bound
  config.latency_target = 0.95;          // budget 5%
  const SloBurn burn = ComputeSloBurn(config, registry.Snapshot());
  ASSERT_TRUE(burn.latency_valid);
  // 10% bad over a 5% budget -> burn 2x.
  EXPECT_NEAR(burn.latency_burn, 2.0, 1e-9);
}

TEST(SloTest, ZeroBudgetBurnsSaturateFinite) {
  MetricsRegistry registry;
  registry.GetCounter("ceci.serve.submitted").Add(10);
  registry.GetCounter("ceci.serve.errors").Add(1);
  SloConfig config;
  config.availability_target = 1.0;  // zero error budget
  const SloBurn burn = ComputeSloBurn(config, registry.Snapshot());
  EXPECT_GT(burn.availability_burn, 1e5);
  EXPECT_TRUE(std::isfinite(burn.availability_burn));
}

TEST(SloTest, TrackerPublishesMilliGauges) {
  MetricsRegistry registry;
  WindowedAggregator::Options options;
  options.tick_seconds = 3600.0;
  WindowedAggregator aggregator(registry, options);
  SloConfig config;
  config.availability_target = 0.999;
  SloTracker tracker(config, registry);

  registry.GetCounter("ceci.serve.submitted").Add(1000);
  registry.GetCounter("ceci.serve.rejected").Add(2);
  tracker.Publish(aggregator);

  const MetricsSnapshot snap = registry.Snapshot();
  // burn 2.0 -> 2000 milli.
  EXPECT_EQ(snap.gauges.at("ceci.slo.availability_burn_milli.1m"), 2000);
  EXPECT_EQ(snap.gauges.at("ceci.slo.availability_burn_milli.5m"), 2000);
  EXPECT_EQ(snap.gauges.at("ceci.slo.latency_burn_milli.1m"), 0);
}

// ---------------------------------------------------------- access log

std::string TempPath(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += '/';
  path += stem;
  path += '.';
  path += std::to_string(::getpid());
  return path;
}

TEST(AccessLogTest, WritesParseableRecordsWithSchema) {
  const std::string path = TempPath("ceci_access_log");
  std::remove(path.c_str());
  {
    auto log = AccessLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    AccessRecord ok_record;
    ok_record.request_id = "r-test-1";
    ok_record.fingerprint = QueryFingerprint("(a)-(b)");
    ok_record.admission = "accepted";
    ok_record.outcome = "ok";
    ok_record.termination = "completed";
    ok_record.queue_us = 12;
    ok_record.exec_us = 3400;
    ok_record.total_us = 3412;
    ok_record.embeddings = 99;
    ok_record.cache_hit = true;
    ok_record.budget_charged_bytes = 4096;
    (*log)->Write(ok_record);

    AccessRecord busy;
    busy.request_id = "r-test-2";
    busy.fingerprint = ok_record.fingerprint;
    busy.admission = "rejected";
    busy.outcome = "busy";
    (*log)->Write(busy);
    EXPECT_EQ((*log)->lines_written(), 2u);
  }

  std::ifstream in(path);
  std::string line;
  std::vector<JsonValue> records;
  while (std::getline(in, line)) {
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
    records.push_back(std::move(parsed).value());
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].Get("request_id")->AsString(), "r-test-1");
  EXPECT_EQ(records[0].Get("admission")->AsString(), "accepted");
  EXPECT_EQ(records[0].Get("outcome")->AsString(), "ok");
  EXPECT_EQ(records[0].Get("termination")->AsString(), "completed");
  EXPECT_EQ(records[0].Get("exec_us")->AsUint(), 3400u);
  EXPECT_EQ(records[0].Get("embeddings")->AsUint(), 99u);
  EXPECT_TRUE(records[0].Get("cache_hit")->AsBool());
  EXPECT_EQ(records[0].Get("budget_charged_bytes")->AsUint(), 4096u);
  EXPECT_GT(records[0].Get("ts_s")->AsDouble(), 0.0);
  EXPECT_EQ(records[1].Get("outcome")->AsString(), "busy");
  EXPECT_EQ(records[1].Get("termination"), nullptr)
      << "rejected requests never ran, so no termination";
  std::remove(path.c_str());
}

TEST(AccessLogTest, FingerprintIsStableAndHex) {
  const std::string fp = QueryFingerprint("(a:0)-(b:1); (a)-(b)");
  EXPECT_EQ(fp.size(), 16u);
  for (char c : fp) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << fp;
  }
  EXPECT_EQ(fp, QueryFingerprint("(a:0)-(b:1); (a)-(b)"));
  EXPECT_NE(fp, QueryFingerprint("(a:0)-(b:2); (a)-(b)"));
}

TEST(AccessLogTest, RequestIdsAreUniqueAndWireSafe) {
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::string id = NextRequestId();
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    EXPECT_EQ(id.rfind("r-", 0), 0u);
    for (char c : id) {
      // Must survive k=v wire fields and JSON unescaped.
      EXPECT_TRUE(std::islower(static_cast<unsigned char>(c)) ||
                  std::isdigit(static_cast<unsigned char>(c)) || c == '-')
          << id;
    }
  }
}

TEST(AccessLogTest, ConcurrentWritesProduceWholeLines) {
  const std::string path = TempPath("ceci_access_log_mt");
  std::remove(path.c_str());
  {
    auto log = AccessLog::Open(path);
    ASSERT_TRUE(log.ok());
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
      writers.emplace_back([&log, w] {
        for (int i = 0; i < 200; ++i) {
          AccessRecord record;
          record.request_id =
              "r-w" + std::to_string(w) + "-" + std::to_string(i);
          record.admission = "accepted";
          record.outcome = "ok";
          record.termination = "completed";
          (*log)->Write(record);
        }
      });
    }
    for (std::thread& t : writers) t.join();
    EXPECT_EQ((*log)->lines_written(), 800u);
  }
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_TRUE(ParseJson(line).ok()) << "torn line: " << line;
    ++lines;
  }
  EXPECT_EQ(lines, 800u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------- json parser

TEST(JsonParserTest, RoundTripsJsonWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "ceci.serve.latency_us");
  w.KV("count", std::uint64_t{18446744073709551615ull});
  w.KV("negative", std::int64_t{-42});
  w.KV("ratio", 0.25);
  w.KV("live", true);
  w.Key("nested");
  w.BeginObject();
  w.Key("values");
  w.BeginArray();
  w.Uint(1);
  w.Uint(2);
  w.Uint(3);
  w.EndArray();
  w.EndObject();
  w.EndObject();

  auto doc = ParseJson(std::move(w).Take());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Get("name")->AsString(), "ceci.serve.latency_us");
  EXPECT_EQ(doc->Get("count")->AsUint(), 18446744073709551615ull)
      << "u64 above 2^53 must read exactly";
  EXPECT_EQ(doc->Get("negative")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(doc->Get("ratio")->AsDouble(), 0.25);
  EXPECT_TRUE(doc->Get("live")->AsBool());
  EXPECT_EQ(doc->Find("nested.values")->array.size(), 3u);
  EXPECT_EQ(doc->Find("nested.values")->array[2].AsUint(), 3u);
}

TEST(JsonParserTest, StringEscapesAndUnicode) {
  auto doc = ParseJson(R"({"s": "a\"b\\c\nA", "u": "\u0041\u00e9"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Get("s")->AsString(), "a\"b\\c\nA");
  EXPECT_EQ(doc->Get("u")->AsString(), "A\xc3\xa9");  // \u UTF-8 encoded
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  // Depth bomb: deeper than the parser's limit must fail, not crash.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// ------------------------------------------------------ server telemetry

TEST(ServerTelemetryTest, VarzHasBuildUptimeWindowsAndRegistry) {
  MetricsRegistry registry;
  ServerTelemetryOptions options;
  options.windows.tick_seconds = 3600.0;
  options.slo.latency_threshold_us = 1e6;
  // The aggregator baselines at construction, so traffic recorded after
  // this point is what the windows report.
  ServerTelemetry telemetry(registry, options);
  registry.GetCounter("ceci.serve.submitted").Add(50);
  registry.GetCounter("ceci.serve.accepted").Add(50);
  registry.GetHistogram("ceci.serve.latency_us").Record(800);
  telemetry.Tick();

  auto varz = ParseJson(telemetry.VarzJson());
  ASSERT_TRUE(varz.ok()) << varz.status().ToString();
  EXPECT_EQ(varz->Find("build.version")->AsString(), kCeciVersion);
  EXPECT_FALSE(varz->Find("build.compiler")->AsString().empty());
  EXPECT_GE(varz->Get("uptime_s")->AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(varz->Find("slo.latency_threshold_us")->AsDouble(), 1e6);
  for (const char* window : {"10s", "1m", "5m"}) {
    const JsonValue* w = varz->Get("windows")->Get(window);
    ASSERT_NE(w, nullptr) << window;
    EXPECT_EQ(w->Get("submitted")->AsUint(), 50u);
    EXPECT_DOUBLE_EQ(w->Get("error_rate")->AsDouble(), 0.0);
    EXPECT_GE(w->Get("p50_us")->AsUint(), 800u);
  }
  EXPECT_EQ(varz->Get("counters")->Get("ceci.serve.submitted")->AsUint(),
            50u);
  const JsonValue* latency =
      varz->Get("histograms")->Get("ceci.serve.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Get("count")->AsUint(), 1u);
}

TEST(ServerTelemetryTest, MetricsTextCarriesWindowAndBuildSamples) {
  MetricsRegistry registry;
  ServerTelemetryOptions options;
  options.windows.tick_seconds = 3600.0;
  ServerTelemetry telemetry(registry, options);
  registry.GetCounter("ceci.serve.submitted").Add(5);
  const std::string text = telemetry.MetricsText();
  CheckExpositionGrammar(text);
  EXPECT_NE(text.find("ceci_window_qps{window=\"10s\"}"), std::string::npos);
  EXPECT_NE(text.find("ceci_window_requests{window=\"5m\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("ceci_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("ceci_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("ceci_serve_submitted 5\n"), std::string::npos);
}

// ------------------------------------------------------- http endpoint

Result<std::string> RawHttpGet(int port, const std::string& request_text) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::IoError("connect");
  }
  if (::send(fd, request_text.data(), request_text.size(), MSG_NOSIGNAL) <
      0) {
    ::close(fd);
    return Status::IoError("send");
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

TEST(TelemetryHttpTest, ServesMetricsVarzHealthzAnd404) {
  MetricsRegistry registry;
  registry.GetCounter("ceci.serve.submitted").Add(3);
  ServerTelemetryOptions telemetry_options;
  telemetry_options.windows.tick_seconds = 3600.0;
  ServerTelemetry telemetry(registry, telemetry_options);
  TelemetryHttpOptions http;
  http.port = 0;
  TelemetryHttpServer server(telemetry, http);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto health = RawHttpGet(server.port(),
                           "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->find("200 OK"), std::string::npos);
  EXPECT_NE(health->find("ok\n"), std::string::npos);

  auto metrics = RawHttpGet(server.port(),
                            "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("text/plain; version=0.0.4"), std::string::npos);
  const std::size_t body = metrics->find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  CheckExpositionGrammar(metrics->substr(body + 4));

  auto varz = RawHttpGet(server.port(),
                         "GET /varz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(varz.ok());
  const std::size_t varz_body = varz->find("\r\n\r\n");
  ASSERT_NE(varz_body, std::string::npos);
  auto parsed = ParseJson(varz->substr(varz_body + 4));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(
      parsed->Get("counters")->Get("ceci.serve.submitted")->AsUint(), 3u);

  auto missing = RawHttpGet(server.port(),
                            "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing->find("404 Not Found"), std::string::npos);

  auto bad = RawHttpGet(server.port(), "POST /metrics HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(bad->find("400 Bad Request"), std::string::npos);

  // The scrape counter saw /metrics and /varz (health and errors don't
  // count as scrapes).
  EXPECT_EQ(MetricsRegistry::Global()
                .Snapshot()
                .counters.at("ceci.telemetry.scrapes"),
            2u);
  server.Stop();
  server.Stop();  // idempotent
}

// A connected client that has sent nothing (the server is blocked
// reading its request head until kReadTimeoutSeconds).
int IdleClient(int port) {
  Result<int> fd = ConnectTcp("127.0.0.1", port);
  CECI_CHECK(fd.ok()) << fd.status().ToString();
  return *fd;
}

TEST(TelemetryHttpTest, IdleClientDoesNotStallOtherScrapes) {
  MetricsRegistry registry;
  ServerTelemetry telemetry(registry, ServerTelemetryOptions{});
  TelemetryHttpServer server(telemetry, TelemetryHttpOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int idle = IdleClient(server.port());

  const auto start = std::chrono::steady_clock::now();
  auto health = RawHttpGet(server.port(),
                           "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->find("200 OK"), std::string::npos);
  EXPECT_LT(waited, std::chrono::milliseconds(100));

  // Stop shuts the idle connection down instead of waiting out its read
  // timeout.
  const auto stop_start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            std::chrono::seconds(TelemetryHttpServer::kReadTimeoutSeconds));
  ::close(idle);
}

TEST(TelemetryHttpTest, ConnectionsPastTheCapAreTurnedAway) {
  MetricsRegistry registry;
  ServerTelemetry telemetry(registry, ServerTelemetryOptions{});
  TelemetryHttpServer server(telemetry, TelemetryHttpOptions{});
  ASSERT_TRUE(server.Start().ok());
  std::vector<int> idle;
  for (std::size_t i = 0; i < TelemetryHttpServer::kMaxConnections; ++i) {
    idle.push_back(IdleClient(server.port()));
  }
  // The accept thread admits in arrival order: every slot is taken.
  auto busy = RawHttpGet(server.port(),
                         "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(busy.ok());
  EXPECT_NE(busy->find("503 Service Unavailable"), std::string::npos)
      << *busy;

  // A slot frees as soon as its client hangs up.
  for (int fd : idle) ::close(fd);
  bool served = false;
  for (int attempt = 0; attempt < 200 && !served; ++attempt) {
    auto health = RawHttpGet(server.port(),
                             "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    served = health.ok() && health->find("200 OK") != std::string::npos;
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served);
}

}  // namespace
}  // namespace ceci
