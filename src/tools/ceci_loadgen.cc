// ceci_loadgen — closed-loop workload driver for ceci_serve.
//
// Opens N persistent connections, each replaying patterns drawn from a
// query mix with Zipfian popularity (serve/workload.h), and reports
// throughput and exact latency percentiles. One request is in flight per
// connection (closed loop), so `--connections` is the offered
// concurrency — sweep it to chart the service's saturation behaviour.
//
//   ceci_loadgen --host 127.0.0.1 --port 7001 --connections 8
//                --mix qg --zipf 0.8 --duration-s 10 --out runs.jsonl
//
// Flags:
//   --host ADDR        server address                (default: 127.0.0.1)
//   --port N           server port (required)
//   --connections N    concurrent connections        (default: 4)
//   --duration-s F     measured run length           (default: 10)
//   --requests N       stop after N total requests instead of a duration
//   --warmup-s F       initial seconds excluded from stats (default: 0)
//   --mix M            qg | generated | mixed        (default: qg)
//   --data PATH        data graph (generated/mixed mixes)
//   --format FMT       edgelist | labeled | csr      (default: edgelist)
//   --queries N        generated-query count         (default: 8)
//   --query-size N     generated-query vertices      (default: 4)
//   --zipf S           popularity skew, 0 = uniform  (default: 0)
//   --seed N           workload + sampling seed      (default: 1)
//   --limit N          per-request embedding limit, 0 = all
//   --deadline-ms N    per-request deadline, 0 = server default
//   --retries N        attempts to retry a failed connect or a
//                      `BUSY queue_full` response, with capped
//                      exponential backoff + jitter (default: 0 — every
//                      offered request maps 1:1 to a server submission,
//                      which the tier-1 serving smoke reconciles on)
//   --retry-backoff-ms F
//                      initial retry backoff; doubles per attempt, capped
//                      at 32x, jittered in [0.5, 1.0)  (default: 10)
//   --out PATH         append the run as one JSON line
//   --label STR        free-form tag recorded in the JSON entry
//   --help             print this help and exit 0
//
// Numeric flags take plain decimals (ParseFlagNumber): a count has no
// sign or suffix, a fraction or duration is any finite non-negative
// number. Anything else is a usage error.
//
// Exit codes: 0 run completed (including BUSY retries exhausted — the
// server's admission verdict is a valid outcome, tallied as
// retry_exhausted), 1 I/O / connection error (including connect retries
// exhausted), 2 usage error.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graphio/edge_list.h"
#include "serve/protocol.h"
#include "serve/workload.h"
#include "util/tcp.h"
#include "util/timer.h"

namespace {

using namespace ceci;

struct Args {
  std::string host = "127.0.0.1";
  int port = 0;
  std::size_t connections = 4;
  double duration_s = 10.0;
  std::uint64_t requests = 0;
  double warmup_s = 0.0;
  WorkloadOptions workload;
  std::string data;
  std::string format = "edgelist";
  double zipf = 0.0;
  std::uint64_t limit = 0;
  double deadline_ms = 0.0;
  std::uint64_t retries = 0;
  double retry_backoff_ms = 10.0;
  std::string out;
  std::string label;
  bool help = false;
};

void Usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s --port N [--host ADDR] [--connections N]\n"
               "          [--duration-s F] [--requests N] [--warmup-s F]\n"
               "          [--mix qg|generated|mixed] [--data PATH]\n"
               "          [--format edgelist|labeled|csr] [--queries N]\n"
               "          [--query-size N] [--zipf S] [--seed N]\n"
               "          [--limit N] [--deadline-ms N] [--retries N]\n"
               "          [--retry-backoff-ms F]\n"
               "          [--out PATH] [--label STR] [--help]\n"
               "exit codes: 0 run completed, 1 I/O or connection error, "
               "2 usage\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (flag == "--help") {
      args->help = true;
      return true;
    } else if (flag == "--host") {
      const char* v = next();
      if (!v) return false;
      args->host = v;
    } else if (flag == "--port") {
      const char* v = next();
      if (!v || !ParsePort(v, &args->port)) return false;
    } else if (flag == "--connections") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->connections)) return false;
      if (args->connections == 0) return false;
    } else if (flag == "--duration-s") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->duration_s)) return false;
    } else if (flag == "--requests") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->requests)) return false;
    } else if (flag == "--warmup-s") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->warmup_s)) return false;
    } else if (flag == "--mix") {
      const char* v = next();
      if (!v) return false;
      args->workload.mix = v;
    } else if (flag == "--data") {
      const char* v = next();
      if (!v) return false;
      args->data = v;
    } else if (flag == "--format") {
      const char* v = next();
      if (!v) return false;
      args->format = v;
    } else if (flag == "--queries") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->workload.generated_count)) return false;
      if (args->workload.generated_count == 0) return false;
    } else if (flag == "--query-size") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->workload.generated_size)) return false;
      if (args->workload.generated_size == 0) return false;
    } else if (flag == "--zipf") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->zipf)) return false;
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->workload.seed)) return false;
    } else if (flag == "--limit") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->limit)) return false;
    } else if (flag == "--deadline-ms") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->deadline_ms)) return false;
    } else if (flag == "--retries") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->retries)) return false;
    } else if (flag == "--retry-backoff-ms") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->retry_backoff_ms)) return false;
      if (args->retry_backoff_ms <= 0.0) return false;
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return false;
      args->out = v;
    } else if (flag == "--label") {
      const char* v = next();
      if (!v) return false;
      args->label = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->port <= 0) return false;
  if (args->requests == 0 && args->duration_s <= 0.0) return false;
  return true;
}

/// Per-connection outcome tally, keyed by the response's termination.
struct ConnStats {
  std::vector<std::uint64_t> latencies_us;
  /// Requests actually sent to the server, *including* warmup requests
  /// that the latency/outcome tallies exclude. This is the number to
  /// reconcile against the server's ceci.serve.submitted counter and its
  /// access-log line count.
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t limit = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t memory_budget = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  /// Backoff-and-resend attempts (connect + BUSY), across all requests.
  std::uint64_t retries = 0;
  /// Requests still BUSY after the last allowed retry (distinct from
  /// `busy`, which only counts un-retried BUSY verdicts).
  std::uint64_t retry_exhausted = 0;
  bool io_error = false;
};

/// Capped exponential backoff with multiplicative jitter in [0.5, 1.0):
/// attempt k sleeps ~base * 2^min(k, 5). Jitter decorrelates the closed
/// loop — otherwise every connection that got BUSY together retries
/// together and slams the queue again in phase.
void BackoffSleep(double base_ms, std::uint64_t attempt, std::mt19937_64* rng) {
  const double factor =
      static_cast<double>(1u << std::min<std::uint64_t>(attempt, 5));
  std::uniform_real_distribution<double> jitter(0.5, 1.0);
  const double ms = base_ms * factor * jitter(*rng);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

bool ReadLine(int fd, std::string* buffer, std::string* line) {
  for (;;) {
    std::size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      *line = buffer->substr(0, newline);
      buffer->erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(stderr, argv[0]);
    return 2;
  }
  if (args.help) {
    Usage(stdout, argv[0]);
    return 0;
  }

  // Workload: pattern list in popularity-rank order + request lines.
  Graph data;
  const Graph* data_ptr = nullptr;
  if (!args.data.empty()) {
    auto loaded = ReadGraph(args.data, args.format);
    if (!loaded.ok()) {
      std::fprintf(stderr, "data graph: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    data = std::move(loaded).value();
    data_ptr = &data;
  }
  auto patterns = BuildWorkload(data_ptr, args.workload);
  if (!patterns.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 patterns.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> request_lines;
  request_lines.reserve(patterns->size());
  for (const std::string& pattern : *patterns) {
    if (args.limit > 0 || args.deadline_ms > 0.0) {
      std::ostringstream line;
      line << "MATCHX limit=" << args.limit << ",deadline_ms="
           << static_cast<std::uint64_t>(args.deadline_ms) << ' ' << pattern
           << '\n';
      request_lines.push_back(line.str());
    } else {
      request_lines.push_back("MATCH " + pattern + "\n");
    }
  }
  const ZipfSampler sampler(request_lines.size(), args.zipf);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> request_budget{
      args.requests == 0 ? -1 : static_cast<std::int64_t>(args.requests)};
  std::vector<ConnStats> stats(args.connections);
  Timer run_timer;

  auto worker = [&](std::size_t conn_id) {
    ConnStats& local = stats[conn_id];
    std::mt19937_64 rng(args.workload.seed * 1000003 + conn_id);
    // A refused connect is usually the server still binding (or its accept
    // loop riding out fd exhaustion) — exactly the transient the bounded
    // backoff is for. Exhaustion is an I/O error: nothing was measured.
    int fd = -1;
    for (std::uint64_t attempt = 0;; ++attempt) {
      Result<int> connected = ConnectTcp(args.host, args.port);
      fd = connected.ok() ? *connected : -1;
      if (fd >= 0 || attempt >= args.retries) break;
      local.retries += 1;
      BackoffSleep(args.retry_backoff_ms, attempt, &rng);
    }
    if (fd < 0) {
      local.io_error = true;
      return;
    }
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    std::string buffer;
    std::string line;
    while (!stop.load(std::memory_order_relaxed)) {
      if (args.requests > 0 &&
          request_budget.fetch_sub(1, std::memory_order_relaxed) <= 0) {
        break;
      }
      const std::string& request = request_lines[sampler.Sample(uniform(rng))];
      // BUSY queue_full retry loop: each resend is a genuine submission
      // (offered counts it; the server's access log sees it), so with
      // --retries 0 the loop collapses to the old single-shot behaviour.
      std::uint64_t attempt = 0;
      bool io_failed = false;
      std::uint64_t micros = 0;
      Result<WireResponse> response = WireResponse{};
      for (;;) {
        Timer latency;
        if (!SendAll(fd, request)) {
          local.io_error = true;
          io_failed = true;
          break;
        }
        local.offered += 1;
        if (!ReadLine(fd, &buffer, &line)) {
          local.io_error = true;
          io_failed = true;
          break;
        }
        micros = latency.Micros();
        response = ParseResponseLine(line);
        if (response.ok() && response->kind == WireResponse::Kind::kBusy &&
            attempt < args.retries &&
            !stop.load(std::memory_order_relaxed)) {
          local.retries += 1;
          BackoffSleep(args.retry_backoff_ms, attempt, &rng);
          ++attempt;
          continue;
        }
        break;
      }
      if (io_failed) break;
      if (run_timer.Seconds() < args.warmup_s) continue;
      if (!response.ok()) {
        local.errors += 1;
        continue;
      }
      local.latencies_us.push_back(micros);
      switch (response->kind) {
        case WireResponse::Kind::kBusy:
          if (attempt > 0) {
            local.retry_exhausted += 1;
          } else {
            local.busy += 1;
          }
          break;
        case WireResponse::Kind::kErr:
          local.errors += 1;
          break;
        case WireResponse::Kind::kOk:
          if (response->termination == "completed") {
            local.completed += 1;
          } else if (response->termination == "deadline") {
            local.deadline += 1;
          } else if (response->termination == "limit") {
            local.limit += 1;
          } else if (response->termination == "cancelled") {
            local.cancelled += 1;
          } else if (response->termination == "memory_budget") {
            local.memory_budget += 1;
          } else {
            local.errors += 1;
          }
          break;
      }
    }
    SendAll(fd, "QUIT\n");
    ::close(fd);
  };

  std::vector<std::thread> threads;
  threads.reserve(args.connections);
  for (std::size_t c = 0; c < args.connections; ++c) {
    threads.emplace_back(worker, c);
  }
  if (args.requests == 0) {
    while (run_timer.Seconds() < args.duration_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s = run_timer.Seconds();

  // Merge per-connection tallies.
  ConnStats total;
  bool io_error = false;
  for (const ConnStats& s : stats) {
    total.latencies_us.insert(total.latencies_us.end(),
                              s.latencies_us.begin(), s.latencies_us.end());
    total.offered += s.offered;
    total.completed += s.completed;
    total.deadline += s.deadline;
    total.limit += s.limit;
    total.cancelled += s.cancelled;
    total.memory_budget += s.memory_budget;
    total.busy += s.busy;
    total.errors += s.errors;
    total.retries += s.retries;
    total.retry_exhausted += s.retry_exhausted;
    io_error = io_error || s.io_error;
  }
  const LatencySummary latency = SummarizeLatencies(total.latencies_us);
  const double measured_s =
      args.requests == 0 ? std::max(elapsed_s - args.warmup_s, 1e-9)
                         : std::max(elapsed_s, 1e-9);
  const double qps = static_cast<double>(latency.count) / measured_s;

  std::printf("ceci_loadgen: mix=%s connections=%zu zipf=%.2f elapsed=%.1fs\n",
              args.workload.mix.c_str(), args.connections, args.zipf,
              elapsed_s);
  std::printf("offered: %llu\n",
              static_cast<unsigned long long>(total.offered));
  std::printf(
      "requests: %llu (completed %llu, deadline %llu, limit %llu, "
      "cancelled %llu, memory_budget %llu, busy %llu, "
      "retry_exhausted %llu, err %llu)\n",
      static_cast<unsigned long long>(latency.count),
      static_cast<unsigned long long>(total.completed),
      static_cast<unsigned long long>(total.deadline),
      static_cast<unsigned long long>(total.limit),
      static_cast<unsigned long long>(total.cancelled),
      static_cast<unsigned long long>(total.memory_budget),
      static_cast<unsigned long long>(total.busy),
      static_cast<unsigned long long>(total.retry_exhausted),
      static_cast<unsigned long long>(total.errors));
  if (args.retries > 0) {
    std::printf("retries: %llu (max %llu per request, backoff %.0fms base)\n",
                static_cast<unsigned long long>(total.retries),
                static_cast<unsigned long long>(args.retries),
                args.retry_backoff_ms);
  }
  std::printf("qps: %.1f\n", qps);
  std::printf(
      "latency_us: mean=%.0f p50=%llu p95=%llu p99=%llu max=%llu\n",
      latency.mean_us, static_cast<unsigned long long>(latency.p50_us),
      static_cast<unsigned long long>(latency.p95_us),
      static_cast<unsigned long long>(latency.p99_us),
      static_cast<unsigned long long>(latency.max_us));

  if (!args.out.empty()) {
    std::ostringstream command;
    for (int i = 0; i < argc; ++i) {
      if (i > 0) command << ' ';
      command << argv[i];
    }
    std::ostringstream entry;
    entry << "{\"label\":\"" << JsonEscape(args.label) << "\",\"mix\":\""
          << args.workload.mix << "\",\"connections\":" << args.connections
          << ",\"zipf\":" << args.zipf << ",\"seed\":" << args.workload.seed
          << ",\"limit\":" << args.limit
          << ",\"deadline_ms\":" << args.deadline_ms
          << ",\"max_retries\":" << args.retries
          << ",\"retry_backoff_ms\":" << args.retry_backoff_ms
          << ",\"retries\":" << total.retries
          << ",\"warmup_s\":" << args.warmup_s
          << ",\"elapsed_s\":" << elapsed_s << ",\"offered\":" << total.offered
          << ",\"requests\":"
          << latency.count << ",\"qps\":" << qps << ",\"latency_us\":{"
          << "\"mean\":" << latency.mean_us << ",\"p50\":" << latency.p50_us
          << ",\"p95\":" << latency.p95_us << ",\"p99\":" << latency.p99_us
          << ",\"max\":" << latency.max_us << "},\"outcomes\":{"
          << "\"completed\":" << total.completed
          << ",\"deadline\":" << total.deadline
          << ",\"limit\":" << total.limit
          << ",\"cancelled\":" << total.cancelled
          << ",\"memory_budget\":" << total.memory_budget
          << ",\"busy\":" << total.busy
          << ",\"retry_exhausted\":" << total.retry_exhausted
          << ",\"error\":" << total.errors
          << "},\"command\":\"" << JsonEscape(command.str()) << "\"}";
    std::FILE* f = std::fopen(args.out.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "out: cannot open %s\n", args.out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", entry.str().c_str());
    std::fclose(f);
  }

  return io_error ? 1 : 0;
}
