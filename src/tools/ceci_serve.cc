// ceci_serve — line-protocol TCP server over one data graph.
//
// Loads the data graph, starts a QueryService (shared enumeration pool +
// admission control), and serves the protocol of serve/protocol.h until
// SIGINT/SIGTERM (or --duration-s elapses). Prints exactly one line
//
//   ceci_serve: listening on HOST:PORT
//
// to stdout once ready, so scripts using --port 0 can scrape the
// ephemeral port. With --telemetry-port it additionally prints
//
//   ceci_serve: telemetry on HOST:PORT
//
// and serves GET /metrics (Prometheus), /varz (JSON), /healthz there.
//
//   ceci_serve --data graph.txt --port 0 --pool-threads 4
//
// Flags:
//   --data PATH            data graph file (required)
//   --format FMT           edgelist | labeled | csr      (default: edgelist)
//   --host ADDR            IPv4 listen address     (default: 127.0.0.1)
//   --port N               listen port, 0 = ephemeral    (default: 0)
//   --pool-threads N       shared enumeration pool size  (default: 4)
//   --threads-per-query N  enumeration workers per query (default: 2)
//   --max-concurrent N     queries executing at once     (default: 2)
//   --max-queue N          waiting queries before BUSY   (default: 16)
//   --degrade-depth N      waiting queries before degraded admission
//                          (default: never)
//   --default-deadline-ms N  deadline for requests without one, 0 = none
//   --degraded-deadline-ms N deadline ceiling for degraded queries
//   --degraded-limit N     embedding-limit ceiling for degraded queries
//   --max-connections N    concurrent client connections (default: 64)
//   --no-cache             rebuild the index per request (no CachedMatcher)
//   --index PATH           pre-warm the cache with a prebuilt flat index
//                          image (ceci_query --save-index); mmap'd
//                          read-only so concurrent workers and server
//                          processes share one physical copy. Repeatable;
//                          incompatible with --no-cache.
//   --no-mmap              load --index images by copying instead of mmap
//   --duration-s N         exit cleanly after N seconds, 0 = until signal
//   --telemetry-port N     serve /metrics /varz /healthz on this port
//                          (0 = ephemeral; omit the flag to disable)
//   --access-log PATH      append one JSONL record per request
//   --slo-availability-target F  availability objective  (default: 0.999)
//   --slo-latency-ms N     latency objective threshold, 0 = disabled
//   --slo-latency-target F fraction under the threshold  (default: 0.99)
//   --help                 print this help and exit 0
//
// Numeric flags take plain decimals (ParseFlagNumber): N is a count with
// no sign or suffix, F and millisecond values any finite non-negative
// number. Anything else is a usage error.
//
// Exit codes: 0 clean shutdown, 1 I/O error, 2 usage error.
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graphio/edge_list.h"
#include "serve/query_service.h"
#include "serve/tcp_server.h"
#include "telemetry/access_log.h"
#include "telemetry/http_server.h"
#include "telemetry/server_telemetry.h"
#include "util/metrics_registry.h"
#include "util/tcp.h"
#include "util/timer.h"

namespace {

using namespace ceci;

std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct Args {
  std::string data;
  std::string format = "edgelist";
  std::string host = "127.0.0.1";
  int port = 0;
  ServiceOptions service;
  std::vector<std::string> indexes;
  bool use_mmap = true;
  std::size_t max_connections = 64;
  double duration_s = 0.0;
  /// -1 = telemetry HTTP endpoint disabled; 0 = ephemeral port.
  int telemetry_port = -1;
  std::string access_log;
  SloConfig slo;
  bool help = false;
};

void Usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s --data PATH [--format edgelist|labeled|csr]\n"
               "          [--host ADDR] [--port N]\n"
               "          [--pool-threads N] [--threads-per-query N]\n"
               "          [--max-concurrent N] [--max-queue N]\n"
               "          [--degrade-depth N] [--default-deadline-ms N]\n"
               "          [--degraded-deadline-ms N] [--degraded-limit N]\n"
               "          [--max-connections N] [--no-cache]\n"
               "          [--index PATH]... [--no-mmap]\n"
               "          [--duration-s N] [--telemetry-port N]\n"
               "          [--access-log PATH] [--slo-availability-target F]\n"
               "          [--slo-latency-ms N] [--slo-latency-target F]\n"
               "          [--help]\n"
               "protocol: MATCH <pattern> | MATCHX k=v,... <pattern> | "
               "STATS | PING | QUIT\n"
               "exit codes: 0 clean shutdown, 1 I/O error, 2 usage\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    // The next argument as a strict number (ParseFlagNumber).
    auto number = [&](auto* out) {
      const char* v = next();
      return v != nullptr && ParseFlagNumber(v, out);
    };
    double ms = 0.0;
    if (flag == "--help") {
      args->help = true;
      return true;
    } else if (flag == "--data") {
      const char* v = next();
      if (!v) return false;
      args->data = v;
    } else if (flag == "--format") {
      const char* v = next();
      if (!v) return false;
      args->format = v;
    } else if (flag == "--host") {
      const char* v = next();
      if (!v) return false;
      args->host = v;
    } else if (flag == "--port") {
      const char* v = next();
      if (!v || !ParsePort(v, &args->port)) return false;
    } else if (flag == "--pool-threads") {
      if (!number(&args->service.pool_threads)) return false;
    } else if (flag == "--threads-per-query") {
      if (!number(&args->service.threads_per_query)) return false;
    } else if (flag == "--max-concurrent") {
      if (!number(&args->service.limits.max_concurrent) ||
          args->service.limits.max_concurrent == 0) {
        return false;
      }
    } else if (flag == "--max-queue") {
      if (!number(&args->service.limits.max_queue)) return false;
    } else if (flag == "--degrade-depth") {
      if (!number(&args->service.limits.degrade_depth)) return false;
    } else if (flag == "--default-deadline-ms") {
      if (!number(&ms)) return false;
      args->service.limits.default_deadline_seconds = ms / 1e3;
    } else if (flag == "--degraded-deadline-ms") {
      if (!number(&ms)) return false;
      args->service.limits.degraded_deadline_seconds = ms / 1e3;
    } else if (flag == "--degraded-limit") {
      if (!number(&args->service.limits.degraded_limit)) return false;
    } else if (flag == "--max-connections") {
      if (!number(&args->max_connections) || args->max_connections == 0) {
        return false;
      }
    } else if (flag == "--no-cache") {
      args->service.cache_indexes = false;
    } else if (flag == "--index") {
      const char* v = next();
      if (!v) return false;
      args->indexes.emplace_back(v);
    } else if (flag == "--no-mmap") {
      args->use_mmap = false;
    } else if (flag == "--duration-s") {
      if (!number(&args->duration_s)) return false;
    } else if (flag == "--telemetry-port") {
      const char* v = next();
      if (!v || !ParsePort(v, &args->telemetry_port)) return false;
    } else if (flag == "--access-log") {
      const char* v = next();
      if (!v) return false;
      args->access_log = v;
    } else if (flag == "--slo-availability-target") {
      if (!number(&args->slo.availability_target)) return false;
    } else if (flag == "--slo-latency-ms") {
      if (!number(&ms)) return false;
      args->slo.latency_threshold_us = ms * 1e3;
    } else if (flag == "--slo-latency-target") {
      if (!number(&args->slo.latency_target)) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (!args->indexes.empty() && !args->service.cache_indexes) {
    std::fprintf(stderr, "--index requires the cache (drop --no-cache)\n");
    return false;
  }
  return !args->data.empty();
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

  auto data = ReadGraph(args.data, args.format);
  if (!data.ok()) {
    std::fprintf(stderr, "data graph: %s\n", data.status().ToString().c_str());
    return 1;
  }

  if (!args.access_log.empty()) {
    auto log = AccessLog::Open(args.access_log);
    if (!log.ok()) {
      std::fprintf(stderr, "access log: %s\n",
                   log.status().ToString().c_str());
      return 1;
    }
    args.service.access_log = std::move(log).value();
  }

  QueryService service(*data, args.service);
  for (const std::string& path : args.indexes) {
    Status installed = service.InstallPrebuiltIndex(path, args.use_mmap);
    if (!installed.ok()) {
      std::fprintf(stderr, "index %s: %s\n", path.c_str(),
                   installed.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "ceci_serve: installed prebuilt index %s\n",
                 path.c_str());
  }
  // Telemetry always runs (STATS reports uptime/build/windows whether or
  // not the HTTP endpoint is enabled); the scrape listener is opt-in.
  ServerTelemetryOptions telemetry_options;
  telemetry_options.slo = args.slo;
  ServerTelemetry telemetry(MetricsRegistry::Global(), telemetry_options);
  telemetry.Start();

  TcpServerOptions tcp;
  tcp.host = args.host;
  tcp.port = args.port;
  tcp.max_connections = args.max_connections;
  tcp.telemetry = &telemetry;
  TcpServer server(service, tcp);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("ceci_serve: listening on %s:%d\n", args.host.c_str(),
              server.port());
  std::fflush(stdout);

  std::unique_ptr<TelemetryHttpServer> scrape_server;
  if (args.telemetry_port >= 0) {
    TelemetryHttpOptions http;
    http.host = args.host;
    http.port = args.telemetry_port;
    scrape_server = std::make_unique<TelemetryHttpServer>(telemetry, http);
    Status scrape_started = scrape_server->Start();
    if (!scrape_started.ok()) {
      std::fprintf(stderr, "telemetry: %s\n",
                   scrape_started.ToString().c_str());
      return 1;
    }
    std::printf("ceci_serve: telemetry on %s:%d\n", args.host.c_str(),
                scrape_server->port());
    std::fflush(stdout);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  Timer uptime;
  while (g_stop == 0) {
    if (args.duration_s > 0.0 && uptime.Seconds() >= args.duration_s) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (scrape_server != nullptr) scrape_server->Stop();
  server.Stop();
  service.Shutdown();
  telemetry.Stop();
  std::printf("ceci_serve: shut down after %.1fs\n", uptime.Seconds());
  return 0;
}
