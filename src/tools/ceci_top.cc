// ceci_top — live console view of a running ceci_serve.
//
// Polls GET /varz on the server's telemetry port (--telemetry-port on
// ceci_serve) and redraws a compact dashboard every interval: QPS and
// latency percentiles per window (10s/1m/5m), the admission mix, SLO
// burn rates, and pool/cache occupancy. Think `top` for the query
// service — no dependencies beyond a TCP socket.
//
//   ceci_top --port 7100            # poll 127.0.0.1:7100 every 2s
//
// Flags:
//   --host ADDR      telemetry address        (default: 127.0.0.1)
//   --port N         telemetry port (required)
//   --interval-s F   seconds between polls    (default: 2)
//   --iterations N   exit after N frames, 0 = until ^C (default: 0)
//   --no-clear       append frames instead of redrawing (for logs/tests)
//   --help           print this help and exit 0
//
// Numeric flags take plain decimals (ParseFlagNumber): a count has no
// sign or suffix, a fraction or duration is any finite non-negative
// number. Anything else is a usage error.
//
// Exit codes: 0 clean exit, 1 connection/parse error, 2 usage error.
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "util/json_parser.h"
#include "util/tcp.h"
#include "util/timer.h"

namespace {

using namespace ceci;

std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct Args {
  std::string host = "127.0.0.1";
  int port = 0;
  double interval_s = 2.0;
  std::uint64_t iterations = 0;
  bool clear = true;
  bool help = false;
};

void Usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s --port N [--host ADDR] [--interval-s F]\n"
               "          [--iterations N] [--no-clear] [--help]\n"
               "polls GET /varz on a ceci_serve telemetry port and renders\n"
               "a live dashboard (QPS, latency, admission mix, SLO burn)\n"
               "exit codes: 0 clean exit, 1 connection or parse error, "
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
    } else if (flag == "--interval-s") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->interval_s)) return false;
      if (args->interval_s <= 0.0) return false;
    } else if (flag == "--iterations") {
      const char* v = next();
      if (!v) return false;
      if (!ParseFlagNumber(v, &args->iterations)) return false;
    } else if (flag == "--no-clear") {
      args->clear = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return args->port > 0;
}

/// One HTTP GET over a fresh connection; returns the response body, or
/// an error Status on connect/read problems.
Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& path) {
  Result<int> connected = ConnectTcp(host, port);
  if (!connected.ok()) return connected.status();
  const int fd = *connected;
  if (!SendAll(fd, "GET " + path + " HTTP/1.1\r\nHost: " + host +
                       "\r\n\r\n")) {
    ::close(fd);
    return Status::IoError("send failed");
  }
  // The server answers Connection: close, so read to EOF.
  std::string response;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      ::close(fd);
      return Status::IoError("recv failed");
    }
    if (n == 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) {
    return Status::Corruption("malformed HTTP response");
  }
  if (response.rfind("HTTP/1.1 200", 0) != 0) {
    return Status::IoError("HTTP error: " +
                           response.substr(0, response.find('\r')));
  }
  return response.substr(body + 4);
}

double Num(const JsonValue& root, const char* path) {
  const JsonValue* v = root.Find(path);
  return v == nullptr ? 0.0 : v->AsDouble();
}

std::uint64_t UNum(const JsonValue& root, const char* path) {
  const JsonValue* v = root.Find(path);
  return v == nullptr ? 0 : v->AsUint();
}

/// Registry metric names contain dots, so they are plain object keys —
/// Find()'s dotted-path split would mangle them.
std::uint64_t Metric(const JsonValue& root, const char* section,
                     const char* name) {
  const JsonValue* sec = root.Get(section);
  const JsonValue* v = sec == nullptr ? nullptr : sec->Get(name);
  return v == nullptr ? 0 : v->AsUint();
}

std::string BuildField(const JsonValue& varz, const char* key) {
  const JsonValue* build = varz.Get("build");
  const JsonValue* v = build == nullptr ? nullptr : build->Get(key);
  return v == nullptr ? "?" : v->AsString();
}

void RenderFrame(const JsonValue& varz) {
  std::printf("ceci_top — ceci_serve %s (%s), up %.0fs\n",
              BuildField(varz, "version").c_str(),
              BuildField(varz, "compiler").c_str(), Num(varz, "uptime_s"));

  std::printf("\n%-6s %10s %8s %9s %9s %9s %10s\n", "window", "qps", "err%",
              "p50_us", "p90_us", "p99_us", "requests");
  for (const char* window : {"10s", "1m", "5m"}) {
    const std::string base = std::string("windows.") + window;
    std::printf("%-6s %10.1f %8.2f %9llu %9llu %9llu %10llu\n", window,
                Num(varz, (base + ".qps").c_str()),
                Num(varz, (base + ".error_rate").c_str()) * 100.0,
                static_cast<unsigned long long>(
                    UNum(varz, (base + ".p50_us").c_str())),
                static_cast<unsigned long long>(
                    UNum(varz, (base + ".p90_us").c_str())),
                static_cast<unsigned long long>(
                    UNum(varz, (base + ".p99_us").c_str())),
                static_cast<unsigned long long>(
                    UNum(varz, (base + ".submitted").c_str())));
  }

  std::printf(
      "\nadmission (1m): accepted %llu  degraded %llu  rejected %llu  "
      "expired %llu\n",
      static_cast<unsigned long long>(UNum(varz, "windows.1m.accepted")),
      static_cast<unsigned long long>(UNum(varz, "windows.1m.degraded")),
      static_cast<unsigned long long>(UNum(varz, "windows.1m.rejected")),
      static_cast<unsigned long long>(
          UNum(varz, "windows.1m.expired_in_queue")));

  std::printf(
      "slo burn: availability 1m %.2fx / 5m %.2fx   latency 1m %.2fx / "
      "5m %.2fx\n",
      Num(varz, "windows.1m.availability_burn"),
      Num(varz, "windows.5m.availability_burn"),
      Num(varz, "windows.1m.latency_burn"),
      Num(varz, "windows.5m.latency_burn"));

  std::printf(
      "service: active %llu  queue %llu  connections %llu  "
      "cache hits/misses %llu/%llu\n",
      static_cast<unsigned long long>(
          Metric(varz, "gauges", "ceci.serve.active")),
      static_cast<unsigned long long>(
          Metric(varz, "gauges", "ceci.serve.queue_depth")),
      static_cast<unsigned long long>(
          Metric(varz, "gauges", "ceci.serve.live_connections")),
      static_cast<unsigned long long>(
          Metric(varz, "counters", "ceci.cache.hits")),
      static_cast<unsigned long long>(
          Metric(varz, "counters", "ceci.cache.misses")));
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
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::uint64_t frames = 0;
  while (g_stop == 0) {
    auto body = HttpGet(args.host, args.port, "/varz");
    if (!body.ok()) {
      std::fprintf(stderr, "ceci_top: %s\n", body.status().ToString().c_str());
      return 1;
    }
    auto varz = ParseJson(*body);
    if (!varz.ok()) {
      std::fprintf(stderr, "ceci_top: bad /varz: %s\n",
                   varz.status().ToString().c_str());
      return 1;
    }
    if (args.clear) std::printf("\x1b[H\x1b[2J");
    RenderFrame(*varz);
    std::fflush(stdout);
    ++frames;
    if (args.iterations > 0 && frames >= args.iterations) break;
    // Sleep in small steps so ^C exits promptly.
    Timer pause;
    while (g_stop == 0 && pause.Seconds() < args.interval_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return 0;
}
