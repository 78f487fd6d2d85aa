#include "serve/tcp_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include "serve/protocol.h"
#include "telemetry/access_log.h"
#include "util/metrics_registry.h"
#include "util/tcp.h"

namespace ceci {
namespace {

Counter& ConnectionCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.serve.connections");
  return c;
}
Gauge& LiveConnectionGauge() {
  static Gauge& g =
      MetricsRegistry::Global().GetGauge("ceci.serve.live_connections");
  return g;
}

/// One send of the line and its LF: a reply split over two sends would
/// meet Nagle's algorithm and the client's delayed ACK on its next request.
bool SendLine(int fd, const std::string& line) {
  return SendAll(fd, line + '\n');
}

std::string OneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

}  // namespace

TcpServer::TcpServer(QueryService& service, const TcpServerOptions& options)
    : service_(service),
      options_(options),
      connections_(options.max_connections, [](std::size_t live) {
        LiveConnectionGauge().Set(static_cast<std::int64_t>(live));
      }) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  return listener_.Start(options_.host, options_.port,
                         [this](int fd) { AdmitConnection(fd); });
}

void TcpServer::AdmitConnection(int fd) {
  ConnectionCounter().Increment();
  if (!connections_.Admit(fd, [this](int fd) { ServeConnection(fd); })) {
    SendLine(fd, "ERR too_many_connections");
    ::close(fd);
  }
}

void TcpServer::ServeConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while (open && (newline = buffer.find('\n')) != std::string::npos &&
           newline <= kMaxLineBytes) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      open = HandleLine(fd, line);
    }
    if (open && buffer.size() > kMaxLineBytes) {
      SendLine(fd, "ERR line_too_long");
      open = false;
    }
  }
}

bool TcpServer::HandleLine(int fd, const std::string& line) {
  auto request = ParseRequestLine(line);
  if (!request.ok()) {
    return SendLine(fd, "ERR " + OneLine(request.status().ToString()));
  }
  switch (request->kind) {
    case RequestKind::kPing:
      return SendLine(fd, "PONG");
    case RequestKind::kQuit:
      return false;
    case RequestKind::kStats:
      // The JSON may be pretty-printed; the protocol is line-framed.
      return SendLine(
          fd, OneLine(options_.telemetry != nullptr
                          ? options_.telemetry->VarzJson()
                          : MetricsRegistry::Global().SnapshotJson()));
    case RequestKind::kMatch: {
      // The request id is minted here — at accept time, before admission
      // — so even rejected requests correlate across the response line,
      // the access log, and trace spans.
      request->match.request_id = NextRequestId();
      // Synchronous per connection: admission control (not this thread)
      // decides whether the request queues, degrades, or bounces.
      ServeResponse response = service_.Execute(std::move(request->match));
      return SendLine(fd, FormatResponseLine(response));
    }
  }
  return false;
}

void TcpServer::Stop() {
  // The accept thread first, so no connection is admitted while the live
  // ones are shut down and joined (their threads close their own fds).
  listener_.Stop();
  connections_.Stop();
}

}  // namespace ceci
