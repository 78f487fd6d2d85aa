#include "serve/tcp_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <thread>

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
    : service_(service), options_(options) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  return listener_.Start(options_.host, options_.port,
                         [this](int fd) { AdmitConnection(fd); });
}

void TcpServer::AdmitConnection(int fd) {
  ConnectionCounter().Increment();
  MutexLock lock(mutex_);
  // Join the threads of connections that have ended, so held threads
  // stay within max_connections. A finished thread no longer takes the
  // lock (at most it is closing its fd), so joining under it is safe.
  for (std::thread& t : conn_threads_) {
    if (finished_ids_.count(t.get_id()) != 0) t.join();
  }
  std::erase_if(conn_threads_,
                [](const std::thread& t) { return !t.joinable(); });
  finished_ids_.clear();
  if (live_fds_.size() >= options_.max_connections) {
    SendLine(fd, "ERR too_many_connections");
    ::close(fd);
    return;
  }
  live_fds_.insert(fd);
  LiveConnectionGauge().Set(static_cast<std::int64_t>(live_fds_.size()));
  conn_threads_.emplace_back(&TcpServer::ServeConnection, this, fd);
}

std::size_t TcpServer::held_threads() const {
  MutexLock lock(mutex_);
  return conn_threads_.size();
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
  {
    MutexLock lock(mutex_);
    live_fds_.erase(fd);
    finished_ids_.insert(std::this_thread::get_id());
    LiveConnectionGauge().Set(static_cast<std::int64_t>(live_fds_.size()));
  }
  ::close(fd);
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
  listener_.Stop();
  // Claim the connection threads under the lock, then join outside it:
  // exiting connection threads take mutex_ to drop out of live_fds_, so
  // joining while holding it would deadlock. The accept thread is already
  // joined, so nothing appends to conn_threads_ after the swap and a
  // repeated Stop() finds it empty.
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mutex_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    to_join.swap(conn_threads_);
    finished_ids_.clear();
  }
  // Threads close their own fds on the way out.
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
}

}  // namespace ceci
