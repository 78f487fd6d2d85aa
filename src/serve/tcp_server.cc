#include "serve/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "serve/protocol.h"
#include "telemetry/access_log.h"
#include "util/metrics_registry.h"

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
Counter& AcceptErrorCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.serve.accept_errors");
  return c;
}

/// Writes the whole line + LF; MSG_NOSIGNAL keeps a client that hung up
/// from killing the process with SIGPIPE.
bool SendLine(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
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
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);  // lint: raw-socket TCP listener
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("not an IPv4 address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status =
        Status::IoError(std::string("bind ") + options_.host + ": " +
                        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, SOMAXCONN) < 0) {
    Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread(&TcpServer::AcceptLoop, this, listen_fd_);
  return Status::Ok();
}

void TcpServer::AcceptLoop(int listen_fd) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      const int err = errno;
      if (err == EINTR || err == ECONNABORTED) continue;
      // Transient resource exhaustion (fd limits, kernel memory) must not
      // take the listener down: the pending connection stays queued, so
      // back off briefly and retry once pressure clears. Everything else
      // (EBADF after close, EINVAL) really is the end of the listener.
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        AcceptErrorCounter().Increment();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      AcceptErrorCounter().Increment();
      return;  // listener closed or unrecoverable
    }
    ConnectionCounter().Increment();
    MutexLock lock(mutex_);
    if (stopping_.load(std::memory_order_acquire) ||
        live_fds_.size() >= options_.max_connections) {
      SendLine(fd, "ERR too_many_connections");
      ::close(fd);
      continue;
    }
    live_fds_.insert(fd);
    LiveConnectionGauge().Set(static_cast<std::int64_t>(live_fds_.size()));
    conn_threads_.emplace_back(&TcpServer::ServeConnection, this, fd);
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
  {
    MutexLock lock(mutex_);
    live_fds_.erase(fd);
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
  stopping_.exchange(true, std::memory_order_acq_rel);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
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
  }
  // Threads close their own fds on the way out.
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
}

}  // namespace ceci
