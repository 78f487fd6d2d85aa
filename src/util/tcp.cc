#include "util/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/metrics_registry.h"

namespace ceci {
namespace {

Status IpV4Address(const std::string& host, int port, sockaddr_in* addr) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port out of range: " +
                                   std::to_string(port));
  }
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return Status::Ok();
}

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

bool ParsePort(std::string_view text, int* port) {
  unsigned value = 0;
  if (!ParseFlagNumber(text, &value) || value > 65535) return false;
  *port = static_cast<int>(value);
  return true;
}

Status TcpAcceptLoop::Start(const std::string& host, int port,
                            std::function<void(int fd)> handler) {
  sockaddr_in addr;
  Status status = IpV4Address(host, port, &addr);
  if (!status.ok()) return status;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    status = Errno("bind " + host);
  } else if (::listen(fd, SOMAXCONN) < 0) {
    status = Errno("listen");
  }
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  handler_ = std::move(handler);
  thread_ = std::thread(&TcpAcceptLoop::Run, this, fd);
  return Status::Ok();
}

void TcpAcceptLoop::Run(int listen_fd) {
  static Counter& errors =
      MetricsRegistry::Global().GetCounter("ceci.serve.accept_errors");
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      handler_(fd);
      continue;
    }
    const int err = errno;
    if (stopping_.load(std::memory_order_acquire)) return;
    errors.Increment();
    if (err == EINTR || err == ECONNABORTED) continue;
    // Descriptor or memory exhaustion must not take the listener down.
    if (err != EMFILE && err != ENFILE && err != ENOBUFS && err != ENOMEM) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void TcpAcceptLoop::Stop() {
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ < 0) return;
  // shutdown() wakes a blocked accept; closing only after the join keeps
  // the accept thread from ever seeing the descriptor number reused.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

bool ConnectionThreads::Admit(int fd, std::function<void(int fd)> serve) {
  MutexLock lock(mutex_);
  // A finished thread no longer takes the lock (at most it is closing its
  // fd), so joining it under the lock is safe.
  for (std::thread& t : threads_) {
    if (finished_ids_.count(t.get_id()) != 0) t.join();
  }
  std::erase_if(threads_, [](const std::thread& t) { return !t.joinable(); });
  finished_ids_.clear();
  if (live_fds_.size() >= max_live_) return false;
  live_fds_.insert(fd);
  if (on_live_) on_live_(live_fds_.size());
  threads_.emplace_back(&ConnectionThreads::Serve, this, fd,
                        std::move(serve));
  return true;
}

void ConnectionThreads::Serve(int fd,
                              const std::function<void(int fd)>& serve) {
  serve(fd);
  {
    MutexLock lock(mutex_);
    live_fds_.erase(fd);
    finished_ids_.insert(std::this_thread::get_id());
    if (on_live_) on_live_(live_fds_.size());
  }
  // Closed only once out of live_fds_, so Stop() never shuts down a
  // descriptor number that has been reused.
  ::close(fd);
}

void ConnectionThreads::Stop() {
  // Claim the threads under the lock, then join outside it: an ending
  // thread takes the lock to leave live_fds_, so joining while holding it
  // would deadlock.
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mutex_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    to_join.swap(threads_);
    finished_ids_.clear();
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
}

std::size_t ConnectionThreads::held_threads() const {
  MutexLock lock(mutex_);
  return threads_.size();
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

Result<int> ConnectTcp(const std::string& host, int port) {
  sockaddr_in addr;
  Status status = IpV4Address(host, port, &addr);
  if (!status.ok()) return status;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::IoError("cannot connect to " + host + ":" +
                           std::to_string(port));
  }
  return fd;
}

}  // namespace ceci
