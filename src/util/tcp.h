// TCP for the query service and its tools: the only code outside
// util/subprocess and util/frame_transport that makes or uses a socket.
// IPv4 only; every descriptor is close-on-exec. Also the tools' strict
// parsers for port and other numeric flag values.
#ifndef CECI_UTIL_TCP_H_
#define CECI_UTIL_TCP_H_

#include <atomic>
#include <charconv>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/status.h"
#include "util/sync.h"

namespace ceci {

/// Parses a numeric flag value into `*value`: all of `text` must be one
/// decimal number of type T as std::from_chars reads it, so a sign on an
/// unsigned T, a space, a prefix, a suffix or an overflow fails. A value
/// must also be non-negative, and a floating-point one finite. False (and
/// `*value` untouched) otherwise.
template <typename T>
bool ParseFlagNumber(std::string_view text, T* value) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (error != std::errc() || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed)) return false;
  }
  if constexpr (std::is_signed_v<T>) {
    if (parsed < 0) return false;
  }
  *value = parsed;
  return true;
}

/// Parses a port flag value into `*port`: decimal digits only, at most
/// 65535. False (and `*port` untouched) otherwise.
bool ParsePort(std::string_view text, int* port);

/// A listening socket and the thread that accepts on it, handing each
/// connection to the handler, which owns the descriptor from then on.
/// Every failed accept counts in ceci.serve.accept_errors. EINTR and
/// ECONNABORTED are retried at once, EMFILE/ENFILE/ENOBUFS/ENOMEM after a
/// 10 ms back-off (the connection stays queued); any other error ends the
/// loop.
class TcpAcceptLoop {
 public:
  TcpAcceptLoop() = default;
  ~TcpAcceptLoop() { Stop(); }
  TcpAcceptLoop(const TcpAcceptLoop&) = delete;
  TcpAcceptLoop& operator=(const TcpAcceptLoop&) = delete;

  /// Binds host:port (SO_REUSEADDR; 0 = ephemeral), listens and starts the
  /// thread. kInvalidArgument for a non-IPv4 host or a port outside
  /// 0-65535, kIoError when the bind fails (e.g. port in use).
  Status Start(const std::string& host, int port,
               std::function<void(int fd)> handler);

  /// The bound port, after a successful Start().
  int port() const { return port_; }

  /// Wakes and joins the thread, then closes the listener. Idempotent.
  void Stop();

 private:
  void Run(int listen_fd);

  // Thread-compatible: one controlling thread calls Start/Stop/port.
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::function<void(int fd)> handler_;
  std::thread thread_;
};

/// The connection threads of a thread-per-connection server: each
/// admitted connection is served on its own thread, at most `max_live` at
/// once. Threads of ended connections are joined as new ones arrive, so
/// no more than max_live threads are ever held. Thread-safe.
class ConnectionThreads {
 public:
  /// `on_live`, when set, receives the live count after every change, in
  /// the order of the changes (e.g. to publish it as a gauge).
  explicit ConnectionThreads(std::size_t max_live,
                             std::function<void(std::size_t)> on_live = {})
      : max_live_(max_live), on_live_(std::move(on_live)) {}
  /// Stops and joins (equivalent to Stop()).
  ~ConnectionThreads() { Stop(); }
  ConnectionThreads(const ConnectionThreads&) = delete;
  ConnectionThreads& operator=(const ConnectionThreads&) = delete;

  /// Serves `fd` with `serve` on a new thread, which closes it afterwards.
  /// False when max_live connections are live already: `fd` is left to
  /// the caller, to turn away and close.
  bool Admit(int fd, std::function<void(int fd)> serve);

  /// Shuts every live connection down, so a serve blocked in recv sees
  /// the peer gone, and joins every thread. Call once the accept loop has
  /// stopped. Idempotent.
  void Stop();

  /// Threads not yet joined.
  std::size_t held_threads() const;

 private:
  void Serve(int fd, const std::function<void(int fd)>& serve);

  const std::size_t max_live_;
  const std::function<void(std::size_t)> on_live_;
  mutable Mutex mutex_;
  std::set<int> live_fds_ CECI_GUARDED_BY(mutex_);
  /// Threads that have left their serve and can be joined.
  std::set<std::thread::id> finished_ids_ CECI_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_ CECI_GUARDED_BY(mutex_);
};

/// Writes all of `data`; false when the peer is gone (MSG_NOSIGNAL: no
/// SIGPIPE).
bool SendAll(int fd, std::string_view data);

/// A connected socket the caller owns, or kInvalidArgument for a bad
/// host or port, kIoError("cannot connect to HOST:PORT") otherwise.
Result<int> ConnectTcp(const std::string& host, int port);

}  // namespace ceci

#endif  // CECI_UTIL_TCP_H_
