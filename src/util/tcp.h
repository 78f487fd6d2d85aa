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
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>

#include "util/status.h"

namespace ceci {

/// Parses a numeric flag value into `*value`: all of `text` must be one
/// decimal number of type T as std::from_chars reads it, so a sign on an
/// unsigned T, a space, a prefix, a suffix or an overflow fails. A
/// floating-point value must also be finite and not negative. False (and
/// `*value` untouched) otherwise.
template <typename T>
bool ParseFlagNumber(std::string_view text, T* value) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (error != std::errc() || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed) || parsed < 0) return false;
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

/// Writes all of `data`; false when the peer is gone (MSG_NOSIGNAL: no
/// SIGPIPE).
bool SendAll(int fd, std::string_view data);

/// A connected socket the caller owns, or kInvalidArgument for a bad
/// host or port, kIoError("cannot connect to HOST:PORT") otherwise.
Result<int> ConnectTcp(const std::string& host, int port);

}  // namespace ceci

#endif  // CECI_UTIL_TCP_H_
