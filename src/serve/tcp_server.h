// Minimal POSIX TCP front end for QueryService.
//
// Thread-per-connection, synchronous line protocol (serve/protocol.h):
// each connection thread blocks on the service future for its in-flight
// request, so per-connection requests are strictly ordered while the
// service multiplexes *across* connections. Concurrency therefore comes
// from the number of client connections, which is exactly what the load
// generator sweeps. IPv4 only; binding port 0 picks an ephemeral port
// (read it back via port()).
#ifndef CECI_SERVE_TCP_SERVER_H_
#define CECI_SERVE_TCP_SERVER_H_

#include <string>

#include "serve/query_service.h"
#include "telemetry/server_telemetry.h"
#include "util/status.h"
#include "util/tcp.h"

namespace ceci {

struct TcpServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (kernel-assigned; see port()).
  int port = 0;
  /// Connections beyond this are answered `ERR too_many_connections` and
  /// closed immediately.
  std::size_t max_connections = 64;
  /// When set, STATS answers with the telemetry /varz document (build
  /// info, uptime, 10s/1m/5m windows, SLO burn) instead of the bare
  /// registry snapshot. Must outlive the server.
  const ServerTelemetry* telemetry = nullptr;
};

/// Owns the accept loop and one thread per live connection. The
/// service must outlive the server.
class TcpServer {
 public:
  /// Longest request line a connection buffers, far above any pattern
  /// line. A client that sends more without a newline is answered
  /// `ERR line_too_long` and disconnected, so no connection's buffer grows
  /// without bound.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  TcpServer(QueryService& service, const TcpServerOptions& options);
  /// Stops and joins (equivalent to Stop()).
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the accept loop (util/tcp.h: its errors
  /// and its policy under descriptor exhaustion).
  Status Start();

  /// Bound port (differs from options.port when that was 0). Valid after
  /// a successful Start().
  int port() const { return listener_.port(); }

  /// Closes the listener, shuts down live connections, joins all
  /// threads. Idempotent. Does not shut down the service.
  void Stop();

  /// Connection threads not yet joined. Finished ones are joined as new
  /// connections arrive, so this stays at most max_connections.
  std::size_t held_threads() const { return connections_.held_threads(); }

 private:
  /// Runs on the accept thread: starts a thread for `fd` or turns it away
  /// at max_connections.
  void AdmitConnection(int fd);
  void ServeConnection(int fd);
  /// Handles one request line; false ends the connection (QUIT).
  bool HandleLine(int fd, const std::string& line);

  QueryService& service_;
  TcpServerOptions options_;
  ConnectionThreads connections_;
  TcpAcceptLoop listener_;  // last: its thread uses the fields above
};

}  // namespace ceci

#endif  // CECI_SERVE_TCP_SERVER_H_
