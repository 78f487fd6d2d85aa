// Minimal HTTP/1.0-style listener for the telemetry endpoints. Serves
//   GET /metrics  -> ServerTelemetry::MetricsText() (Prometheus 0.0.4)
//   GET /varz     -> ServerTelemetry::VarzJson()
//   GET /healthz  -> "ok\n"
// and 404/400 otherwise. Every response carries Content-Length and
// `Connection: close` and the socket is closed after it — scrapers open
// a fresh connection per scrape (a scrape renders in microseconds; there
// is nothing to pipeline). Each connection is served on its own thread,
// at most kMaxConnections at once, so a client that connects and sends
// nothing delays no other scrape; past that, a connection is answered
// 503 and closed at once. A read timeout bounds how long a stuck client
// can hold its thread.
//
// Deliberately NOT a general HTTP server: no keep-alive, no chunked
// encoding, no request bodies. It exists so `curl` and Prometheus can
// scrape ceci_serve without speaking the line protocol.
#ifndef CECI_TELEMETRY_HTTP_SERVER_H_
#define CECI_TELEMETRY_HTTP_SERVER_H_

#include <cstddef>
#include <string>

#include "telemetry/server_telemetry.h"
#include "util/status.h"
#include "util/tcp.h"

namespace ceci {

struct TelemetryHttpOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (kernel-assigned; see port()).
  int port = 0;
};

/// Owns the accept loop and the connection threads. The telemetry object
/// must outlive the server.
class TelemetryHttpServer {
 public:
  /// Per-connection receive timeout; a client that connects and never
  /// sends a request head is dropped after this long.
  static constexpr int kReadTimeoutSeconds = 2;
  /// Connections served at once; one more is answered 503.
  static constexpr std::size_t kMaxConnections = 4;

  TelemetryHttpServer(const ServerTelemetry& telemetry,
                      const TelemetryHttpOptions& options);
  /// Stops and joins (equivalent to Stop()).
  ~TelemetryHttpServer() { Stop(); }

  TelemetryHttpServer(const TelemetryHttpServer&) = delete;
  TelemetryHttpServer& operator=(const TelemetryHttpServer&) = delete;

  /// Binds, listens, and starts the accept loop (util/tcp.h).
  Status Start();

  /// Bound port (differs from options.port when that was 0). Valid after
  /// a successful Start().
  int port() const { return listener_.port(); }

  /// Closes the listener, shuts down live connections and joins every
  /// thread. Idempotent.
  void Stop() {
    listener_.Stop();
    connections_.Stop();
  }

 private:
  void ServeConnection(int fd);

  const ServerTelemetry& telemetry_;
  TelemetryHttpOptions options_;
  ConnectionThreads connections_{kMaxConnections};
  TcpAcceptLoop listener_;  // last: stops first, while the rest is alive
};

}  // namespace ceci

#endif  // CECI_TELEMETRY_HTTP_SERVER_H_
