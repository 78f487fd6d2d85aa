// Line protocol between ceci_serve and its clients (ceci_loadgen, nc).
//
// One request per line, one response line per request, UTF-8, LF (a
// trailing CR is tolerated). Requests:
//
//   PING                          liveness probe           -> PONG
//   STATS                         metrics snapshot         -> one-line JSON
//   QUIT                          close this connection    -> (none)
//   MATCH <pattern>               match with server limits -> OK/BUSY/ERR
//   MATCHX <k=v,...> <pattern>    match with per-request options
//
// MATCHX option keys: `limit` (embeddings, 0 = all), `deadline_ms`
// (queue + execution, 0 = server default), `explain` (1 = include
// index_bytes). The pattern uses the DSL of graphio/pattern_parser.h and
// is everything after the options token.
//
// Match responses:
//
//   OK [rid=<id>] embeddings=N termination=<reason>
//      admission=<accepted|degraded> queue_us=N exec_us=N total_us=N
//      [index_bytes=N]
//   BUSY queue_full               admission control rejected the request
//   ERR <message>                 malformed request / pattern / match error
//
// A pattern over QueryService::kMaxQueryVertices (64) vertices is an ERR
// before any matching work, counted in ceci.serve.errors.
//
// `rid` is the server-assigned request id (telemetry/access_log.h): the
// same id appears in the access log and on the request's trace spans, so
// a slow response can be joined to its server-side records. Present
// whenever the server assigned one (always, for ceci_serve).
//
// `termination` is the TerminationReason name (util/budget.h) — a partial
// answer is always labelled (deadline, limit, cancelled, memory_budget).
// Parsing of both directions lives here so the server, the load
// generator, and the tests share one definition.
#ifndef CECI_SERVE_PROTOCOL_H_
#define CECI_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "serve/query_service.h"
#include "util/status.h"

namespace ceci {

enum class RequestKind { kMatch, kStats, kPing, kQuit };

struct Request {
  RequestKind kind = RequestKind::kPing;
  /// Populated for kMatch.
  ServeRequest match;
};

/// Parses one request line (without the trailing newline).
Result<Request> ParseRequestLine(const std::string& line);

/// Renders a ServeResponse as its wire line (OK / BUSY / ERR; no
/// trailing newline). Error messages are flattened to one line.
std::string FormatResponseLine(const ServeResponse& response);

/// Client-side view of a match response line.
struct WireResponse {
  enum class Kind { kOk, kBusy, kErr };
  Kind kind = Kind::kErr;
  std::string request_id;  // empty when the server did not assign one
  std::uint64_t embeddings = 0;
  std::string termination;  // reason name, e.g. "completed"
  std::string admission;    // "accepted" or "degraded"
  std::uint64_t queue_us = 0;
  std::uint64_t exec_us = 0;
  std::uint64_t total_us = 0;
  std::uint64_t index_bytes = 0;
  std::string error;  // BUSY reason or ERR message
};

/// Parses one OK/BUSY/ERR response line (client side).
Result<WireResponse> ParseResponseLine(const std::string& line);

}  // namespace ceci

#endif  // CECI_SERVE_PROTOCOL_H_
