#include "telemetry/http_server.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/metrics_registry.h"

namespace ceci {
namespace {

Counter& ScrapeCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.telemetry.scrapes");
  return c;
}

std::string HttpResponse(const char* status_line, const char* content_type,
                         const std::string& body) {
  std::string out;
  out.reserve(body.size() + 160);
  out += "HTTP/1.1 ";
  out += status_line;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Reads until the blank line ending the request head (or the client
/// stops sending). Returns false on timeout/close before a full head.
bool ReadRequestHead(int fd, std::string* head) {
  char chunk[2048];
  while (head->find("\r\n\r\n") == std::string::npos &&
         head->find("\n\n") == std::string::npos) {
    if (head->size() > 16384) return false;  // absurd for a GET head
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    head->append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

/// "GET /metrics HTTP/1.1" -> "/metrics"; empty on anything else.
std::string ParseGetPath(const std::string& head) {
  const std::size_t line_end = head.find_first_of("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  if (line.rfind("GET ", 0) != 0) return "";
  const std::size_t path_end = line.find(' ', 4);
  std::string path = line.substr(4, path_end == std::string::npos
                                        ? std::string::npos
                                        : path_end - 4);
  // Scrapers may append query params (?format=...); route on the path.
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.erase(query);
  return path;
}

}  // namespace

TelemetryHttpServer::TelemetryHttpServer(const ServerTelemetry& telemetry,
                                         const TelemetryHttpOptions& options)
    : telemetry_(telemetry), options_(options) {}

Status TelemetryHttpServer::Start() {
  return listener_.Start(options_.host, options_.port, [this](int fd) {
    if (!connections_.Admit(fd, [this](int fd) { ServeConnection(fd); })) {
      SendAll(fd, HttpResponse("503 Service Unavailable",
                               "text/plain; charset=utf-8",
                               "too many telemetry connections\n"));
      ::close(fd);
    }
  });
}

void TelemetryHttpServer::ServeConnection(int fd) {
  timeval timeout{};
  timeout.tv_sec = kReadTimeoutSeconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string head;
  if (!ReadRequestHead(fd, &head)) return;
  const std::string path = ParseGetPath(head);
  if (path.empty()) {
    SendAll(fd, HttpResponse("400 Bad Request", "text/plain; charset=utf-8",
                             "only GET is supported\n"));
    return;
  }
  if (path == "/metrics") {
    ScrapeCounter().Increment();
    SendAll(fd, HttpResponse("200 OK",
                             "text/plain; version=0.0.4; charset=utf-8",
                             telemetry_.MetricsText()));
  } else if (path == "/varz") {
    ScrapeCounter().Increment();
    SendAll(fd, HttpResponse("200 OK", "application/json",
                             telemetry_.VarzJson()));
  } else if (path == "/healthz") {
    SendAll(fd, HttpResponse("200 OK", "text/plain; charset=utf-8", "ok\n"));
  } else {
    SendAll(fd, HttpResponse("404 Not Found", "text/plain; charset=utf-8",
                             "no such endpoint; try /metrics /varz "
                             "/healthz\n"));
  }
}

}  // namespace ceci
