// The accept loop of util/tcp.h under descriptor exhaustion, on both
// ports that use it: the query port (TcpServer) and the telemetry port
// (TelemetryHttpServer). Only this process's own soft RLIMIT_NOFILE is
// lowered, and it is restored on every path out of the test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>

#include "gen/random_graphs.h"
#include "serve/query_service.h"
#include "serve/tcp_server.h"
#include "telemetry/http_server.h"
#include "telemetry/server_telemetry.h"
#include "util/metrics_registry.h"
#include "util/tcp.h"

namespace ceci {
namespace {

std::uint64_t AcceptErrors() {
  return MetricsRegistry::Global()
      .GetCounter("ceci.serve.accept_errors")
      .Value();
}

/// Lowers the soft RLIMIT_NOFILE so that exactly one descriptor below it
/// is free; the destructor restores the limit. The listener's socket()
/// takes that last descriptor, so every accept after it fails with EMFILE.
/// The listener is opened under the limit, not before it: an accept that
/// is already blocked has reserved its descriptor in the kernel, so only a
/// later accept can meet the limit.
class DescriptorSqueeze {
 public:
  explicit DescriptorSqueeze(int any_fd) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    // dup takes the lowest free descriptor: every one below it is in use.
    const int lowest_free = ::dup(any_fd);
    if (lowest_free < 0) return;
    ::close(lowest_free);
    rlimit squeezed = saved_;
    squeezed.rlim_cur = static_cast<rlim_t>(lowest_free) + 1;
    squeezed_ = ::setrlimit(RLIMIT_NOFILE, &squeezed) == 0;
  }
  ~DescriptorSqueeze() {
    if (squeezed_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  DescriptorSqueeze(const DescriptorSqueeze&) = delete;
  DescriptorSqueeze& operator=(const DescriptorSqueeze&) = delete;

  bool ok() const { return squeezed_; }

 private:
  rlimit saved_{};
  bool squeezed_ = false;
};

enum class Listener { kQueryPort, kTelemetryPort };

std::string ListenerName(Listener listener) {
  return listener == Listener::kQueryPort ? "QueryPort" : "TelemetryPort";
}
void PrintTo(Listener listener, std::ostream* os) {
  *os << ListenerName(listener);
}

class TcpListenerTest : public ::testing::TestWithParam<Listener> {};

TEST_P(TcpListenerTest, AcceptSurvivesDescriptorExhaustion) {
  const bool query_port = GetParam() == Listener::kQueryPort;
  const Graph data = GenerateSocialGraph(200, 3, 5);
  ServiceOptions service_options;
  service_options.pool_threads = 1;
  QueryService service(data, service_options);
  TcpServer query_server(service, TcpServerOptions{});
  MetricsRegistry registry;
  ServerTelemetryOptions telemetry_options;
  telemetry_options.windows.tick_seconds = 3600.0;
  ServerTelemetry telemetry(registry, telemetry_options);
  TelemetryHttpServer telemetry_server(telemetry, TelemetryHttpOptions{});

  // The client socket comes first: under the squeeze there is none left.
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  timeval timeout{};
  timeout.tv_sec = 5;  // a listener that gave up never answers
  ASSERT_EQ(::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  // UBSan's vptr check reads memory through a pipe the first time it
  // meets a type, and the squeeze leaves no descriptors for one: start a
  // server of this kind once while they are free, so that the type of its
  // accept thread is met before.
  {
    TcpServer warm_query(service, TcpServerOptions{});
    TelemetryHttpServer warm_telemetry(telemetry, TelemetryHttpOptions{});
    ASSERT_TRUE(
        (query_port ? warm_query.Start() : warm_telemetry.Start()).ok());
  }
  const std::uint64_t errors_before = AcceptErrors();
  {
    DescriptorSqueeze squeeze(client);
    ASSERT_TRUE(squeeze.ok());
    const Status started =
        query_port ? query_server.Start() : telemetry_server.Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(
        query_port ? query_server.port() : telemetry_server.port()));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(client, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // Keep the limit until the listener has met EMFILE at least once (a
    // loop that gives up on it never counts one; the wait is bounded).
    for (int i = 0; i < 300 && AcceptErrors() == errors_before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  const std::string request =
      query_port ? "PING\n" : "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(client, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char chunk[256];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(client, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // closed, or SO_RCVTIMEO fired
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(client);
  EXPECT_EQ(reply.rfind(query_port ? "PONG" : "HTTP/1.1 200 OK", 0), 0u)
      << "reply: " << reply;
  EXPECT_GT(AcceptErrors(), errors_before) << "accept never hit EMFILE";
}

INSTANTIATE_TEST_SUITE_P(
    Ports, TcpListenerTest,
    ::testing::Values(Listener::kQueryPort, Listener::kTelemetryPort),
    [](const ::testing::TestParamInfo<Listener>& info) {
      return ListenerName(info.param);
    });

TEST(ParseFlagNumberTest, TakesOnlyOneNonNegativeDecimal) {
  int i = 7;
  EXPECT_TRUE(ParseFlagNumber("42", &i));
  EXPECT_EQ(i, 42);
  for (const char* bad : {"-3", "+3", " 3", "3x", "0x10", "", "2147483648"}) {
    EXPECT_FALSE(ParseFlagNumber(bad, &i)) << bad;
  }
  EXPECT_EQ(i, 42);  // untouched by a failed parse
  std::uint32_t u = 0;
  EXPECT_TRUE(ParseFlagNumber("4294967295", &u));
  EXPECT_FALSE(ParseFlagNumber("4294967296", &u));
  EXPECT_FALSE(ParseFlagNumber("-1", &u));
  double d = 0.0;
  EXPECT_TRUE(ParseFlagNumber("0.25", &d));
  EXPECT_EQ(d, 0.25);
  for (const char* bad : {"-0.5", "inf", "nan", "1e999", "1.5ms"}) {
    EXPECT_FALSE(ParseFlagNumber(bad, &d)) << bad;
  }
}

}  // namespace
}  // namespace ceci
