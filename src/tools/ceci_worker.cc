// ceci_worker — one partition executor of the multi-process matcher.
//
// Spawned by the supervisor (dist/supervisor.h) with a framed message
// channel on --channel-fd; once the kStart frame says the images are
// written, maps the CEIX partition images under --index-dir and
// enumerates the work-unit prefixes it is assigned,
// streaming back one result frame per unit and heartbeating while idle.
// Result frames are written in batches: before the worker blocks waiting
// for work, every 64 results, and at least once per heartbeat interval.
// Not meant to be run by hand; see docs/robustness.md for the protocol.
//
// Exit codes: 0 clean shutdown or supervisor hangup, 1 transport or
// protocol fault, 2 unreadable/corrupt partition image or bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dist/worker.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ceci_worker --index-dir DIR --worker-id N\n"
               "                   [--channel-fd FD] [--heartbeat-ms MS]\n"
               "                   [--io-timeout-s S]\n");
}

}  // namespace

int main(int argc, char** argv) {
  ceci::dist::WorkerOptions options;
  bool have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--index-dir") {
      options.index_dir = next();
      have_dir = true;
    } else if (arg == "--worker-id") {
      options.worker_id =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--channel-fd") {
      options.channel_fd = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--heartbeat-ms") {
      options.heartbeat_seconds = std::strtod(next(), nullptr) / 1000.0;
    } else if (arg == "--io-timeout-s") {
      options.io_timeout_seconds = std::strtod(next(), nullptr);
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_dir) {
    Usage();
    return 2;
  }
  return ceci::dist::RunWorker(options);
}
