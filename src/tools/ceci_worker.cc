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
// Numeric flags are strict (ParseFlagNumber); a malformed one is a usage
// error.
//
// Exit codes: 0 clean shutdown or supervisor hangup, 1 transport or
// protocol fault, 2 unreadable/corrupt partition image or bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dist/worker.h"
#include "util/tcp.h"

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
    // The next argument as a strict number (ParseFlagNumber); anything
    // else is a usage error.
    auto number = [&](auto* out) {
      if (!ceci::ParseFlagNumber(next(), out)) {
        Usage();
        std::exit(2);
      }
    };
    if (arg == "--index-dir") {
      options.index_dir = next();
      have_dir = true;
    } else if (arg == "--worker-id") {
      number(&options.worker_id);
    } else if (arg == "--channel-fd") {
      number(&options.channel_fd);
    } else if (arg == "--heartbeat-ms") {
      double ms = 0.0;
      number(&ms);
      options.heartbeat_seconds = ms / 1000.0;
    } else if (arg == "--io-timeout-s") {
      number(&options.io_timeout_seconds);
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
