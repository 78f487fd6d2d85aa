// Child-process management for the multi-process matching runtime
// (src/dist/). This is the only translation unit allowed to call the raw
// process and socket primitives (`posix_spawn`, `socketpair`, `waitpid`,
// `kill`) — everything else goes through these wrappers so the lint rule
// in scripts/lint.sh can keep process handling auditable in one place.
//
// A spawned child inherits one end of a SOCK_STREAM Unix-domain socketpair
// on a fixed descriptor (default 3); the parent keeps the other end. The
// pair is the child's only channel to the supervisor: closing it (or the
// child dying, including SIGKILL) delivers EOF to the survivor, which is
// the fastest failure-detection signal the supervisor has.
#ifndef CECI_UTIL_SUBPROCESS_H_
#define CECI_UTIL_SUBPROCESS_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/status.h"

namespace ceci {

struct ChildProcess {
  pid_t pid = -1;
  /// Parent end of the socketpair (close-on-exec, so later children do not
  /// inherit their siblings' channels). The caller owns it.
  int channel_fd = -1;
};

/// How a reaped child ended.
struct ChildExit {
  bool exited = false;    // normal _exit / return from main
  int exit_code = 0;      // valid when exited
  bool signaled = false;  // killed by a signal (e.g. SIGKILL)
  int term_signal = 0;    // valid when signaled
};

/// Spawns `binary` with `args` (argv[0] is derived from `binary`) through
/// posix_spawn, wiring the child end of a fresh socketpair onto
/// descriptor `child_fd` in the child; the child inherits no other end of
/// the pair. A binary that cannot be executed (missing, not executable)
/// fails the call with kIoError and leaves no child behind.
Result<ChildProcess> SpawnWithChannel(const std::string& binary,
                                      const std::vector<std::string>& args,
                                      int child_fd = 3);

/// Non-blocking reap (waitpid WNOHANG). Returns true when the child has
/// terminated and was collected; `out` is filled when non-null.
bool TryReapChild(pid_t pid, ChildExit* out);

/// Blocking reap. Returns the collected exit description; a child that
/// was never spawned or was already reaped yields a default ChildExit.
ChildExit WaitChild(pid_t pid);

/// Sends `signum` to the child (e.g. SIGKILL for the chaos harness, or
/// SIGTERM for a polite stop). No-op on pid <= 0.
void SignalChild(pid_t pid, int signum);

/// A connected SOCK_STREAM Unix-domain pair for in-process transport
/// tests and tools; both ends are the caller's to close (FrameChannel
/// takes ownership of an fd passed to it).
Status MakeSocketPair(int* left, int* right);

}  // namespace ceci

#endif  // CECI_UTIL_SUBPROCESS_H_
