#include "util/subprocess.h"

#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ceci {

Result<ChildProcess> SpawnWithChannel(const std::string& binary,
                                      const std::vector<std::string>& args,
                                      int child_fd) {
  if (child_fd < 0) {
    return Status::InvalidArgument("child_fd must be non-negative");
  }
  // Both ends start close-on-exec: the parent end must not leak into
  // later-spawned siblings (a sibling holding a copy would keep the
  // channel open after this child dies, suppressing the EOF the
  // supervisor relies on for failure detection), and the child end
  // reaches the child only through the spawn's dup2, which clears the
  // flag on the copy (posix_spawn_file_actions_adddup2 clears it even
  // when the two descriptors are equal).
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return Status::IoError(std::string("socketpair: ") +
                           std::strerror(errno));
  }
  const int parent_end = fds[0];
  const int child_end = fds[1];

  std::vector<std::string> argv_storage;
  argv_storage.reserve(args.size() + 1);
  argv_storage.push_back(binary);
  for (const std::string& a : args) argv_storage.push_back(a);
  std::vector<char*> argv;
  argv.reserve(argv_storage.size() + 1);
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  // posix_spawn runs the child in the parent's address space until the
  // exec and copies no page tables, so spawning costs the same from a
  // large supervisor as from a small one; an exec failure is returned
  // here, with the child already reaped.
  posix_spawn_file_actions_t actions;
  int err = ::posix_spawn_file_actions_init(&actions);
  pid_t pid = -1;
  if (err == 0) {
    err = ::posix_spawn_file_actions_adddup2(&actions, child_end, child_fd);
    if (err == 0) {
      err = ::posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                          argv.data(), environ);
    }
    ::posix_spawn_file_actions_destroy(&actions);
  }
  ::close(child_end);
  if (err != 0) {
    ::close(parent_end);
    return Status::IoError("spawn " + binary + ": " + std::strerror(err));
  }
  ChildProcess child;
  child.pid = pid;
  child.channel_fd = parent_end;
  return child;
}

namespace {

ChildExit DecodeWaitStatus(int wstatus) {
  ChildExit out;
  if (WIFEXITED(wstatus)) {
    out.exited = true;
    out.exit_code = WEXITSTATUS(wstatus);
  } else if (WIFSIGNALED(wstatus)) {
    out.signaled = true;
    out.term_signal = WTERMSIG(wstatus);
  }
  return out;
}

}  // namespace

bool TryReapChild(pid_t pid, ChildExit* out) {
  if (pid <= 0) return false;
  int wstatus = 0;
  pid_t r;
  do {
    r = ::waitpid(pid, &wstatus, WNOHANG);
  } while (r < 0 && errno == EINTR);
  if (r != pid) return false;
  if (out != nullptr) *out = DecodeWaitStatus(wstatus);
  return true;
}

ChildExit WaitChild(pid_t pid) {
  ChildExit out;
  if (pid <= 0) return out;
  int wstatus = 0;
  pid_t r;
  do {
    r = ::waitpid(pid, &wstatus, 0);
  } while (r < 0 && errno == EINTR);
  if (r == pid) out = DecodeWaitStatus(wstatus);
  return out;
}

void SignalChild(pid_t pid, int signum) {
  if (pid <= 0) return;
  ::kill(pid, signum);
}

Status MakeSocketPair(int* left, int* right) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IoError(std::string("socketpair: ") +
                           std::strerror(errno));
  }
  *left = fds[0];
  *right = fds[1];
  return Status::Ok();
}

}  // namespace ceci
