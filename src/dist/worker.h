// The ceci_worker runtime: one process enumerating embedding clusters the
// supervisor assigns it over a framed channel on an inherited descriptor.
//
// The worker never sees the data graph. It opens CEIX partition images
// the supervisor wrote under a shared directory — always mmapped, so all
// workers on the host share one physical copy of each arena page —
// reconstructs the query from the pattern text stored in the image, and
// runs the graph-free intersection enumerator (ceci/enumerator.h) over
// work-unit prefixes under the restriction set the image records. The
// supervisor spawns it before the images exist, so it first waits for
// the kStart frame, then opens its own partition (`part<worker_id>.ceix`)
// and sends kHello. When the supervisor re-adopts a crashed peer's
// clusters onto this worker (or steals work across partitions), the
// assignment names the origin partition and the worker lazily maps that
// image too — the real-process analogue of the simulation's modeled
// index transfer. Between
// assignments it sends heartbeats so the supervisor's deadline-based
// failure detection can tell "idle" from "dead".
#ifndef CECI_DIST_WORKER_H_
#define CECI_DIST_WORKER_H_

#include <cstdint>
#include <string>

namespace ceci::dist {

struct WorkerOptions {
  /// Directory of CEIX partition images, `part<k>.ceix` per worker k
  /// (written by the supervisor). A worker whose own image is absent —
  /// an empty partition kept alive as a recovery target — starts idle.
  std::string index_dir;
  /// Inherited channel descriptor (util/subprocess.h wires 3 by default).
  int channel_fd = 3;
  std::uint32_t worker_id = 0;
  /// Heartbeat cadence while idle. Must be well under the supervisor's
  /// failure-detection deadline.
  double heartbeat_seconds = 0.05;
  /// Transport deadline for sends and mid-frame receives.
  double io_timeout_seconds = 30.0;
};

/// Path of partition `origin`'s image under `index_dir` (shared with the
/// supervisor, which writes the images before it sends kStart).
std::string PartitionImagePath(const std::string& index_dir,
                               std::uint32_t origin);

/// Runs the worker loop to completion. Returns the process exit code:
/// 0 after a clean shutdown (or supervisor hangup), 1 on I/O or protocol
/// errors, 2 on a bad index image.
int RunWorker(const WorkerOptions& options);

}  // namespace ceci::dist

#endif  // CECI_DIST_WORKER_H_
