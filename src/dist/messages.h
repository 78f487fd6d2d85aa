// Supervisor <-> worker message codecs for the multi-process runtime.
//
// These are the same message types the simulation accounts (cluster/work-
// unit assignment, work-unit results, control traffic), made real: each
// struct encodes to the payload of one util/frame_transport.h frame, with
// the frame `type` byte carrying the MsgType. Encoding is little-endian
// via the Put*/Get* helpers; decoders reject truncated or over-long
// payloads so a corrupt frame surfaces as kCorruption instead of garbage
// counts. See docs/robustness.md for the protocol walkthrough.
#ifndef CECI_DIST_MESSAGES_H_
#define CECI_DIST_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/frame_transport.h"
#include "util/status.h"

namespace ceci::dist {

enum class MsgType : std::uint8_t {
  /// Worker -> supervisor, once after kStart: its own partition's image
  /// is open and the worker is enumerating assignments.
  kHello = 1,
  /// Supervisor -> worker: enumerate one work unit (an embedding-cluster
  /// prefix under the matching order).
  kAssign = 2,
  /// Worker -> supervisor: a finished unit with its embedding count.
  kResult = 3,
  /// Worker -> supervisor, periodically while idle: liveness probe that
  /// feeds the supervisor's deadline-based failure detection.
  kHeartbeat = 4,
  /// Supervisor -> worker: no more work; exit cleanly.
  kShutdown = 5,
  /// Supervisor -> worker, once, empty payload: every partition image is
  /// written. Workers are spawned while the supervisor still plans, so a
  /// worker opens no image before this frame; the supervisor's heartbeat
  /// deadline for a worker runs from the moment it sends it.
  kStart = 6,
};

struct HelloMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t pid = 0;
  /// Bytes of the mmap-shared CEIX arena the worker attached.
  std::uint64_t arena_bytes = 0;
};

struct AssignMsg {
  std::uint64_t unit_id = 0;
  /// Partition the unit belongs to: the worker whose CEIX image covers
  /// its cluster. A unit re-adopted after a crash (or stolen) names the
  /// dead/victim worker here, and the executor opens that partition's
  /// image from the shared scratch directory — the real-process analogue
  /// of the simulation's modeled index transfer.
  std::uint32_t origin = 0;
  /// Partial embedding: matched data vertices for the first prefix.size()
  /// query vertices of the matching order.
  std::vector<VertexId> prefix;
};

struct ResultMsg {
  std::uint64_t unit_id = 0;
  std::uint64_t embeddings = 0;
  std::uint64_t recursive_calls = 0;
  /// Measured thread-CPU seconds spent enumerating this unit.
  double enum_seconds = 0.0;
};

struct HeartbeatMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t units_done = 0;
};

std::vector<std::uint8_t> EncodeHello(const HelloMsg& msg);
std::vector<std::uint8_t> EncodeAssign(const AssignMsg& msg);
std::vector<std::uint8_t> EncodeResult(const ResultMsg& msg);
std::vector<std::uint8_t> EncodeHeartbeat(const HeartbeatMsg& msg);

Result<HelloMsg> DecodeHello(std::span<const std::uint8_t> payload);
Result<AssignMsg> DecodeAssign(std::span<const std::uint8_t> payload);
Result<ResultMsg> DecodeResult(std::span<const std::uint8_t> payload);
Result<HeartbeatMsg> DecodeHeartbeat(std::span<const std::uint8_t> payload);

}  // namespace ceci::dist

#endif  // CECI_DIST_MESSAGES_H_
