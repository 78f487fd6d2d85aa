// Length-prefixed message framing over a stream socket, used by the
// supervisor/worker channel (src/dist/). Like util/subprocess.h this is
// the designated home for raw socket I/O — the lint rule keeps `socket`-
// family primitives out of the rest of the tree.
//
// Wire format, little-endian:
//
//   u32 payload_bytes | u8 type | payload_bytes bytes
//
// Frames can be queued and written together: Queue appends a frame to a
// send buffer, Flush writes the whole buffer in one send loop, and Send is
// Queue + Flush. Coalescing changes how many syscalls carry the frames,
// never their bytes.
//
// The channel owns its descriptor, keeps it non-blocking, and gives every
// operation a deadline. Transient failures (EINTR, EAGAIN, ENOBUFS,
// ENOMEM) are retried under the deadline with capped exponential backoff;
// a peer hangup surfaces as a clean kIoError whose message starts with
// "eof" — the supervisor's fastest crash signal. Payload encode/decode
// helpers live here too so message codecs never hand-roll byte order.
#ifndef CECI_UTIL_FRAME_TRANSPORT_H_
#define CECI_UTIL_FRAME_TRANSPORT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace ceci {

struct Frame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

struct TransportOptions {
  /// Per-operation deadline: Flush must write every queued byte and Recv
  /// must deliver a complete frame (once bytes start arriving) within
  /// this window.
  double io_timeout_seconds = 30.0;
  /// Backoff after a transient error: starts here, doubles per retry.
  double initial_backoff_seconds = 0.0005;
  /// Backoff cap (the "capped" in capped exponential backoff).
  double max_backoff_seconds = 0.25;
  /// Frames above this size are rejected on both send and receive — a
  /// corrupt length prefix must not turn into a giant allocation.
  std::uint32_t max_frame_bytes = 64u << 20;
};

/// One framed, deadline-bounded message channel over a socket descriptor.
/// Not thread-safe: the owner serializes access (the supervisor runs a
/// single poll loop; the worker is single-threaded).
class FrameChannel {
 public:
  FrameChannel() = default;
  /// Takes ownership of `fd` and switches it to non-blocking mode.
  explicit FrameChannel(int fd, const TransportOptions& options = {});
  ~FrameChannel();

  FrameChannel(FrameChannel&& other) noexcept;
  FrameChannel& operator=(FrameChannel&& other) noexcept;
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0; }
  void Close();

  /// Appends one frame to the send buffer without writing it. The bytes
  /// are exactly those Send would write; they reach the peer at the next
  /// Flush (or Send). kInvalidArgument for an over-limit payload,
  /// kIoError on a closed channel.
  Status Queue(std::uint8_t type, std::span<const std::uint8_t> payload);

  /// Writes every queued frame in one send loop, retrying transient
  /// errors with capped exponential backoff until the options deadline.
  /// kIoError("eof ...") when the peer has hung up. A failed flush drops
  /// the buffer: a peer that missed part of the stream cannot resync.
  Status Flush();

  /// Queue + Flush: sends one frame behind any already queued.
  Status Send(std::uint8_t type, std::span<const std::uint8_t> payload);

  /// Frames queued since the last Flush.
  std::size_t queued_frames() const { return tx_frames_; }

  /// Receives one complete frame. `timeout_seconds` bounds the wait for
  /// the *first* byte; once a frame is partially read, the options
  /// io_timeout governs its completion. Returns kNotFound on timeout
  /// (no data — not an error), kIoError("eof ...") on peer hangup, and
  /// kCorruption on an over-limit length prefix.
  Result<Frame> Recv(double timeout_seconds);

  /// True when at least one byte (or EOF) is ready within the timeout.
  bool WaitReadable(double timeout_seconds) const;

  /// Counted at Flush: frames still queued are not sent yet.
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  /// Reads whatever is available into rx_; true if any progress or clean
  /// would-block, false on EOF/fatal (status_ records the reason).
  bool FillFromSocket();

  int fd_ = -1;
  TransportOptions options_;
  std::vector<std::uint8_t> rx_;  // partial-frame reassembly buffer
  std::vector<std::uint8_t> tx_;  // queued, unflushed frames
  std::size_t tx_frames_ = 0;
  Status status_;                 // sticky fatal receive status
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

/// Poll helper for the supervisor loop: waits up to `timeout_seconds` for
/// readability on any of `fds` (entries < 0 are skipped) and appends the
/// ready descriptors to `ready`. Returns the number of ready descriptors.
int PollReadable(std::span<const int> fds, double timeout_seconds,
                 std::vector<int>* ready);

// --- Payload codec helpers (little-endian) ---
void PutU32(std::vector<std::uint8_t>* buf, std::uint32_t v);
void PutU64(std::vector<std::uint8_t>* buf, std::uint64_t v);
/// Doubles travel as their IEEE-754 bit pattern.
void PutF64(std::vector<std::uint8_t>* buf, double v);
bool GetU32(std::span<const std::uint8_t> buf, std::size_t* offset,
            std::uint32_t* v);
bool GetU64(std::span<const std::uint8_t> buf, std::size_t* offset,
            std::uint64_t* v);
bool GetF64(std::span<const std::uint8_t> buf, std::size_t* offset,
            double* v);

}  // namespace ceci

#endif  // CECI_UTIL_FRAME_TRANSPORT_H_
