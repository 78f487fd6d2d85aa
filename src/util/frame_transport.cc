#include "util/frame_transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <thread>

#include "util/timer.h"

namespace ceci {
namespace {

constexpr std::size_t kHeaderBytes = 5;  // u32 length + u8 type

bool TransientErrno(int err) {
  return err == EINTR || err == EAGAIN || err == EWOULDBLOCK ||
         err == ENOBUFS || err == ENOMEM;
}

void BackoffSleep(double* backoff, const TransportOptions& options) {
  std::this_thread::sleep_for(std::chrono::duration<double>(*backoff));
  *backoff = std::min(*backoff * 2.0, options.max_backoff_seconds);
}

bool PollOne(int fd, short events, double timeout_seconds) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  const int timeout_ms =
      timeout_seconds <= 0.0
          ? 0
          : static_cast<int>(std::min(timeout_seconds * 1000.0, 3.6e6)) + 1;
  int r;
  do {
    r = ::poll(&p, 1, timeout_ms);
  } while (r < 0 && errno == EINTR);
  return r > 0;
}

}  // namespace

FrameChannel::FrameChannel(int fd, const TransportOptions& options)
    : fd_(fd), options_(options) {
  if (fd_ >= 0) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }
}

FrameChannel::~FrameChannel() { Close(); }

FrameChannel::FrameChannel(FrameChannel&& other) noexcept
    : fd_(other.fd_),
      options_(other.options_),
      rx_(std::move(other.rx_)),
      tx_(std::move(other.tx_)),
      tx_frames_(other.tx_frames_),
      status_(std::move(other.status_)),
      frames_sent_(other.frames_sent_),
      frames_received_(other.frames_received_),
      bytes_sent_(other.bytes_sent_),
      bytes_received_(other.bytes_received_) {
  other.fd_ = -1;
  other.tx_frames_ = 0;
}

FrameChannel& FrameChannel::operator=(FrameChannel&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    options_ = other.options_;
    rx_ = std::move(other.rx_);
    tx_ = std::move(other.tx_);
    tx_frames_ = other.tx_frames_;
    status_ = std::move(other.status_);
    frames_sent_ = other.frames_sent_;
    frames_received_ = other.frames_received_;
    bytes_sent_ = other.bytes_sent_;
    bytes_received_ = other.bytes_received_;
    other.fd_ = -1;
    other.tx_frames_ = 0;
  }
  return *this;
}

void FrameChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status FrameChannel::Queue(std::uint8_t type,
                           std::span<const std::uint8_t> payload) {
  if (fd_ < 0) return Status::IoError("send on closed channel");
  if (payload.size() > options_.max_frame_bytes) {
    return Status::InvalidArgument("frame payload exceeds max_frame_bytes");
  }
  PutU32(&tx_, static_cast<std::uint32_t>(payload.size()));
  tx_.push_back(type);
  tx_.insert(tx_.end(), payload.begin(), payload.end());
  ++tx_frames_;
  return Status::Ok();
}

Status FrameChannel::Flush() {
  if (tx_.empty()) return Status::Ok();
  Status status = Status::Ok();
  if (fd_ < 0) status = Status::IoError("send on closed channel");
  Timer deadline;
  double backoff = options_.initial_backoff_seconds;
  std::size_t sent = 0;
  while (status.ok() && sent < tx_.size()) {
    const ssize_t n =
        ::send(fd_, tx_.data() + sent, tx_.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      backoff = options_.initial_backoff_seconds;
      continue;
    }
    const int err = n == 0 ? EIO : errno;
    if (err == EPIPE || err == ECONNRESET) {
      status = Status::IoError("eof: peer closed during send");
    } else if (!TransientErrno(err)) {
      status = Status::IoError(std::string("send: ") + std::strerror(err));
    } else if (deadline.Seconds() > options_.io_timeout_seconds) {
      status = Status::IoError("send: deadline exceeded after retries");
    } else if (err == EAGAIN || err == EWOULDBLOCK) {
      PollOne(fd_, POLLOUT, options_.io_timeout_seconds - deadline.Seconds());
    } else {
      BackoffSleep(&backoff, options_);
    }
  }
  if (status.ok()) {
    frames_sent_ += tx_frames_;
    bytes_sent_ += tx_.size();
  }
  tx_.clear();
  tx_frames_ = 0;
  return status;
}

Status FrameChannel::Send(std::uint8_t type,
                          std::span<const std::uint8_t> payload) {
  CECI_RETURN_IF_ERROR(Queue(type, payload));
  return Flush();
}

bool FrameChannel::FillFromSocket() {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      rx_.insert(rx_.end(), chunk, chunk + n);
      bytes_received_ += static_cast<std::uint64_t>(n);
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
      continue;  // more may be buffered
    }
    if (n == 0) {
      status_ = Status::IoError("eof: peer closed the channel");
      return false;
    }
    const int err = errno;
    if (err == EAGAIN || err == EWOULDBLOCK) return true;
    if (err == EINTR) continue;
    if (err == ECONNRESET) {
      status_ = Status::IoError("eof: connection reset");
      return false;
    }
    status_ = Status::IoError(std::string("recv: ") + std::strerror(err));
    return false;
  }
}

Result<Frame> FrameChannel::Recv(double timeout_seconds) {
  if (fd_ < 0 && rx_.size() < kHeaderBytes) {
    return status_.ok() ? Status::IoError("recv on closed channel") : status_;
  }
  Timer waited;
  for (;;) {
    // A complete frame already buffered is served even after EOF — a
    // killed worker's final results must still be credited (drain-to-EOF
    // exactly-once accounting, docs/robustness.md).
    if (rx_.size() >= kHeaderBytes) {
      std::size_t off = 0;
      std::uint32_t len = 0;
      GetU32(rx_, &off, &len);
      if (len > options_.max_frame_bytes) {
        status_ = Status::Corruption("frame length prefix exceeds limit");
        return status_;
      }
      if (rx_.size() >= kHeaderBytes + len) {
        Frame frame;
        frame.type = rx_[4];
        frame.payload.assign(rx_.begin() + kHeaderBytes,
                             rx_.begin() + kHeaderBytes + len);
        rx_.erase(rx_.begin(), rx_.begin() + kHeaderBytes + len);
        ++frames_received_;
        return frame;
      }
    }
    if (!status_.ok()) return status_;  // EOF/fatal with no full frame left
    if (fd_ < 0) return Status::IoError("recv on closed channel");

    const bool mid_frame = !rx_.empty();
    const double budget =
        mid_frame ? options_.io_timeout_seconds : timeout_seconds;
    const double left = budget - waited.Seconds();
    // Even with an expired (or zero) budget, drain whatever is already
    // readable — a zero-timeout Recv in a poll loop must still surface
    // frames the kernel has buffered.
    if (PollOne(fd_, POLLIN, left > 0.0 ? left : 0.0)) {
      FillFromSocket();  // next iteration parses or surfaces status_
      continue;
    }
    if (left > 0.0) continue;  // poll woke early; re-check the deadline
    // Distinguish "nothing arrived" (not an error) from a frame cut off
    // mid-flight (the peer stalled past the io deadline).
    if (mid_frame) {
      status_ = Status::IoError("recv: partial frame past deadline");
      return status_;
    }
    return Status::NotFound("recv timeout");
  }
}

bool FrameChannel::WaitReadable(double timeout_seconds) const {
  if (rx_.size() >= kHeaderBytes) return true;
  if (fd_ < 0) return false;
  return PollOne(fd_, POLLIN, timeout_seconds);
}

int PollReadable(std::span<const int> fds, double timeout_seconds,
                 std::vector<int>* ready) {
  std::vector<pollfd> pfds;
  pfds.reserve(fds.size());
  for (int fd : fds) {
    if (fd < 0) continue;
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    pfds.push_back(p);
  }
  if (pfds.empty()) return 0;
  const int timeout_ms =
      timeout_seconds <= 0.0
          ? 0
          : static_cast<int>(std::min(timeout_seconds * 1000.0, 3.6e6)) + 1;
  int r;
  do {
    r = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (r < 0 && errno == EINTR);
  if (r <= 0) return 0;
  int count = 0;
  for (const pollfd& p : pfds) {
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      if (ready != nullptr) ready->push_back(p.fd);
      ++count;
    }
  }
  return count;
}

void PutU32(std::vector<std::uint8_t>* buf, std::uint32_t v) {
  buf->push_back(static_cast<std::uint8_t>(v));
  buf->push_back(static_cast<std::uint8_t>(v >> 8));
  buf->push_back(static_cast<std::uint8_t>(v >> 16));
  buf->push_back(static_cast<std::uint8_t>(v >> 24));
}

void PutU64(std::vector<std::uint8_t>* buf, std::uint64_t v) {
  PutU32(buf, static_cast<std::uint32_t>(v));
  PutU32(buf, static_cast<std::uint32_t>(v >> 32));
}

void PutF64(std::vector<std::uint8_t>* buf, double v) {
  PutU64(buf, std::bit_cast<std::uint64_t>(v));
}

bool GetU32(std::span<const std::uint8_t> buf, std::size_t* offset,
            std::uint32_t* v) {
  if (buf.size() < *offset + 4) return false;
  const std::uint8_t* p = buf.data() + *offset;
  *v = static_cast<std::uint32_t>(p[0]) |
       (static_cast<std::uint32_t>(p[1]) << 8) |
       (static_cast<std::uint32_t>(p[2]) << 16) |
       (static_cast<std::uint32_t>(p[3]) << 24);
  *offset += 4;
  return true;
}

bool GetU64(std::span<const std::uint8_t> buf, std::size_t* offset,
            std::uint64_t* v) {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  if (!GetU32(buf, offset, &lo)) return false;
  if (!GetU32(buf, offset, &hi)) return false;
  *v = static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
  return true;
}

bool GetF64(std::span<const std::uint8_t> buf, std::size_t* offset,
            double* v) {
  std::uint64_t bits = 0;
  if (!GetU64(buf, offset, &bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

}  // namespace ceci
