// Unit tests for the multi-process runtime's plumbing: message codecs
// (dist/messages.h), the framed socket transport (util/frame_transport.h),
// failure-plan JSON parsing (dist/plan_io.h), and child-process management
// (util/subprocess.h) — everything below the supervisor.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include <unistd.h>

#include "dist/messages.h"
#include "dist/plan_io.h"
#include "util/frame_transport.h"
#include "util/subprocess.h"

namespace ceci {
namespace {

using dist::AssignMsg;
using dist::DecodeAssign;
using dist::DecodeHeartbeat;
using dist::DecodeHello;
using dist::DecodeResult;
using dist::EncodeAssign;
using dist::EncodeHeartbeat;
using dist::EncodeHello;
using dist::EncodeResult;
using dist::HeartbeatMsg;
using dist::HelloMsg;
using dist::MsgType;
using dist::ResultMsg;

TEST(MessagesTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.worker_id = 7;
  msg.pid = 123456789;
  msg.arena_bytes = (1ull << 40) + 17;
  auto decoded = DecodeHello(EncodeHello(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->worker_id, msg.worker_id);
  EXPECT_EQ(decoded->pid, msg.pid);
  EXPECT_EQ(decoded->arena_bytes, msg.arena_bytes);
}

TEST(MessagesTest, AssignRoundTripCarriesOriginAndPrefix) {
  AssignMsg msg;
  msg.unit_id = (3ull << 33) + 5;
  msg.origin = 2;
  msg.prefix = {9, 0, 4294967294u};
  auto decoded = DecodeAssign(EncodeAssign(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->unit_id, msg.unit_id);
  EXPECT_EQ(decoded->origin, msg.origin);
  EXPECT_EQ(decoded->prefix, msg.prefix);

  AssignMsg empty;  // an empty prefix (whole-partition unit) is legal
  auto decoded_empty = DecodeAssign(EncodeAssign(empty));
  ASSERT_TRUE(decoded_empty.ok());
  EXPECT_TRUE(decoded_empty->prefix.empty());
}

TEST(MessagesTest, ResultAndHeartbeatRoundTrip) {
  ResultMsg result;
  result.unit_id = 11;
  result.embeddings = 42;
  result.recursive_calls = 1000;
  result.enum_seconds = 0.125;
  auto decoded = DecodeResult(EncodeResult(result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->embeddings, 42u);
  EXPECT_DOUBLE_EQ(decoded->enum_seconds, 0.125);

  HeartbeatMsg beat;
  beat.worker_id = 3;
  beat.units_done = 99;
  auto decoded_beat = DecodeHeartbeat(EncodeHeartbeat(beat));
  ASSERT_TRUE(decoded_beat.ok());
  EXPECT_EQ(decoded_beat->worker_id, 3u);
  EXPECT_EQ(decoded_beat->units_done, 99u);
}

TEST(MessagesTest, DecodersRejectTruncatedAndOverlongPayloads) {
  AssignMsg msg;
  msg.unit_id = 1;
  msg.origin = 1;
  msg.prefix = {1, 2, 3};
  std::vector<std::uint8_t> wire = EncodeAssign(msg);

  std::vector<std::uint8_t> truncated(wire.begin(), wire.end() - 1);
  EXPECT_EQ(DecodeAssign(truncated).status().code(),
            Status::Code::kCorruption);

  std::vector<std::uint8_t> overlong = wire;
  overlong.push_back(0);
  EXPECT_EQ(DecodeAssign(overlong).status().code(),
            Status::Code::kCorruption);

  // A count claiming more vertices than the payload holds must not make
  // the decoder over-read (or over-reserve).
  std::vector<std::uint8_t> lying = wire;
  lying[12] = 0xff;  // count low byte (after u64 unit_id + u32 origin)
  EXPECT_EQ(DecodeAssign(lying).status().code(), Status::Code::kCorruption);

  EXPECT_EQ(DecodeHello(std::vector<std::uint8_t>(3)).status().code(),
            Status::Code::kCorruption);
  EXPECT_EQ(DecodeResult(std::vector<std::uint8_t>(7)).status().code(),
            Status::Code::kCorruption);
  EXPECT_EQ(DecodeHeartbeat(std::vector<std::uint8_t>(1)).status().code(),
            Status::Code::kCorruption);
}

TEST(FrameChannelTest, SendRecvAcrossSocketPair) {
  int a = -1;
  int b = -1;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  FrameChannel left(a);
  FrameChannel right(b);

  HelloMsg hello;
  hello.worker_id = 1;
  ASSERT_TRUE(left.Send(static_cast<std::uint8_t>(MsgType::kHello),
                        EncodeHello(hello))
                  .ok());
  auto frame = right.Recv(1.0);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, static_cast<std::uint8_t>(MsgType::kHello));
  EXPECT_TRUE(DecodeHello(frame->payload).ok());
  EXPECT_EQ(left.frames_sent(), 1u);
  EXPECT_EQ(right.frames_received(), 1u);
}

TEST(FrameChannelTest, ZeroTimeoutRecvDrainsKernelBufferedFrames) {
  int a = -1;
  int b = -1;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  FrameChannel left(a);
  FrameChannel right(b);
  for (std::uint8_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(left.Send(t, std::vector<std::uint8_t>{t}).ok());
  }
  // The supervisor's pump loop is poll() -> Recv(0): a zero timeout must
  // still surface frames the kernel has buffered, not report a timeout.
  for (std::uint8_t t = 1; t <= 3; ++t) {
    auto frame = right.Recv(0.0);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, t);
  }
  EXPECT_EQ(right.Recv(0.0).status().code(), Status::Code::kNotFound);
}

TEST(FrameChannelTest, BufferedFramesSurviveEof) {
  int a = -1;
  int b = -1;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  FrameChannel right(b);
  {
    FrameChannel left(a);
    ASSERT_TRUE(left.Send(9, std::vector<std::uint8_t>{1, 2}).ok());
    ASSERT_TRUE(left.Send(8, std::vector<std::uint8_t>{}).ok());
  }  // left closes -> EOF behind two complete frames
  auto first = right.Recv(1.0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, 9);
  auto second = right.Recv(1.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, 8);
  // Only after the buffer is drained does the EOF surface — this is what
  // lets the supervisor credit a killed worker's final results.
  auto eof = right.Recv(1.0);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().message().rfind("eof", 0), 0u);
}

TEST(FrameChannelTest, OversizeLengthPrefixIsCorruption) {
  int a = -1;
  int b = -1;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  TransportOptions small;
  small.max_frame_bytes = 16;
  FrameChannel left(a);  // default limit: the 17-byte payload sends fine
  FrameChannel right(b, small);
  ASSERT_TRUE(left.Send(1, std::vector<std::uint8_t>(17)).ok());
  EXPECT_EQ(right.Recv(1.0).status().code(), Status::Code::kCorruption);
}

TEST(FrameChannelTest, QueuedFramesArriveInOrderAfterOneFlush) {
  int a = -1;
  int b = -1;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  FrameChannel left(a);
  FrameChannel right(b);
  constexpr int kFrames = 300;
  for (int i = 0; i < kFrames; ++i) {
    ResultMsg result;
    result.unit_id = static_cast<std::uint64_t>(i);
    result.embeddings = static_cast<std::uint64_t>(i) * 7;
    ASSERT_TRUE(left.Queue(static_cast<std::uint8_t>(MsgType::kResult),
                           EncodeResult(result))
                    .ok());
  }
  EXPECT_EQ(left.queued_frames(), static_cast<std::size_t>(kFrames));
  // Nothing is written before the flush.
  EXPECT_EQ(right.Recv(0.0).status().code(), Status::Code::kNotFound);
  ASSERT_TRUE(left.Flush().ok());
  EXPECT_EQ(left.queued_frames(), 0u);
  for (int i = 0; i < kFrames; ++i) {
    auto frame = right.Recv(1.0);
    ASSERT_TRUE(frame.ok()) << "frame " << i;
    ASSERT_EQ(frame->type, static_cast<std::uint8_t>(MsgType::kResult));
    auto result = DecodeResult(frame->payload);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->unit_id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(result->embeddings, static_cast<std::uint64_t>(i) * 7);
  }
  EXPECT_EQ(right.Recv(0.0).status().code(), Status::Code::kNotFound);
  EXPECT_EQ(right.frames_received(), static_cast<std::uint64_t>(kFrames));
}

TEST(FrameChannelTest, CountersAdvanceOnlyAtFlush) {
  int a = -1;
  int b = -1;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  FrameChannel left(a);
  FrameChannel right(b);
  ASSERT_TRUE(left.Queue(1, std::vector<std::uint8_t>{1, 2, 3}).ok());
  ASSERT_TRUE(left.Queue(2, std::vector<std::uint8_t>{}).ok());
  EXPECT_EQ(left.frames_sent(), 0u);
  EXPECT_EQ(left.bytes_sent(), 0u);
  ASSERT_TRUE(left.Flush().ok());
  // Two 5-byte headers plus three payload bytes: the same wire bytes two
  // Sends would have written.
  EXPECT_EQ(left.frames_sent(), 2u);
  EXPECT_EQ(left.bytes_sent(), 13u);
  // An empty flush writes and counts nothing.
  ASSERT_TRUE(left.Flush().ok());
  EXPECT_EQ(left.frames_sent(), 2u);
  EXPECT_EQ(left.bytes_sent(), 13u);
}

TEST(FrameChannelTest, SendAfterQueueDeliversBothInOrder) {
  int a = -1;
  int b = -1;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  FrameChannel left(a);
  FrameChannel right(b);
  ASSERT_TRUE(left.Queue(4, std::vector<std::uint8_t>{44}).ok());
  ASSERT_TRUE(left.Send(5, std::vector<std::uint8_t>{55, 56}).ok());
  EXPECT_EQ(left.frames_sent(), 2u);
  auto first = right.Recv(1.0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, 4);
  EXPECT_EQ(first->payload, std::vector<std::uint8_t>{44});
  auto second = right.Recv(1.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, 5);
  EXPECT_EQ(second->payload, (std::vector<std::uint8_t>{55, 56}));
}

TEST(FrameChannelTest, FlushToClosedPeerReturnsEof) {
  int a = -1;
  int b = -1;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  FrameChannel left(a);
  { FrameChannel right(b); }  // peer hangs up
  ASSERT_TRUE(left.Queue(1, std::vector<std::uint8_t>(64)).ok());
  Status status = left.Flush();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIoError);
  EXPECT_EQ(status.message().rfind("eof", 0), 0u) << status.ToString();
  // The failed flush sent nothing countable and left nothing queued.
  EXPECT_EQ(left.frames_sent(), 0u);
  EXPECT_EQ(left.bytes_sent(), 0u);
  EXPECT_EQ(left.queued_frames(), 0u);
}

TEST(SubprocessTest, SpawnReapAndExitCode) {
  auto child = SpawnWithChannel("/bin/sh", {"-c", "exit 7"});
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  ChildExit exit_info = WaitChild(child->pid);
  EXPECT_TRUE(exit_info.exited);
  EXPECT_EQ(exit_info.exit_code, 7);
  ::close(child->channel_fd);
}

TEST(SubprocessTest, ExecFailureYieldsEofAnd127) {
  auto child = SpawnWithChannel("/nonexistent/binary", {});
  ASSERT_TRUE(child.ok());
  FrameChannel channel(child->channel_fd);
  auto frame = channel.Recv(5.0);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().message().rfind("eof", 0), 0u);
  ChildExit exit_info = WaitChild(child->pid);
  EXPECT_TRUE(exit_info.exited);
  EXPECT_EQ(exit_info.exit_code, 127);
}

TEST(SubprocessTest, SigkillIsReportedAsSignaledAndDeliversEof) {
  // Exec /bin/sleep directly — `sh -c "sleep 30"` is racy here because
  // dash forks the sleep instead of exec'ing it, and a SIGKILL landing
  // after that fork orphans a grandchild that keeps the channel (and
  // the EOF this test waits for) open for the full 30 seconds.
  auto child = SpawnWithChannel("/bin/sleep", {"30"});
  ASSERT_TRUE(child.ok());
  FrameChannel channel(child->channel_fd);
  SignalChild(child->pid, SIGKILL);
  ChildExit exit_info = WaitChild(child->pid);
  EXPECT_TRUE(exit_info.signaled);
  EXPECT_EQ(exit_info.term_signal, SIGKILL);
  // The kill-9 failure-detection signal: EOF on the channel.
  auto frame = channel.Recv(5.0);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().message().rfind("eof", 0), 0u);
}

TEST(PlanIoTest, ParsesFullPlanAndDefaultsEnabled) {
  auto plan = dist::ParseFailurePlanJson(R"({
    "seed": 9,
    "crashes": [{"machine": 1, "at_seconds": 0.002}],
    "stragglers": [{"machine": 2, "slowdown": 4.0}],
    "storage_error_rate": 0.01
  })");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->active());
  EXPECT_EQ(plan->seed, 9u);
  ASSERT_EQ(plan->crashes.size(), 1u);
  EXPECT_EQ(plan->crashes[0].machine, 1u);
  EXPECT_DOUBLE_EQ(plan->crashes[0].at_seconds, 0.002);
  ASSERT_EQ(plan->stragglers.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->stragglers[0].slowdown, 4.0);
  EXPECT_TRUE(plan->Validate(4).ok());
  EXPECT_FALSE(plan->Validate(2).ok());  // straggler machine 2 out of range
}

TEST(PlanIoTest, RejectsMalformedJson) {
  EXPECT_FALSE(dist::ParseFailurePlanJson("{").ok());
  EXPECT_FALSE(dist::ParseFailurePlanJson(R"({"crashes": 3})").ok());
}

}  // namespace
}  // namespace ceci
