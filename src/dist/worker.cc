#include "dist/worker.h"

#include <unistd.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "ceci/enumerator.h"
#include "ceci/index_io.h"
#include "ceci/query_tree.h"
#include "ceci/symmetry.h"
#include "dist/messages.h"
#include "graphio/pattern_parser.h"
#include "util/frame_transport.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ceci::dist {
namespace {

/// Everything the worker reconstructs from one partition's CEIX image:
/// the supervisor ships no query object, only the pattern text and
/// matching order recorded in the image (the same validation
/// InstallPrebuilt runs, minus the data-graph checks a graph-free
/// process cannot make). One context per partition the worker has
/// touched — its own at startup, a crashed peer's on re-adoption.
struct PartitionContext {
  Graph query;
  QueryTree tree;
  SymmetryConstraints symmetry;
  LoadedFlatIndex loaded;
  std::unique_ptr<Enumerator> enumerator;
  std::uint64_t prev_calls = 0;
};

Status BuildContext(const WorkerOptions& options, std::uint32_t origin,
                    PartitionContext* ctx) {
  const std::string path = PartitionImagePath(options.index_dir, origin);
  IndexLoadOptions load;
  load.use_mmap = options.use_mmap;
  auto loaded = OpenFlatIndex(path, load);
  CECI_RETURN_IF_ERROR(loaded.status());
  if (loaded->pattern.empty()) {
    return Status::InvalidArgument("index image carries no pattern text: " +
                                   path);
  }
  auto query = ParsePattern(loaded->pattern);
  CECI_RETURN_IF_ERROR(query.status());

  const std::span<const VertexId> order = loaded->index.matching_order();
  if (order.empty() ||
      loaded->index.num_query_vertices() != query->num_vertices()) {
    return Status::Corruption("index image order/query size mismatch: " +
                              path);
  }
  // The stored matching order is a topological order of the BFS tree
  // rooted at its first vertex; SetMatchingOrder re-validates that.
  auto tree = QueryTree::Build(query.value(), order[0]);
  CECI_RETURN_IF_ERROR(tree.status());
  CECI_RETURN_IF_ERROR(tree->SetMatchingOrder(
      std::vector<VertexId>(order.begin(), order.end())));

  ctx->query = std::move(query).value();
  ctx->symmetry = options.break_automorphisms
                      ? SymmetryConstraints::Compute(ctx->query)
                      : SymmetryConstraints::None(ctx->query.num_vertices());
  ctx->tree = std::move(tree).value();
  ctx->loaded = std::move(loaded).value();
  EnumOptions enum_options;
  enum_options.symmetry = &ctx->symmetry;
  ctx->enumerator = std::make_unique<Enumerator>(
      ctx->tree, IndexView(ctx->loaded.index), enum_options);
  return Status::Ok();
}

}  // namespace

std::string PartitionImagePath(const std::string& index_dir,
                               std::uint32_t origin) {
  return index_dir + "/part" + std::to_string(origin) + ".ceix";
}

int RunWorker(const WorkerOptions& options) {
  TransportOptions transport;
  transport.io_timeout_seconds = options.io_timeout_seconds;
  FrameChannel channel(options.channel_fd, transport);

  // Contexts are keyed by origin partition and built lazily; addresses
  // must stay stable across inserts (enumerators point into them), hence
  // unique_ptr values.
  std::map<std::uint32_t, std::unique_ptr<PartitionContext>> contexts;
  auto context_for = [&](std::uint32_t origin) -> Result<PartitionContext*> {
    auto it = contexts.find(origin);
    if (it != contexts.end()) return it->second.get();
    auto ctx = std::make_unique<PartitionContext>();
    CECI_RETURN_IF_ERROR(BuildContext(options, origin, ctx.get()));
    PartitionContext* raw = ctx.get();
    contexts.emplace(origin, std::move(ctx));
    return raw;
  };

  // Load this worker's own partition up front so a bad image fails fast.
  // An absent image is legitimate: an empty partition spawned only as a
  // recovery target starts idle and loads peers' images on demand.
  std::uint64_t arena_bytes = 0;
  const std::string own_path =
      PartitionImagePath(options.index_dir, options.worker_id);
  if (::access(own_path.c_str(), F_OK) == 0) {
    auto own = context_for(options.worker_id);
    if (!own.ok()) {
      CECI_LOG(Error) << "worker " << options.worker_id << ": "
                      << own.status().ToString();
      return 2;
    }
    arena_bytes = (*own)->loaded.index.ArenaBytes();
  }

  HelloMsg hello;
  hello.worker_id = options.worker_id;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  hello.arena_bytes = arena_bytes;
  if (Status status = channel.Send(static_cast<std::uint8_t>(MsgType::kHello),
                                   EncodeHello(hello));
      !status.ok()) {
    CECI_LOG(Error) << "worker " << options.worker_id
                    << ": hello failed: " << status.ToString();
    return 1;
  }

  // Result frames are queued and written in batches: before any blocking
  // receive, every kResultBatch results, and once heartbeat_seconds has
  // passed since the last write. The batch rule lets the supervisor refill
  // the window while this worker still has assignments buffered; the time
  // rule keeps a result from waiting more than a heartbeat interval
  // behind a slow unit, so the supervisor's liveness view is unchanged.
  constexpr std::size_t kResultBatch = 64;
  Timer since_flush;
  auto flush = [&]() -> Status {
    since_flush.Reset();
    return channel.Flush();
  };
  auto exit_code_for = [](const Status& status) {
    return status.message().rfind("eof", 0) == 0 ? 0 : 1;
  };

  std::uint64_t units_done = 0;
  for (;;) {
    if (channel.queued_frames() > 0 && !channel.WaitReadable(0.0)) {
      if (Status status = flush(); !status.ok()) return exit_code_for(status);
    }
    auto frame = channel.Recv(options.heartbeat_seconds);
    if (!frame.ok()) {
      if (frame.status().code() == Status::Code::kNotFound) {
        // Idle period elapsed with no assignment: prove liveness.
        HeartbeatMsg beat;
        beat.worker_id = options.worker_id;
        beat.units_done = units_done;
        if (Status status =
                channel.Send(static_cast<std::uint8_t>(MsgType::kHeartbeat),
                             EncodeHeartbeat(beat));
            !status.ok()) {
          return 0;  // supervisor went away; nothing left to report to
        }
        continue;
      }
      // EOF means the supervisor exited (clean teardown closes our end
      // from its side); anything else is a transport fault.
      return exit_code_for(frame.status());
    }

    switch (static_cast<MsgType>(frame->type)) {
      case MsgType::kAssign: {
        auto assign = DecodeAssign(frame->payload);
        if (!assign.ok()) {
          CECI_LOG(Error) << "worker " << options.worker_id << ": "
                          << assign.status().ToString();
          return 1;
        }
        auto ctx = context_for(assign->origin);
        if (!ctx.ok()) {
          CECI_LOG(Error) << "worker " << options.worker_id
                          << ": partition " << assign->origin << ": "
                          << ctx.status().ToString();
          return 2;
        }
        PartitionContext& part = **ctx;
        const double cpu_start = ThreadCpuSeconds();
        ResultMsg result;
        result.unit_id = assign->unit_id;
        result.embeddings =
            part.enumerator->EnumerateFromPrefix(assign->prefix, nullptr);
        result.enum_seconds = ThreadCpuSeconds() - cpu_start;
        result.recursive_calls =
            part.enumerator->stats().recursive_calls - part.prev_calls;
        part.prev_calls = part.enumerator->stats().recursive_calls;
        ++units_done;
        Status status = channel.Queue(
            static_cast<std::uint8_t>(MsgType::kResult), EncodeResult(result));
        if (status.ok() &&
            (channel.queued_frames() >= kResultBatch ||
             since_flush.Seconds() >= options.heartbeat_seconds)) {
          status = flush();
        }
        if (!status.ok()) return exit_code_for(status);
        break;
      }
      case MsgType::kShutdown:
        return 0;
      default:
        CECI_LOG(Error) << "worker " << options.worker_id
                        << ": unexpected frame type "
                        << static_cast<int>(frame->type);
        return 1;
    }
  }
}

}  // namespace ceci::dist
