// QueryService: a concurrent in-process query frontend with admission
// control over one shared data graph.
//
// A service owns one read-only matcher (CachedMatcher by default, so
// repeated shapes pay only enumeration) and one shared ThreadPool that
// every admitted query's enumeration workers draw from
// (MatchOptions::pool). Admission is budget-denominated: each session
// gets an ExecutionBudget whose deadline covers queue wait + execution,
// so a query that waited too long is terminated with kDeadline *before*
// any matching work runs, and the TerminationReason the client sees is
// always the real one.
//
// Admission policy at Submit():
//   - queue full (>= limits.max_queue waiting)        -> kRejected
//   - queue deep (>= limits.degrade_depth waiting)    -> kDegraded
//       (clamped result limit + tighter deadline; the query still runs)
//   - otherwise                                       -> kAccepted
//
// Shutdown() cancels in-flight queries through a service-wide
// CancellationToken and drains the queue; queued sessions still complete
// (immediately, as kCancelled). See docs/serving.md.
#ifndef CECI_SERVE_QUERY_SERVICE_H_
#define CECI_SERVE_QUERY_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ceci/cached_matcher.h"
#include "ceci/matcher.h"
#include "telemetry/access_log.h"
#include "util/budget.h"
#include "util/sync.h"

namespace ceci {

/// How Submit() classified a request. Serialized on the wire by
/// AdmissionName() and echoed in every response.
enum class Admission {
  kAccepted = 0,  // ran with the request's own limit/deadline
  kDegraded,      // ran with clamped limit and/or tightened deadline
  kRejected,      // never ran: queue was full (or service shutting down)
};

/// Stable lower_snake name ("accepted", "degraded", "rejected").
std::string AdmissionName(Admission admission);

/// Load-shedding thresholds, all counted over *waiting* sessions (queries
/// currently executing do not count against the queue).
struct ServiceLimits {
  /// Concurrent runner threads (queries executing at once).
  std::size_t max_concurrent = 2;
  /// Waiting sessions beyond which Submit() rejects.
  std::size_t max_queue = 16;
  /// Waiting sessions at or beyond which new queries are degraded.
  /// Default never degrades.
  std::size_t degrade_depth = static_cast<std::size_t>(-1);
  /// Deadline applied when the request carries none; 0 = unbounded.
  double default_deadline_seconds = 0.0;
  /// Deadline ceiling for degraded queries; 0 = no tightening.
  double degraded_deadline_seconds = 0.0;
  /// Embedding-limit ceiling for degraded queries; 0 = no clamping.
  std::uint64_t degraded_limit = 0;
};

struct ServiceOptions {
  /// Shared enumeration pool size. 0 = no pool: every query enumerates
  /// on its runner thread alone (threads_per_query is then ignored).
  std::size_t pool_threads = 4;
  /// Enumeration workers per query (worker 0 is the runner thread; the
  /// rest come from the shared pool).
  std::size_t threads_per_query = 2;
  ServiceLimits limits;
  /// Memoize refined indexes per query shape (CachedMatcher). Disable to
  /// benchmark cold-build cost per request.
  bool cache_indexes = true;
  /// Test-only: runs on the runner thread after a session is popped from
  /// the queue, before its queue time is measured. Lets tests hold all
  /// runners on a latch to build deterministic overload.
  std::function<void()> pre_match_hook;
  /// When set, one JSONL record is written per submitted request —
  /// including rejections — keyed by the request id (shared so the
  /// frontend and any embedding process can hold the same log).
  std::shared_ptr<AccessLog> access_log;
};

struct ServeRequest {
  /// Query in the pattern DSL (graphio/pattern_parser.h).
  std::string pattern;
  /// Correlation id echoed in the response, stamped on the access-log
  /// record, and pinned to the session's trace spans (TraceTag). The
  /// frontend assigns one at accept time; Submit() generates one if the
  /// caller left it empty.
  std::string request_id;
  /// Stop after this many embeddings; 0 = all.
  std::uint64_t limit = 0;
  /// Per-request deadline covering queue wait + execution; 0 = use
  /// ServiceLimits::default_deadline_seconds.
  double deadline_seconds = 0.0;
  /// Include index_bytes in the response.
  bool explain = false;
};

struct ServeResponse {
  /// The id the request ran under (see ServeRequest::request_id).
  std::string request_id;
  Admission admission = Admission::kAccepted;
  /// Non-OK for malformed patterns / match errors; rejected requests are
  /// status-OK with admission == kRejected.
  Status status;
  std::uint64_t embeddings = 0;
  /// Truthful: kDeadline includes deadlines that expired in the queue
  /// (match never ran); kCancelled covers service shutdown. Meaningless
  /// for kRejected responses (nothing ran).
  TerminationReason termination = TerminationReason::kCompleted;
  double queue_seconds = 0.0;
  double match_seconds = 0.0;
  double total_seconds = 0.0;
  /// Refined CECI footprint (explain only; 0 otherwise).
  std::size_t index_bytes = 0;
  /// The match ran against a memoized refined index (CachedMatcher hit).
  bool cache_hit = false;
  /// Bytes charged against the session's memory budget during the match.
  std::size_t budget_charged_bytes = 0;
};

/// Multi-threaded query service over one data graph. Thread-safe:
/// Submit() may be called from any number of frontend threads.
class QueryService {
 public:
  /// Largest pattern a session runs, in vertices (and so edges: patterns
  /// are simple graphs). Filtering allocates a row per pattern vertex over
  /// the whole data graph, so a larger one is an error before any work.
  static constexpr std::size_t kMaxQueryVertices = 64;

  /// Starts limits.max_concurrent runner threads and (if pool_threads >
  /// 0) the shared enumeration pool. `data` must outlive the service.
  QueryService(const Graph& data, const ServiceOptions& options);

  /// Joins all runners (equivalent to Shutdown()).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Pre-warms the cache with a prebuilt flat index image (index_io,
  /// written by `ceci_query --save-index`): traffic for the image's
  /// stored pattern skips construction and refinement and enumerates
  /// straight from the (mmap-shared, when `use_mmap`) arena. Requires
  /// cache_indexes; fails with kInvalidArgument otherwise. Call before
  /// serving traffic — installation takes the cache lock but does not
  /// quiesce in-flight queries.
  Status InstallPrebuiltIndex(const std::string& path, bool use_mmap = true);

  /// Admits or rejects `request`; the future resolves when the query
  /// completes (immediately for rejections). Never blocks on query
  /// execution.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Convenience: Submit + wait.
  ServeResponse Execute(ServeRequest request);

  /// Cancels in-flight queries (service-wide CancellationToken), fails
  /// queued ones as kCancelled, and joins every runner. Idempotent.
  void Shutdown();

  /// Waiting sessions (excludes executing ones).
  std::size_t queue_depth() const;
  /// Currently executing queries.
  std::size_t active() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct Session;

  void RunnerLoop();
  void Process(Session& session);

  const Graph& data_;
  ServiceOptions options_;
  std::unique_ptr<ThreadPool> pool_;          // null when pool_threads == 0
  std::unique_ptr<CachedMatcher> cached_;     // exactly one of these two
  std::unique_ptr<CeciMatcher> uncached_;     //   backs the service
  CancellationToken shutdown_token_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<std::unique_ptr<Session>> queue_ CECI_GUARDED_BY(mutex_);
  std::size_t active_ CECI_GUARDED_BY(mutex_) = 0;
  bool stopping_ CECI_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> runners_;  // written only in the constructor
};

}  // namespace ceci

#endif  // CECI_SERVE_QUERY_SERVICE_H_
